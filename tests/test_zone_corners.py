"""A 2-d zone's corners, as ``--csv`` prints them, at every magnitude.

``cli._zone2d_corners`` takes the zone's three max-plus extreme points
(``tropical._zone_points``) and its three min-plus ones (the negated
points of its transpose).  Closure puts all six inside the zone, so
nothing is filtered; points within eps, relative to magnitude, merge.  At
ordinary magnitudes the printed rows are those of the earlier routine
(``reference.reference_zone2d_corners``), whose absolute 1e-9 tests
dropped true corners and kept ulp-apart duplicates from about 1e9 on.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from troprelu import Network, serialize_sherlock
from troprelu.cli import _zone2d_corners, run_cli
from troprelu.maxplus import DEFAULT_EPS

from reference import best_zone_of_points, reference_zone2d_corners


def rows(corners):
    return [f"{u + 0.0:.12g},{v + 0.0:.12g}" for u, v in corners]


def point_sets(sizes=(5,), count=500):
    """``count`` sets of each size of ``default_rng(1)`` points in [-1, 1]^2;
    every other set of two is a diagonal segment."""
    rng = np.random.default_rng(1)
    for k in sizes:
        for i in range(count):
            p = rng.uniform(-1, 1, (k, 2))
            if k == 2 and i % 2:
                p[1] = p[0] + rng.uniform(-1, 1)
            yield p


def assert_inside(corners, e):
    """Each corner meets the zone's six bounds within eps (1 + |v|)."""
    for u, v in corners:
        tol = DEFAULT_EPS * (1.0 + max(abs(u), abs(v)))
        assert -e[0, 1] - tol <= u <= e[1, 0] + tol
        assert -e[0, 2] - tol <= v <= e[2, 0] + tol
        assert u - v <= e[1, 2] + tol and v - u <= e[2, 1] + tol


@pytest.mark.parametrize("scale", [1e9, 1e12, 1e15])
def test_large_zones_keep_their_corner_count(scale):
    for p in point_sets():
        want = len(_zone2d_corners(best_zone_of_points(p).entries, DEFAULT_EPS))
        e = best_zone_of_points(scale * p).entries
        corners = _zone2d_corners(e, DEFAULT_EPS)
        assert len(corners) == want
        assert_inside(corners, e)


def test_ordinary_zones_print_the_reference_rows():
    for p in point_sets(sizes=(1, 2, 3, 5)):
        e = best_zone_of_points(p).entries
        corners = _zone2d_corners(e, DEFAULT_EPS)
        assert rows(corners) == rows(reference_zone2d_corners(e))
        assert_inside(corners, e)


def test_corners_run_counterclockwise_without_negative_zeros():
    e = best_zone_of_points([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]).entries
    corners = _zone2d_corners(e, DEFAULT_EPS)
    assert rows(corners) == ["0,0", "1,0", "1,1"]
    assert not any(np.signbit(c).any() for c in corners)


def corner_rows(tmp_path, net, s):
    (tmp_path / "net.nt").write_text(serialize_sherlock(net))
    spec = {"input_box": [[-s, s], [-s / 2, s]], "assertions": []}
    (tmp_path / "box.spec").write_text(json.dumps(spec))
    csv = tmp_path / "proj.csv"
    args = ["--network", str(tmp_path / "net.nt"), "--spec", str(tmp_path / "box.spec")]
    assert run_cli(args + ["--no-final-relu", "--csv", f"y1,y2:{csv}"]) == 0
    return [line for line in csv.read_text().splitlines() if line.startswith("zone_corner")]


def test_cli_prints_as_many_corners_at_1e12_as_at_1(tmp_path, capsys):
    # with the earlier routine 15 of these nets printed another number of rows at 1e12
    rng = np.random.default_rng(4)
    for _ in range(40):
        net = Network((rng.uniform(-1, 1, (2, 2)),), (rng.uniform(-1, 1, 2),), final_relu=False)
        assert len(corner_rows(tmp_path, net, 1e12)) == len(corner_rows(tmp_path, net, 1.0))
