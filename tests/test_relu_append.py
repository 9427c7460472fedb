"""The zone ReLU transfer against the generator route it replaced.

``network._relu_append`` writes the tightest zone of the ReLU image of a
closed zone entry by entry.  The layer chain used to get that zone by
taking the zone's n + 1 generators, appending their clamped copies and
reading the zone of the result back off (``zone_to_internal``,
``relu_extend``, ``internal_to_zone``); that route is the reference here.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import network
from troprelu.dbm import Box, Dbm, dbm_box, dbm_close, dbm_contains
from troprelu.layers import AffineLayer, zone_constants
from troprelu.network import relu_extend
from troprelu.tropical import internal_to_zone, zone_to_internal

from reference import best_zone_of_points

N_ZONES = 300


def random_closed_zone(rng, integer: bool):
    """A closed zone around a random point cloud, some entries loosened and
    closed again, plus the cloud (which it contains)."""
    n = int(rng.integers(1, 7))
    pts = rng.normal(0.0, 2.0, size=(int(rng.integers(1, 6)), n))
    slack = rng.exponential(1.0, size=(n + 1, n + 1))
    if integer:
        pts, slack = np.round(pts), np.round(slack)
    e = best_zone_of_points(pts).entries + slack * (rng.random((n + 1, n + 1)) < 0.4)
    np.fill_diagonal(e, 0.0)
    zone = dbm_close(Dbm(e))
    assert isinstance(zone, Dbm)
    return zone, pts


def cases():
    rng = np.random.default_rng(11)
    for k in range(N_ZONES):
        zone, pts = random_closed_zone(rng, integer=k % 2 == 1)
        n = zone.dim
        hs = list(rng.permutation(n)[: int(rng.integers(1, n + 1))])
        yield zone, pts, hs


def samples(zone, pts, rng, count=40):
    """Points of the zone: the cloud, the generators, and random tropical
    and convex combinations of both."""
    gens = zone_to_internal(zone, eps=0.0).generators
    lam = -rng.exponential(1.0, size=(count, gens.shape[0]))
    lam[np.arange(count), rng.integers(0, gens.shape[0], count)] = 0.0
    trop = (gens[None, :, :] + lam[:, :, None]).max(axis=1)
    base = np.vstack([pts, gens])
    w = rng.dirichlet(np.ones(base.shape[0]), size=count)
    return np.vstack([base, trop, w @ base])


class TestReluAppend:
    def test_matches_generator_route(self):
        for zone, _, hs in cases():
            got = network._relu_append(zone, hs)
            ref = internal_to_zone(relu_extend(zone_to_internal(zone), hs)).entries
            assert got.closed
            assert np.allclose(got.entries, ref, rtol=1e-12, atol=1e-12), (zone.entries, hs)

    def test_closed_as_it_stands(self):
        # closing again moves entries by rounding only, as it does the input
        for zone, _, hs in cases():
            got = network._relu_append(zone, hs)
            again = dbm_close(Dbm(got.entries))
            assert np.allclose(again.entries, got.entries, rtol=1e-12, atol=1e-12)

    def test_contains_clamped_samples(self):
        rng = np.random.default_rng(5)
        for zone, pts, hs in cases():
            xs = samples(zone, pts, rng)
            assert dbm_contains(zone, xs, eps=1e-9).all()
            ext = np.hstack([xs, np.maximum(xs[:, hs], 0.0)])
            got = network._relu_append(zone, hs)
            assert dbm_contains(got, ext, eps=1e-9).all()

    @pytest.mark.parametrize("hs", [[0], [1, 0], [0, 1, 2]])
    def test_box_image(self, hs):
        # on a box, y = max(0, h) and y - h = max(-h, 0) take the
        # intervals of those functions of h's interval [lo, hi]
        lo, hi = np.array([-1.0, -3.0, 0.5]), np.array([2.0, -1.0, 4.0])
        e = np.zeros((4, 4))
        e[1:, 0], e[0, 1:] = hi, -lo
        e[1:, 1:] = hi[:, None] - lo[None, :]
        np.fill_diagonal(e, 0.0)
        got = network._relu_append(Dbm(e, closed=True), hs).entries
        for i, h in enumerate(hs):
            y = 4 + i
            assert got[y, 0] == max(0.0, hi[h]) and got[0, y] == -max(0.0, lo[h])
            assert got[y, h + 1] == max(0.0, -lo[h]) and got[h + 1, y] == min(0.0, hi[h])


def closed_zone_stack(rng, integer: bool, count: int = 3) -> Dbm:
    """``count`` closed zones of ``random_closed_zone`` of one dimension,
    stacked."""
    zones = [random_closed_zone(rng, integer)[0]]
    while len(zones) < count:
        zone, _ = random_closed_zone(rng, integer)
        if zone.dim == zones[0].dim:
            zones.append(zone)
    return Dbm(np.stack([z.entries for z in zones]), closed=True)


class TestKeptSlots:
    """``_relu_append(zone, hs, n_keep)`` is the whole image sliced to the
    first n_keep variables and the copies, bit for bit (signed zeros too),
    on one zone and on a stack."""

    @pytest.mark.parametrize("stack", [False, True])
    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_whole_image_sliced(self, seed, integer, stack):
        rng = np.random.default_rng(seed)
        zone = closed_zone_stack(rng, integer) if stack else random_closed_zone(rng, integer)[0]
        n = zone.dim
        hs = rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist()
        for n_keep in range(n + 1):
            slots = np.r_[0 : 1 + n_keep, 1 + n : 1 + n + len(hs)]
            want = network._relu_append(zone, hs).entries[..., slots[:, None], slots]
            got = network._relu_append(zone, hs, n_keep)
            assert got.closed
            assert got.entries.shape == want.shape
            assert got.entries.tobytes() == want.tobytes()

    @pytest.mark.parametrize("act", [False, True])
    @pytest.mark.parametrize("track_all", [False, True])
    def test_zone_step_slices_the_whole_image(self, act, track_all):
        # a step from a carried zone over (x, h1): kept is x, or with
        # track_all every carried slot; the next zone is the whole image
        # of the pre-activation zone on (kept, post), or (kept, pre)
        rng = np.random.default_rng(7)
        box = Box(rng.uniform(-2, 0, 5), rng.uniform(0, 2, 5))
        zone = dbm_close(Dbm(np.minimum(box.to_dbm().entries, 0.5 + rng.exponential(1.0, (6, 6)))))
        cur = [2, 3, 4]
        bounds = dbm_box(zone)
        layer = AffineLayer(rng.standard_normal((4, 3)), rng.standard_normal(4), Box(bounds.lo[cur], bounds.hi[cur]))
        kept = list(range(5 if track_all else 2))
        nxt, pre_zone = network._zone_step(zone, cur, layer, zone_constants(layer), act, kept, 0.0)
        pre = list(range(5, 9))
        whole = network._relu_append(pre_zone, pre) if act else pre_zone
        tail = [i + 4 for i in pre] if act else pre
        assert nxt.entries.tobytes() == whole.slice([i + 1 for i in kept + tail]).entries.tobytes()
