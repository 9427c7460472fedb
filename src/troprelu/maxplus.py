"""Max-plus (tropical) semiring scalars.

The semiring is (R ∪ {-inf}, max, +): tropical addition is ``max``,
tropical multiplication is ordinary ``+``.  Neutral elements are
``BOTTOM = -inf`` for max and ``UNIT = 0.0`` for +, and ``-inf`` is
absorbing for +.

Scalars are plain IEEE-754 doubles; ``-inf`` is the bottom element.
``+inf`` never appears in tropical data (it is reserved for missing DBM
constraints).  With that convention, float arithmetic realises the
semiring directly: ``-inf + x == -inf`` and ``max(-inf, x) == x``.

Comparisons take a tolerance eps, ``DEFAULT_EPS`` unless given; ``check_eps``
holds the one rule for it, shared by the library and the CLI.
"""

from __future__ import annotations

import math
import numbers

from .errors import InvalidTolerance

BOTTOM = float("-inf")
UNIT = 0.0

#: Default comparison tolerance for float equality in memberships and tests.
#: The analyses are not exact-rational; this knob is surfaced everywhere a
#: membership or equality decision is made.
DEFAULT_EPS = 1e-9


def check_eps(eps, name: str = "eps") -> None:
    """Raise InvalidTolerance unless ``eps`` is a finite number >= 0: an
    infinite one would verify any assertion, a negative one empties sound
    abstractions."""
    if not (isinstance(eps, numbers.Real) and math.isfinite(eps) and eps >= 0):
        raise InvalidTolerance(f"{name} must be a finite number >= 0, got {eps}")
