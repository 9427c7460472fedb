"""Max-plus (tropical) semiring scalars.

The semiring is (R ∪ {-inf}, max, +): tropical addition is ``max``,
tropical multiplication is ordinary ``+``.  Neutral elements are
``BOTTOM = -inf`` for max and ``UNIT = 0.0`` for +, and ``-inf`` is
absorbing for +.

Scalars are plain IEEE-754 doubles; ``-inf`` is the bottom element.
``+inf`` never appears in tropical data (it is reserved for missing DBM
constraints).  With that convention, float arithmetic realises the
semiring directly: ``-inf + x == -inf`` and ``max(-inf, x) == x``.
"""

from __future__ import annotations

BOTTOM = float("-inf")
UNIT = 0.0

#: Default comparison tolerance for float equality in memberships and tests.
#: The analyses are not exact-rational; this knob is surfaced everywhere a
#: membership or equality decision is made.
DEFAULT_EPS = 1e-9

