"""Sound range analysis of ReLU networks via tropical polyhedra and zones."""

from .dbm import (
    Box,
    Dbm,
    EMPTY,
    OctDbm,
    dbm_box,
    dbm_close,
    dbm_contains,
)
from .layers import (
    AffineLayer,
    OctAbsConstants,
    ZoneAbsConstants,
    oct_constants,
    zone_constants,
    zone_dbm,
    zone_external,
    zone_internal,
)
from .maxplus import BOTTOM, DEFAULT_EPS, UNIT
from .network import (
    AbsDomain,
    AnalysisOptions,
    AnalysisResult,
    ChainMode,
    Network,
    analyze,
    relu_extend,
    relu_external,
)
from .sherlock import parse_sherlock, serialize_sherlock, write_sherlock
from .speccheck import (
    LinearAssertion,
    Verdict,
    VerdictStatus,
    check,
    check_with_subdivision,
    min_over_zone,
)
from .subdivision import (
    SubdivisionGrid,
    subdivide_constraints,
)
from .tropical import (
    TropExternal,
    TropInternal,
    external_membership_many,
    extreme_filter,
    internal_membership_many,
    internal_to_zone,
    proj_internal,
    zone_to_internal,
)

__all__ = [
    "Box",
    "Dbm",
    "EMPTY",
    "OctDbm",
    "dbm_box",
    "dbm_close",
    "dbm_contains",
    "AffineLayer",
    "OctAbsConstants",
    "ZoneAbsConstants",
    "oct_constants",
    "zone_constants",
    "zone_dbm",
    "zone_external",
    "zone_internal",
    "BOTTOM",
    "DEFAULT_EPS",
    "UNIT",
    "AbsDomain",
    "AnalysisOptions",
    "AnalysisResult",
    "ChainMode",
    "Network",
    "analyze",
    "relu_extend",
    "relu_external",
    "parse_sherlock",
    "serialize_sherlock",
    "write_sherlock",
    "LinearAssertion",
    "Verdict",
    "VerdictStatus",
    "check",
    "check_with_subdivision",
    "min_over_zone",
    "SubdivisionGrid",
    "subdivide_constraints",
    "TropExternal",
    "TropInternal",
    "external_membership_many",
    "extreme_filter",
    "internal_membership_many",
    "internal_to_zone",
    "proj_internal",
    "zone_to_internal",
]
__version__ = "0.1.0"
