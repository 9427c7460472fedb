"""Exception hierarchy for troprelu.

All library errors derive from :class:`TropReluError` so callers can catch
one base class.  Emptiness of a zone is *not* an error (it is a value, see
``dbm.EMPTY``); these exceptions signal contract violations or unusable
inputs.
"""


class TropReluError(Exception):
    """Base class for all troprelu errors."""


class DimensionMismatch(TropReluError):
    """Operands have incompatible dimensions or variable orderings."""


class UnboundedVariable(TropReluError):
    """A box was requested from a zone with an infinite bound."""


class EmptyInput(TropReluError):
    """An operation that needs at least one element got none."""


class EmptyGenerators(TropReluError):
    """A tropical polyhedron in internal form has no generators."""


class NotClosed(TropReluError):
    """A DBM that must be closed is not."""


class InfiniteEntry(TropReluError):
    """A DBM entry is infinite where a finite value is required."""


class InvalidInterval(TropReluError):
    """An interval [a, b] with a > b or non-finite endpoints."""


class InvalidTolerance(TropReluError):
    """A comparison tolerance eps is negative, infinite or not a number."""


class BadIndex(TropReluError):
    """A coordinate / dimension index is out of range."""


class InvalidDomain(TropReluError):
    """An analysis option or a grid is malformed, or a grid does not fit its layer or box."""


class CellBudgetExceeded(TropReluError):
    """A subdivision grid has more cells than ``subdivision.CELL_BUDGET``."""


class EmptyAbstraction(TropReluError):
    """An abstraction of a nonempty box came out empty.

    This signals an internal soundness bug: abstractions of nonempty input
    boxes are never empty.
    """


class EmptyFeasibleSet(TropReluError):
    """The feasible set of a linear program is empty."""


class VariableMismatch(TropReluError):
    """An assertion's variables do not match the analysis result."""


class InvalidObjective(TropReluError):
    """A linear objective has a NaN or infinite coefficient."""


class MalformedFile(TropReluError):
    """A network file does not follow the expected format."""


class EmptyFile(TropReluError):
    """A network file contains no tokens."""
