"""Exception hierarchy shared by every subsystem, and what a message may echo."""


def excerpt(text: str) -> str:
    """``repr(text)``, or past 80 characters its first and last 40 around an
    ellipsis: all that an error message echoes of an input."""
    return repr(text) if len(text) <= 80 else f"{text[:40]!r}...{text[-40:]!r}"


class FoliatkError(Exception):
    """Base class for all errors raised by this package."""


class VariableSetError(FoliatkError):
    """Malformed variable set, unknown variable, or variable-set mismatch."""


class ChartMismatchError(FoliatkError):
    """Two objects that must live on the same chart do not."""


class MetricError(FoliatkError):
    """Metric data violates its invariants (symmetry, inverse pairing, positivity)."""


class PreconditionError(FoliatkError):
    """An operation was called with inputs that violate its stated preconditions."""


class AmbiguousQuotientError(FoliatkError):
    """A quotient-space re-expression is not unique within the computed presentation."""


class InternalCheckError(FoliatkError):
    """A consequence guaranteed by theory failed to verify; indicates a bug, never bad input."""


class FlowDivergedError(FoliatkError):
    """A numeric trajectory produced a non-finite state."""


class DigitLimitError(FoliatkError):
    """A computed value has more digits than ``sys.get_int_max_str_digits()``
    lets a report print."""


class ParseError(FoliatkError):
    """Expression syntax error; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SceneError(FoliatkError):
    """Scene file failed validation."""
