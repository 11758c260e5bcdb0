"""Exception types shared across the package."""


class FuzzyTrustError(Exception):
    """Base class for all package-specific errors."""


class MissingInputError(FuzzyTrustError):
    """An inference call omitted one or more declared input variables."""


class DegenerateOutputError(FuzzyTrustError):
    """No rule fired: the aggregated output has zero area, so no crisp
    value exists.  Raised instead of returning an arbitrary default."""


class EmptyDataError(FuzzyTrustError):
    """A data matrix with zero rows was supplied."""


class TooFewPointsError(FuzzyTrustError):
    """Fewer data points than requested clusters."""


class NonFiniteDataError(FuzzyTrustError):
    """NaN or infinity found in input data."""


class InvalidModelError(FuzzyTrustError):
    """A cluster model has the wrong shape for the requested operation."""


class ZeroTotalRequestsError(FuzzyTrustError):
    """Trust is undefined for a user with no requests in the window."""


class OutOfRangeError(FuzzyTrustError):
    """A scalar argument fell outside its documented domain."""


class LineError(FuzzyTrustError):
    """An error at one line of a file, named by file and 1-based ``line``,
    or at the whole file if ``line`` is None."""

    def __init__(self, path, line: int | None, message: str):
        super().__init__(f"{path}, line {line}: {message}" if line is not None else f"{path}: {message}")
        self.line = line


class ParseError(LineError):
    """A malformed row of an input CSV."""


class EmptyWindowError(FuzzyTrustError):
    """No log entries fell inside the requested time window."""


class InvalidSpecError(FuzzyTrustError):
    """A corpus specification violates its invariants."""


class NotFoundError(FuzzyTrustError):
    """No record stored for the requested subject."""


class StoreCorruptError(LineError):
    """An unreadable line in a trust store or feedback ledger."""


class NoTrustAvailableError(FuzzyTrustError):
    """A decision was requested for a subject with no stored trust and
    no fresh behavior counters."""


class ModelLoadFailureError(FuzzyTrustError):
    """A model artifact is missing or partial; the service refuses to start."""
