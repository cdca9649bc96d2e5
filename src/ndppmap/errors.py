"""Exception hierarchy shared across the package."""


class NdppError(Exception):
    """Base class for all package errors."""


class DomainError(NdppError, ValueError):
    """Invalid argument: bad index set, mismatched support, negative input, ..."""


class CapacityError(NdppError):
    """Requested exact computation exceeds the desk-scale cap."""


class InfeasibilityError(NdppError):
    """The distribution has no positive mass on the requested region."""


class ConditioningError(NdppError):
    """Conditioning on a set with (numerically) singular principal submatrix."""

    def __init__(self, msg, det=None):
        super().__init__(msg)
        self.det = det


class IncompleteSearchError(NdppError):
    """Local search hit its iteration cap; carries the best set seen so far."""

    def __init__(self, msg, best_set=None, best_value=None, trace=None):
        super().__init__(msg)
        self.best_set = best_set
        self.best_value = best_value
        self.trace = trace


class TrappedStateError(NdppError):
    """A walk up-step found no positive-mass superset; carries the stuck set."""

    def __init__(self, msg, state=None):
        super().__init__(msg)
        self.state = state
