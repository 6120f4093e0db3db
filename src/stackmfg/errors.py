"""Exception types shared across the solver."""


class StackMFGError(Exception):
    """Base class for all library errors."""


class GridSizeError(StackMFGError):
    """Requested simplex grid would exceed the configured point cap."""


class OffSimplexError(StackMFGError):
    """Query point is not a probability vector within tolerance."""


class ZeroProbabilityAction(StackMFGError):
    """Bayes update conditioned on a leader action with zero public probability."""


class NoEquilibriumError(StackMFGError):
    """No stage fixed point found for any enumerated leader prescription.

    Carries the stage index and public state where the search failed, and
    names them in its text.
    """

    def __init__(self, message, t=None, pi=None, z=None):
        super().__init__(message)
        self.t = t
        self.pi = pi
        self.z = z

    def __str__(self):
        return f"{super().__str__()} at t={self.t}, pi={self.pi}, z={self.z}"


class NonConvergenceError(StackMFGError):
    """Stationary value iteration did not reach tolerance; carries delta history."""

    def __init__(self, message, deltas=None):
        super().__init__(message)
        self.deltas = list(deltas) if deltas is not None else []


class NonFiniteValues(StackMFGError, ValueError):
    """A solve produced value tables with a non-finite entry."""


class EnumerationTooLarge(StackMFGError):
    """Brute-force profile enumeration would exceed the configured cap."""


class UncheckableProfile(StackMFGError, ValueError):
    """The solver's profile is mixed or leaves the grid, so the oracle cannot check it."""
