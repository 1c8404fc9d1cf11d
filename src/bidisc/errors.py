"""Exception types shared across the package."""


class BidiscError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BidiscError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NoConvergence(BidiscError, RuntimeError):
    """Newton iteration stalled, ran out of iterations or took a non-finite step."""


class NoSolution(BidiscError, ValueError):
    """A geometric construction has no solution for the given data."""


class InvalidPacking(BidiscError, ValueError):
    """A built periodic configuration fails the non-overlap check."""


class RecipeError(BidiscError, ValueError):
    """A flow recipe file is malformed or internally inconsistent."""


class DepthExceeded(BidiscError, RuntimeError):
    """Interval certification hit its depth cap with unproven leaves.

    Carries the root ``TraceNode`` of the bisection tree (failing leaves
    marked) as ``trace``.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
