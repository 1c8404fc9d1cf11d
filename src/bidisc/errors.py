"""Exception types shared across the package; a failed certification is not one."""


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
