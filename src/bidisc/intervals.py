"""Certified intervals on IEEE double endpoints.

``Interval`` is a value type: a closed interval [lo, hi] with finite double
ends, built exactly or, by ``from_fraction``, as the tightest interval
around a rational.  It has no arithmetic.  The one rounded arithmetic is the
pair operations of ``bidisc.endpoints``, which run on numpy arrays of
endpoints; ``tests/interval_oracle.py`` keeps the operators this class once
had as their reference, and every pair operation is ``repr``-equal to it.

``narrow`` is the package's one bracket-halving loop: the critical radii, the
upper-bound dichotomy and the crossings with a density level all use it.
"""

import math
from fractions import Fraction

from .errors import DomainError

_INF = math.inf

# High-precision rational brackets for the constants the enclosures need.
# Width 1e-40, far below the 1e-30 target; the float intervals derived from
# them are one ulp wide.
PI_RAT_LO = Fraction(31415926535897932384626433832795028841971, 10**40)
PI_RAT_HI = Fraction(31415926535897932384626433832795028841972, 10**40)


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class Interval:
    """Closed interval [lo, hi] with finite double endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("interval endpoints must be finite")
        if lo > hi:
            raise DomainError(f"interval endpoints out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    @classmethod
    def from_fraction(cls, value: Fraction) -> "Interval":
        """Tightest interval around an exact rational."""
        x = float(value)
        fx = Fraction(x)
        if fx == value:
            return cls(x, x)
        if fx < value:
            return cls(x, _up(x))
        return cls(_down(x), x)

    # -- accessors ---------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __contains__(self, x) -> bool:
        if isinstance(x, Interval):
            return self.lo <= x.lo and x.hi <= self.hi
        return self.lo <= x <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"


def narrow(side, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve the float bracket [lo, hi] until it is at most tol wide.

    ``side(m)`` places the midpoint m: below 0 moves lo to m, above 0 moves
    hi to m, and 0 (an exact hit) returns ``(m, m)``.  The loop also stops
    once the float midpoint is no longer strictly inside the bracket, so
    ``tol=0.0`` narrows to adjacent floats.  The ends may be infinite, which
    is why the result is a tuple and not an Interval.
    """
    while hi - lo > tol:
        m = 0.5 * (lo + hi)
        if m <= lo or m >= hi:
            break
        s = side(m)
        if s < 0:
            lo = m
        elif s > 0:
            hi = m
        else:
            return m, m
    return lo, hi


def pi_interval() -> Interval:
    """One-ulp float enclosure of pi, derived from the stored rational bracket."""
    return _PI_IV


def _fraction_interval(lo: Fraction, hi: Fraction) -> Interval:
    return Interval(Interval.from_fraction(lo).lo, Interval.from_fraction(hi).hi)


_PI_IV = _fraction_interval(PI_RAT_LO, PI_RAT_HI)
