"""Certified interval arithmetic on IEEE double endpoints.

Every operation returns an interval that contains the exact real result for
all points of the input intervals.  Directed rounding is obtained portably by
nudging each computed endpoint one ulp outward with ``math.nextafter``: the
hardware rounds to nearest, so the rounded endpoint is within one ulp of the
exact one and the nudge restores containment.  This costs up to two ulps of
width per operation and needs no fesetround or platform-specific state.

Transcendental enclosures (atan, acos) use the arctangent series with an
explicit remainder term, never libm.  Their kernels do Interval's operations,
outward rounding included, on numpy arrays of endpoints, one interval per
element: results are bit-identical, and a batch of intervals costs one pass.
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

    @classmethod
    def from_strings(cls, lo: str, hi: str) -> "Interval":
        return cls(float(lo), float(hi))

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

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

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

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list:
        """Two decimal strings; repr round-trips doubles exactly."""
        return [repr(self.lo), repr(self.hi)]

    @classmethod
    def from_json(cls, data) -> "Interval":
        lo, hi = data
        return cls(float(lo), float(hi))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Interval):
            return x
        if isinstance(x, (int, float)):
            return Interval(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p1 = self.lo * o.lo
        p2 = self.lo * o.hi
        p3 = self.hi * o.lo
        p4 = self.hi * o.hi
        return Interval(_down(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.lo <= 0.0 <= o.hi:
            raise DomainError("interval division by an interval containing 0")
        q1 = self.lo / o.lo
        q2 = self.lo / o.hi
        q3 = self.hi / o.lo
        q4 = self.hi / o.hi
        return Interval(_down(min(q1, q2, q3, q4)), _up(max(q1, q2, q3, q4)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def square(self) -> "Interval":
        """Tight enclosure of x**2; never dips below 0 for sign-mixed input."""
        if self.lo >= 0.0:
            return Interval(_down(self.lo * self.lo), _up(self.hi * self.hi))
        if self.hi <= 0.0:
            return Interval(_down(self.hi * self.hi), _up(self.lo * self.lo))
        m = max(-self.lo, self.hi)
        return Interval(0.0, _up(m * m))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return ipow(self, n)

    def sqrt(self, clamp_tol: float | None = None) -> "Interval":
        """Certified square root.

        A slightly negative lower endpoint (roundoff from an analytically
        nonnegative quantity) is raised to 0 only when the caller passes an
        explicit clamp tolerance and the endpoint is within it.
        """
        lo = self.lo
        if lo < 0.0:
            if clamp_tol is not None and lo >= -clamp_tol:
                lo = 0.0
            else:
                raise DomainError(f"sqrt of interval with negative lower endpoint {self.lo}")
        if self.hi < 0.0:
            raise DomainError("sqrt of a negative interval")
        # math.sqrt is correctly rounded, so one nudge per endpoint suffices.
        slo = _down(math.sqrt(lo))
        return Interval(max(slo, 0.0), _up(math.sqrt(self.hi)))

    def abs(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return Interval(-self.hi, -self.lo)
        return Interval(0.0, max(-self.lo, self.hi))


def pi_interval() -> Interval:
    """One-ulp float enclosure of pi, derived from the stored rational bracket."""
    return _PI_IV


def _fraction_interval(lo: Fraction, hi: Fraction) -> Interval:
    return Interval(Interval.from_fraction(lo).lo, Interval.from_fraction(hi).hi)


_PI_IV = _fraction_interval(PI_RAT_LO, PI_RAT_HI)


def ipow(a: Interval, b: int) -> Interval:
    """a raised to the integer power b.

    Powers go through repeated interval squaring, which stays correct when a
    straddles 0.
    """
    if not isinstance(b, int):
        raise TypeError("exponent must be an int")
    if b < 0:
        return Interval(1.0) / ipow(a, -b)
    if b == 0:
        return Interval(1.0)
    if b == 1:
        return a
    half = ipow(a, b // 2)
    out = half.square()
    if b % 2:
        out = out * a
    return out


# -- atan/acos, on the endpoint-array kernels --------------------------------


def iatan(x: Interval) -> Interval:
    """Certified arctangent; monotone, so endpoint enclosures suffice."""
    from .endpoints import atan_points

    lo, hi = atan_points([x.lo, x.hi])
    return Interval(lo[0], hi[1])


def iacos(x: Interval) -> Interval:
    """Certified arccosine on (-1, 1] via the half-angle arctangent form."""
    if x.lo <= -1.0 or x.hi > 1.0:
        raise DomainError(f"acos argument out of (-1, 1]: {x!r}")
    from .endpoints import acos_pairs

    lo, hi = acos_pairs(([x.lo], [x.hi]))
    return Interval(lo[0], hi[0])
