"""The reference formulas that the endpoint-array arithmetic must reproduce.

``bidisc.intervals.Interval`` is a value type; its rounded arithmetic is the
pair operations of ``bidisc.endpoints``.  The ``Interval`` below is that
value type with the arithmetic it once had, kept here verbatim as the
oracle: every pair operation, and every formula built from them, must give
``repr``-equal results, element by element.  ``Polynomial.eval_interval``
and the polygonal bound's ``blind_interval`` are kept here on it too.
"""

import math
from fractions import Fraction

from bidisc import intervals
from bidisc.bounds import BLIND_MIN_RATIO, _tangent_intervals
from bidisc.errors import DomainError

_INF = math.inf


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class Interval(intervals.Interval):
    """``bidisc.intervals.Interval`` with its outward-rounded operators."""

    __slots__ = ()

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

    def square(self) -> "Interval":
        """Tight enclosure of x**2; never dips below 0 for sign-mixed input."""
        if self.lo >= 0.0:
            return Interval(_down(self.lo * self.lo), _up(self.hi * self.hi))
        if self.hi <= 0.0:
            return Interval(_down(self.hi * self.hi), _up(self.lo * self.lo))
        m = max(-self.lo, self.hi)
        return Interval(0.0, _up(m * m))

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


def ref(iv: intervals.Interval) -> Interval:
    """The oracle's form of a value-type interval."""
    return Interval(iv.lo, iv.hi)


def eval_interval(p, x: Interval) -> Interval:
    """Interval Horner evaluation of a ``Polynomial`` over x."""
    acc = Interval(0.0)
    for c in reversed(p.coeffs):
        acc = acc * x + Interval.from_fraction(Fraction(c))
    return acc


def blind_interval(r: intervals.Interval) -> Interval:
    """The polygonal bound pi*(1 + r**2)/(t7 + t5*r**2) at both ends of r,
    hulled: the formula ``bounds.blind_enclosures`` evaluates on pairs."""
    if not (BLIND_MIN_RATIO <= r.lo and r.hi <= 1.0):
        raise DomainError(f"polygonal bound needs ratio within [{BLIND_MIN_RATIO}, 1], got {r}")
    t7, t5 = map(ref, _tangent_intervals())
    pi_iv = ref(intervals.pi_interval())
    one = Interval(1.0, 1.0)

    def at(x: float) -> Interval:
        rsq = Interval(x, x).square()
        return pi_iv * (one + rsq) / (t7 + t5 * rsq)

    return at(r.lo).hull(at(r.hi))
