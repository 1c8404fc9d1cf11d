"""Univariate polynomials over exact rationals, and checked roots.

Coefficients are ``fractions.Fraction`` in ascending degree order.
``checked_root`` first proves that a stored bracket holds exactly one simple
root; it certifies the critical radii and the polygonal bound's constants.
It then bisects the bracket in double precision with ``intervals.narrow``,
but evaluates the polynomial exactly at each (rational-valued) float
midpoint, so every sign decision is exact and the bracket signs stay
trustworthy all the way down to a width of a few ulp.
"""

from fractions import Fraction

from .intervals import Interval, narrow


class Polynomial:
    """Dense univariate polynomial with Fraction coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if not any(self.coeffs):
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            coef = "" if (mag == 1 and k > 0) else str(mag)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = f"{coef}x" if coef else "x"
            else:
                term = f"{coef}x^{k}" if coef else f"x^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    # -- evaluation --------------------------------------------------------

    def eval_exact(self, x) -> Fraction:
        """Horner evaluation over Fractions.  Floats are taken at face value
        (every double is a rational), so the result sign is exact."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_range(self, lo, hi) -> tuple[Fraction, Fraction]:
        """Exact interval Horner evaluation over [lo, hi]: each step takes
        the min and max of the four products of the running range and the
        ends, then adds the coefficient, all over Fractions.  The result
        encloses p on [lo, hi], and lies inside the outward-rounded float
        evaluation of the same steps."""
        lo, hi = Fraction(lo), Fraction(hi)
        a = b = Fraction(0)
        for c in reversed(self.coeffs):
            products = (a * lo, a * hi, b * lo, b * hi)
            a, b = min(products) + c, max(products) + c
        return a, b

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])


def checked_root(name: str, p: Polynomial, bracket: Interval, tol: float) -> Interval:
    """Enclosure, width <= tol, of the one simple root of p in bracket.

    Two exact checks prove the bracket holds exactly one simple root: p has
    strictly opposite signs at the endpoints, and an interval enclosure of
    its derivative over the bracket excludes 0.  Both run over rationals:
    the enclosure is ``eval_range``, so no rounding enters either check.
    Raises ValueError naming the constant if either check fails.
    """
    at_hi = p.eval_exact(bracket.hi)
    if p.eval_exact(bracket.lo) * at_hi >= 0:
        raise ValueError(f"{name} polynomial does not change sign across {bracket!r}")
    low, high = p.derivative().eval_range(bracket.lo, bracket.hi)
    if low <= 0 <= high:
        raise ValueError(f"{name} polynomial may have several roots in {bracket!r}: "
                         f"its derivative is not bounded away from 0 there")
    sign = 1 if at_hi > 0 else -1
    return Interval(*narrow(lambda x: sign * p.eval_exact(x), bracket.lo, bracket.hi, tol))
