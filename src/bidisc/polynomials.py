"""Univariate polynomials over exact rationals, with exact-sign bisection.

Coefficients are ``fractions.Fraction`` in ascending degree order.
Refinement bisects in double precision but evaluates the polynomial exactly
at each (rational-valued) float midpoint, so every sign decision is exact and
the bracket signs stay trustworthy all the way down to a width of a few ulp.
"""

from fractions import Fraction

from .intervals import Interval


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


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

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def eval_interval(self, x: Interval) -> Interval:
        acc = Interval(0.0)
        for c in reversed(self.coeffs):
            acc = acc * x + Interval.from_fraction(Fraction(c))
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list:
        return [[c.numerator, c.denominator] for c in self.coeffs]


def refine_root(p: Polynomial, bracket: Interval, tol: float) -> Interval:
    """Bisect a bracket across which p changes sign down to width <= tol.

    Signs are decided by exact rational evaluation, so the result still
    brackets a sign change of p.  If an endpoint or a bisection midpoint is
    an exact root the degenerate point interval is returned.
    """
    lo = bracket.lo
    hi = bracket.hi
    slo = _sign(p.eval_exact(lo))
    if slo == 0:
        return Interval(lo, lo)
    if _sign(p.eval_exact(hi)) == 0:
        return Interval(hi, hi)
    while hi - lo > tol:
        m = 0.5 * (lo + hi)
        if m <= lo or m >= hi:
            break
        sm = _sign(p.eval_exact(m))
        if sm == 0:
            return Interval(m, m)
        if sm == slo:
            lo = m
        else:
            hi = m
    return Interval(lo, hi)
