"""Analytic upper bounds on binary packing density and their constants.

Covers the equal-disc maximum delta1 = pi/(2*sqrt(3)), the tangent-triangle
bound (one unit disc against two ratio discs, all mutually tangent), the
polygonal bound built from a circumscribed regular heptagon and pentagon,
the ratio where the polygonal bound meets delta1, and the Lipschitz
envelope that extends discrete certified samples to a continuous bound.
Every bound has a plain float form for sweeps and an interval form for
certification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .errors import DomainError
from .intervals import Interval, pi_interval
from .polynomials import Polynomial, checked_root

SQRT3 = math.sqrt(3.0)

# floor/ceil bracket of pi/(2*sqrt(3)) at 40 decimal digits
_DELTA1_LO = Fraction(9068996821171089252970391288210778661420, 10 ** 40)
_DELTA1_HI = Fraction(9068996821171089252970391288210778661421, 10 ** 40)
_DELTA1_IV = Interval.from_fraction(_DELTA1_LO).hull(Interval.from_fraction(_DELTA1_HI))


def delta1() -> float:
    """Maximal density of packings by equal discs."""
    return math.pi / (2.0 * SQRT3)


def delta1_interval() -> Interval:
    return _DELTA1_IV


def _check_ratio(r: float) -> None:
    if not 0.0 < r <= 1.0:
        raise DomainError(f"ratio must lie in (0, 1], got {r}")


def florian_angles(r: float) -> tuple[float, float]:
    """Angles of the tangent triangle: at the unit disc and at either ratio
    disc.  They satisfy alpha + 2*beta = pi, a triangle angle sum."""
    _check_ratio(r)
    b = 1.0 + r
    alpha = math.acos(1.0 - 2.0 * r * r / (b * b))
    beta = math.acos(r / b)
    return alpha, beta


def florian_bound(r: float) -> float:
    """Density of the triangle on mutually tangent discs 1, r, r.

    Triangle sides 2r, 1+r, 1+r; the covered part is the three disc sectors
    at its vertices; the area comes from Heron's formula.
    """
    alpha, beta = florian_angles(r)
    a, b = 2.0 * r, 1.0 + r
    s = 0.5 * (a + b + b)
    area = math.sqrt(s * (s - a) * (s - b) * (s - b))
    return (alpha / 2.0 + beta * r * r) / area


def florian_enclosures(rs: Sequence[Interval]) -> list[Interval | DomainError]:
    """Enclosures of the triangle bound over each ratio interval of rs.

    The bound's interval formula runs once, on endpoint arrays, with both
    acos arguments in one call.  Each element is bit-identical to the same
    formula on Interval objects.  Where that formula raises DomainError, the
    element is that error, with its message, and the element's later steps
    run on stand-in values.  The checks are the ratio range and the two acos
    arguments: the first acos argument rounds past 1 unless r.lo > 5e-9, so
    past them the area divisor is positive and every value is finite.
    """
    import numpy as np  # on first use, see endpoints

    from .endpoints import (ONE, TWO, acos_pairs, add_pairs, div_pairs, mul_pairs,
                            sqrt_pairs, square_pairs, sub_pairs)

    lo = np.array([r.lo for r in rs], dtype=float)
    hi = np.array([r.hi for r in rs], dtype=float)
    errors: list[DomainError | None] = [None] * len(rs)

    def screen(bad, message):
        # record the error of each element that fails first here; the mask
        # of every element failed so far
        for i in np.flatnonzero(bad):
            errors[i] = errors[i] or DomainError(message(i))
        return np.array([e is not None for e in errors], dtype=bool)

    def stand_in(pair, failed, value):
        return tuple(np.where(failed, value, end) for end in pair)

    failed = screen(~((0.0 < lo) & (hi <= 1.0)),
                    lambda i: f"ratio interval must lie in (0, 1], got {rs[i]}")
    r = stand_in((lo, hi), failed, 0.5)
    b = add_pairs(ONE, r)
    rsq = square_pairs(r)
    args = (sub_pairs(ONE, div_pairs(mul_pairs(TWO, rsq), square_pairs(b))), div_pairs(r, b))
    for xlo, xhi in args:
        failed = screen((xlo <= -1.0) | (xhi > 1.0), lambda i: (
            f"acos argument out of (-1, 1]: {Interval(xlo[i], xhi[i])!r}"))
    alo, ahi = acos_pairs(stand_in(tuple(map(np.concatenate, zip(*args))),
                                   np.concatenate([failed, failed]), 0.5))
    n = len(rs)
    alpha, beta = (alo[:n], ahi[:n]), (alo[n:], ahi[n:])
    r = stand_in(r, failed, 0.5)
    area = mul_pairs(r, sqrt_pairs(add_pairs(mul_pairs(TWO, r), ONE)))
    flo, fhi = div_pairs(add_pairs(div_pairs(alpha, TWO), mul_pairs(beta, rsq)), area)
    return [e or Interval(a, z) for e, a, z in zip(errors, flo.tolist(), fhi.tolist())]


def florian_interval(r: Interval) -> Interval:
    """Enclosure of the triangle bound over a whole ratio interval."""
    (out,) = florian_enclosures([r])
    if isinstance(out, DomainError):
        raise out
    return out


BLIND_MIN_RATIO = 0.6735


def _blind_tangents() -> tuple[float, float]:
    return 7.0 * math.tan(math.pi / 7.0), 5.0 * math.tan(math.pi / 5.0)


def blind_bound(r: float) -> float:
    """Polygonal bound: unit disc in a regular heptagon, ratio disc in a
    regular pentagon, each circumscribed; valid from 0.6735 up to 1."""
    if not BLIND_MIN_RATIO <= r <= 1.0:
        raise DomainError(f"polygonal bound needs {BLIND_MIN_RATIO} <= r <= 1, got {r}")
    t7, t5 = _blind_tangents()
    return math.pi * (1.0 + r * r) / (t7 + t5 * r * r)


# n -> (ascending integer coefficients of the minimal polynomial of
# tan(pi/n)**2, bracket holding exactly that root): the other roots are
# tan(k*pi/n)**2 for k = 2, 3 (n = 7) and k = 2 (n = 5), all above 1.5
TANGENT_TABLE: dict[int, tuple[tuple[int, ...], tuple[float, float]]] = {
    7: ((-7, 35, -21, 1), (0.2319141134796165, 0.23191411347961655)),
    5: ((5, -10, 1), (0.5278640450004205, 0.5278640450004207)),
}


@cache
def _tangent_intervals() -> tuple[Interval, Interval]:
    """Enclosures of t7 = 7*tan(pi/7) and t5 = 5*tan(pi/5), as n times the
    square root of the checked root of tan(pi/n)**2's minimal polynomial."""
    t7, t5 = (Interval(n) * checked_root(f"tan(pi/{n})**2", Polynomial(coeffs),
                                         Interval(*bracket), 0.0).sqrt()
              for n, (coeffs, bracket) in TANGENT_TABLE.items())
    # monotonicity of the bound in r**2 rests on t5 > t7; certify it here
    if not t5.lo > t7.hi:
        raise ArithmeticError("tangent constants violate expected ordering")
    return t7, t5


def blind_interval(r: Interval) -> Interval:
    """Enclosure of the polygonal bound over a ratio interval.

    With s = r**2 the bound is pi*(1+s)/(t7+t5*s), which is strictly
    decreasing in s because t5 > t7 (derivative sign pi*(t7-t5)/den**2),
    so evaluating the two endpoints encloses the whole image without the
    dependency widening of a naive interval evaluation.
    """
    if not (BLIND_MIN_RATIO <= r.lo and r.hi <= 1.0):
        raise DomainError(f"polygonal bound needs ratio within [{BLIND_MIN_RATIO}, 1], got {r}")
    t7, t5 = _tangent_intervals()
    pi_iv = pi_interval()
    one = Interval(1.0, 1.0)

    def at(x: float) -> Interval:
        rsq = Interval(x, x).square()
        return pi_iv * (one + rsq) / (t7 + t5 * rsq)

    return at(r.lo).hull(at(r.hi))


def r_blind() -> float:
    """Ratio where the polygonal bound equals delta1, in closed form."""
    t7, t5 = _blind_tangents()
    t6 = 6.0 * math.tan(math.pi / 6.0)
    return math.sqrt((t7 - t6) / (t6 - t5))


# ---------------------------------------------------------------------------
# discrete samples and the Lipschitz envelope


@dataclass(frozen=True)
class BoundSample:
    """One certified point: value is a proven upper bound on density at r."""

    r: float
    value: float


def suspicious_samples(samples: Sequence[BoundSample]) -> list[BoundSample]:
    """Samples claiming an upper bound below delta1, which cannot be correct
    (the hexagonal packing of equal discs exists at every ratio)."""
    base = delta1()
    return [s for s in samples if s.value < base]


def samples_to_csv(samples: Sequence[BoundSample]) -> str:
    lines = ["r,value"]
    lines += [f"{s.r!r},{s.value!r}" for s in samples]
    return "\n".join(lines) + "\n"


def samples_from_csv(text: str) -> list[BoundSample]:
    """Samples from ``r,value`` rows under the ``r,value`` header that
    samples_to_csv writes; a missing header or a row with a non-finite r or
    value raises ValueError."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if lines and lines[0] != "r,value":
        raise ValueError(f"first line must be the header 'r,value', got {lines[0]!r}")
    out = []
    for line in lines[1:]:
        r, value = (float(field) for field in line.split(","))
        if not (math.isfinite(r) and math.isfinite(value)):
            raise ValueError(f"non-finite sample row {line!r}")
        out.append(BoundSample(r, value))
    return out


def lipschitz_slope(hi: float) -> float:
    """Bound on |ddelta/dr| between two ratios whose larger value is hi."""
    return math.pi / (hi * hi * SQRT3)


# fine points per block of lipschitz_envelope: its caps are block x samples
# arrays, so memory stays flat however many points are asked for.  With the
# 346 samples of a 0.002 sweep, 32 rows keep each array near 90 kB; at 64
# rows (177 kB) each array was mapped and unmapped afresh, and the envelope
# took twice as long.
ENVELOPE_BLOCK = 32


def lipschitz_envelope(samples: Sequence[BoundSample],
                       r: float | Sequence[float]) -> float | list[float]:
    """Upper bound at r propagated from certified samples.

    Between ratios x < y the density changes by at most pi/(y^2*sqrt(3))
    per unit of ratio, so each sample caps the value at any other r; the
    envelope is the least such cap.  Given a sequence of ratios, returns
    the list of envelope values at them.

    Each cap is s.value + lipschitz_slope(max(r, s.r)) * abs(r - s.r) in
    double arithmetic, element by element.  The caps are evaluated with
    numpy for ENVELOPE_BLOCK ratios against all samples at a time, and each
    ratio takes the least cap of its row.  A nan cap is passed over, so
    only nan caps give inf.
    """
    import numpy as np  # on first use, see endpoints

    if not samples:
        raise DomainError("envelope needs at least one sample")
    rs = np.array([s.r for s in samples], dtype=float)
    values = np.array([s.value for s in samples], dtype=float)
    xs = np.array(r, dtype=float).reshape(-1, 1)
    out = []
    for start in range(0, len(xs), ENVELOPE_BLOCK):
        x = xs[start:start + ENVELOPE_BLOCK]
        caps = values + lipschitz_slope(np.maximum(x, rs)) * np.abs(x - rs)
        out += np.fmin.reduce(caps, axis=1, initial=math.inf).tolist()
    return out if np.ndim(r) else out[0]
