"""Analytic upper bounds on binary packing density and their constants.

Covers the equal-disc maximum delta1 = pi/(2*sqrt(3)), the tangent-triangle
bound (one unit disc against two ratio discs, all mutually tangent), the
polygonal bound built from a circumscribed regular heptagon and pentagon,
the ratio where the polygonal bound meets delta1, and the Lipschitz
envelope that extends discrete certified samples to a continuous bound.
The bounds are certified in interval form, each on a batch of ratio
intervals in one pass over endpoint arrays; the tangent-triangle bound also
has a float form, which gives the dichotomy its default upper start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np

from .endpoints import (ONE, TWO, acos_pairs, add_pairs, div_pairs, mul_pairs,
                        sqrt_pairs, square_pairs, sub_pairs)
from .errors import DomainError
from .intervals import Interval, pi_interval
from .kernels import row_blocks
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


BLIND_MIN_RATIO = 0.6735


# n -> (ascending integer coefficients of the minimal polynomial of
# tan(pi/n)**2, bracket holding exactly that root): the other roots are
# tan(k*pi/n)**2 for k = 2, 3 (n = 7) and k = 2 (n = 5), all above 1.5
TANGENT_TABLE: dict[int, tuple[tuple[int, ...], tuple[float, float]]] = {
    7: ((-7, 35, -21, 1), (0.2319141134796165, 0.23191411347961655)),
    5: ((5, -10, 1), (0.5278640450004205, 0.5278640450004207)),
}


def _pair(iv: Interval) -> tuple[float, float]:
    return iv.lo, iv.hi


@cache
def _tangent_intervals() -> tuple[Interval, Interval]:
    """Enclosures of t7 = 7*tan(pi/7) and t5 = 5*tan(pi/5), as n times the
    square root of the checked root of tan(pi/n)**2's minimal polynomial."""
    enclosures = []
    for n, (coeffs, bracket) in TANGENT_TABLE.items():
        root = checked_root(f"tan(pi/{n})**2", Polynomial(coeffs), Interval(*bracket), 0.0)
        enclosures.append(Interval(*mul_pairs((n, n), sqrt_pairs(_pair(root)))))
    t7, t5 = enclosures
    # monotonicity of the bound in r**2 rests on t5 > t7; certify it here
    if not t5.lo > t7.hi:
        raise ArithmeticError("tangent constants violate expected ordering")
    return t7, t5


def blind_enclosures(rs: Sequence[Interval]) -> list[Interval | DomainError]:
    """Enclosures of the polygonal bound over each ratio interval of rs: unit
    disc in a regular heptagon, ratio disc in a regular pentagon, each
    circumscribed; valid from 0.6735 up to 1.

    With s = r**2 the bound is pi*(1+s)/(t7+t5*s), which is strictly
    decreasing in s because t5 > t7 (derivative sign pi*(t7-t5)/den**2),
    so the hull of its enclosures at the two ends of r encloses the whole
    image without the dependency widening of a naive interval evaluation.
    Both ends of every interval go through one pass on endpoint arrays, and
    the hull takes their min and max without a nudge.  An interval outside
    [0.6735, 1] gets its DomainError in place of an enclosure.
    """
    lo = np.array([r.lo for r in rs], dtype=float)
    hi = np.array([r.hi for r in rs], dtype=float)
    bad = ~((BLIND_MIN_RATIO <= lo) & (hi <= 1.0))
    # a failed element's ends are evaluated at the stand-in 1.0
    x = np.where(np.concatenate([bad, bad]), 1.0, np.concatenate([lo, hi]))
    t7, t5 = map(_pair, _tangent_intervals())
    rsq = square_pairs((x, x))
    vlo, vhi = div_pairs(mul_pairs(_pair(pi_interval()), add_pairs(ONE, rsq)),
                         add_pairs(t7, mul_pairs(t5, rsq)))
    n = len(rs)
    flo = np.minimum(vlo[:n], vlo[n:]).tolist()
    fhi = np.maximum(vhi[:n], vhi[n:]).tolist()
    return [DomainError(f"polygonal bound needs ratio within [{BLIND_MIN_RATIO}, 1], got {r}")
            if failed else Interval(a, z)
            for r, failed, a, z in zip(rs, bad.tolist(), flo, fhi)]


def r_blind_interval() -> Interval:
    """Enclosure of the ratio where the polygonal bound equals delta1.

    pi cancels from blind(r) <= delta1 = pi/t6, with t6 = 6*tan(pi/6) =
    2*sqrt(3): it holds exactly when t6*(1 + r**2) <= t7 + t5*r**2, so the
    crossing is sqrt((t7 - t6)/(t6 - t5)).  Both differences are negative,
    as t7 < t6 < t5, so the quotient is positive.
    """
    t7, t5 = map(_pair, _tangent_intervals())
    t6 = sqrt_pairs((12.0, 12.0))
    return Interval(*sqrt_pairs(div_pairs(sub_pairs(t7, t6), sub_pairs(t6, t5))))


# ---------------------------------------------------------------------------
# discrete samples and the Lipschitz envelope


@dataclass(frozen=True)
class BoundSample:
    """One certified point: value is a proven upper bound on density at r."""

    r: float
    value: float


def suspicious_samples(samples: Sequence[BoundSample]) -> list[BoundSample]:
    """Samples claiming an upper bound below delta1.  A certifier bounds
    packings that mix both disc sizes, so its value below delta1, as the
    blind bound's on [r_blind, 1], proves that none beats the hexagonal
    packing; a sample read from a file makes that claim unproven."""
    base = delta1()
    return [s for s in samples if s.value < base]


def samples_from_csv(text: str) -> list[BoundSample]:
    """Samples from ``r,value`` rows under an ``r,value`` header, the format
    of ``upper --samples``; a missing header or a row with a non-finite r or
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


# fine points, and caps, per block of lipschitz_envelope: every array of a
# block then stays under 128 kB.  Arrays above that size are mapped and
# unmapped afresh by malloc: an envelope whose blocks held 177 kB arrays
# took twice as long as one whose arrays held 90 kB.
ENVELOPE_BLOCK = 4096


def lipschitz_envelope(samples: Sequence[BoundSample],
                       r: float | Sequence[float]) -> float | list[float]:
    """Upper bound at r propagated from certified samples.

    Between ratios x < y the density changes by at most pi/(y^2*sqrt(3))
    per unit of ratio, so each sample caps the value at any other r; the
    envelope is the least such cap.  Given a sequence of ratios, returns
    the list of envelope values at them.

    Each cap is s.value + lipschitz_slope(max(r, s.r)) * abs(r - s.r) in
    double arithmetic, element by element.  A nan cap is passed over, so
    only nan caps give inf.

    A point x is evaluated only against a window of the samples sorted by
    r, and gets the same float as against all of them.  The window starts
    at x's two neighbouring samples, whose least cap is c, and widens until
    a bound at each of its edges exceeds c:

    - every cap left of x (s.r <= x) has the slope s(x) at x, so with P
      the least value of the samples up to an edge e (nan values passed
      over), P + s(x)*abs(x - r_e) bounds every cap at or beyond e;
    - every cap right of x has the slope at its own r, which is at least
      the slope s_max at the largest r when no r is negative (else 0
      bounds it), so with S the least value from e on, S + s_max*abs(x -
      r_e) bounds every cap at or beyond e.

    The bounds take the caps' own float operations, each of which is
    monotone, so an excluded cap exceeds c, and so the window's minimum.
    A point whose c is inf (or not a number) keeps every sample.  The caps
    are evaluated with numpy, ENVELOPE_BLOCK points and ENVELOPE_BLOCK
    caps at a time (or one point whose window is larger).
    """
    if not samples:
        raise DomainError("envelope needs at least one sample")
    rs = np.array([s.r for s in samples], dtype=float)
    values = np.array([s.value for s in samples], dtype=float)
    if not np.all(rs[:-1] <= rs[1:]):
        order = np.argsort(rs)
        rs, values = rs[order], values[order]
    n = len(rs)
    prefix = np.fmin.accumulate(values)
    suffix = np.fmin.accumulate(values[::-1])[::-1]
    least = lipschitz_slope(rs[-1]) if rs[0] >= 0.0 and rs[-1] > 0.0 else 0.0

    def caps(x, j):
        return values[j] + lipschitz_slope(np.maximum(x, rs[j])) * np.abs(x - rs[j])

    xs = np.array(r, dtype=float).ravel()
    out = []
    for start in range(0, len(xs), ENVELOPE_BLOCK):
        x = xs[start:start + ENVELOPE_BLOCK]
        p = np.searchsorted(rs, x, "right")            # rs[:p] <= x < rs[p:]
        every = np.arange(len(x))
        lo, hi = np.maximum(p, 1) - 1, np.minimum(p, n - 1) + 1
        slope = lipschitz_slope(np.maximum(x, rs[lo]))  # s(x) where p > 0
        c = np.fmin(values[lo] + slope * np.abs(x - rs[lo]), caps(x, hi - 1))
        whole = ~(c < math.inf)
        lo[whole], hi[whole] = 0, n

        # widen by 1, 2, 4, ... samples while an edge's bound is not above c
        k, width = every[lo > 0], 1
        while k.size:
            e = lo[k] - 1
            k = k[~(prefix[e] + slope[k] * np.abs(x[k] - rs[e]) > c[k])]
            lo[k] = np.maximum(lo[k] - width, 0)
            k, width = k[lo[k] > 0], 2 * width
        k, width = every[hi < n], 1
        while k.size:
            e = hi[k]
            k = k[~(suffix[e] + least * np.abs(x[k] - rs[e]) > c[k])]
            hi[k] = np.minimum(hi[k] + width, n)
            k, width = k[hi[k] < n], 2 * width

        # the windows' caps as flat rows, ENVELOPE_BLOCK at a time
        for pt, k, first in row_blocks(hi - lo, ENVELOPE_BLOCK):
            cap = caps(x[pt], lo[pt] + k)
            out += np.fmin(np.fmin.reduceat(cap, first), math.inf).tolist()
    return out if np.ndim(r) else out[0]
