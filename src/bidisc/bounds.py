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
from typing import Sequence

from .errors import DomainError
from .intervals import Interval, iacos, itan, pi_interval

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


def florian_interval(r: Interval) -> Interval:
    """Enclosure of the triangle bound over a whole ratio interval."""
    if not (0.0 < r.lo and r.hi <= 1.0):
        raise DomainError(f"ratio interval must lie in (0, 1], got {r}")
    one = Interval(1.0, 1.0)
    b = one + r
    rsq = r.square()
    alpha = iacos(one - Interval(2.0, 2.0) * rsq / b.square())
    beta = iacos(r / b)
    area = r * (Interval(2.0, 2.0) * r + one).sqrt()
    return (alpha / Interval(2.0, 2.0) + beta * rsq) / area


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


_TANGENT_IVS: tuple[Interval, Interval] | None = None


def _tangent_intervals() -> tuple[Interval, Interval]:
    global _TANGENT_IVS
    if _TANGENT_IVS is None:
        pi_iv = pi_interval()
        t7 = Interval(7.0, 7.0) * itan(pi_iv / Interval(7.0, 7.0))
        t5 = Interval(5.0, 5.0) * itan(pi_iv / Interval(5.0, 5.0))
        # monotonicity of the bound in r**2 rests on t5 > t7; certify it here
        if not t5.lo > t7.hi:
            raise ArithmeticError("tangent constants violate expected ordering")
        _TANGENT_IVS = (t7, t5)
    return _TANGENT_IVS


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
    t7 = 7.0 * math.tan(math.pi / 7.0)
    t6 = 6.0 * math.tan(math.pi / 6.0)
    t5 = 5.0 * math.tan(math.pi / 5.0)
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


def lipschitz_envelope(samples: Sequence[BoundSample],
                       r: float | Sequence[float]) -> float | list[float]:
    """Upper bound at r propagated from certified samples.

    Between ratios x < y the density changes by at most pi/(y^2*sqrt(3))
    per unit of ratio, so each sample caps the value at any other r; the
    envelope is the least such cap.  Given a sequence of ratios, returns
    the list of envelope values at them.

    Each cap is s.value + lipschitz_slope(max(r, s.r)) * abs(r - s.r) in
    double arithmetic, evaluated with numpy over all samples at once.  A nan
    cap is passed over, so only nan caps give inf.
    """
    # imported on use: a module-level import loads numpy ahead of the rest
    # of the package, which raised the peak memory of whole runs by 0.1-0.4 MB
    import numpy as np

    if not samples:
        raise DomainError("envelope needs at least one sample")
    rs = np.array([s.r for s in samples], dtype=float)
    values = np.array([s.value for s in samples], dtype=float)

    def at(x: float) -> float:
        hi = np.maximum(x, rs)
        caps = values + math.pi / (hi * hi * SQRT3) * np.abs(x - rs)
        return float(np.fmin.reduce(caps, initial=math.inf))

    if np.ndim(r):
        return [at(x) for x in r]
    return at(r)


def best_upper(r: float, samples: Sequence[BoundSample] = ()) -> tuple[float, str]:
    """Least applicable upper bound at r with the name of its source."""
    _check_ratio(r)
    candidates = [(florian_bound(r), "florian")]
    if BLIND_MIN_RATIO <= r <= 1.0:
        candidates.append((blind_bound(r), "blind"))
    if samples:
        candidates.append((lipschitz_envelope(samples, r), "envelope"))
    return min(candidates, key=lambda c: c[0])
