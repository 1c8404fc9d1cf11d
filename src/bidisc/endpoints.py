"""The package's rounded arithmetic: intervals as numpy arrays of endpoints.

An interval is a pair (lo, hi) of float64 arrays, one interval per
element, or of floats, for a single or a point interval.  Every result
contains the exact real result for all points of its operands.  Directed
rounding is obtained portably by nudging each computed endpoint one ulp
outward with ``nextafter``: the hardware rounds to nearest, so the rounded
endpoint is within one ulp of the exact one and the nudge restores
containment.  This costs up to two ulps of width per operation and needs no
fesetround or platform-specific state, and a batch of intervals costs one
pass of numpy calls.

The reference for each operation is the interval operator of the same name
in ``tests/interval_oracle.py``: the same products, min/max and nudges in
the same order, so every element is ``repr``-equal to it.  The transcendental
kernels (atan, acos) run the arctangent series with an explicit remainder
term, never libm, on these operations.  Domain checks are left to the
caller: ``bounds.florian_enclosures`` and ``bounds.blind_enclosures`` make
them.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .intervals import Interval

_INF = math.inf

_ATAN_TERMS = 14
_ATAN_COEFFS = [Interval.from_fraction(Fraction((-1) ** i, 2 * i + 1))
                for i in range(_ATAN_TERMS)]
# float endpoints in Horner order: the last coefficient starts the sum
_ATAN_LAST, *_ATAN_HORNER = [(c.lo, c.hi) for c in reversed(_ATAN_COEFFS)]

ONE, TWO = (1.0, 1.0), (2.0, 2.0)


def _outward(lo, hi):
    return np.nextafter(lo, -_INF), np.nextafter(hi, _INF)


def _hull4(p1, p2, p3, p4):
    return _outward(np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)),
                    np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)))


def add_pairs(a, b):
    return _outward(a[0] + b[0], a[1] + b[1])


def sub_pairs(a, b):
    return _outward(a[0] - b[1], a[1] - b[0])


def mul_pairs(a, b):
    (alo, ahi), (blo, bhi) = a, b
    return _hull4(alo * blo, alo * bhi, ahi * blo, ahi * bhi)


def div_pairs(a, b):
    """Quotients; no divisor may contain 0."""
    (alo, ahi), (blo, bhi) = a, b
    return _hull4(alo / blo, alo / bhi, ahi / blo, ahi / bhi)


def square_pairs(a):
    # three cases: the upper end is max(lo*lo, hi*hi) in each, and the
    # lower end is 0 where the interval straddles 0
    lo, hi = a
    p, q = lo * lo, hi * hi
    low = np.nextafter(np.minimum(p, q), -_INF)
    return np.where((lo < 0.0) & (hi > 0.0), 0.0, low), np.nextafter(np.maximum(p, q), _INF)


def sqrt_pairs(a):
    """Square roots; every lower end must be >= 0."""
    return (np.maximum(np.nextafter(np.sqrt(a[0]), -_INF), 0.0),
            np.nextafter(np.sqrt(a[1]), _INF))


def atan_points(x):
    """Enclosures (lo, hi) of atan at each point of the float sequence x.

    atan(t) = 2*atan(t / (1 + sqrt(1 + t^2))) three times brings x into
    |t| < tan(pi/16) < 0.2, where 14 series terms leave a tail below
    |t|^29/29, taken with Python's ``**`` one element at a time.  Each step
    runs the pair operations of that formula in their order.  A non-finite endpoint anywhere
    raises ``DomainError``; a step's upper end rises through all its
    operations (whose divisors and radicands are >= 1), so testing it once
    per step covers them.
    """
    x = np.asarray(x, dtype=float)
    t = (x, x)
    with np.errstate(over="ignore"):  # an overflow raises DomainError below
        for _ in range(3):
            d = add_pairs(ONE, sqrt_pairs(add_pairs(square_pairs(t), ONE)))
            if not np.all(d[1] < _INF):
                raise DomainError("interval endpoints must be finite")
            t = div_pairs(t, d)
    z = square_pairs(t)
    acc = _ATAN_LAST
    for c in _ATAN_HORNER:
        acc = add_pairs(mul_pairs(acc, z), c)
    tmax = np.maximum(-t[0], t[1]).tolist()
    n = 2 * _ATAN_TERMS + 1
    rem = np.nextafter(np.array([v ** n for v in tmax]) / n, _INF)
    return mul_pairs(add_pairs(mul_pairs(t, acc), (-rem, rem)), (8.0, 8.0))


def acos_pairs(x):
    """Enclosures of acos on intervals x = (lo, hi) within (-1, 1], by the
    half-angle arctangent form; all 2n ends go through one atan_points call."""
    x = np.asarray(x[0], dtype=float), np.asarray(x[1], dtype=float)
    num = sub_pairs(ONE, x)
    den = add_pairs(ONE, x)
    # where num.lo < 0, it is raised to 0 (num.hi > 0, as x.lo <= 1);
    # num >= 0 and den > 0, so the quotient is >= 0, and only the outward
    # nudge of an exact zero (at x = 1) takes its lower end below 0, which
    # the sqrt clamp raises to 0 again
    q = div_pairs((np.maximum(num[0], 0.0), num[1]), den)
    lo, hi = sqrt_pairs((np.maximum(q[0], 0.0), q[1]))
    n = len(lo)
    a, b = atan_points(np.concatenate([lo, hi]))
    return mul_pairs((a[:n], b[n:]), TWO)
