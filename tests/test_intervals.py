"""Enclosure properties of the interval arithmetic.

The pair operations of ``bidisc.endpoints`` are the arithmetic.  Their
results are checked against exact Fraction computation, the transcendental
functions against mpmath at 60 digits.  Every double is an exact rational,
so "the true value lies inside the interval" is decidable.  Every pair
operation and kernel must also be ``repr``-equal to the operators of the
oracle ``interval_oracle.Interval``.  ``narrow``, the one bracket-halving
loop, is checked bit for bit against the three loops it replaced.
"""

import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bidisc import harness
from bidisc.bounds import TANGENT_TABLE, delta1, florian_bound, florian_enclosures
from bidisc.endpoints import (ONE, TWO, acos_pairs, add_pairs, atan_points, div_pairs,
                              mul_pairs, sqrt_pairs, square_pairs, sub_pairs)
from bidisc.errors import DomainError
from bidisc.flows import find_crossings
from bidisc.harness import _DELTA_HI_HEADROOM, _DELTA_LO_OFFSET, _PRECISION, _dichotomy
from bidisc.intervals import Interval, narrow, pi_interval
from bidisc.polynomials import Polynomial, checked_root
from bidisc.ratios import RATIO_TABLE
from interval_oracle import Interval as RefInterval, ref

mpmath.mp.dps = 60

RNG = np.random.default_rng(20240817)


def rand_values(n, lo=-40.0, hi=40.0):
    return RNG.uniform(lo, hi, size=n)


def contains_fraction(iv: Interval, value: Fraction) -> bool:
    return Fraction(iv.lo) <= value <= Fraction(iv.hi)


def intervals_of(pair):
    """The Intervals of a pair of endpoint arrays, element by element."""
    return [Interval(a, b) for a, b in zip(np.asarray(pair[0]).tolist(),
                                           np.asarray(pair[1]).tolist())]


def contains_mp(iv: Interval, value) -> bool:
    return mpmath.mpf(iv.lo) <= value <= mpmath.mpf(iv.hi)


def atan_interval(x: Interval) -> Interval:
    # atan is increasing, so the kernel's enclosures at the two ends suffice
    lo, hi = atan_points([x.lo, x.hi])
    return Interval(lo[0], hi[1])


def acos_interval(x: Interval) -> Interval:
    lo, hi = acos_pairs(([x.lo], [x.hi]))
    return Interval(lo[0], hi[0])


def test_constructor_and_accessors():
    iv = Interval(1.0, 2.0)
    assert iv.lo == 1.0 and iv.hi == 2.0
    assert iv.mid == 1.5 and iv.width == 1.0
    assert Interval(3.5).lo == Interval(3.5).hi == 3.5
    assert 1.5 in iv
    assert Interval(1.2, 1.8) in iv
    assert iv.hull(Interval(5.0, 6.0)) == Interval(1.0, 6.0)


def test_constructor_rejects_bad_endpoints():
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(float("nan"), 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, float("inf"))


def test_immutable():
    iv = Interval(0.0, 1.0)
    with pytest.raises(AttributeError):
        iv.lo = 5.0


def test_from_fraction_is_one_ulp_tight():
    for num, den in ((1, 3), (2, 7), (-10, 9), (355, 113), (1, 10 ** 20)):
        q = Fraction(num, den)
        iv = Interval.from_fraction(q)
        assert contains_fraction(iv, q)
        assert iv.hi == iv.lo or iv.hi == math.nextafter(iv.lo, math.inf)
    exact = Fraction(3, 4)
    iv = Interval.from_fraction(exact)
    assert iv.lo == iv.hi == 0.75


def test_add_sub_mul_enclosure_bulk():
    # exact rational oracle over ~1e5 random operand pairs
    xs = rand_values(25000)
    ys = rand_values(25000)
    ws = np.abs(rand_values(25000, 0.0, 1.0)) * 1e-6
    x, y, w = xs[:8000], ys[:8000], ws[:8000]
    a, b = (x, x + w), (y, y + w)
    for pair_op, frac_op in ((add_pairs, lambda a, b: a + b),
                             (sub_pairs, lambda a, b: a - b),
                             (mul_pairs, lambda a, b: a * b)):
        for out, alo, ahi, blo, bhi in zip(intervals_of(pair_op(a, b)), *a, *b):
            for fx in (Fraction(alo), Fraction(ahi)):
                for fy in (Fraction(blo), Fraction(bhi)):
                    assert contains_fraction(out, frac_op(fx, fy))


def test_div_enclosure_and_zero_rejection():
    xs = rand_values(4000)
    ys = rand_values(4000)
    keep = np.abs(ys) >= 1e-3
    xs, ys = xs[keep], ys[keep]
    for out, x, y in zip(intervals_of(div_pairs((xs, xs), (ys, ys))), xs, ys):
        assert contains_fraction(out, Fraction(x) / Fraction(y))
    # div_pairs leaves the divisor's sign to its callers; the oracle's
    # division keeps the check, and the florian oracle's errors rest on it
    with pytest.raises(DomainError):
        RefInterval(1.0, 2.0) / RefInterval(-1.0, 1.0)
    with pytest.raises(DomainError):
        RefInterval(1.0) / RefInterval(0.0, 0.0)


def test_mixed_scalar_operands():
    # a pair of floats is one interval, and mixes with pairs of arrays
    a = (np.array([1.0, -1.0]), np.array([2.0, 3.0]))
    assert add_pairs(a, ONE)[0][0] >= 2.0 - 1e-15
    assert sub_pairs((3.0, 3.0), a)[1][0] >= 1.0
    assert intervals_of(mul_pairs(TWO, a)) == intervals_of(mul_pairs(a, TWO))
    assert contains_fraction(intervals_of(div_pairs(a, (3.0, 3.0)))[0], Fraction(2, 3))
    assert Interval(*add_pairs((1.0, 2.0), ONE)) == intervals_of(add_pairs(a, ONE))[0]
    # Interval is a value type: it has no arithmetic to mix with scalars
    with pytest.raises(TypeError):
        Interval(1.0) + 1.0
    with pytest.raises(TypeError):
        2 * Interval(1.0, 2.0)


def test_square():
    xs = rand_values(3000, -5.0, 5.0)
    for x, sq in zip(xs, intervals_of(square_pairs((xs - 0.25, xs + 0.25)))):
        assert sq.lo >= 0.0
        for probe in (x - 0.25, x, x + 0.25):
            assert contains_fraction(sq, Fraction(probe) ** 2)


def test_sqrt():
    xs = np.abs(rand_values(3000)) + 1e-12
    for x, out in zip(xs, intervals_of(sqrt_pairs((xs, xs)))):
        assert contains_mp(out, mpmath.sqrt(mpmath.mpf(x)))
        assert out.width <= 4 * math.ulp(out.lo)
    # sqrt_pairs leaves negative ends to its callers (acos_pairs raises them
    # to 0 first); the oracle's square root, which _ref_acos clamps, checks
    with pytest.raises(DomainError):
        RefInterval(-1.0, 2.0).sqrt()
    # negative-by-roundoff endpoints need an explicit clamp
    assert RefInterval(-1e-15, 1.0).sqrt(clamp_tol=1e-12).lo == 0.0
    with pytest.raises(DomainError):
        RefInterval(-1e-6, 1.0).sqrt(clamp_tol=1e-12)


def test_pi_interval():
    iv = pi_interval()
    assert contains_mp(iv, mpmath.pi)
    assert iv.width <= 2 * math.ulp(3.15)


# a tangent row came first, removed with the interval tangent; the ids are
# spelled out so the remaining rows keep their names
@pytest.mark.parametrize("fn,mp_fn,domain", [
    (atan_interval, mpmath.atan, (-50.0, 50.0)),
    (acos_interval, mpmath.acos, (-0.999, 0.999)),
], ids=["iatan-f-domain1", "iacos-f-domain2"])
def test_transcendental_enclosure(fn, mp_fn, domain):
    lo, hi = domain
    pts = RNG.uniform(lo, hi, size=400)
    for x in pts:
        iv = fn(Interval(x))
        truth = mp_fn(mpmath.mpf(x))
        assert contains_mp(iv, truth), (fn.__name__, x)
        assert iv.width <= max(1e-12, 1e-12 * abs(float(truth)))
    # width stays proportional on fat inputs
    a, b = sorted(RNG.uniform(lo, hi, size=2))
    fat = fn(Interval(a, b))
    assert contains_mp(fat, mp_fn(mpmath.mpf(a)))
    assert contains_mp(fat, mp_fn(mpmath.mpf(b)))


def test_acos_domain():
    # the acos kernel leaves its domain check to florian_enclosures, whose
    # first acos argument rounds past 1 at tiny ratios
    for r in (Interval(1e-10), Interval(1e-10, 0.5)):
        (err,) = florian_enclosures([r])
        assert isinstance(err, DomainError)
        assert str(err).startswith("acos argument out of (-1, 1]: ")


finite = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False,
                   allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(finite, finite, finite)
def test_hypothesis_sum_enclosure(x, y, z):
    mid = Interval(*add_pairs(add_pairs((x, x), (y, y)), (z, z)))
    assert contains_fraction(mid, Fraction(x) + Fraction(y) + Fraction(z))


@settings(max_examples=300, deadline=None)
@given(finite, finite)
def test_hypothesis_sub_then_add_contains_start(x, y):
    out = Interval(*add_pairs(sub_pairs((x, x), (y, y)), (y, y)))
    assert contains_fraction(out, Fraction(x))


def test_acos_accepts_one():
    # the quotient (1 - x)/(1 + x) is an exact 0 at x = 1; its outward
    # rounding must not push the square root out of its domain
    assert 0.0 in acos_interval(Interval(1.0))
    enc = acos_interval(Interval(0.5, 1.0))
    assert 0.0 in enc
    assert math.acos(0.5) in enc


def _ref_atan_point(x: float) -> RefInterval:
    # the arctangent series with its coefficients built on every call
    terms = 14
    t = RefInterval(x)
    for _ in range(3):
        t = t / (1.0 + (t.square() + 1.0).sqrt())
    z = t.square()
    acc = RefInterval.from_fraction(Fraction((-1) ** (terms - 1), 2 * terms - 1))
    for i in reversed(range(terms - 1)):
        acc = acc * z + RefInterval.from_fraction(Fraction((-1) ** i, 2 * i + 1))
    tmax = max(-t.lo, t.hi)
    rem = math.nextafter(tmax ** (2 * terms + 1) / (2 * terms + 1), math.inf)
    return (t * acc + RefInterval(-rem, rem)) * 8


# signed zeros, the smallest subnormal, a tiny normal, the points where the
# halvings start from atan = +-pi/4, and arguments whose squares are huge
ATAN_EDGE_POINTS = (0.0, -0.0, 5e-324, 1e-300, 1.0, -1.0, 1e16, 1e150, -1e150)


@pytest.mark.parametrize("domain", [(-50.0, 50.0), (-1.0, 1.0)])
def test_series_match_per_call_coefficients(domain):
    rng = np.random.default_rng(20261018)
    lo, hi = domain
    for a, b in rng.uniform(lo, hi, size=(300, 2)):
        for iv in (Interval(min(a, b), max(a, b)), Interval(a)):
            ref = Interval(_ref_atan_point(iv.lo).lo, _ref_atan_point(iv.hi).hi)
            assert repr(atan_interval(iv)) == repr(ref), iv
    for x in ATAN_EDGE_POINTS:
        ref = _ref_atan_point(x)
        assert repr(atan_interval(Interval(x))) == repr(Interval(ref.lo, ref.hi)), x


@settings(max_examples=400, deadline=None)
@given(st.floats(min_value=-1e150, max_value=1e150, allow_nan=False,
                 allow_infinity=False))
def test_hypothesis_atan_matches_reference(x):
    ref = _ref_atan_point(x)
    assert repr(atan_interval(Interval(x))) == repr(Interval(ref.lo, ref.hi))


@pytest.mark.parametrize("iv", [
    Interval(1e155), Interval(-1e200, 0.0), Interval(0.0, 1.7e308),
], ids=["1e155", "-1e200..0", "0..1.7e308"])
def test_atan_rejects_overflowing_squares(iv):
    # the first half-angle step squares each endpoint; an infinite square
    # must raise rather than let x/inf quietly give 0
    with pytest.raises(DomainError):
        atan_interval(iv)


def test_atan_raises_where_reference_raises():
    # at sqrt(DBL_MAX) the square is finite and rounds up to DBL_MAX, so the
    # overflow comes in the following "+ 1"; walk ulps across that boundary
    x = math.sqrt(sys.float_info.max)
    for _ in range(8):
        x = math.nextafter(x, 0.0)
    raised = []
    for _ in range(16):
        try:
            ref = _ref_atan_point(x)
        except DomainError:
            with pytest.raises(DomainError):
                atan_interval(Interval(x))
            raised.append(x)
        else:
            assert repr(atan_interval(Interval(x))) == repr(Interval(ref.lo, ref.hi)), x
        x = math.nextafter(x, math.inf)
    assert raised[0] == math.sqrt(sys.float_info.max) and len(raised) == 8


# The acos and florian formulas on the oracle's Interval, one operation at
# a time: the oracles of the endpoint-array kernels, which must reproduce
# every enclosure bit for bit and every DomainError with its message.

def _ref_acos(x: Interval) -> RefInterval:
    if x.lo <= -1.0 or x.hi > 1.0:
        raise DomainError(f"acos argument out of (-1, 1]: {x!r}")
    x = ref(x)
    num = RefInterval(1.0) - x
    den = RefInterval(1.0) + x
    if num.lo < 0.0:
        num = RefInterval(0.0, max(num.hi, 0.0))
    t = (num / den).sqrt(clamp_tol=math.ulp(0.0))
    return RefInterval(_ref_atan_point(t.lo).lo, _ref_atan_point(t.hi).hi) * 2


def _ref_florian(r: Interval) -> RefInterval:
    if not (0.0 < r.lo and r.hi <= 1.0):
        raise DomainError(f"ratio interval must lie in (0, 1], got {r}")
    r = ref(r)
    one = RefInterval(1.0, 1.0)
    b = one + r
    rsq = r.square()
    alpha = _ref_acos(one - RefInterval(2.0, 2.0) * rsq / b.square())
    beta = _ref_acos(r / b)
    area = r * (RefInterval(2.0, 2.0) * r + one).sqrt()
    return (alpha / RefInterval(2.0, 2.0) + beta * rsq) / area


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except DomainError as exc:
        return f"DomainError: {exc}"


def test_atan_kernel_batch_matches_reference():
    # one batch holding the edge points and random magnitudes gives each
    # point the enclosure of the per-point oracle
    rng = np.random.default_rng(20261019)
    xs = [*ATAN_EDGE_POINTS, *rng.uniform(-50.0, 50.0, 200),
          *(10.0 ** rng.uniform(-300, 150, 200))]
    lo, hi = atan_points(xs)
    for x, a, b in zip(xs, lo.tolist(), hi.tolist()):
        ref = _ref_atan_point(x)
        assert (repr(a), repr(b)) == (repr(ref.lo), repr(ref.hi)), x


# the kernel's domain, (-1, 1]: its callers turn away -1, see test_acos_domain
unit_end = st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(unit_end, unit_end)
def test_hypothesis_acos_matches_reference(a, b):
    x = Interval(min(a, b), max(a, b))
    assert repr(acos_interval(x)) == repr(_ref_acos(x))


# ends of the florian domain: r = 1, points and intervals touching it,
# tiny ratios whose acos argument rounds past 1, and ratios outside (0, 1]
FLORIAN_EDGES = (
    Interval(1.0), Interval(0.999, 1.0), Interval(math.nextafter(1.0, 0.0), 1.0),
    Interval(0.01, 1.0), Interval(1e-8, 1.0), Interval(3e-16, 1.0), Interval(5e-324),
    Interval(1e-300), Interval(1e-9), Interval(1.05e-8), Interval(1.1e-8),
    Interval(0.0), Interval(-0.1, 0.5), Interval(0.5, 1.5), Interval(1e300),
    Interval(0.5), Interval(0.3, 0.3000000000000001),
)


def test_florian_edges_match_reference():
    def shown(elements):
        return [repr(e) if isinstance(e, Interval) else f"DomainError: {e}"
                for e in elements]

    outcomes = [_outcome(_ref_florian, r) for r in FLORIAN_EDGES]
    assert shown(florian_enclosures([r])[0] for r in FLORIAN_EDGES) == outcomes
    # in one batch, each element is what it is alone, errors included, and
    # the stand-in values of failed elements raise no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = florian_enclosures(FLORIAN_EDGES)
    assert shown(batch) == outcomes
    assert all(isinstance(e, (Interval, DomainError)) for e in batch)
    assert sum(isinstance(e, DomainError) for e in batch) == 9
    assert florian_enclosures([]) == []


unit_ratio = st.floats(min_value=5e-324, max_value=1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(unit_ratio, st.floats(min_value=0.0, max_value=0.1)),
                min_size=1, max_size=20))
def test_hypothesis_florian_batch_matches_reference(ends):
    # points (zero width) and intervals in (0, 1]
    rs = [Interval(lo, min(1.0, lo + w)) for lo, w in ends]
    rs += [Interval(lo) for lo, _ in ends]
    got = [repr(e) if isinstance(e, Interval) else f"DomainError: {e}"
           for e in florian_enclosures(rs)]
    assert got == [_outcome(_ref_florian, r) for r in rs]


def test_pair_operations_match_interval_operations():
    # each endpoint-array operation against the oracle's operator, element
    # by element, on intervals of either sign and straddling 0
    rng = np.random.default_rng(20261020)
    ends = np.sort(rng.uniform(-5.0, 5.0, size=(2, 400, 2)), axis=2)
    ends[:, :40, 0] = ends[:, :40, 1]  # points
    ends[:, 40:80, 0] = 0.0  # intervals starting at 0
    ends[:, 40:80, 1] = np.abs(ends[:, 40:80, 1])
    a = (ends[0, :, 0], ends[0, :, 1])
    b = (ends[1, :, 0], ends[1, :, 1])
    pos = (np.abs(b[0]) + 0.5, np.abs(b[0]) + np.abs(b[1]) + 0.5)
    cases = [
        (add_pairs(a, b), lambda x, y, _: x + y),
        (sub_pairs(a, b), lambda x, y, _: x - y),
        (mul_pairs(a, b), lambda x, y, _: x * y),
        (div_pairs(a, pos), lambda x, _, z: x / z),
        (square_pairs(a), lambda x, y, _: x.square()),
        (sqrt_pairs(pos), lambda x, _, z: z.sqrt()),
    ]
    for (lo, hi), op in cases:
        for i in range(400):
            x = RefInterval(a[0][i], a[1][i])
            y = RefInterval(b[0][i], b[1][i])
            z = RefInterval(pos[0][i], pos[1][i])
            assert repr(Interval(lo[i], hi[i])) == repr(op(x, y, z)), i


# -- narrow, against the three loops it replaced ------------------------------
#
# The three reference functions below are the bracket-halving loops that
# ``narrow`` replaced, copied verbatim: ``polynomials.refine_root``,
# ``harness._dichotomy`` (less its explicit starts, which are gone) and
# ``flows.find_crossings``.  Wherever a reference terminates, ``narrow`` and
# its callers must return the same floats.


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def ref_refine_root(p: Polynomial, bracket: Interval, tol: float) -> Interval:
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


def ref_dichotomy(r: Interval, top: float, precision: float) -> float:

    def proven(delta: float) -> bool:
        return top <= delta

    delta_hi = florian_bound(r.mid) + _DELTA_HI_HEADROOM
    delta_lo = delta1() - _DELTA_LO_OFFSET
    if not proven(delta_hi):
        delta_hi = top
    if proven(delta_lo):
        gap = max(precision, _DELTA_LO_OFFSET)
        while delta_lo > 0.0 and proven(delta_lo):
            delta_hi = delta_lo
            delta_lo = max(0.0, delta_lo - gap)
            gap *= 2.0
    while delta_hi - delta_lo > precision:
        mid = 0.5 * (delta_lo + delta_hi)
        if mid <= delta_lo or mid >= delta_hi:
            break
        if proven(mid):
            delta_hi = mid
        else:
            delta_lo = mid
    return delta_hi


def ref_find_crossings(fn, level, samples, tol=1e-9):
    out = []
    xprev, fprev = None, 0.0
    for x, fx in samples:
        fcur = fx - level
        if fcur == 0.0:
            out.append(Interval(x, x))
        elif fprev * fcur < 0.0:
            a, b, fa = xprev, x, fprev
            while b - a > tol:
                mid = 0.5 * (a + b)
                fm = fn(mid) - level
                if fm == 0.0:
                    a = b = mid
                    break
                if fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            out.append(Interval(a, b))
        xprev, fprev = x, fcur
    return out


def same(a: Interval, b: Interval) -> bool:
    """Bit-for-bit equality of both ends, -0.0 told from 0.0."""
    return (math.copysign(1.0, a.lo), a.lo, math.copysign(1.0, a.hi), a.hi) == \
        (math.copysign(1.0, b.lo), b.lo, math.copysign(1.0, b.hi), b.hi)


def root_cases(rng):
    """(polynomial, bracket, tol): one simple root strictly inside each
    bracket, wide and adjacent-float brackets, dyadic (exact-midpoint) roots,
    and tol 0 (float exhaustion) among the tolerances."""
    tols = (0.0, 1e-300, 1e-18, 1e-15, 1e-12, 1e-9, 1e-4, 0.3)
    cases = []
    for coeffs, bracket in [*RATIO_TABLE.values(), *TANGENT_TABLE.values()]:
        cases += [(Polynomial(coeffs), Interval(*bracket), tol) for tol in tols]
    for _ in range(300):
        lo, hi = sorted(float(x) for x in rng.uniform(-5.0, 5.0, size=2))
        kind = rng.integers(3)
        if kind == 0:      # a rational root anywhere inside
            root = Fraction(lo) + (Fraction(hi) - Fraction(lo)) * Fraction(
                int(rng.integers(1, 999)), 1000)
        elif kind == 1:    # a root at a float midpoint of a random halving path
            a, b = lo, hi
            for _ in range(int(rng.integers(1, 40))):
                m = 0.5 * (a + b)
                a, b = (m, b) if rng.random() < 0.5 else (a, m)
            root = Fraction(0.5 * (a + b))
        else:              # a bracket of adjacent floats
            hi = math.nextafter(lo, math.inf)
            root = (Fraction(lo) + 2 * Fraction(hi)) / 3
        scale = Fraction(int(rng.integers(1, 50)) * int(rng.choice([-1, 1])),
                         int(rng.integers(1, 50)))
        tol = float(rng.choice(tols)) if rng.random() < 0.7 else float(rng.uniform(0, 1e-6))
        cases.append((Polynomial([-scale * root, scale]), Interval(lo, hi), tol))
    return cases


def test_narrow_matches_refine_root():
    hits = 0
    for p, bracket, tol in root_cases(np.random.default_rng(2026)):
        want = ref_refine_root(p, bracket, tol)
        sign = 1 if p.eval_exact(bracket.hi) > 0 else -1
        got = Interval(*narrow(lambda x: sign * p.eval_exact(x), bracket.lo, bracket.hi, tol))
        assert same(got, want), (p, bracket, tol)
        assert same(checked_root("case", p, bracket, tol), want), (p, bracket, tol)
        hits += want.lo == want.hi
    assert hits > 20  # exact midpoint roots were reached


def test_narrow_matches_dichotomy(monkeypatch):
    rng = np.random.default_rng(2027)
    precisions = (0.0, 1e-300, 1e-15, 1e-12, _PRECISION, 1e-4, 0.05)
    for k in range(400):
        r = Interval(float(rng.uniform(0.3, 0.99)))
        top = float(rng.uniform(0.0, 1.0)) if k % 4 else float(rng.uniform(0.9, 0.95))
        precision = float(rng.choice(precisions))
        delta_lo = delta1() - _DELTA_LO_OFFSET
        delta_hi = florian_bound(r.mid) + _DELTA_HI_HEADROOM
        if k % 10 == 0:  # a top at a float midpoint of the default bracket
            a, b = delta_lo, delta_hi
            for _ in range(int(rng.integers(1, 40))):
                m = 0.5 * (a + b)
                a, b = (m, b) if rng.random() < 0.5 else (a, m)
            top = 0.5 * (a + b)
        want = ref_dichotomy(r, top, precision)
        monkeypatch.setattr(harness, "_PRECISION", precision)
        assert _dichotomy(r.mid, top) == want
        if delta_lo < top <= delta_hi:
            got = narrow(lambda d: 1 if top <= d else -1, delta_lo, delta_hi, precision)
            assert got[1] == want


def test_narrow_stops_without_a_float_midpoint_inside():
    # an infinite end and adjacent floats both stop the loop before side is
    # called
    lo = 0.7071067811865476
    hi = math.nextafter(lo, 1.0)
    for tol in (0.0, 1e-300, 1e-9):
        assert narrow(lambda m: pytest.fail("no midpoint"), lo, hi, tol) == (lo, hi)
        assert narrow(lambda m: pytest.fail("no midpoint"), lo, math.inf, tol) == (lo, math.inf)


def crossing_cases(rng):
    """(fn, level, samples, tol) on which the crossings reference terminates:
    tol stays above the float spacing of [0, 1], and values stay far from
    underflow."""
    cases = []
    for _ in range(150):
        roots = np.sort(rng.uniform(0.0, 1.0, size=int(rng.integers(0, 4))))
        gain = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
        level = float(rng.uniform(-0.5, 0.5))

        def fn(x, roots=tuple(float(t) for t in roots), gain=gain, level=level):
            value = gain
            for t in roots:
                value *= x - t
            return level + value

        xs = np.linspace(0.0, 1.0, int(rng.integers(2, 60)))
        samples = [(float(x), fn(float(x))) for x in xs]
        tol = float(rng.choice([1e-15, 1e-12, 1e-9, 1e-5, 0.1]))
        cases.append((fn, level, samples, tol))
    # exact midpoint hits and samples exactly at the level
    line = lambda x: x - 0.375
    cases.append((line, 0.0, [(0.0, -0.375), (1.0, 0.625)], 1e-12))
    cases.append((line, 0.0, [(0.0, -0.375), (0.375, 0.0), (1.0, 0.625)], 1e-12))
    cases.append((line, 0.125, [(0.0, -0.375), (1.0, 0.625)], 1e-12))
    cases.append((lambda x: 0.375 - x, 0.0, [(0.0, 0.375), (1.0, -0.625)], 1e-12))
    return cases


def test_find_crossings_matches_reference():
    found = 0
    for fn, level, samples, tol in crossing_cases(np.random.default_rng(2028)):
        want = ref_find_crossings(fn, level, samples, tol)
        got = find_crossings(fn, level, samples, tol)
        assert len(got) == len(want)
        assert all(same(g, w) for g, w in zip(got, want)), (samples, level, tol)
        found += len(want)
    assert found > 50
