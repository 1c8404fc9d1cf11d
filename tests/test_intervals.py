"""Enclosure properties of the interval arithmetic.

Arithmetic results are checked against exact Fraction computation, the
transcendental functions against mpmath at 60 digits.  Every double is an
exact rational, so "the true value lies inside the interval" is decidable.
"""

import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bidisc.bounds import florian_enclosures, florian_interval
from bidisc.endpoints import (add_pairs, atan_points, div_pairs, mul_pairs, sqrt_pairs,
                              square_pairs, sub_pairs)
from bidisc.errors import DomainError
from bidisc.intervals import Interval, iacos, iatan, ipow, pi_interval

mpmath.mp.dps = 60

RNG = np.random.default_rng(20240817)


def rand_values(n, lo=-40.0, hi=40.0):
    return RNG.uniform(lo, hi, size=n)


def contains_fraction(iv: Interval, value: Fraction) -> bool:
    return Fraction(iv.lo) <= value <= Fraction(iv.hi)


def contains_mp(iv: Interval, value) -> bool:
    return mpmath.mpf(iv.lo) <= value <= mpmath.mpf(iv.hi)


def test_constructor_and_accessors():
    iv = Interval(1.0, 2.0)
    assert iv.lo == 1.0 and iv.hi == 2.0
    assert iv.mid == 1.5 and iv.width == 1.0
    assert Interval(3.5).lo == Interval(3.5).hi == 3.5
    assert 1.5 in iv
    assert Interval(1.2, 1.8) in iv
    assert iv.intersects(Interval(1.9, 5.0))
    assert not iv.intersects(Interval(2.5, 5.0))
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
    for op, frac_op in (("add", lambda a, b: a + b),
                        ("sub", lambda a, b: a - b),
                        ("mul", lambda a, b: a * b)):
        for x, y, w in zip(xs[:8000], ys[:8000], ws[:8000]):
            a = Interval(x, x + w)
            b = Interval(y, y + w)
            if op == "add":
                out = a + b
            elif op == "sub":
                out = a - b
            else:
                out = a * b
            for fx in (Fraction(x), Fraction(x + w)):
                for fy in (Fraction(y), Fraction(y + w)):
                    assert contains_fraction(out, frac_op(fx, fy))


def test_div_enclosure_and_zero_rejection():
    xs = rand_values(4000)
    ys = rand_values(4000)
    for x, y in zip(xs, ys):
        if abs(y) < 1e-3:
            continue
        a = Interval(x)
        b = Interval(y)
        out = a / b
        assert contains_fraction(out, Fraction(x) / Fraction(y))
    with pytest.raises(DomainError):
        Interval(1.0, 2.0) / Interval(-1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(1.0) / Interval(0.0, 0.0)


def test_mixed_scalar_operands():
    a = Interval(1.0, 2.0)
    assert (a + 1).lo >= 2.0 - 1e-15
    assert (3 - a).hi >= 1.0
    assert (2 * a) == (a * 2)
    assert contains_fraction(1 / a, Fraction(2, 3))


def test_square_and_pow():
    xs = rand_values(3000, -5.0, 5.0)
    for x in xs:
        iv = Interval(x - 0.25, x + 0.25)
        sq = iv.square()
        assert sq.lo >= 0.0
        for probe in (x - 0.25, x, x + 0.25):
            assert contains_fraction(sq, Fraction(probe) ** 2)
        cb = iv ** 3
        assert contains_fraction(cb, Fraction(x) ** 3)
    assert (Interval(-2.0, 3.0) ** 0) == Interval(1.0, 1.0)
    neg = Interval(2.0, 4.0) ** -1
    assert contains_fraction(neg, Fraction(1, 3))


def test_sqrt():
    for x in np.abs(rand_values(3000)) + 1e-12:
        iv = Interval(x)
        out = iv.sqrt()
        assert contains_mp(out, mpmath.sqrt(mpmath.mpf(x)))
        assert out.width <= 4 * math.ulp(out.lo)
    with pytest.raises(DomainError):
        Interval(-1.0, 2.0).sqrt()
    # negative-by-roundoff endpoints need an explicit clamp
    assert Interval(-1e-15, 1.0).sqrt(clamp_tol=1e-12).lo == 0.0
    with pytest.raises(DomainError):
        Interval(-1e-6, 1.0).sqrt(clamp_tol=1e-12)


def test_pi_interval():
    iv = pi_interval()
    assert contains_mp(iv, mpmath.pi)
    assert iv.width <= 2 * math.ulp(3.15)


# a tangent row came first, removed with the interval tangent; the ids are
# spelled out so the remaining rows keep their names
@pytest.mark.parametrize("fn,mp_fn,domain", [
    (iatan, mpmath.atan, (-50.0, 50.0)),
    (iacos, mpmath.acos, (-0.999, 0.999)),
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
    with pytest.raises(DomainError):
        iacos(Interval(0.5, 1.5))


def test_ipow_rejects_non_int_exponent():
    # integer powers only, like Interval.__pow__
    for exponent in (Interval(1.5), 1.5):
        with pytest.raises(TypeError):
            ipow(Interval(2.0), exponent)
        with pytest.raises(TypeError):
            Interval(2.0) ** exponent


def test_serialization_round_trip():
    iv = Interval(0.1, 0.30000000000000004)
    assert Interval.from_json(iv.to_json()) == iv
    assert Interval.from_strings("0.25", "0.5") == Interval(0.25, 0.5)


finite = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False,
                   allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(finite, finite, finite)
def test_hypothesis_sum_enclosure(x, y, z):
    mid = (Interval(x) + Interval(y)) + Interval(z)
    assert contains_fraction(mid, Fraction(x) + Fraction(y) + Fraction(z))


@settings(max_examples=300, deadline=None)
@given(finite, finite)
def test_hypothesis_sub_then_add_contains_start(x, y):
    out = (Interval(x) - Interval(y)) + Interval(y)
    assert contains_fraction(out, Fraction(x))


def test_acos_accepts_one():
    # the quotient (1 - x)/(1 + x) is an exact 0 at x = 1; its outward
    # rounding must not push the square root out of its domain
    assert 0.0 in iacos(Interval(1.0))
    enc = iacos(Interval(0.5, 1.0))
    assert 0.0 in enc
    assert math.acos(0.5) in enc


def _ref_atan_point(x: float) -> Interval:
    # the arctangent series with its coefficients built on every call
    terms = 14
    t = Interval(x)
    for _ in range(3):
        t = t / (1.0 + (t.square() + 1.0).sqrt())
    z = t.square()
    acc = Interval.from_fraction(Fraction((-1) ** (terms - 1), 2 * terms - 1))
    for i in reversed(range(terms - 1)):
        acc = acc * z + Interval.from_fraction(Fraction((-1) ** i, 2 * i + 1))
    tmax = max(-t.lo, t.hi)
    rem = math.nextafter(tmax ** (2 * terms + 1) / (2 * terms + 1), math.inf)
    return (t * acc + Interval(-rem, rem)) * 8


# signed zeros, the smallest subnormal, a tiny normal, the points where the
# halvings start from atan = +-pi/4, and arguments whose squares are huge
ATAN_EDGE_POINTS = (0.0, -0.0, 5e-324, 1e-300, 1.0, -1.0, 1e16, 1e150, -1e150)


@pytest.mark.parametrize("fn, ref_point, domain", [
    (iatan, _ref_atan_point, (-50.0, 50.0)),
    (iatan, _ref_atan_point, (-1.0, 1.0)),
])
def test_series_match_per_call_coefficients(fn, ref_point, domain):
    rng = np.random.default_rng(20261018)
    lo, hi = domain
    for a, b in rng.uniform(lo, hi, size=(300, 2)):
        for iv in (Interval(min(a, b), max(a, b)), Interval(a)):
            ref = Interval(ref_point(iv.lo).lo, ref_point(iv.hi).hi)
            assert repr(fn(iv)) == repr(ref), iv
    for x in ATAN_EDGE_POINTS:
        ref = ref_point(x)
        assert repr(fn(Interval(x))) == repr(Interval(ref.lo, ref.hi)), x


@settings(max_examples=400, deadline=None)
@given(st.floats(min_value=-1e150, max_value=1e150, allow_nan=False,
                 allow_infinity=False))
def test_hypothesis_atan_matches_reference(x):
    ref = _ref_atan_point(x)
    assert repr(iatan(Interval(x))) == repr(Interval(ref.lo, ref.hi))


@pytest.mark.parametrize("iv", [
    Interval(1e155), Interval(-1e200, 0.0), Interval(0.0, 1.7e308),
], ids=["1e155", "-1e200..0", "0..1.7e308"])
def test_atan_rejects_overflowing_squares(iv):
    # the first half-angle step squares each endpoint; an infinite square
    # must raise rather than let x/inf quietly give 0
    with pytest.raises(DomainError):
        iatan(iv)


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
                iatan(Interval(x))
            raised.append(x)
        else:
            assert repr(iatan(Interval(x))) == repr(Interval(ref.lo, ref.hi)), x
        x = math.nextafter(x, math.inf)
    assert raised[0] == math.sqrt(sys.float_info.max) and len(raised) == 8


# The acos and florian formulas on Interval objects, one operation at a
# time: the oracles of the endpoint-array kernels, which must reproduce
# every enclosure bit for bit and every DomainError with its message.

def _ref_acos(x: Interval) -> Interval:
    if x.lo <= -1.0 or x.hi > 1.0:
        raise DomainError(f"acos argument out of (-1, 1]: {x!r}")
    num = Interval(1.0) - x
    den = Interval(1.0) + x
    if num.lo < 0.0:
        num = Interval(0.0, max(num.hi, 0.0))
    t = (num / den).sqrt(clamp_tol=math.ulp(0.0))
    return Interval(_ref_atan_point(t.lo).lo, _ref_atan_point(t.hi).hi) * 2


def _ref_florian(r: Interval) -> Interval:
    if not (0.0 < r.lo and r.hi <= 1.0):
        raise DomainError(f"ratio interval must lie in (0, 1], got {r}")
    one = Interval(1.0, 1.0)
    b = one + r
    rsq = r.square()
    alpha = _ref_acos(one - Interval(2.0, 2.0) * rsq / b.square())
    beta = _ref_acos(r / b)
    area = r * (Interval(2.0, 2.0) * r + one).sqrt()
    return (alpha / Interval(2.0, 2.0) + beta * rsq) / area


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


unit_end = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(unit_end, unit_end)
def test_hypothesis_acos_matches_reference(a, b):
    x = Interval(min(a, b), max(a, b))
    assert _outcome(iacos, x) == _outcome(_ref_acos, x)


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
    outcomes = [_outcome(_ref_florian, r) for r in FLORIAN_EDGES]
    assert [_outcome(florian_interval, r) for r in FLORIAN_EDGES] == outcomes
    # in one batch, each element is what it is alone, errors included, and
    # the stand-in values of failed elements raise no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = florian_enclosures(FLORIAN_EDGES)
    assert [repr(e) if isinstance(e, Interval) else f"DomainError: {e}"
            for e in batch] == outcomes
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
    # each endpoint-array operation against its Interval method, element
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
            x = Interval(a[0][i], a[1][i])
            y = Interval(b[0][i], b[1][i])
            z = Interval(pos[0][i], pos[1][i])
            assert repr(Interval(lo[i], hi[i])) == repr(op(x, y, z)), i
