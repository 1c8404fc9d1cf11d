"""Enclosure properties of the interval arithmetic.

Arithmetic results are checked against exact Fraction computation, the
transcendental functions against mpmath at 60 digits.  Every double is an
exact rational, so "the true value lies inside the interval" is decidable.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
