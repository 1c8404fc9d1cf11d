"""Exact evaluation and checked, exact-sign bisection on rational polynomials."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bidisc.bounds import TANGENT_TABLE
from bidisc.intervals import Interval, narrow
from bidisc.polynomials import Polynomial, checked_root
from bidisc.ratios import RATIO_TABLE
from interval_oracle import Interval as RefInterval, eval_interval, ref

RNG = np.random.default_rng(41)


def test_eval_exact_and_float_agree():
    p = Polynomial([1, -3, 0, 2])
    assert p.eval_exact(Fraction(1, 2)) == 1 - Fraction(3, 2) + Fraction(2, 8)


def test_eval_interval_encloses():
    # the exact range of interval Horner holds p at every probe, and lies
    # inside the outward-rounded float evaluation of the same steps
    p = Polynomial([1, -3, 0, 2])
    for x, w in zip(RNG.uniform(-2, 2, size=200), RNG.uniform(0.0, 0.5, size=200)):
        lo, hi = p.eval_range(x, x + w)
        for probe in (x, x + 0.5 * w, x + w):
            assert lo <= p.eval_exact(probe) <= hi
        iv = eval_interval(p, RefInterval(x, x + w))
        assert Fraction(iv.lo) <= lo and hi <= Fraction(iv.hi)
    assert p.eval_range(0.5, 0.5) == (p.eval_exact(0.5),) * 2


def ref_checked_root(name, p, bracket, tol):
    """checked_root with its derivative check on the oracle's float
    interval Horner, as the check was made before it went exact."""
    at_hi = p.eval_exact(bracket.hi)
    if p.eval_exact(bracket.lo) * at_hi >= 0:
        raise ValueError(f"{name} polynomial does not change sign across {bracket!r}")
    if 0.0 in eval_interval(p.derivative(), ref(bracket)):
        raise ValueError(f"{name} polynomial may have several roots in {bracket!r}: "
                         f"its derivative is not bounded away from 0 there")
    sign = 1 if at_hi > 0 else -1
    return Interval(*narrow(lambda x: sign * p.eval_exact(x), bracket.lo, bracket.hi, tol))


@pytest.mark.parametrize("name", [*RATIO_TABLE, *(f"tan(pi/{n})**2" for n in TANGENT_TABLE)])
def test_checked_root_matches_float_derivative_check(name):
    # every stored bracket gives the enclosure it gave under the float check
    coeffs, bracket = (RATIO_TABLE[name] if name in RATIO_TABLE
                       else TANGENT_TABLE[int(name[7])])
    p, bracket = Polynomial(coeffs), Interval(*bracket)
    for tol in (0.0, 1e-12, 1e-10):
        assert repr(checked_root(name, p, bracket, tol)) == repr(
            ref_checked_root(name, p, bracket, tol))


def test_checked_root_rejects_derivative_zero():
    # x^3 - x^2/2: opposite end signs on [-0.1, 1], and p' = 3x^2 - x is 0
    # at 0 and 1/3; x^3 - 1/8 on [-1, 1], where p' = 3x^2 only touches 0,
    # and on [0, 1], where p' is 0 at an end and its exact range is [0, 3]
    for coeffs, bracket in (((0, 0, Fraction(-1, 2), 1), (-0.1, 1.0)),
                            ((Fraction(-1, 8), 0, 0, 1), (-1.0, 1.0)),
                            ((Fraction(-1, 8), 0, 0, 1), (0.0, 1.0))):
        with pytest.raises(ValueError, match="derivative is not bounded away from 0"):
            checked_root("case", Polynomial(coeffs), Interval(*bracket), 1e-12)


def test_derivative():
    p = Polynomial([5, 0, 3, 1])          # 5 + 3x^2 + x^3
    assert p.derivative().coeffs == (Fraction(0), Fraction(6), Fraction(3))


def test_refine_root_certifies_sign_change():
    p = Polynomial([-1, 2, 1])  # x^2 + 2x - 1, positive root sqrt(2) - 1
    out = checked_root("sqrt(2) - 1", p, Interval(0.0, 1.0), 1e-14)
    true = math.sqrt(2.0) - 1.0
    assert out.lo <= true <= out.hi
    assert out.width <= 1e-14
    # endpoint signs are exactly opposite
    assert p.eval_exact(Fraction(out.lo)) * p.eval_exact(Fraction(out.hi)) < 0


def test_refine_hits_exact_root():
    p = Polynomial([-Fraction(1, 2), 1])  # x - 1/2
    out = checked_root("1/2", p, Interval(0.0, 1.0), 1e-18)
    assert out.lo == out.hi == 0.5


def test_str_form():
    assert str(Polynomial([-1, 2, 1])) == "x^2 + 2x - 1"
    assert str(Polynomial([0])) == "0"
