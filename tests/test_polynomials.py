"""Exact evaluation and exact-sign bisection on rational polynomials."""

import math
from fractions import Fraction

import numpy as np

from bidisc.intervals import Interval
from bidisc.polynomials import Polynomial, refine_root

RNG = np.random.default_rng(41)


def test_eval_exact_and_float_agree():
    p = Polynomial([1, -3, 0, 2])
    assert p.eval_exact(Fraction(1, 2)) == 1 - Fraction(3, 2) + Fraction(2, 8)
    assert abs(p(0.5) - float(p.eval_exact(Fraction(1, 2)))) < 1e-15


def test_eval_interval_encloses():
    p = Polynomial([1, -3, 0, 2])
    for x in RNG.uniform(-2, 2, size=200):
        iv = p.eval_interval(Interval(x))
        assert Fraction(iv.lo) <= p.eval_exact(Fraction(x)) <= Fraction(iv.hi)


def test_derivative():
    p = Polynomial([5, 0, 3, 1])          # 5 + 3x^2 + x^3
    assert p.derivative().coeffs == (Fraction(0), Fraction(6), Fraction(3))


def test_refine_root_certifies_sign_change():
    p = Polynomial([-1, 2, 1])  # x^2 + 2x - 1, positive root sqrt(2) - 1
    out = refine_root(p, Interval(0.0, 1.0), 1e-14)
    true = math.sqrt(2.0) - 1.0
    assert out.lo <= true <= out.hi
    assert out.width <= 1e-14
    # endpoint signs are exactly opposite
    assert p.eval_exact(Fraction(out.lo)) * p.eval_exact(Fraction(out.hi)) < 0


def test_refine_hits_exact_root():
    p = Polynomial([-Fraction(1, 2), 1])  # x - 1/2
    out = refine_root(p, Interval(0.0, 1.0), 1e-18)
    assert out.lo == out.hi == 0.5


def test_str_form():
    assert str(Polynomial([-1, 2, 1])) == "x^2 + 2x - 1"
    assert str(Polynomial([0])) == "0"
