"""Analytic upper bounds, their interval forms, the Lipschitz envelope."""

import math

import numpy as np
import pytest

from bidisc.bounds import (
    BLIND_MIN_RATIO,
    BoundSample,
    best_upper,
    blind_bound,
    blind_interval,
    delta1,
    delta1_interval,
    florian_angles,
    florian_bound,
    florian_interval,
    lipschitz_envelope,
    lipschitz_slope,
    r_blind,
    samples_from_csv,
    samples_to_csv,
    suspicious_samples,
)
from bidisc.errors import DomainError
from bidisc.intervals import Interval

DELTA1 = 0.9068996821171089

# All frozen against 50 digit mpmath evaluations of the same formulas.
FLORIAN_REFERENCE = {
    0.2: 0.9448064314539895167631,
    0.5: 0.9158118420285283272976,
    0.6735: 0.9098982834618074964233,
    0.9: 0.9071149081926134737085,
}
BLIND_REFERENCE = {
    0.6735: 0.9098987407928477339424,
    0.75: 0.9066041473795544750652,
    1.0: 0.8971192274674080511076,
}
R_BLIND = 0.7429909632663198


class TestHexagonalConstant:
    def test_value(self):
        assert math.isclose(delta1(), math.pi / (2 * math.sqrt(3.0)), rel_tol=0, abs_tol=1e-16)

    def test_interval_tight(self):
        enc = delta1_interval()
        assert delta1() in enc
        assert enc.width <= 2 * np.spacing(DELTA1)


class TestFlorian:
    @pytest.mark.parametrize("r,ref", sorted(FLORIAN_REFERENCE.items()))
    def test_reference_values(self, r, ref):
        assert math.isclose(florian_bound(r), ref, rel_tol=1e-14)

    def test_equals_hexagonal_at_one(self):
        assert abs(florian_bound(1.0) - DELTA1) <= 1e-15

    def test_angle_sum(self):
        for r in np.linspace(0.01, 1.0, 200):
            alpha, beta = florian_angles(float(r))
            assert abs(alpha + 2 * beta - math.pi) <= 1e-12

    def test_rejects_out_of_range(self):
        for r in (0.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                florian_bound(r)

    def test_interval_encloses_pointwise(self):
        rng = np.random.default_rng(20240817)
        for _ in range(50):
            lo = rng.uniform(0.02, 0.95)
            hi = lo + rng.uniform(0.0, 0.04)
            enc = florian_interval(Interval(lo, hi))
            for r in np.linspace(lo, hi, 7):
                assert florian_bound(float(r)) in enc

    def test_interval_tight_at_point(self):
        enc = florian_interval(Interval(0.5))
        assert enc.width <= 1e-14


class TestBlind:
    @pytest.mark.parametrize("r,ref", sorted(BLIND_REFERENCE.items()))
    def test_reference_values(self, r, ref):
        assert math.isclose(blind_bound(r), ref, rel_tol=1e-14)

    def test_crossing_constant(self):
        assert math.isclose(r_blind(), R_BLIND, rel_tol=1e-14)

    def test_crossing_agrees_with_bisection(self):
        lo, hi = 0.70, 0.80
        f = lambda r: blind_bound(r) - delta1()
        assert f(lo) > 0 > f(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - r_blind()) <= 1e-9

    def test_rejects_below_window(self):
        with pytest.raises(DomainError):
            blind_bound(0.5)
        with pytest.raises(DomainError):
            blind_bound(BLIND_MIN_RATIO - 1e-6)

    def test_interval_encloses_pointwise(self):
        rng = np.random.default_rng(20240818)
        for _ in range(50):
            lo = rng.uniform(BLIND_MIN_RATIO, 0.99)
            hi = min(1.0, lo + rng.uniform(0.0, 0.03))
            enc = blind_interval(Interval(lo, hi))
            for r in np.linspace(lo, hi, 7):
                assert blind_bound(float(r)) in enc

    def test_interval_tight_at_point(self):
        # the monotone endpoint evaluation must not inflate degenerate input
        enc = blind_interval(Interval(0.75))
        assert BLIND_REFERENCE[0.75] in enc
        assert enc.width <= 1e-14


class TestEnvelope:
    def test_slope_formula(self):
        for hi in (0.3, 0.5, 1.0):
            assert math.isclose(lipschitz_slope(hi), math.pi / (hi * hi * math.sqrt(3.0)),
                                rel_tol=1e-15)

    def test_single_sample_tent(self):
        s = [BoundSample(0.5, 0.91)]
        # moving right: radii in between are at most max(r, r_i) = r
        r = 0.6
        assert math.isclose(lipschitz_envelope(s, r), 0.91 + lipschitz_slope(0.6) * 0.1,
                            rel_tol=1e-14)
        # moving left the worst slope is at the sample point itself
        r = 0.4
        assert math.isclose(lipschitz_envelope(s, r), 0.91 + lipschitz_slope(0.5) * 0.1,
                            rel_tol=1e-14)

    def test_takes_minimum_over_samples(self):
        s = [BoundSample(0.4, 0.95), BoundSample(0.6, 0.90)]
        at = lipschitz_envelope(s, 0.5)
        tents = [0.95 + lipschitz_slope(0.5) * 0.1, 0.90 + lipschitz_slope(0.6) * 0.1]
        assert math.isclose(at, min(tents), rel_tol=1e-14)

    def test_at_sample_point_returns_value(self):
        s = [BoundSample(0.5, 0.91)]
        assert lipschitz_envelope(s, 0.5) == 0.91

    def test_envelope_dominates_any_consistent_function(self):
        # build a function as an envelope of its own generators, sample it,
        # and check the envelope rebuilt from the samples never dips below it
        rng = np.random.default_rng(20240819)
        for _ in range(20):
            anchors = [(float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.88, 0.96)))
                       for _ in range(4)]
            g = lambda t: min(v + lipschitz_slope(max(t, a)) * abs(t - a) for a, v in anchors)
            pts = sorted(float(r) for r in rng.uniform(0.2, 0.9, size=12))
            samples = [BoundSample(r, g(r)) for r in pts]
            for t in rng.uniform(0.2, 0.9, size=30):
                assert lipschitz_envelope(samples, float(t)) >= g(float(t)) - 1e-12

    def test_grid_form_matches_scalar_loop_bitwise(self):
        # the sequence form runs over sample arrays; it must give exactly
        # the caps of the plain loop, as Python floats (repr is CSV output)
        def loop(samples, r):
            best = math.inf
            for s in samples:
                slope = lipschitz_slope(max(r, s.r))
                best = min(best, s.value + slope * abs(r - s.r))
            return best

        rng = np.random.default_rng(20261018)
        for n in (1, 7, 346):
            samples = [BoundSample(float(r), float(v)) for r, v in
                       zip(rng.uniform(0.3, 0.99, size=n), rng.uniform(0.9, 0.96, size=n))]
            samples.append(BoundSample(0.5, math.nan))
            grid = [float(r) for r in rng.uniform(0.29, 1.0, size=200)]
            grid += [s.r for s in samples[:5]]
            got = lipschitz_envelope(samples, grid)
            assert isinstance(got, list)
            assert [repr(x) for x in got] == [repr(loop(samples, r)) for r in grid]
            assert all(type(x) is float and "np." not in repr(x) for x in got)
            assert repr(lipschitz_envelope(samples, grid[0])) == repr(got[0])


class TestSamples:
    def test_csv_round_trip(self):
        samples = [BoundSample(0.3, 0.94), BoundSample(0.5, 0.915)]
        again = samples_from_csv(samples_to_csv(samples))
        assert again == samples

    @pytest.mark.parametrize("text", ["0.75,0.5\n", "0.75,0.5\n0.8,0.9\n",
                                      "value,r\n0.75,0.5\n"],
                             ids=["one-row", "two-rows", "swapped-header"])
    def test_csv_requires_header(self, text):
        with pytest.raises(ValueError, match="header"):
            samples_from_csv(text)

    @pytest.mark.parametrize("row", ["0.75,nan", "inf,0.91", "0.75,-inf"])
    def test_csv_rejects_non_finite(self, row):
        with pytest.raises(ValueError):
            samples_from_csv("r,value\n0.5,0.915\n" + row + "\n")

    def test_suspicious_flags_steep_pairs(self):
        # second point drops faster than the two sided slope bound allows
        ok = [BoundSample(0.5, 0.92), BoundSample(0.51, 0.919)]
        assert suspicious_samples(ok) == []
        slope = lipschitz_slope(0.51)
        bad = [BoundSample(0.5, 0.92), BoundSample(0.51, 0.92 - 1.5 * slope * 0.01)]
        flagged = suspicious_samples(bad)
        assert len(flagged) >= 1


class TestBestUpper:
    def test_florian_only_region(self):
        value, tag = best_upper(0.3)
        assert tag == "florian"
        assert value == florian_bound(0.3)

    def test_blind_wins_near_one(self):
        value, tag = best_upper(0.9)
        assert tag == "blind"
        assert value == blind_bound(0.9)

    def test_envelope_can_win(self):
        samples = [BoundSample(0.3, 0.91)]
        value, tag = best_upper(0.3, samples)
        assert tag == "envelope"
        assert value < florian_bound(0.3)
