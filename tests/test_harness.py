"""Dichotomy and bisection drivers over pluggable certifiers."""

import json
import logging
import math

import numpy as np
import pytest

from bidisc.bounds import BoundSample, blind_bound, delta1
from bidisc.errors import DepthExceeded, DomainError, InitialBoundsInvalid
from bidisc.harness import (
    DEFAULT_PRECISION,
    BlindCertifier,
    FlorianCertifier,
    ProofTrace,
    ThresholdCertifier,
    certify_interval,
    find_delta,
    make_certifier,
    sweep,
)
from bidisc.intervals import Interval

R_BLIND = 0.7429909632663198


class TestFindDelta:
    def test_threshold_dichotomy(self):
        rng = np.random.default_rng(20240817)
        window = Interval(0.5, 0.6)
        for t in [0.92, *rng.uniform(0.91, 0.99, size=20)]:
            t = float(t)
            got = find_delta(ThresholdCertifier(t), window, precision=1e-4,
                             delta_lo=0.5, delta_hi=1.0)
            assert t <= got <= t + 1e-4 + 1e-12

    def test_precision_scales(self):
        got = find_delta(ThresholdCertifier(0.93), Interval(0.5, 0.6),
                         precision=1e-7, delta_lo=0.5, delta_hi=1.0)
        assert 0.93 <= got <= 0.93 + 1e-7 + 1e-12

    def test_explicit_provable_lower_start_rejected(self):
        with pytest.raises(InitialBoundsInvalid):
            find_delta(ThresholdCertifier(0.7), Interval(0.5, 0.6),
                       delta_lo=0.8, delta_hi=1.0)

    def test_unprovable_upper_start_rejected(self):
        with pytest.raises(InitialBoundsInvalid):
            find_delta(ThresholdCertifier(0.95), Interval(0.5, 0.6),
                       delta_lo=0.5, delta_hi=0.9)

    def test_defaulted_lower_start_walks_down(self):
        # near r = 0.75 the heptagon+pentagon bound sits below the default
        # lower start, which is therefore provable and must be walked down
        window = Interval(0.75, 0.7501)
        got = find_delta(BlindCertifier(), window, precision=1e-4)
        reference = blind_bound(0.7501)
        assert reference <= got <= reference + 1e-4 + 1e-9

    def test_rejects_bad_precision(self):
        with pytest.raises(DomainError):
            find_delta(ThresholdCertifier(0.92), Interval(0.5), precision=0.0)

    @pytest.mark.parametrize("certifier", [FlorianCertifier(), BlindCertifier()],
                             ids=lambda c: c.name)
    def test_bound_path_matches_check_path(self, certifier):
        # find_delta reads one bound per call where the certifier has one;
        # the verdicts, and so every dichotomy step, match those of check
        class CheckOnly:
            name = certifier.name

            def check(self, r, delta):
                return certifier.check(r, delta)

        def outcome(c, r, **starts):
            try:
                return repr(find_delta(c, Interval(r), **starts))
            except (InitialBoundsInvalid, DomainError) as exc:
                return type(exc).__name__

        grid = [float(r) for r in np.linspace(0.0025, 0.9975, 399)]
        got = [outcome(certifier, r) for r in grid]
        assert got == [outcome(CheckOnly(), r) for r in grid]
        assert sum(g.startswith("0.") for g in got) >= 100
        # an upper start exactly at the bound is proven on both paths
        for r in (0.3, 0.7, 0.8):
            try:
                top = certifier.bound(Interval(r)).hi
            except DomainError:
                continue
            at_top = outcome(certifier, r, delta_hi=top)
            assert at_top.startswith("0.")
            assert at_top == outcome(CheckOnly(), r, delta_hi=top)

    def test_bound_evaluated_once(self):
        calls = []

        class Counting(FlorianCertifier):
            def bound(self, r):
                calls.append(r)
                return super().bound(r)

        find_delta(Counting(), Interval(0.5))
        assert calls == [Interval(0.5)]

    def test_wide_interval_default_upper_start(self):
        # the triangle bound at the midpoint is not provable on the whole
        # interval; the defaulted upper start moves to the certified bound
        r = Interval(0.3, 0.5)
        top = FlorianCertifier().bound(r).hi
        got = find_delta(FlorianCertifier(), r, precision=1e-4)
        assert top <= got <= top + 1e-4

    def test_explicit_unprovable_upper_start_still_rejected(self):
        with pytest.raises(InitialBoundsInvalid):
            find_delta(FlorianCertifier(), Interval(0.3, 0.5), delta_hi=0.95)


class TestCertifyInterval:
    def test_single_leaf_success(self):
        trace = certify_interval(BlindCertifier(), Interval(0.743, 0.99), delta1())
        assert trace.success
        assert trace.leaf_count == 1
        assert trace.root.verdict

    def test_split_leaves_tile_exactly(self):
        # t slightly above delta forces splitting via the probe hook before
        # success; all leaves must chain without gaps or overlaps
        c = make_certifier("florian")
        trace = certify_interval(c, Interval(0.9, 0.99), 0.9075)
        assert trace.success
        leaves = sorted(trace.root.leaves(), key=lambda n: n.interval.lo)
        assert leaves[0].interval.lo == 0.9
        assert leaves[-1].interval.hi == 0.99
        for left, right in zip(leaves, leaves[1:]):
            assert left.interval.hi == right.interval.lo

    def test_depth_exceeded_carries_trace(self):
        c = BlindCertifier()
        with pytest.raises(DepthExceeded) as err:
            certify_interval(c, Interval(0.70, 0.99), delta1(), max_depth=12)
        trace = err.value.trace
        assert isinstance(trace, ProofTrace)
        assert not trace.success
        failing = trace.failing_leaves()
        assert failing
        # every failing leaf sits below the crossing radius, every passing
        # one above: the failure localizes the obstruction
        for leaf in trace.root.leaves():
            assert bool(leaf.verdict) == (leaf.interval.lo >= R_BLIND - 1e-12)

    def test_max_depth_validated(self):
        with pytest.raises(DomainError):
            certify_interval(BlindCertifier(), Interval(0.8, 0.9), delta1(), max_depth=0)

    def test_degenerate_interval(self):
        trace = certify_interval(FlorianCertifier(), Interval(0.5), 0.92)
        assert trace.success
        assert trace.leaf_count == 1

    def test_node_count_consistent(self):
        trace = certify_interval(make_certifier("florian"), Interval(0.9, 0.99), 0.9075)
        leaves = list(trace.root.leaves())
        assert trace.leaf_count == len(leaves)
        assert trace.node_count >= 2 * trace.leaf_count - 1


class TestSerialization:
    def test_trace_json_deterministic(self):
        c = make_certifier("florian")
        a = certify_interval(c, Interval(0.9, 0.99), 0.9075)
        b = certify_interval(c, Interval(0.9, 0.99), 0.9075)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())
        obj = a.to_json()
        assert "wall_time" not in json.dumps(obj)
        assert obj["root"]["verdict"] == "proven"

    def test_leaves_csv_shape(self):
        trace = certify_interval(make_certifier("florian"), Interval(0.9, 0.99), 0.9075)
        lines = trace.leaves_csv().strip().splitlines()
        assert lines[0] == "lo,hi,delta,verdict"
        assert len(lines) == trace.leaf_count + 1
        for row in lines[1:]:
            lo, hi, delta, verdict = row.split(",")
            assert float(lo) < float(hi) or float(lo) == float(hi)
            assert verdict in ("proven", "unproven")

    def test_wall_time_not_compared(self):
        c = make_certifier("florian")
        a = certify_interval(c, Interval(0.9, 0.95), 0.92)
        b = certify_interval(c, Interval(0.9, 0.95), 0.92)
        assert a == b


class TestMakeCertifier:
    def test_names(self):
        assert make_certifier("blind").name == "blind"
        assert make_certifier("florian").name == "florian"
        t = make_certifier("threshold:0.93")
        assert t.check(Interval(0.5), 0.94)
        assert not t.check(Interval(0.5), 0.92)

    def test_unknown_spec(self):
        with pytest.raises(DomainError):
            make_certifier("magic")


class TestSweep:
    def test_values_and_skips(self, caplog):
        grid = [0.75, 0.76, 0.5]
        with caplog.at_level(logging.WARNING, logger="bidisc.harness"):
            samples = sweep(BlindCertifier(), grid, precision=1e-4)
        # 0.5 is outside the blind window and must be skipped with a warning
        assert [s.r for s in samples] == [0.75, 0.76]
        for s in samples:
            reference = blind_bound(s.r)
            assert reference - 1e-9 <= s.value <= reference + 1e-4 + 1e-9
        assert any("0.5" in rec.message for rec in caplog.records)

    def test_empty_grid(self):
        assert sweep(FlorianCertifier(), [], precision=1e-3) == []


class TestProbeHook:
    def test_probe_narrows_before_split(self):
        # a certifier whose check fails on wide intervals but whose probe
        # supplies the midpoint refinement used by the driver
        class Fussy:
            name = "fussy"

            def check(self, r, delta):
                return r.width <= 0.01

            def probe(self, r, delta):
                return r.mid

        trace = certify_interval(Fussy(), Interval(0.5, 0.58), 0.95)
        assert trace.success
        for leaf in trace.root.leaves():
            assert leaf.interval.width <= 0.01
