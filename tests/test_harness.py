"""Dichotomy and bisection drivers over pluggable certifiers."""

import json
import logging
import math

import numpy as np
import pytest

from bidisc.bounds import BLIND_MIN_RATIO, BoundSample, blind_bound, delta1
from bidisc.errors import DepthExceeded, DomainError, InitialBoundsInvalid
from bidisc.harness import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_PRECISION,
    BlindCertifier,
    FlorianCertifier,
    ProofTrace,
    ThresholdCertifier,
    TraceNode,
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
    def test_upper_start_at_bound_proven(self, certifier):
        for r in (0.3, 0.7, 0.8):
            try:
                top = certifier.bound(Interval(r)).hi
            except DomainError:
                continue
            got = find_delta(certifier, Interval(r), delta_hi=top)
            assert top <= got <= top + DEFAULT_PRECISION

    def test_certifier_domain_error_propagates(self):
        # the polygonal bound needs r >= 0.6735; its own reason reaches the
        # caller, not a complaint about the upper start
        with pytest.raises(DomainError, match="polygonal bound needs ratio"):
            find_delta(BlindCertifier(), Interval(0.5))

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
        # the bound on the whole range lies above delta, which forces
        # splitting before success; all leaves must chain without gaps or
        # overlaps
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


def full_bisection(c, r, delta, max_depth):
    """certify_interval's tree when every unproven node is split down to
    max_depth: the bisection before refuted nodes became leaves."""

    def check(iv):
        if isinstance(c, ThresholdCertifier):
            return delta >= c.t
        try:
            return c.bound(iv).hi <= delta
        except DomainError:
            return False

    def descend(iv, depth):
        if check(iv):
            return TraceNode(iv, delta, True)
        mid = 0.5 * (iv.lo + iv.hi)
        if depth >= max_depth or not iv.lo < mid < iv.hi:
            return TraceNode(iv, delta, False)
        left = descend(Interval(iv.lo, mid), depth + 1)
        right = descend(Interval(mid, iv.hi), depth + 1)
        return TraceNode(iv, delta, left.verdict and right.verdict, (left, right))

    return ProofTrace(descend(r, 1))


class VeeCertifier:
    """Test certifier with a domain edge and a minimum inside its domain:
    bound 0.85 + |x - 0.5| for x >= 0.2.  Rounding to nearest is monotone,
    so the float enclosures keep the inclusion property exactly."""

    name = "vee"

    def bound(self, r):
        if r.lo < 0.2:
            raise DomainError(f"vee needs r >= 0.2, got {r}")
        ends = sorted(abs(x - 0.5) for x in (r.lo, r.hi))
        low = 0.0 if r.lo <= 0.5 <= r.hi else ends[0]
        return Interval(0.85 + low, 0.85 + ends[1])


def refuted(c, iv, delta):
    """The rule under which certify_interval stops splitting a node."""

    def above(x):
        try:
            return c.bound(x).lo > delta
        except DomainError:
            return True

    try:
        return c.bound(iv).lo > delta
    except DomainError:
        mid = 0.5 * (iv.lo + iv.hi)
        return all(above(Interval(x)) for x in (iv.lo, mid, iv.hi))


class TestRefutation:
    def test_blind_outside_its_domain_stops_early(self):
        # blind cannot bound r < BLIND_MIN_RATIO: the failing leaves
        # localise that edge in O(max_depth) nodes, not 2**max_depth
        with pytest.raises(DepthExceeded) as err:
            certify_interval(BlindCertifier(), Interval(0.3, 0.99), 0.931)
        trace = err.value.trace
        assert trace.node_count <= 2 * DEFAULT_MAX_DEPTH
        for leaf in trace.root.leaves():
            assert leaf.verdict == (leaf.interval.lo >= BLIND_MIN_RATIO)

    @pytest.mark.parametrize("certifier",
                             [FlorianCertifier(), BlindCertifier(),
                              ThresholdCertifier(0.92), VeeCertifier()],
                             ids=lambda c: c.name)
    def test_matches_full_bisection(self, certifier):
        # same verdict as splitting every unproven node; on success the same
        # trace, on failure the same tree cut at refuted nodes
        rng = np.random.default_rng(20261018)
        failures = 0

        def compare(new, old, depth, max_depth):
            assert new.interval == old.interval and new.verdict == old.verdict
            if new.children:
                assert len(old.children) == 2
                for a, b in zip(new.children, old.children):
                    compare(a, b, depth + 1, max_depth)
            elif old.children:
                assert not new.verdict and depth < max_depth
                assert refuted(certifier, new.interval, new.delta)

        for _ in range(12):
            lo, hi = sorted(float(x) for x in rng.uniform(0.05, 1.0, size=2))
            delta = float(rng.uniform(0.88, 0.96))
            max_depth = int(rng.integers(8, 11))
            old = full_bisection(certifier, Interval(lo, hi), delta, max_depth)
            try:
                new = certify_interval(certifier, Interval(lo, hi), delta, max_depth)
            except DepthExceeded as exc:
                new = exc.trace
            assert new.success == old.success
            if new.success:
                assert new.to_json() == old.to_json()
            else:
                failures += 1
                compare(new.root, old.root, 1, max_depth)
        assert 0 < failures < 12


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
        assert t.bound(Interval(0.5, 0.6)) == Interval(0.93)
        assert make_certifier("florian").bound(Interval(0.5)).hi <= 0.93

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
        assert any("0.5" in rec.message and "polygonal bound needs ratio" in rec.message
                   for rec in caplog.records)

    def test_empty_grid(self):
        assert sweep(FlorianCertifier(), [], precision=1e-3) == []

