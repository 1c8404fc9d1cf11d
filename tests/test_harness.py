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
    Certifier,
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

    @pytest.mark.parametrize("precision", [math.nan, math.inf])
    def test_rejects_non_finite_precision(self, precision):
        # nan passes a "<= 0" test and would skip the dichotomy
        with pytest.raises(DomainError, match="precision must be positive and finite"):
            find_delta(ThresholdCertifier(0.92), Interval(0.5), precision=precision)
        with pytest.raises(DomainError, match="precision must be positive and finite"):
            sweep(ThresholdCertifier(0.92), [0.5], precision=precision)

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

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_delta(self, delta):
        # a nan delta is never proven nor refuted: the tree would grow to
        # 2**max_depth - 1 nodes
        with pytest.raises(DomainError, match="delta must be finite"):
            certify_interval(ThresholdCertifier(0.9), Interval(0.5, 0.6), delta, max_depth=10)

    def test_degenerate_interval(self):
        trace = certify_interval(FlorianCertifier(), Interval(0.5), 0.92)
        assert trace.success
        assert trace.leaf_count == 1

    def test_node_count_consistent(self):
        trace = certify_interval(make_certifier("florian"), Interval(0.9, 0.99), 0.9075)
        leaves = list(trace.root.leaves())
        assert trace.leaf_count == len(leaves)
        assert trace.node_count >= 2 * trace.leaf_count - 1


def scalar_and_batch(c, iv):
    """c.bound(iv), or None where it raises DomainError; the certifier's
    batch form must give the same enclosure or the same error."""
    (batched,) = c.bound_many([iv])
    try:
        enc = c.bound(iv)
    except DomainError as exc:
        assert isinstance(batched, DomainError) and str(batched) == str(exc)
        return None
    assert repr(batched) == repr(enc)
    return enc


def full_bisection(c, r, delta, max_depth):
    """certify_interval's tree when every unproven node is split down to
    max_depth: the bisection before refuted nodes became leaves."""

    def check(iv):
        if isinstance(c, ThresholdCertifier):
            return delta >= c.t
        enc = scalar_and_batch(c, iv)
        return enc is not None and enc.hi <= delta

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


def depth_first(c, r, delta, max_depth):
    """certify_interval as a recursive bisection, left child first, with one
    scalar bound call per node and per point probe."""

    def enclosure(x):
        try:
            return c.bound(x)
        except DomainError:
            return None

    def hopeless(iv, mid, enc):
        if enc is None:
            points = (enclosure(Interval(x)) for x in (iv.lo, mid, iv.hi))
            return all(p is None or p.lo > delta for p in points)
        return enc.lo > delta

    def descend(iv, depth):
        enc = enclosure(iv)
        if enc is not None and enc.hi <= delta:
            return TraceNode(iv, delta, True)
        mid = 0.5 * (iv.lo + iv.hi)
        if depth >= max_depth or not iv.lo < mid < iv.hi or hopeless(iv, mid, enc):
            return TraceNode(iv, delta, False)
        left = descend(Interval(iv.lo, mid), depth + 1)
        right = descend(Interval(mid, iv.hi), depth + 1)
        return TraceNode(iv, delta, left.verdict and right.verdict, (left, right))

    return ProofTrace(descend(r, 1))


def certified(c, r, delta, max_depth=DEFAULT_MAX_DEPTH):
    """certify_interval's trace, whether or not it succeeds."""
    try:
        return certify_interval(c, r, delta, max_depth)
    except DepthExceeded as exc:
        return exc.trace


class VeeCertifier(Certifier):
    """Test certifier with a domain edge and a minimum inside its domain:
    bound 0.85 + |x - 0.5| for x >= 0.2.  Rounding to nearest is monotone,
    so the float enclosures keep the inclusion property exactly.  Its
    bound_many is the base class's loop over bound."""

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
        enc = scalar_and_batch(c, x)
        return enc is None or enc.lo > delta

    enc = scalar_and_batch(c, iv)
    if enc is None:
        mid = 0.5 * (iv.lo + iv.hi)
        return all(above(Interval(x)) for x in (iv.lo, mid, iv.hi))
    return enc.lo > delta


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


class TestLevelOrder:
    # (certifier, lo, hi, delta, max_depth, success, failing leaves refuted
    # through DomainError on the node)
    CASES = [
        (FlorianCertifier(), 0.3, 0.99, 0.931, DEFAULT_MAX_DEPTH, True, 0),
        (FlorianCertifier(), 0.9, 0.99, 0.9075, DEFAULT_MAX_DEPTH, True, 0),
        (FlorianCertifier(), 0.3, 0.99, 0.915, 9, False, 0),
        (FlorianCertifier(), 1e-12, 0.5, 0.95, 12, False, 1),
        (BlindCertifier(), 0.3, 0.99, 0.931, DEFAULT_MAX_DEPTH, False, 22),
        (BlindCertifier(), 0.5, 0.8, delta1(), 20, False, 2),
        (BlindCertifier(), 0.70, 0.99, delta1(), 12, False, 0),
        (ThresholdCertifier(0.92), 0.3, 0.99, 0.93, DEFAULT_MAX_DEPTH, True, 0),
        (ThresholdCertifier(0.94), 0.3, 0.99, 0.93, 8, False, 0),
        (VeeCertifier(), 0.05, 0.9, 0.99, 12, False, 1),
        (VeeCertifier(), 0.1, 0.95, 0.9, 10, False, 1),
    ]

    @pytest.mark.parametrize("case", CASES,
                             ids=lambda case: f"{case[0].name}-{case[1]}:{case[2]}@{case[3]}")
    def test_matches_depth_first(self, case):
        # byte-identical trace, leaf order included, to the recursive
        # bisection with scalar bound calls
        c, lo, hi, delta, max_depth, success, domain_leaves = case
        old = depth_first(c, Interval(lo, hi), delta, max_depth)
        new = certified(c, Interval(lo, hi), delta, max_depth)
        assert json.dumps(new.to_json()) == json.dumps(old.to_json())
        assert new.success == success
        assert sum(1 for leaf in new.failing_leaves()
                   if scalar_and_batch(c, leaf.interval) is None) == domain_leaves

    def test_913_nodes_at_931(self):
        trace = certify_interval(FlorianCertifier(), Interval(0.3, 0.99), 0.931)
        assert (trace.node_count, trace.leaf_count) == (913, 457)

    @pytest.mark.parametrize("certifier, lo, delta, probes",
                             [(FlorianCertifier(), 0.3, 0.931, 0),
                              (VeeCertifier(), 0.05, 0.99, 3)],
                             ids=["florian", "vee"])
    def test_one_batch_per_depth(self, certifier, lo, delta, probes):
        # one bound_many call for each depth's nodes, one more for the
        # point probes of a depth that has any, and no scalar bound call
        calls = []

        class Counting(type(certifier)):
            def bound(self, r):
                raise AssertionError("scalar bound called")

            def bound_many(self, rs):
                calls.append(len(rs))
                return certifier.bound_many(rs)

        trace = certified(Counting(), Interval(lo, 0.99), delta, 12)
        depth = 0
        level = [trace.root]
        while level:
            depth += 1
            level = [child for node in level for child in node.children]
        assert depth <= len(calls) <= 2 * depth
        assert sum(calls) == trace.node_count + 3 * probes


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

    # samples and warnings as the per-point sweep gave them, before the
    # batch call: each skipped point keeps its own reason, in grid order
    PINNED = [
        (BlindCertifier(), [0.5, 0.75, 0.6, 0.76],
         [(0.75, 0.9066986821171089), (0.76, 0.906198682117109)],
         ["sweep: no bound at r=0.5 via blind: polygonal bound needs ratio within "
          "[0.6735, 1], got Interval(0.5, 0.5)",
          "sweep: no bound at r=0.6 via blind: polygonal bound needs ratio within "
          "[0.6735, 1], got Interval(0.6, 0.6)"]),
        (FlorianCertifier(), [1e-10, 0.0, 0.5, 1.0, 1.5, -0.1, 5e-324],
         [(0.5, 0.9158118430285282), (1.0, 0.906899683117109)],
         ["sweep: no bound at r=1e-10 via florian: acos argument out of (-1, 1]: "
          "Interval(0.9999999999999999, 1.0000000000000002)",
          "sweep: no bound at r=0.0 via florian: ratio interval must lie in (0, 1], "
          "got Interval(0.0, 0.0)",
          "sweep: no bound at r=1.5 via florian: ratio interval must lie in (0, 1], "
          "got Interval(1.5, 1.5)",
          "sweep: no bound at r=-0.1 via florian: ratio interval must lie in (0, 1], "
          "got Interval(-0.1, -0.1)",
          "sweep: no bound at r=5e-324 via florian: acos argument out of (-1, 1]: "
          "Interval(0.9999999999999999, 1.0000000000000002)"]),
        (ThresholdCertifier(0.93), [0.5, 1.5], [(0.5, 0.93)],
         ["sweep: no bound at r=1.5 via threshold:0.93: ratio must lie in (0, 1], got 1.5"]),
    ]

    @pytest.mark.parametrize("certifier, grid, values, warnings", PINNED,
                             ids=[case[0].name for case in PINNED])
    def test_warnings_pinned(self, caplog, certifier, grid, values, warnings):
        with caplog.at_level(logging.WARNING, logger="bidisc.harness"):
            samples = sweep(certifier, grid)
        assert [(s.r, s.value) for s in samples] == values
        assert [rec.getMessage() for rec in caplog.records] == warnings

    def test_one_batch_call(self):
        calls = []

        class Counting(FlorianCertifier):
            def bound(self, r):
                raise AssertionError("scalar bound called")

            def bound_many(self, rs):
                calls.append(list(rs))
                return super().bound_many(rs)

        grid = [0.3, 0.5, 0.7, 1.5]
        assert len(sweep(Counting(), grid)) == 3
        assert calls == [[Interval(r) for r in grid]]

