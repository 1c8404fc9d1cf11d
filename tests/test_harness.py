"""Dichotomy and bisection drivers over pluggable certifiers."""

import json
import math

import numpy as np
import pytest

from bidisc import cli, harness
from bidisc.bounds import (BLIND_MIN_RATIO, BoundSample, blind_enclosures, delta1, florian_bound,
                           florian_enclosures)
from bidisc.errors import DomainError
from bidisc.harness import (
    _PRECISION,
    DEFAULT_MAX_DEPTH,
    TraceNode,
    certify_interval,
    make_certifier,
    sweep,
)
from bidisc.intervals import Interval

R_BLIND = 0.7429909632663198

BLIND = make_certifier("blind")
FLORIAN = make_certifier("florian")


def threshold(t):
    """Driver double: the bound is t at every ratio.  It proves nothing
    about packings; it drives sweep and certify_interval."""

    def bound(rs):
        return [Interval(t) for _ in rs]

    bound.__name__ = f"threshold:{t!r}"
    return bound


def vee(rs):
    """Driver double with a domain edge and a minimum inside its domain:
    bound 0.85 + |x - 0.5| for x >= 0.2.  Rounding to nearest is monotone,
    so the float enclosures keep the inclusion property exactly."""
    out = []
    for r in rs:
        if r.lo < 0.2:
            out.append(DomainError(f"vee needs r >= 0.2, got {r}"))
            continue
        ends = sorted(abs(x - 0.5) for x in (r.lo, r.hi))
        low = 0.0 if r.lo <= 0.5 <= r.hi else ends[0]
        out.append(Interval(0.85 + low, 0.85 + ends[1]))
    return out


def name(bound):
    """The name a certifier goes by on the command line, or a double's."""
    return {BLIND: "blind", FLORIAN: "florian"}.get(bound, bound.__name__)


def counting(bound, calls):
    """bound, appending the batch of each call to calls."""

    def counted(rs):
        calls.append(list(rs))
        return bound(rs)

    return counted


def sample(bound, r):
    """The value sweep gives at the one ratio r."""
    samples, skipped = sweep(bound, [r])
    assert skipped == []
    (got,) = samples
    return got.value


class TestFindDelta:
    """The least provable delta at one point: sweep on a one-point grid.
    With a threshold double, the window's midpoint gives what the window
    gives, as the double is the same everywhere."""

    def test_threshold_dichotomy(self):
        rng = np.random.default_rng(20240817)
        window = Interval(0.5, 0.6)
        for t in [0.92, *rng.uniform(0.91, 0.99, size=20)]:
            t = float(t)
            got = sample(threshold(t), window.mid)
            assert t <= got <= t + 1e-4 + 1e-12

    def test_precision_scales(self, monkeypatch):
        monkeypatch.setattr(harness, "_PRECISION", 1e-7)
        got = sample(threshold(0.93), Interval(0.5, 0.6).mid)
        assert 0.93 <= got <= 0.93 + 1e-7 + 1e-12

    def test_defaulted_lower_start_walks_down(self):
        # near r = 0.75 the heptagon+pentagon bound sits below the default
        # lower start, which is therefore provable and must be walked down
        got = sample(BLIND, 0.7501)
        reference = blind_enclosures([Interval(0.7501)])[0].mid
        assert reference <= got <= reference + 1e-4 + 1e-9

    @pytest.mark.parametrize("certifier", [FLORIAN, BLIND], ids=name)
    def test_upper_start_at_bound_proven(self, certifier):
        for r in (0.3, 0.7, 0.8):
            (enc,) = certifier([Interval(r)])
            if isinstance(enc, DomainError):
                continue
            top = enc.hi
            got = sample(certifier, r)
            assert top <= got <= top + _PRECISION

    def test_certifier_domain_error_propagates(self):
        # the polygonal bound needs r >= 0.6735; its own reason reaches the
        # caller, not a complaint about the upper start
        samples, skipped = sweep(BLIND, [0.5])
        assert samples == []
        ((r, exc),) = skipped
        assert r == 0.5
        assert isinstance(exc, DomainError) and "polygonal bound needs ratio" in str(exc)

    def test_bound_evaluated_once(self):
        calls = []
        sweep(counting(FLORIAN, calls), [0.5])
        assert calls == [[Interval(0.5)]]

    def test_wide_interval_default_upper_start(self):
        # a bound above the triangle bound at the point, as on a wide
        # interval: the upper start is not provable and moves to the bound
        top = 0.99
        assert florian_bound(0.5) < top
        got = sample(threshold(top), 0.5)
        assert top <= got <= top + 1e-4


class TestCertifyInterval:
    def test_single_leaf_success(self):
        trace = certify_interval(BLIND, Interval(0.743, 0.99), delta1())
        assert trace.verdict
        assert trace.leaf_count == 1
        assert not trace.children

    def test_split_leaves_tile_exactly(self):
        # the bound on the whole range lies above delta, which forces
        # splitting before success; all leaves must chain without gaps or
        # overlaps
        c = make_certifier("florian")
        trace = certify_interval(c, Interval(0.9, 0.99), 0.9075)
        assert trace.verdict
        leaves = sorted(trace.leaves(), key=lambda n: n.interval.lo)
        assert leaves[0].interval.lo == 0.9
        assert leaves[-1].interval.hi == 0.99
        for left, right in zip(leaves, leaves[1:]):
            assert left.interval.hi == right.interval.lo

    def test_depth_exceeded_carries_trace(self):
        c = BLIND
        trace = certify_interval(c, Interval(0.70, 0.99), delta1(), max_depth=12)
        assert isinstance(trace, TraceNode)
        assert not trace.verdict
        failing = [leaf for leaf in trace.leaves() if not leaf.verdict]
        assert failing
        # every failing leaf sits below the crossing radius, every passing
        # one above: the failure localizes the obstruction
        for leaf in trace.leaves():
            assert bool(leaf.verdict) == (leaf.interval.lo >= R_BLIND - 1e-12)

    def test_max_depth_validated(self):
        with pytest.raises(DomainError):
            certify_interval(BLIND, Interval(0.8, 0.9), delta1(), max_depth=0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_delta(self, delta):
        # a nan delta is never proven nor refuted: the tree would grow to
        # 2**max_depth - 1 nodes
        with pytest.raises(DomainError, match="delta must be finite"):
            certify_interval(threshold(0.9), Interval(0.5, 0.6), delta, max_depth=10)

    def test_degenerate_interval(self):
        trace = certify_interval(FLORIAN, Interval(0.5), 0.92)
        assert trace.verdict
        assert trace.leaf_count == 1

    def test_node_count_consistent(self):
        trace = certify_interval(make_certifier("florian"), Interval(0.9, 0.99), 0.9075)
        leaves = list(trace.leaves())
        assert trace.leaf_count == len(leaves)
        assert trace.node_count >= 2 * trace.leaf_count - 1

    def test_threshold_above_delta_is_one_leaf(self):
        # a bound above delta at every ratio is refuted at the root
        root = certify_interval(threshold(0.93), Interval(0.5, 0.6), 0.92, max_depth=12)
        assert not root.verdict
        assert [(leaf.interval, leaf.delta, leaf.verdict) for leaf in root.leaves()
                ] == [(Interval(0.5, 0.6), 0.92, False)]


def bound_one(c, iv):
    """c's enclosure over iv from a batch of one, or None where it is a
    DomainError."""
    (enc,) = c([iv])
    return None if isinstance(enc, DomainError) else enc


def full_bisection(c, r, delta, max_depth):
    """certify_interval's tree when every unproven node is split down to
    max_depth: the bisection before refuted nodes became leaves."""

    def check(iv):
        enc = bound_one(c, iv)
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

    return descend(r, 1)


def depth_first(c, r, delta, max_depth):
    """certify_interval as a recursive bisection, left child first, with one
    bound call per node and per point probe."""

    def hopeless(iv, mid, enc):
        if enc is None:
            points = (bound_one(c, Interval(x)) for x in (iv.lo, mid, iv.hi))
            return all(p is None or p.lo > delta for p in points)
        return enc.lo > delta

    def descend(iv, depth):
        enc = bound_one(c, iv)
        if enc is not None and enc.hi <= delta:
            return TraceNode(iv, delta, True)
        mid = 0.5 * (iv.lo + iv.hi)
        if depth >= max_depth or not iv.lo < mid < iv.hi or hopeless(iv, mid, enc):
            return TraceNode(iv, delta, False)
        left = descend(Interval(iv.lo, mid), depth + 1)
        right = descend(Interval(mid, iv.hi), depth + 1)
        return TraceNode(iv, delta, left.verdict and right.verdict, (left, right))

    return descend(r, 1)


def refuted(c, iv, delta):
    """The rule under which certify_interval stops splitting a node."""

    def above(x):
        enc = bound_one(c, x)
        return enc is None or enc.lo > delta

    enc = bound_one(c, iv)
    if enc is None:
        mid = 0.5 * (iv.lo + iv.hi)
        return all(above(Interval(x)) for x in (iv.lo, mid, iv.hi))
    return enc.lo > delta


class TestRefutation:
    def test_blind_outside_its_domain_stops_early(self):
        # blind cannot bound r < BLIND_MIN_RATIO: the failing leaves
        # localise that edge in O(max_depth) nodes, not 2**max_depth
        trace = certify_interval(BLIND, Interval(0.3, 0.99), 0.931)
        assert not trace.verdict
        assert trace.node_count <= 2 * DEFAULT_MAX_DEPTH
        for leaf in trace.leaves():
            assert leaf.verdict == (leaf.interval.lo >= BLIND_MIN_RATIO)

    @pytest.mark.parametrize("certifier",
                             [FLORIAN, BLIND, threshold(0.92), vee], ids=name)
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
            new = certify_interval(certifier, Interval(lo, hi), delta, max_depth)
            assert new.verdict == old.verdict
            if new.verdict:
                assert new == old
            else:
                failures += 1
                compare(new, old, 1, max_depth)
        assert 0 < failures < 12


class TestLevelOrder:
    # (certifier, lo, hi, delta, max_depth, success, failing leaves refuted
    # through DomainError on the node)
    CASES = [
        (FLORIAN, 0.3, 0.99, 0.931, DEFAULT_MAX_DEPTH, True, 0),
        (FLORIAN, 0.9, 0.99, 0.9075, DEFAULT_MAX_DEPTH, True, 0),
        (FLORIAN, 0.3, 0.99, 0.915, 9, False, 0),
        (FLORIAN, 1e-12, 0.5, 0.95, 12, False, 1),
        (BLIND, 0.3, 0.99, 0.931, DEFAULT_MAX_DEPTH, False, 22),
        (BLIND, 0.5, 0.8, delta1(), 20, False, 2),
        (BLIND, 0.70, 0.99, delta1(), 12, False, 0),
        (threshold(0.92), 0.3, 0.99, 0.93, DEFAULT_MAX_DEPTH, True, 0),
        (threshold(0.94), 0.3, 0.99, 0.93, 8, False, 0),
        (vee, 0.05, 0.9, 0.99, 12, False, 1),
        (vee, 0.1, 0.95, 0.9, 10, False, 1),
    ]

    @pytest.mark.parametrize("case", CASES,
                             ids=lambda case: f"{name(case[0])}-{case[1]}:{case[2]}@{case[3]}")
    def test_matches_depth_first(self, case):
        # byte-identical trace, leaf order included, to the recursive
        # bisection with one bound call per node
        c, lo, hi, delta, max_depth, success, domain_leaves = case
        old = depth_first(c, Interval(lo, hi), delta, max_depth)
        new = certify_interval(c, Interval(lo, hi), delta, max_depth)
        assert new == old
        assert new.verdict == success
        assert all(leaf.verdict for leaf in new.leaves()) == success
        assert sum(1 for leaf in new.leaves() if not leaf.verdict
                   and bound_one(c, leaf.interval) is None) == domain_leaves

    def test_913_nodes_at_931(self):
        trace = certify_interval(FLORIAN, Interval(0.3, 0.99), 0.931)
        assert (trace.node_count, trace.leaf_count) == (913, 457)

    @pytest.mark.parametrize("certifier, lo, delta, probes",
                             [(FLORIAN, 0.3, 0.931, 0), (vee, 0.05, 0.99, 3)],
                             ids=["florian", "vee"])
    def test_one_batch_per_depth(self, certifier, lo, delta, probes):
        # one bound call for each depth's nodes, and one more for the point
        # probes of a depth that has any
        calls = []
        trace = certify_interval(counting(certifier, calls), Interval(lo, 0.99), delta, 12)
        depth = 0
        level = [trace]
        while level:
            depth += 1
            level = [child for node in level for child in node.children]
        assert depth <= len(calls) <= 2 * depth
        assert sum(map(len, calls)) == trace.node_count + 3 * probes


def json_leaves(node):
    """The leaves of a trace document's node tree, left to right."""
    if not node["children"]:
        yield node
    for child in node["children"]:
        yield from json_leaves(child)


class TestSerialization:
    # the command line writes traces; these read what it writes for the
    # trace of one run
    @staticmethod
    def certify_stdout(capsys, fmt):
        code = cli.main(["certify", "--range", "0.9:0.99", "--certifier", "florian",
                         "--delta", "0.9075", "--format", fmt])
        assert code == 0
        return capsys.readouterr().out

    def test_trace_json_deterministic(self, capsys):
        first = self.certify_stdout(capsys, "json")
        assert first == self.certify_stdout(capsys, "json")
        assert "wall_time" not in first
        obj = json.loads(first)
        trace = certify_interval(make_certifier("florian"), Interval(0.9, 0.99), 0.9075)
        assert (obj["leaf_count"], obj["node_count"], obj["success"]) == (
            trace.leaf_count, trace.node_count, True)
        assert obj["root"]["verdict"] == "proven"
        assert [(float(n["lo"]), float(n["hi"]), n["delta"], n["verdict"])
                for n in json_leaves(obj["root"])] == [
            (leaf.interval.lo, leaf.interval.hi, leaf.delta, "proven")
            for leaf in trace.leaves()]

    def test_leaves_csv_shape(self, capsys):
        trace = certify_interval(make_certifier("florian"), Interval(0.9, 0.99), 0.9075)
        lines = self.certify_stdout(capsys, "csv").strip().splitlines()
        assert lines[0] == "lo,hi,delta,verdict"
        assert len(lines) == trace.leaf_count + 1
        rows = [row.split(",") for row in lines[1:]]
        assert [(float(lo), float(hi), float(delta)) for lo, hi, delta, _ in rows] == [
            (leaf.interval.lo, leaf.interval.hi, leaf.delta) for leaf in trace.leaves()]
        assert all(verdict in ("proven", "unproven") for *_, verdict in rows)

    def test_wall_time_not_compared(self):
        c = make_certifier("florian")
        a = certify_interval(c, Interval(0.9, 0.95), 0.92)
        b = certify_interval(c, Interval(0.9, 0.95), 0.92)
        assert a == b


class TestMakeCertifier:
    def test_names(self):
        assert make_certifier("blind") is blind_enclosures
        assert make_certifier("florian") is florian_enclosures
        assert threshold(0.93)([Interval(0.5, 0.6)]) == [Interval(0.93)]
        assert make_certifier("florian")([Interval(0.5)])[0].hi <= 0.93

    def test_unknown_spec(self):
        # the threshold double proves nothing, so no spec builds it
        for spec in ("magic", "threshold:0.93"):
            with pytest.raises(DomainError, match=f"^unknown certifier '{spec}'$"):
                make_certifier(spec)


def skip_lines(certifier, skipped):
    """The stderr lines the command line writes for sweep's skipped points."""
    return [f"sweep: no bound at r={r} via {name(certifier)}: {exc}" for r, exc in skipped]


class TestSweep:
    def test_values_and_skips(self):
        grid = [0.75, 0.76, 0.5]
        samples, skipped = sweep(BLIND, grid)
        # 0.5 is outside the blind window and must be skipped with its reason
        assert [s.r for s in samples] == [0.75, 0.76]
        for s in samples:
            reference = blind_enclosures([Interval(s.r)])[0].mid
            assert reference - 1e-9 <= s.value <= reference + 1e-4 + 1e-9
        assert any(m.startswith("sweep: no bound at r=0.5 ") and "polygonal bound needs ratio" in m
                   for m in skip_lines(BLIND, skipped))

    def test_empty_grid(self):
        assert sweep(FLORIAN, []) == ([], [])

    def test_threshold_certifier_samples(self):
        # the triangle bound at each grid ratio lies below t, so every
        # sample's dichotomy starts from t itself
        samples, skipped = sweep(threshold(0.92), cli._grid(0.5, 0.6, 1e-3))
        assert skipped == []
        assert len(samples) == 101
        assert all(0.92 <= s.value <= 0.92 + 1e-4 for s in samples)

    # samples and warnings as the per-point sweep gave them, before the
    # batch call: each skipped point keeps its own reason, in grid order
    PINNED = [
        (BLIND, [0.5, 0.75, 0.6, 0.76],
         [(0.75, 0.9066986821171089), (0.76, 0.906198682117109)],
         ["sweep: no bound at r=0.5 via blind: polygonal bound needs ratio within "
          "[0.6735, 1], got Interval(0.5, 0.5)",
          "sweep: no bound at r=0.6 via blind: polygonal bound needs ratio within "
          "[0.6735, 1], got Interval(0.6, 0.6)"]),
        (FLORIAN, [1e-10, 0.0, 0.5, 1.0, 1.5, -0.1, 5e-324],
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
        (threshold(0.93), [0.5, 1.5], [(0.5, 0.93)],
         ["sweep: no bound at r=1.5 via threshold:0.93: ratio must lie in (0, 1], got 1.5"]),
    ]

    @pytest.mark.parametrize("certifier, grid, values, warnings", PINNED,
                             ids=[name(case[0]) for case in PINNED])
    def test_warnings_pinned(self, certifier, grid, values, warnings):
        samples, skipped = sweep(certifier, grid)
        assert [(s.r, s.value) for s in samples] == values
        assert skip_lines(certifier, skipped) == warnings

    def test_one_batch_call(self):
        calls = []
        grid = [0.3, 0.5, 0.7, 1.5]
        assert len(sweep(counting(FLORIAN, calls), grid)[0]) == 3
        assert calls == [[Interval(r) for r in grid]]

    NON_FINITE = [
        (FLORIAN, [(0.5, 0.9158118430285282), (0.6, 0.9118560041524228)], []),
        (BLIND, [], [0.5, 0.6]),
        (threshold(0.93), [(0.5, 0.93), (0.6, 0.93)], []),
    ]

    @pytest.mark.parametrize("certifier, values, unbounded", NON_FINITE,
                             ids=[name(case[0]) for case in NON_FINITE])
    def test_non_finite_points_skipped(self, certifier, values, unbounded):
        # nan and inf are skipped with their reason, in grid order, like any
        # point the certifier cannot bound; the finite points still take
        # one batch call
        calls = []
        samples, skipped = sweep(counting(certifier, calls), [0.5, math.nan, math.inf, 0.6])
        assert [(s.r, s.value) for s in samples] == values
        assert calls == [[Interval(0.5), Interval(0.6)]]
        messages = skip_lines(certifier, skipped)
        skipped = [r for r in (0.5, math.nan, math.inf, 0.6)
                   if r in unbounded or not math.isfinite(r)]
        assert [m.split(" via ")[0] for m in messages] == [
            f"sweep: no bound at r={r}" for r in skipped]
        assert [m for m in messages if "must be finite" in m] == [
            f"sweep: no bound at r={r} via {name(certifier)}: interval endpoints must be finite"
            for r in ("nan", "inf")]
