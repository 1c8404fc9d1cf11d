"""Acceptance checklist for the package.

Each test prints exactly one line, ACCEPTANCE nn PASS or ACCEPTANCE nn FAIL,
with its wall time and a short diagnostic, then asserts.  Budgets are wall
clock seconds measured after a one off kernel warm up.
"""

import math
import time

import numpy as np
import pytest

from bidisc.bounds import (
    BoundSample,
    blind_enclosures,
    delta1,
    florian_angles,
    florian_bound,
    lipschitz_envelope,
    lipschitz_slope,
    r_blind_interval,
)
from bidisc.flows import (
    builtin_recipes,
    clear_continuation_cache,
    eval_flow,
    find_crossings,
    interstitial,
)
from bidisc.geometry import Disc, FundamentalDomain, density, validate
from bidisc.harness import certify_interval, sweep
from bidisc.intervals import Interval
from bidisc.ratios import RATIO_TABLE, ratio
from closed_forms import closed_form_841, closed_form_r6

DELTA1 = 0.9068996821171089

# 10 digit reference values for the tabulated critical radii.
TABLE10 = {
    "r1": 0.6375559772,
    "ra": 0.6199144044,
    "r2": 0.5451510421,
    "r3": 0.5332964167,
    "r4": 0.4142135624,
    "r5": 0.3861061049,
    "rb": 0.3691023862,
    "r6": 0.3491981862,
    "r7": 0.2807764064,
    "rc": 0.2168453354,
    "r8": 0.1547005384,
    "r9": 0.1010205144,
}


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # first call of the overlap scan compiles the jit kernel; keep that
    # cost out of every per criterion budget
    validate(FundamentalDomain((4.0, 0.0), (0.0, 4.0), (Disc(0.0, 0.0, 1.0),)))


def _report(n, ok, elapsed, budget, detail=""):
    verdict = "PASS" if ok and elapsed <= budget else "FAIL"
    line = f"ACCEPTANCE {n:02d} {verdict} ({elapsed:.2f}s, budget {budget:.0f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert verdict == "PASS", line


def _run(body):
    t0 = time.perf_counter()
    try:
        ok, detail = body()
    except Exception as exc:
        ok, detail = False, repr(exc)[:160]
    return ok, time.perf_counter() - t0, detail


def test_criterion_01():
    def body():
        drift = abs(delta1() - math.pi / (2.0 * math.sqrt(3.0)))
        pinned = abs(delta1() - 0.9068996821)
        return drift <= 1e-10 and pinned <= 1e-10, f"drift={drift:.1e}"

    ok, elapsed, detail = _run(body)
    _report(1, ok, elapsed, 1.0, detail)


def test_criterion_02():
    def body():
        worst = max(abs(ratio(name) - ref) for name, ref in TABLE10.items())
        complete = set(TABLE10) == set(RATIO_TABLE)
        return complete and worst <= 1e-9, f"worst={worst:.1e}"

    ok, elapsed, detail = _run(body)
    _report(2, ok, elapsed, 1.0, detail)


def test_criterion_03():
    def body():
        lo, hi = 0.70, 0.80
        f = lambda r: blind_enclosures([Interval(r)])[0].mid - delta1()
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        bisected = 0.5 * (lo + hi)
        closed = r_blind_interval().mid
        agree = abs(closed - bisected)
        pinned = abs(closed - 0.74299)
        return agree <= 1e-9 and pinned <= 1e-5, f"agree={agree:.1e} pinned={pinned:.1e}"

    ok, elapsed, detail = _run(body)
    _report(3, ok, elapsed, 1.0, detail)


def test_criterion_04():
    def body():
        recipe = builtin_recipes()["flow-841-mid"]
        worst = 0.0
        for r in np.linspace(ratio("r4") + 1e-6, ratio("r1") - 1e-6, 100):
            domain, value = eval_flow(recipe, float(r))
            worst = max(worst, abs(value - closed_form_841(float(r))))
            if validate(domain, tol=1e-9):
                return False, f"overlap at r={float(r):.6f}"
        return worst <= 1e-12, f"worst={worst:.1e}"

    ok, elapsed, detail = _run(body)
    _report(4, ok, elapsed, 1.0, detail)


def test_criterion_05():
    def body():
        lo, hi = ratio("r4"), ratio("r1")
        xs = np.linspace(lo, hi, int(math.ceil((hi - lo) / 1e-3)) + 1)
        samples = [(float(x), closed_form_841(float(x))) for x in xs]
        found = find_crossings(closed_form_841, delta1(), samples)
        if not found:
            return False, "no crossing found"
        off = abs(found[0].mid - 0.4378)
        return off <= 5e-4, f"crossing={found[0].mid:.7f} off={off:.1e}"

    ok, elapsed, detail = _run(body)
    _report(5, ok, elapsed, 1.0, detail)


def test_criterion_06():
    def body():
        recipe = builtin_recipes()["flow-r6-1"]
        clear_continuation_cache("flow-r6-1")
        worst = 0.0
        for r in np.linspace(ratio("r6") + 1e-4, 0.99, 50):
            _, value = eval_flow(recipe, float(r))
            worst = max(worst, abs(value - closed_form_r6(float(r))))
        _, at_one = eval_flow(recipe, 1.0)
        hex_drift = abs(at_one - delta1())
        return worst <= 1e-9 and hex_drift <= 1e-9, \
            f"worst={worst:.1e} at_one={hex_drift:.1e}"

    ok, elapsed, detail = _run(body)
    _report(6, ok, elapsed, 10.0, detail)


def test_criterion_07():
    def body():
        r8 = ratio("r8")
        _, snug = interstitial(r8)
        formula = math.pi * (1.0 + 2.0 * r8 * r8) / (2.0 * math.sqrt(3.0))
        snug_drift = abs(snug - formula)
        floor = min(interstitial(float(r))[1] - delta1()
                    for r in np.linspace(0.0101, r8, 100))
        return snug_drift <= 1e-9 and floor > 0.0, \
            f"snug={snug:.6f} drift={snug_drift:.1e} margin={floor:.1e}"

    ok, elapsed, detail = _run(body)
    _report(7, ok, elapsed, 5.0, detail)


def test_criterion_08():
    def body():
        at_one = abs(florian_bound(1.0) - delta1())
        worst = max(abs(sum(florian_angles(float(r))[k] * (1, 2)[k] for k in (0, 1))
                        - math.pi)
                    for r in np.linspace(0.002, 1.0, 500))
        return at_one <= 1e-12 and worst <= 1e-12, f"at_one={at_one:.1e} sum={worst:.1e}"

    ok, elapsed, detail = _run(body)
    _report(8, ok, elapsed, 1.0, detail)


def threshold(t):
    """Driver double: the bound is t at every ratio."""
    return lambda rs: [Interval(t) for _ in rs]


def test_criterion_09():
    def sample(bound, r):
        (got,), _ = sweep(bound, [r])
        return got.value

    def body():
        # the double is the same on the whole window, so its midpoint's
        # sample is the window's
        window = Interval(0.5, 0.6)
        got = sample(threshold(0.92), window.mid)
        if not 0.92 <= got <= 0.9201:
            return False, f"t=0.92 -> {got!r}"
        rng = np.random.default_rng(92)
        for t in rng.uniform(0.91, 0.99, size=20):
            t = float(t)
            got = sample(threshold(t), window.mid)
            if not t <= got <= t + 1e-4 + 1e-12:
                return False, f"t={t} -> {got!r}"
        return True, "21 thresholds bracketed"

    ok, elapsed, detail = _run(body)
    _report(9, ok, elapsed, 1.0, detail)


def test_criterion_10():
    def body():
        proven = certify_interval(blind_enclosures, Interval(0.743, 0.99), delta1())
        if not proven.verdict:
            return False, "clean window did not certify"
        leaves = sorted(proven.leaves(), key=lambda n: n.interval.lo)
        tiles = (leaves[0].interval.lo == 0.743 and leaves[-1].interval.hi == 0.99
                 and all(a.interval.hi == b.interval.lo for a, b in zip(leaves, leaves[1:])))
        if not tiles:
            return False, "proven leaves do not tile"
        trace = certify_interval(blind_enclosures, Interval(0.70, 0.99), delta1(), max_depth=12)
        if trace.verdict:
            return False, "extended window certified unexpectedly"
        rb = r_blind_interval().lo
        split = all(bool(leaf.verdict) == (leaf.interval.lo >= rb - 1e-12)
                    for leaf in trace.leaves())
        failing = sum(not leaf.verdict for leaf in trace.leaves())
        return split and failing > 0, \
            f"proven_leaves={proven.leaf_count} failing={failing} split_at_rB={split}"

    ok, elapsed, detail = _run(body)
    _report(10, ok, elapsed, 10.0, detail)


def test_criterion_11():
    def body():
        rng = np.random.default_rng(1111)
        worst = 0.0
        for _ in range(50):
            a = rng.uniform(2.0, 5.0)
            c = rng.uniform(2.0, 5.0)
            b = rng.uniform(-1.0, 1.0)
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, n + 1))
            y = float(rng.uniform(0.4, 1.0))
            x = float(rng.uniform(0.05, y))
            discs = [Disc(float(cx), float(cy), y if k < p else float(rng.uniform(0.1, 1.0)))
                     for k, (cx, cy) in enumerate(rng.uniform(0.0, 5.0, size=(n, 2)))]
            before = FundamentalDomain((a, 0.0), (b, c), tuple(discs))
            after = FundamentalDomain((a, 0.0), (b, c), tuple(
                Disc(d.x, d.y, x) if k < p else d for k, d in enumerate(discs)))
            expect = -p * math.pi * (y * y - x * x) / before.cell_area
            worst = max(worst, abs((density(after) - density(before)) - expect))
        if worst > 1e-12:
            return False, f"shrink drift {worst:.1e}"

        low = 0.0
        for _ in range(100):
            anchors = [(float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.88, 0.96)))
                       for _ in range(4)]
            g = lambda t: min(v + lipschitz_slope(max(t, a)) * abs(t - a)
                              for a, v in anchors)
            pts = sorted(float(r) for r in rng.uniform(0.2, 0.9, size=12))
            samples = [BoundSample(r, g(r)) for r in pts]
            for t in rng.uniform(0.2, 0.9, size=20):
                low = min(low, lipschitz_envelope(samples, float(t)) - g(float(t)))
        return low >= -1e-12, f"shrink={worst:.1e} envelope_min_margin={low:.1e}"

    ok, elapsed, detail = _run(body)
    _report(11, ok, elapsed, 5.0, detail)
