"""Flow recipes, closed form densities, interstitial refinement."""

import bisect
import hashlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import takewhile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bidisc import flows
from bidisc.errors import DomainError, InvalidPacking, NoConvergence, NoSolution, RecipeError
from bidisc.flows import (
    builtin_recipes,
    clear_continuation_cache,
    eval_flow,
    find_crossings,
    interstitial,
    lower_bound_curve,
    recipe_from_dict,
)
from bidisc.bounds import delta1
from bidisc.geometry import Violation, density, validate, validate_many
from bidisc.intervals import Interval
from bidisc.ratios import ratio
from closed_forms import closed_form_841, closed_form_r6

DELTA1 = 0.9068996821171089

REPO = pathlib.Path(__file__).resolve().parent.parent

# sha256 of the whole stdout of `PYTHONPATH=src python dev/refine_r6_seed.py`,
# recorded with the refined unknowns printed as JSON numbers
REFINE_R6_SEED_SHA256 = "143b3daa6821b888832e819e3de2ab0a4056f4e711fb52044a74cd6bae33cea6"

# Frozen against a 50 digit mpmath evaluation of the same formulas.
CF841_REFERENCE = {
    0.42: 0.9165186333369745778739,
    0.45: 0.9016107616390070484324,
    0.5: 0.8890781143973419341339,
    0.55: 0.8887510151505953892557,
    0.6: 0.898176796898675790204,
    0.63: 0.9078229927824749211712,
}
CFR6_REFERENCE = {
    0.36: 0.8978499342036188892469,
    0.4: 0.846611333488905871838,
    0.5: 0.8106777628254535866306,
    0.6: 0.8142978652531550678791,
    0.75: 0.8431413312933991955896,
    0.9: 0.8808635635596948564387,
    0.99: 0.9043061766797758256114,
}


class TestClosedForms:
    def test_hexagonal_constant(self):
        assert math.isclose(delta1(), DELTA1, rel_tol=0, abs_tol=1e-16)

    @pytest.mark.parametrize("r,ref", sorted(CF841_REFERENCE.items()))
    def test_branch_841_reference_values(self, r, ref):
        assert math.isclose(closed_form_841(r), ref, rel_tol=1e-14)

    @pytest.mark.parametrize("r,ref", sorted(CFR6_REFERENCE.items()))
    def test_branch_r6_reference_values(self, r, ref):
        assert math.isclose(closed_form_r6(r), ref, rel_tol=1e-14)

    def test_endpoints_at_table_roots(self):
        assert math.isclose(closed_form_841(ratio("r4")), 0.9201511845106101, abs_tol=5e-12)
        assert math.isclose(closed_form_841(ratio("r1")), 0.9106831998185283, abs_tol=5e-12)
        assert math.isclose(closed_form_r6(ratio("r6")), 0.9246489103820591, abs_tol=5e-12)

    def test_r6_recovers_hexagonal_at_one(self):
        assert math.isclose(closed_form_r6(1.0), DELTA1, rel_tol=0, abs_tol=1e-15)

    def test_r6_domain_error_below_third(self):
        for r in (0.1, 0.3, 0.33):
            with pytest.raises(DomainError):
                closed_form_r6(r)


class TestSequentialFlow:
    def test_matches_closed_form(self):
        recipe = builtin_recipes()["flow-841-mid"]
        for r in np.linspace(ratio("r4") + 1e-6, ratio("r1") - 1e-6, 20):
            domain, value = eval_flow(recipe, float(r))
            assert abs(value - closed_form_841(float(r))) <= 1e-12
            assert validate(domain, tol=1e-9) == []
            census = Counter(d.radius for d in domain.discs)
            assert census[1.0] == 2
            assert census[float(r)] == 2

    def test_rejects_radius_outside_range(self):
        recipe = builtin_recipes()["flow-841-mid"]
        with pytest.raises(DomainError):
            eval_flow(recipe, 0.3)
        with pytest.raises(DomainError):
            eval_flow(recipe, 0.7)

    def test_census_mismatch_raises(self):
        # refused when read: the cell holds (2, 2)
        obj = recipe_to_dict_841()
        obj["census"] = {"unit": 3, "ratio": 2}
        with pytest.raises(RecipeError, match=r"census \(3, 2\) but the cell holds \(2, 2\)"):
            recipe_from_dict(obj)

    def test_overlap_message_names_least_gap(self, monkeypatch):
        # validate lists rows in (i, j, m, n) order, not by gap
        rows = [Violation(0, 1, 0, 0, -1e-6), Violation(1, 2, 0, 1, -1e-3)]
        monkeypatch.setattr(flows, "validate", lambda domain: rows)
        with pytest.raises(InvalidPacking) as info:
            eval_flow(builtin_recipes()["flow-841-mid"], 0.5)
        assert "2 overlap(s)" in str(info.value)
        assert str(info.value).endswith(f"worst {rows[1]}")


class TestConstrainedFlow:
    def test_matches_closed_form_sparse(self):
        recipe = builtin_recipes()["flow-r6-1"]
        for r in (0.36, 0.5, 0.75, 0.99):
            domain, value = eval_flow(recipe, r)
            assert abs(value - closed_form_r6(r)) <= 1e-9
            assert validate(domain, tol=1e-9) == []

    def test_census(self):
        recipe = builtin_recipes()["flow-r6-1"]
        domain, _ = eval_flow(recipe, 0.5)
        assert Counter(d.radius for d in domain.discs) == {1.0: 1, 0.5: 6}

    def test_continuation_is_deterministic(self):
        recipe = builtin_recipes()["flow-r6-1"]
        clear_continuation_cache("flow-r6-1")
        first = eval_flow(recipe, 0.74)[1]
        # far jump then return: the cached path must not change the answer
        eval_flow(recipe, 0.98)
        again = eval_flow(recipe, 0.74)[1]
        assert again == first
        clear_continuation_cache("flow-r6-1")
        cold = eval_flow(recipe, 0.74)[1]
        assert abs(cold - first) <= 1e-12

    def test_clear_cache_unknown_name_is_noop(self):
        clear_continuation_cache("no-such-recipe")
        clear_continuation_cache()

    def test_held_out_residual_refused(self):
        # Newton forces x = 1; the held-out equation asks for x = 2
        recipe = recipe_from_dict({
            "name": "held-out-contradiction", "kind": "constrained",
            "valid_range": [0.1, 1.0], "census": {"unit": 1, "ratio": 0},
            "variables": ["x"], "defines": {}, "equations": ["x - 1", "x - 2"],
            "verify_index": 1, "r0": 0.5, "guess": {"x": 0.5},
            "lattice": {"u": ["2", "0"], "v": ["0", "2"]}, "cell": [["x", "0", "one"]]})
        clear_continuation_cache(recipe.name)
        message = r"held-out contact residual -1\.000e\+00 at r=0\.5"
        with pytest.raises(InvalidPacking, match=message):
            eval_flow(recipe, 0.5)
        clear_continuation_cache(recipe.name)

    def test_refine_r6_seed_output_pinned(self):
        env = dict(os.environ, PYTHONPATH="src")
        out = subprocess.run([sys.executable, "dev/refine_r6_seed.py"], cwd=REPO, env=env,
                             capture_output=True, check=True).stdout
        assert hashlib.sha256(out).hexdigest() == REFINE_R6_SEED_SHA256
        # the refined unknowns paste into the recipe file as they stand
        lines = out.decode().splitlines()
        start = lines.index("refined unknowns at r0:") + 1
        refined = dict(line.strip().split(" = ") for line in
                       takewhile(lambda line: line.startswith("  "), lines[start:]))
        with open(REPO / "src" / "bidisc" / "data" / "flow_r6_1.json") as fh:
            guess = json.load(fh)["guess"]
        assert {name: json.loads(value) for name, value in refined.items()} == guess

    def test_newton_system_compiled_lazily_without_expr_calls(self, monkeypatch):
        compiled = []
        original = flows.compile_system

        def counting_compile(*args):
            compiled.append(args)
            return original(*args)

        monkeypatch.setattr(flows, "compile_system", counting_compile)
        monkeypatch.setattr(flows, "_BUILTIN", None)
        recipe = builtin_recipes()["flow-r6-1"]
        assert compiled == []
        residuals, jacobian, values = recipe.compiled
        assert recipe.compiled == (residuals, jacobian, values)
        assert len(compiled) == 1

        q = np.array(recipe.guess)
        assert len(residuals(q, 0.5)) == len(recipe.variables) == 6
        assert np.array(jacobian(q, 0.5)).shape == (6, 6)
        # the held-out equation, u, v and the seven cell centres
        assert len(values(q, 0.5)) == 1 + 4 + 2 * 7
        clear_continuation_cache(recipe.name)
        eval_flow(recipe, 0.5)
        recipe.cell_from(q, 0.5)
        assert len(compiled) == 1

    @pytest.mark.parametrize("where", ["held-out", "cell"])
    def test_zero_division_in_outputs_is_invalid_packing(self, where):
        # on floats a zero denominator raises where numpy gave inf; the
        # recipe's point is still refused as an invalid packing
        with open("src/bidisc/data/flow_r6_1.json") as fh:
            obj = json.load(fh)
        obj["name"] = f"divides-{where}"
        if where == "held-out":
            k = obj["verify_index"]
            obj["equations"][k] += " + 1 / (r - r)"
        else:
            obj["cell"][1][0] += " + 1 / (r - r)"
        recipe = recipe_from_dict(obj)
        clear_continuation_cache(recipe.name)
        with pytest.raises(InvalidPacking):
            eval_flow(recipe, 0.5)
        clear_continuation_cache(recipe.name)

    def test_seed_point_failure_is_no_solution(self):
        with open("src/bidisc/data/flow_r6_1.json") as fh:
            obj = json.load(fh)
        obj["name"] = "zero-guess"
        obj["guess"] = {name: 0.0 for name in obj["guess"]}
        recipe = recipe_from_dict(obj)
        clear_continuation_cache("zero-guess")
        with pytest.raises(NoSolution, match="r0=0.4"):
            flows.solve_constrained(recipe, 0.5)
        with pytest.raises(NoSolution):
            eval_flow(recipe, 0.5)
        assert "zero-guess" not in flows._paths

    def test_same_named_recipes_keep_their_own_paths(self):
        # B is flow-r6-1 with its unknowns in reverse order: same name, and
        # a solution vector that the builtin's path would fill wrongly
        builtin = builtin_recipes()["flow-r6-1"]
        with open("src/bidisc/data/flow_r6_1.json") as fh:
            obj = json.load(fh)
        obj["variables"] = obj["variables"][::-1]
        other = recipe_from_dict(obj)
        assert other.name == builtin.name
        clear_continuation_cache()
        cold = eval_flow(other, 0.5)[1]
        assert cold == 0.8106777628254536
        clear_continuation_cache()
        own = eval_flow(builtin, 0.5)[1]
        assert eval_flow(other, 0.5)[1] == cold
        eval_flow(other, 0.5005)
        assert eval_flow(builtin, 0.5)[1] == own
        clear_continuation_cache(builtin.name)
        assert builtin.name not in flows._paths
        clear_continuation_cache()


# Order-of-visit oracle: the path lookup as it was before it was bisected,
# one linear scan of the whole path per query, with the path's points and the
# secant prediction as ndarrays, as they were before the continuation moved
# to lists of floats.

def _linear_predict(path, target):
    rs = [p[0] for p in path]
    k = min(range(len(path)), key=lambda i: abs(rs[i] - target))
    if len(path) == 1:
        return path[k][1].copy()
    k2 = k - 1 if (k == len(path) - 1 or
                   (k > 0 and abs(rs[k - 1] - target) <= abs(rs[k + 1] - target))) else k + 1
    (ra, qa), (rb, qb) = path[k], path[k2]
    if ra == rb:
        return qa.copy()
    return qa + (qb - qa) * ((target - ra) / (rb - ra))


def _linear_solve_constrained(paths, recipe, r):
    path = paths.get(recipe.name)
    if path is None:
        seed = np.array(flows._correct(recipe, recipe.r0, np.asarray(recipe.guess, dtype=float)))
        path = [(recipe.r0, seed)]
        paths[recipe.name] = path
    rs = [p[0] for p in path]
    pos = bisect.bisect_left(rs, r)
    if pos < len(rs) and rs[pos] == r:
        return path[pos][1].copy()
    nearest = min(rs, key=lambda t: abs(t - r))
    sol = path[rs.index(nearest)][1]
    current = nearest
    step = flows._MAX_STEP
    while current != r:
        remaining = r - current
        if abs(remaining) <= step * (1.0 + flows._STEP_SLACK):
            target = r
        else:
            target = current + math.copysign(step, remaining)
        try:
            sol = np.array(flows._correct(recipe, target, _linear_predict(path, target)))
        except NoConvergence as exc:
            step *= 0.5
            if step < flows._MIN_STEP:
                raise NoSolution(str(exc)) from exc
            continue
        bisect.insort(path, (target, sol), key=lambda p: p[0])
        current = target
        step = min(step * 2.0, flows._MAX_STEP)
    return sol.copy()


class TestContinuationLookup:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=1, max_size=12), st.integers(-2, 18))
    def test_nearest_is_first_minimiser(self, values, target):
        # eighths and sixteenths are exact, so duplicates and exactly
        # equidistant neighbours both occur
        rs = sorted(v / 8.0 for v in values)
        target = target / 16.0
        expect = min(range(len(rs)), key=lambda i: abs(rs[i] - target))
        assert flows._nearest([(r, []) for r in rs], target) == expect

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30), st.floats(-0.5, 1.5))
    def test_nearest_on_arbitrary_floats(self, values, target):
        rs = sorted(values)
        expect = min(range(len(rs)), key=lambda i: abs(rs[i] - target))
        assert flows._nearest([(r, []) for r in rs], target) == expect

    def test_predict_on_lists_matches_numpy_form(self):
        # the secant on lists of floats gives the bits of the ndarray
        # broadcast, on paths with repeated ratios and targets on either side
        rng = np.random.default_rng(20261019)
        for _ in range(500):
            rs = sorted(float(r) for r in rng.choice(
                rng.uniform(0.36, 0.99, size=6), size=int(rng.integers(1, 8))))
            path = [(r, rng.normal(scale=2.0, size=6).tolist()) for r in rs]
            target = float(rng.choice([*rs, *rng.uniform(0.3, 1.05, size=3)]))
            got = flows._predict(path, target)
            expect = _linear_predict([(r, np.array(q)) for r, q in path], target)
            assert all(type(v) is float for v in got)
            assert repr(got) == repr(expect.tolist())

    def test_grid_neighbour_a_rounding_error_past_the_step(self, monkeypatch):
        # neighbouring grid ratios lo + k*step can lie a rounding error more
        # than _MAX_STEP apart (here the grid of 0.3605:0.99 at step 0.001),
        # where a full step lands an ulp short; the walk reaches the second
        # ratio in one correction
        a, b = 0.3605 + 352 * 0.001, 0.3605 + 353 * 0.001
        assert (a, b) == (0.7124999999999999, 0.7135)
        assert b - a > flows._MAX_STEP and a + flows._MAX_STEP < b
        recipe = builtin_recipes()["flow-r6-1"]
        clear_continuation_cache()
        flows.solve_constrained(recipe, a)
        targets = []
        real = flows._correct

        def counting(recipe, r, guess):
            targets.append(r)
            return real(recipe, r, guess)

        monkeypatch.setattr(flows, "_correct", counting)
        flows.solve_constrained(recipe, b)
        assert targets == [b]
        clear_continuation_cache()

    def test_matches_linear_scan_bit_for_bit(self):
        recipe = builtin_recipes()["flow-r6-1"]
        # 0.9025000000000001 lies a rounding error more than _MAX_STEP
        # above the path point 0.9015, and a full step lands an ulp short
        queries = (0.5, 0.45, 0.7, 0.44999, 0.9, 0.6, 0.7, 0.3999, 0.9015,
                   0.9025000000000001)
        clear_continuation_cache()
        new = [repr(flows.solve_constrained(recipe, r)) for r in queries]
        paths = {}
        old = [repr(_linear_solve_constrained(paths, recipe, r).tolist()) for r in queries]
        assert new == old
        # the path holds lists of floats, the oracle's ndarrays
        assert (repr(flows._paths[recipe.name])
                == repr([(r, q.tolist()) for r, q in paths[recipe.name]]))
        clear_continuation_cache()
        assert flows._paths == {} and flows._path_owners == {}

    def test_result_is_not_the_path(self):
        # the caller owns the list solve_constrained returns, both for a
        # walked ratio and for one already on the path
        recipe = builtin_recipes()["flow-r6-1"]
        clear_continuation_cache()
        for r in (0.5, 0.5, 0.45):
            sol = flows.solve_constrained(recipe, r)
            assert type(sol) is list and all(type(v) is float for v in sol)
            before = repr(flows._paths)
            sol[0] = math.nan
            sol.append(1.0)
            assert repr(flows._paths) == before
        clear_continuation_cache()


def recipe_to_dict_841():
    with open("src/bidisc/data/flow_841_mid.json") as fh:
        return json.load(fh)


class TestRecipeParsing:
    def test_builtin_names(self):
        assert set(builtin_recipes()) == {"flow-841-mid", "flow-r6-1"}

    def test_round_trip_from_dict(self):
        obj = recipe_to_dict_841()
        recipe = recipe_from_dict(obj)
        assert recipe.kind == "sequential"
        _, value = eval_flow(recipe, 0.5)
        assert abs(value - closed_form_841(0.5)) <= 1e-12

    def test_missing_field_raises(self):
        obj = recipe_to_dict_841()
        del obj["steps"]
        with pytest.raises(RecipeError):
            recipe_from_dict(obj)

    def test_unknown_kind_raises(self):
        obj = recipe_to_dict_841()
        obj["kind"] = "magic"
        with pytest.raises(RecipeError):
            recipe_from_dict(obj)

    def test_bad_radius_selector_raises(self):
        obj = recipe_to_dict_841()
        obj["steps"][0][2] = "bogus"
        with pytest.raises(RecipeError):
            recipe_from_dict(obj)

    def test_bad_expression_raises(self):
        with open("src/bidisc/data/flow_r6_1.json") as fh:
            obj = json.load(fh)
        obj["defines"]["x2"] = "__import__('os')"
        with pytest.raises(RecipeError):
            recipe_from_dict(obj)


def linspace_samples(fn, lo, hi, step=1e-3):
    """(x, fn(x)) at the np.linspace points of [lo, hi] at most step apart."""
    count = max(2, int(math.ceil((hi - lo) / step)) + 1)
    return [(float(x), fn(float(x))) for x in np.linspace(lo, hi, count)]


class TestCrossings:
    def test_branch_841_crossings(self):
        lo, hi = ratio("r4"), ratio("r1")
        found = find_crossings(closed_form_841, DELTA1,
                               linspace_samples(closed_form_841, lo, hi))
        assert len(found) == 2
        assert 0.43784124244422377 in found[0]
        assert 0.62746068743222321 in found[1]
        for enc in found:
            assert enc.width <= 2e-9

    def test_branch_r6_crossing(self):
        found = find_crossings(closed_form_r6, DELTA1,
                               linspace_samples(closed_form_r6, ratio("r6"), 0.99))
        assert len(found) == 1
        assert 0.35585347928492635 in found[0]

    def test_no_crossing_on_flat_function(self):
        flat = lambda r: 0.5
        assert find_crossings(flat, 0.9, linspace_samples(flat, 0.1, 0.9)) == []

    def test_fn_called_only_inside_brackets(self):
        calls = []

        def fn(r):
            calls.append(r)
            return closed_form_841(r)

        samples = [(r, closed_form_841(r)) for r in (0.42, 0.43, 0.44, 0.5, 0.62, 0.63)]
        found = find_crossings(fn, DELTA1, samples)
        assert len(found) == 2
        assert 0.43784124244422377 in found[0]
        assert 0.62746068743222321 in found[1]
        assert all(0.43 < r < 0.44 or 0.62 < r < 0.63 for r in calls)
        # each 0.01 bracket halves to <= 1e-9 in ceil(log2(1e7)) = 24 steps
        assert len(calls) == 2 * 24

    def test_sample_on_level_is_point_bracket(self):
        samples = [(0.1, 0.5), (0.2, 0.9), (0.3, 1.0)]
        found = find_crossings(lambda r: pytest.fail("no bisection"), 0.9, samples)
        assert found == [Interval(0.2, 0.2)]

    def test_no_samples(self):
        assert find_crossings(closed_form_841, DELTA1, []) == []

    def test_zero_tol_stops_at_adjacent_floats(self):
        calls = []

        def fn(x):
            calls.append(x)
            if len(calls) > 200:
                pytest.fail("bisection does not stop at float resolution")
            return x * x

        (found,) = find_crossings(fn, 0.5, [(0.0, 0.0), (1.0, 1.0)], tol=0.0)
        assert found.hi == math.nextafter(found.lo, math.inf)
        assert Fraction(found.lo) ** 2 < Fraction(1, 2) < Fraction(found.hi) ** 2

    def test_tiny_values_do_not_underflow_the_sign_test(self):
        fn = lambda x: 1e-200 * (x - 0.3)
        (found,) = find_crossings(fn, 0.0, [(0.0, fn(0.0)), (1.0, fn(1.0))])
        assert 0.3 in found
        assert found.width <= 1e-9


def small_per_hole(r):
    """Number of small discs per hole of the interstitial packing at r."""
    domain, _ = interstitial(r)
    return (len(domain.discs) - 1) // 2


def lower_at(r):
    """The best known density at the one ratio r."""
    rows, _ = lower_bound_curve([r])
    return rows[0][1]


class TestInterstitial:
    def test_single_fill_at_snug_radius(self):
        r8 = ratio("r8")
        domain, value = interstitial(r8)
        assert small_per_hole(r8) == 1
        expect = math.pi * (1 + 2 * r8 * r8) / (2 * math.sqrt(3.0))
        assert abs(value - expect) <= 1e-15
        assert abs(value - 0.9503079938772262) <= 1e-12
        assert validate(domain, tol=1e-9) == []

    def test_counts_small_radii(self):
        assert small_per_hole(0.12) == 1
        assert small_per_hole(0.1) == 1
        assert small_per_hole(0.077) == 1
        assert small_per_hole(0.05) == 10
        assert small_per_hole(0.02) == 79

    def test_density_values(self):
        assert math.isclose(interstitial(0.1)[1], 0.9250376757594512, abs_tol=1e-14)
        assert math.isclose(interstitial(0.05)[1], 0.9522446662229633, abs_tol=1e-14)

    def test_domains_validate(self):
        for r in (0.02, 0.05, 0.09, 0.13, ratio("r8")):
            domain, value = interstitial(r)
            assert validate(domain, tol=1e-9) == []
            assert value == density(domain)
            assert value > DELTA1

    @pytest.mark.parametrize("r,discs", [(0.03, 63), (0.02, 159), (0.015, 309), (0.01, 795)])
    def test_large_cells_validate(self, r, discs):
        domain, _ = interstitial(r)
        assert len(domain.discs) == discs
        assert validate(domain) == []

    def test_small_radius_scan_memory(self):
        # 3417 discs: 5.8M pairs i <= j, of which the scan forms only those
        # within reach of contact, kernels.BLOCK_ROWS candidates at a time
        # (traced peak 14.7 MB in one block, 3.2 MB in blocks)
        domain, _ = interstitial(0.005)
        tracemalloc.start()
        try:
            assert validate(domain) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(domain.discs) == 3417
        assert peak < 5e6

    def test_rejects_radius_above_snug(self):
        with pytest.raises(DomainError):
            interstitial(0.2)
        with pytest.raises(DomainError):
            interstitial(0.0)

    @pytest.mark.parametrize("r", [9.9e-5, 1e-5, 1e-300, 5e-324])
    def test_rejects_lattice_over_1e7_sites(self, r):
        # the census's row limit, checked before a row is walked: a hole
        # spans about 1 / r rows (the 1e7-site limit of the meshgrid that
        # the census replaced is gone)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="over 1e\\+04 rows"):
                interstitial(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_rejects_domain_over_1e6_discs(self):
        # the census counts 514,324 sites per hole at 3e-4, so the domain
        # would hold 1,028,649 discs
        with pytest.raises(DomainError, match="over 1e\\+06 discs"):
            interstitial(3e-4)


def reference_sites(r):
    """The first hole's sites as three filters chose them: inside the hole's
    circumcircle, at least 1 + r from the unit centres of a 5 x 5 patch, and
    nearer this hole centre than any other of a 5 x 5 patch of cells."""
    sqrt3 = math.sqrt(3.0)
    hx, hy = 1.0, sqrt3 / 3.0
    window = 2.0 / sqrt3
    kmax = int(math.ceil(window / (2.0 * r))) + 1
    m, n = np.meshgrid(np.arange(-kmax, kmax + 1), np.arange(-kmax, kmax + 1),
                       indexing="ij")
    px = hx + 2.0 * r * m.ravel() + r * n.ravel()
    py = hy + r * sqrt3 * n.ravel()
    keep = (px - hx) ** 2 + (py - hy) ** 2 <= window * window
    limit = (1.0 + r - 5e-10) ** 2
    for a in range(-2, 3):
        for b in range(-2, 3):
            cx, cy = 2.0 * a + b, sqrt3 * b
            if (cx - hx) ** 2 + (cy - hy) ** 2 > 2.6 ** 2 + window * window:
                continue
            keep &= (px - cx) ** 2 + (py - cy) ** 2 >= limit
    own = (px - hx) ** 2 + (py - hy) ** 2
    for a in range(-2, 3):
        for b in range(-2, 3):
            for gx, gy in ((hx, hy), (2.0, 2.0 * sqrt3 / 3.0)):
                cx, cy = gx + 2.0 * a + b, gy + sqrt3 * b
                if cx == hx and cy == hy:
                    continue
                keep &= own < (px - cx) ** 2 + (py - cy) ** 2
    px, py = px[keep], py[keep]
    order = np.lexsort((px, py))
    return px[order], py[order]


# the benchmark's interstitial_scan outcomes, one list of four radii per variant
INTERSTITIAL_SCAN = json.loads((REPO / "perfbench" / "expected.json").read_text())[
    "interstitial_scan"]


class TestInterstitialOracle:
    def test_sites_match_three_filters(self, monkeypatch):
        # the triangle test keeps the sites, in the same order, that the
        # window, the unit-centre exclusion and the ownership rule kept
        monkeypatch.setattr(flows, "validate", lambda domain: [])
        r8 = ratio("r8")
        bench = [float(row["r"]) for variant in INTERSTITIAL_SCAN for row in variant]
        assert len(bench) == 32
        for r in [*np.linspace(0.005, r8, 400, endpoint=False).tolist(), r8, *bench]:
            domain, _ = interstitial(r)
            k = (len(domain.discs) - 1) // 2
            sites = domain.discs[1:1 + k]
            ref_x, ref_y = reference_sites(r)
            assert np.array_equal([d.x for d in sites], ref_x), r
            assert np.array_equal([d.y for d in sites], ref_y), r

    @pytest.mark.parametrize("variant", range(len(INTERSTITIAL_SCAN)))
    def test_benchmark_outcomes(self, variant):
        for row in INTERSTITIAL_SCAN[variant]:
            domain, value = interstitial(float(row["r"]))
            assert len(domain.discs) == row["discs"]
            assert repr(value) == row["density"]
            assert len(validate(domain)) == row["violations"] == 0


def test_root_up():
    # the least m >= 0 with m^2 >= x, against a walk up from 0 where that is
    # short and against the two squares around x elsewhere
    for x in range(-50, 2000):
        assert flows._root_up(x) == next(m for m in range(50) if m * m >= x), x
    rng = random.Random(34)
    big = [rng.getrandbits(200) for _ in range(200)]
    cases = [-(2 ** 200), *big, *(m * m + e for m in big + [2 ** 100] for e in (-1, 0, 1))]
    for x in cases:
        m = flows._root_up(x)
        assert m >= 0 and m * m >= x and (m == 0 or (m - 1) ** 2 < x), x


def census_sites(r):
    """The sites (n, k) of the first hole that ``flows._hole_runs`` keeps,
    rows by n and each row by k."""
    return [(n, k) for n, first, last in flows._hole_runs(r) for k in range(first, last + 1, 2)]


def census_by_brute_force(r):
    """The same sites, from every site (n, k) of the hole's bounding square
    0 <= x <= 2, 0 <= y <= sqrt(3), each of its six tests decided exactly:
    by its float value where that lies further than 1e-6 of the test's
    magnitude from 0, else in Fraction arithmetic.  r is a float or a
    Fraction."""
    s, rf = Fraction(r), float(r)
    c = 1 + s - Fraction(flows._ADMIT_SLACK)
    cf = float(c)
    tests = (   # (float value, magnitude, exact value, strict) of each test
        (lambda n, k: 1 + 3 * rf * n + 0 * k, lambda n, k: 1 + 3 * rf * abs(n) + 0 * k,
         lambda n, k: 1 + 3 * s * n, True),
        (lambda n, k: 2 - 3 * rf * (n - k), lambda n, k: 2 + 3 * rf * abs(n - k),
         lambda n, k: 2 - 3 * s * (n - k), True),
        (lambda n, k: 2 - 3 * rf * (n + k), lambda n, k: 2 + 3 * rf * abs(n + k),
         lambda n, k: 2 - 3 * s * (n + k), True),
        (lambda n, k: 3 * (1 + rf * k) ** 2 + (1 + 3 * rf * n) ** 2 - 3 * cf * cf,
         lambda n, k: 3 * (1 + rf * abs(k)) ** 2 + (1 + 3 * rf * abs(n)) ** 2 + 3 * cf * cf,
         lambda n, k: 3 * (1 + s * k) ** 2 + (1 + 3 * s * n) ** 2 - 3 * c * c, False),
        (lambda n, k: 3 * (1 - rf * k) ** 2 + (1 + 3 * rf * n) ** 2 - 3 * cf * cf,
         lambda n, k: 3 * (1 + rf * abs(k)) ** 2 + (1 + 3 * rf * abs(n)) ** 2 + 3 * cf * cf,
         lambda n, k: 3 * (1 - s * k) ** 2 + (1 + 3 * s * n) ** 2 - 3 * c * c, False),
        (lambda n, k: 3 * (rf * k) ** 2 + (3 * rf * n - 2) ** 2 - 3 * cf * cf,
         lambda n, k: 3 * (rf * k) ** 2 + (3 * rf * abs(n) + 2) ** 2 + 3 * cf * cf,
         lambda n, k: 3 * (s * k) ** 2 + (3 * s * n - 2) ** 2 - 3 * c * c, False),
    )
    kmax = math.ceil(1 / rf) + 1
    sites = []
    for n in range(math.floor(-1 / (3 * rf)) - 1, math.ceil(2 / (3 * rf)) + 2):
        k = np.arange(-kmax - (kmax + n) % 2, kmax + 1, 2)
        keep = np.ones(k.size, dtype=bool)
        for value, size, exact, strict in tests:
            v = value(n, k)
            passed = v > 0 if strict else v >= 0
            for i in np.flatnonzero(np.abs(v) <= 1e-6 * size(n, k)):
                e = exact(n, int(k[i]))
                passed[i] = e > 0 if strict else e >= 0
            keep &= passed
        sites += [(n, int(j)) for j in k[keep]]
    return sites


class TestCensus:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(20261022)
        for r in [*rng.uniform(0.01, ratio("r8"), 300).tolist(), 1e-3]:
            assert census_sites(r) == census_by_brute_force(r), r

    # Floats next to a tie of a vertex test at a run end, where the test's
    # value in float arithmetic has the wrong sign: found by bisecting r for
    # the sign change of the exact value, then comparing both values at the
    # floats around it.  Kept as regression inputs: a census that rounded
    # any of its tests would keep or drop a wrong site at one of them.
    NEAR_TIES = [0.028013606964036455, 0.06278172052478054, 0.022742488189089808,
                 0.01197659964636014, 0.03703703716666667]

    @pytest.mark.parametrize("r", NEAR_TIES)
    def test_near_ties_decided_exactly(self, r):
        assert census_sites(r) == census_by_brute_force(r)

    def test_tangent_sites_kept(self, monkeypatch):
        # a float r never puts a site exactly c = 1 + r - slack from a
        # vertex: r and the slack are dyadic, and with their common
        # denominator cleared, 3(1 + rk)^2 + Y^2 = 3c^2 and
        # 3(rk)^2 + (Y - 3)^2 = 3c^2 would need 3 to divide the numerator of
        # Y = 1 + 3rn or of Y - 3.  At the rational r = 1/27 without the
        # slack, four sites touch a vertex's unit disc, and are kept
        monkeypatch.setattr(flows, "_ADMIT_SLACK", 0.0)
        r = Fraction(1, 27)
        sites = census_sites(r)
        assert sites == census_by_brute_force(r)
        assert {(-3, -1), (1, -5), (2, 4), (2, -4)} <= set(sites)

    def test_sites_on_a_side_dropped(self, monkeypatch):
        # the triangle test is strict, which no float r shows: 3r(n - k) = 2
        # needs 3 to divide a power of 2, and with c > 1 a site on a side is
        # within c of one of its ends.  At r = 1/12 with c = 1/2 the sites
        # (4, -4) and (4, 4) lie on the two sides, clear of every vertex
        r = Fraction(1, 12)
        monkeypatch.setattr(flows, "_ADMIT_SLACK", r + Fraction(1, 2))
        sites = census_sites(r)
        assert sites == census_by_brute_force(r)
        assert {(4, -2), (4, 2)} <= set(sites)
        assert not {(4, -4), (4, 4)} & set(sites)

    def test_snug_site_only_below_root_without_slack(self, monkeypatch):
        # the snug site (0, 0) at the hole centre fits without the slack at
        # the last float r with 3r^2 + 6r - 1 <= 0, and at no float above it,
        # ratio("r8") included, which lies 2.8e-13 above the root
        monkeypatch.setattr(flows, "_ADMIT_SLACK", 0.0)
        snug = 0.15470053837925152
        above = math.nextafter(snug, 1.0)
        assert [3 * Fraction(r) ** 2 + 6 * Fraction(r) - 1 <= 0 for r in (snug, above)] == [
            True, False]
        assert flows._hole_runs(snug) == [(0, 0, 0)]
        assert flows._hole_runs(above) == []
        assert ratio("r8") > above
        assert flows._hole_runs(ratio("r8")) == []

    def test_densities_are_domain_densities(self):
        # the census density is density()'s sum, term by term, and the curve
        # takes it below r8 without building a disc
        rng = np.random.default_rng(7)
        grid = sorted(rng.uniform(0.005, ratio("r8"), 200).tolist())
        rows, _ = lower_bound_curve(grid, {})
        for r, value in rows:
            domain, rho = interstitial(r)
            assert rho == density(domain) == value


class TestLowerEnvelope:
    def test_hexagonal_floor_everywhere(self):
        # outside every branch the unit lattice value remains available
        assert lower_at(0.9) == DELTA1

    def test_branch_beats_floor_inside_window(self):
        assert math.isclose(lower_at(0.42), closed_form_841(0.42), rel_tol=1e-12)
        assert lower_at(0.42) > DELTA1

    def test_interstitial_region(self):
        r8 = ratio("r8")
        assert math.isclose(lower_at(r8), 0.9503079938772262, abs_tol=1e-12)

    def test_curve_hands_back_recipe_samples(self):
        recipes = builtin_recipes()
        rows, per_recipe = lower_bound_curve([0.3, 0.42, 0.5, 0.9], recipes)
        assert set(per_recipe) == set(recipes)
        assert [r for r, _ in per_recipe["flow-841-mid"]] == [0.42, 0.5]
        assert [r for r, _ in per_recipe["flow-r6-1"]] == [0.42, 0.5, 0.9]
        for name, samples in per_recipe.items():
            for r, value in samples:
                assert value == eval_flow(recipes[name], r)[1]
        assert rows[1][1] == max(v for s in per_recipe.values() for r, v in s if r == 0.42)

    def test_failed_recipe_samples_are_none(self):
        # flow-841-mid's discs overlap below r4
        obj = recipe_to_dict_841()
        obj["name"], obj["valid_range"] = "wide", [0.4, "r1"]
        wide = recipe_from_dict(obj)
        rows, per_recipe = lower_bound_curve([0.405, 0.42], {"wide": wide})
        assert per_recipe == {"wide": [(0.405, None), (0.42, rows[1][1])]}
        assert rows[0][1] == DELTA1
        assert rows[1][1] == eval_flow(wide, 0.42)[1]

    def test_curve_rows(self):
        rows, _ = lower_bound_curve([0.1, 0.42, 0.9])
        assert [r for r, _ in rows] == [0.1, 0.42, 0.9]
        values = [value for _, value in rows]
        assert math.isclose(values[0], interstitial(0.1)[1], rel_tol=1e-15)
        assert math.isclose(values[1], closed_form_841(0.42), rel_tol=1e-12)
        assert values[2] == DELTA1

    def test_curve_builds_no_domain_or_disc(self, monkeypatch):
        # recipe cells reach the overlap scan as floats, and the interstitial
        # value comes from the census
        recipes = builtin_recipes()
        built = Counter()

        def counting(name, original):
            def wrapper(*args):
                built[name] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(flows, "FundamentalDomain",
                            counting("domain", flows.FundamentalDomain))
        monkeypatch.setattr(flows, "Disc", counting("disc", flows.Disc))
        clear_continuation_cache()
        _, per_recipe = lower_bound_curve([0.01, 0.1, 0.36, 0.42, 0.5, 0.9], recipes)
        assert sum(map(len, per_recipe.values())) == 6
        assert built == Counter()

    def test_curve_memory(self):
        # the benchmark's 854 cells, of which only (r, density) is kept,
        # scanned flows._SCAN_CELLS at a time (traced peak 8.7 MB with all
        # cells held and scanned at once, 1.7 MB in blocks)
        grid = [0.36 + k * 0.001 for k in range(630)] + [0.99]
        clear_continuation_cache()
        tracemalloc.start()
        try:
            _, per_recipe = lower_bound_curve(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(map(len, per_recipe.values())) == 854
        assert peak < 3e6


def one_scan_curve(grid, recipes):
    """``lower_bound_curve`` as it was with a single overlap scan: every cell
    built in grid order and held, then all of them scanned in one call."""
    grid = [float(r) for r in grid]
    best, cells = [delta1() for _ in grid], []
    for k, r in enumerate(grid):
        if flows._fills_holes(r):
            best[k] = max(best[k], interstitial(r)[1])
        for name, recipe in recipes.items():
            if recipe.contains(r):
                try:
                    cells.append((k, name, recipe.build(r)))
                except (NoSolution, InvalidPacking, DomainError):
                    cells.append((k, name, None))
    scans = iter(validate_many([domain for *_, domain in cells if domain is not None]))
    per_recipe = {name: [] for name in recipes}
    for k, name, domain in cells:
        value = None if domain is None or next(scans) else density(domain)
        if value is not None:
            best[k] = max(best[k], value)
        per_recipe[name].append((grid[k], value))
    return list(zip(grid, best)), per_recipe


def failing_recipes():
    """The built-in recipes, with one that fails to build everywhere (every
    guess zero: its seed Jacobian is singular) and one whose cells overlap
    below r4 (flow-841-mid widened down to 0.4)."""
    recipes = builtin_recipes()
    obj = json.loads((REPO / "src" / "bidisc" / "data" / "flow_r6_1.json").read_text())
    obj["name"], obj["guess"] = "stuck", {name: 0.0 for name in obj["guess"]}
    recipes["stuck"] = recipe_from_dict(obj)
    obj = recipe_to_dict_841()
    obj["name"], obj["valid_range"] = "wide", [0.4, "r1"]
    recipes["wide"] = recipe_from_dict(obj)
    return recipes


@pytest.mark.parametrize("block", [1, 7, flows._SCAN_CELLS])
@pytest.mark.parametrize("grid, recipes", [
    ([0.36 + k * 0.001 for k in range(630)] + [0.99], builtin_recipes),
    ([0.14 + k * 0.004 for k in range(100)], failing_recipes),
], ids=["benchmark", "failing"])
def test_curve_in_blocks_matches_one_scan(monkeypatch, block, grid, recipes):
    # the same rows and samples, bit for bit, wherever the blocks end
    monkeypatch.setattr(flows, "_SCAN_CELLS", block)
    clear_continuation_cache()
    got = lower_bound_curve(grid, recipes())
    clear_continuation_cache()
    expected = one_scan_curve(grid, recipes())
    assert got == expected
    samples = [v for s in expected[1].values() for _, v in s]
    assert len(samples) > block
    if recipes is failing_recipes:
        assert [v for _, v in expected[1]["stuck"]] == [None] * len(expected[1]["stuck"])
        assert 0 < samples.count(None) - len(expected[1]["stuck"]) < len(expected[1]["wide"])
