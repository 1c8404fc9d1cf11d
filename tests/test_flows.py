"""Flow recipes, closed form densities, interstitial refinement."""

import bisect
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bidisc import flows
from bidisc.errors import (DomainError, InvalidPacking, NoConvergence,
                           NoSolution, RecipeError, SingularJacobian)
from bidisc.flows import (
    DensityCurve,
    builtin_recipes,
    clear_continuation_cache,
    closed_form_841,
    closed_form_r6,
    eval_flow,
    find_crossings,
    interstitial,
    interstitial_count,
    lower_bound_at,
    lower_bound_curve,
    recipe_from_dict,
)
from bidisc.bounds import delta1
from bidisc.geometry import Violation, density, validate
from bidisc.intervals import Interval
from bidisc.ratios import ratio

DELTA1 = 0.9068996821171089

REPO = pathlib.Path(__file__).resolve().parent.parent

# sha256 of the whole stdout of `PYTHONPATH=src python dev/refine_r6_seed.py`,
# recorded while the held-out residual and the cell were evaluated with
# ``eval`` on a name map
REFINE_R6_SEED_SHA256 = "c6d3a329e8d760a2dac9749caf45d2d8da1988b3d19aeda812339386712c2b20"

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
            assert domain.radius_census()[1.0] == 2
            assert domain.radius_census()[float(r)] == 2

    def test_rejects_radius_outside_range(self):
        recipe = builtin_recipes()["flow-841-mid"]
        with pytest.raises(DomainError):
            eval_flow(recipe, 0.3)
        with pytest.raises(DomainError):
            eval_flow(recipe, 0.7)

    def test_census_mismatch_raises(self):
        recipe = builtin_recipes()["flow-841-mid"]
        obj = recipe_to_dict_841()
        obj["census"] = {"unit": 3, "ratio": 2}
        bad = recipe_from_dict(obj)
        with pytest.raises(InvalidPacking):
            eval_flow(bad, 0.5)

    def test_overlap_message_names_least_gap(self, monkeypatch):
        # validate lists rows in (i, j, m, n) order, not by gap
        rows = [Violation(0, 1, 0, 0, -1e-6), Violation(1, 2, 0, 1, -1e-3)]
        monkeypatch.setattr(flows, "validate", lambda domain, tol: rows)
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
        assert domain.radius_census() == {1.0: 1, 0.5: 6}

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
        recipe.build_from(q, 0.5)
        assert len(compiled) == 1

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


# Order-of-visit oracle: the path lookup as it was before the key list, one
# linear scan of the whole path per query.

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
        seed = flows._correct(recipe, recipe.r0, np.asarray(recipe.guess, dtype=float))
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
        move = math.copysign(min(step, abs(remaining)), remaining)
        target = r if abs(remaining) <= step else current + move
        try:
            sol = flows._correct(recipe, target, _linear_predict(path, target))
        except (NoConvergence, SingularJacobian) as exc:
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
        assert flows._nearest(rs, target) == expect

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30), st.floats(-0.5, 1.5))
    def test_nearest_on_arbitrary_floats(self, values, target):
        rs = sorted(values)
        expect = min(range(len(rs)), key=lambda i: abs(rs[i] - target))
        assert flows._nearest(rs, target) == expect

    def test_matches_linear_scan_bit_for_bit(self):
        recipe = builtin_recipes()["flow-r6-1"]
        queries = (0.5, 0.45, 0.7, 0.44999, 0.9, 0.6, 0.7, 0.3999)
        clear_continuation_cache()
        new = [repr(flows.solve_constrained(recipe, r).tolist()) for r in queries]
        paths = {}
        old = [repr(_linear_solve_constrained(paths, recipe, r).tolist()) for r in queries]
        assert new == old
        assert (repr([(r, q.tolist()) for r, q in flows._paths[recipe.name]])
                == repr([(r, q.tolist()) for r, q in paths[recipe.name]]))
        assert flows._path_keys[recipe.name] == [r for r, _ in flows._paths[recipe.name]]
        clear_continuation_cache()
        assert flows._paths == {} and flows._path_keys == {}


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


class TestInterstitial:
    def test_single_fill_at_snug_radius(self):
        r8 = ratio("r8")
        domain, value = interstitial(r8)
        assert interstitial_count(r8) == 1
        expect = math.pi * (1 + 2 * r8 * r8) / (2 * math.sqrt(3.0))
        assert abs(value - expect) <= 1e-15
        assert abs(value - 0.9503079938772262) <= 1e-12
        assert validate(domain, tol=1e-9) == []

    def test_counts_small_radii(self):
        assert interstitial_count(0.12) == 1
        assert interstitial_count(0.1) == 1
        assert interstitial_count(0.077) == 1
        assert interstitial_count(0.05) == 10
        assert interstitial_count(0.02) == 79

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
        # within reach of contact
        domain, _ = interstitial(0.005)
        tracemalloc.start()
        try:
            assert validate(domain) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(domain.discs) == 3417
        assert peak < 64e6

    def test_refuses_overlapping_domain(self, monkeypatch):
        overlap = Violation(1, 2, 0, 0, -1e-3)
        monkeypatch.setattr(flows, "validate", lambda domain, tol: [overlap])
        with pytest.raises(InvalidPacking, match="1 overlap"):
            interstitial(0.05)

    def test_rejects_radius_above_snug(self):
        with pytest.raises(DomainError):
            interstitial(0.2)
        with pytest.raises(DomainError):
            interstitial(0.0)


class TestDensityCurve:
    def test_csv_round_trip(self):
        curve = DensityCurve(((0.4, 0.89, "flow-841-mid"), (0.5, 0.88, "flow-841-mid")))
        again = DensityCurve.from_csv(curve.to_csv())
        assert again.samples == curve.samples

    def test_requires_increasing_r(self):
        with pytest.raises(ValueError):
            DensityCurve(((0.5, 0.9, "a"), (0.5, 0.9, "a")))
        with pytest.raises(ValueError):
            DensityCurve(((0.5, 0.9, "a"), (0.4, 0.9, "a")))


class TestLowerEnvelope:
    def test_hexagonal_floor_everywhere(self):
        # outside every branch the unit lattice value remains available
        assert lower_bound_at(0.9) == DELTA1

    def test_branch_beats_floor_inside_window(self):
        assert math.isclose(lower_bound_at(0.42), closed_form_841(0.42), rel_tol=1e-12)
        assert lower_bound_at(0.42) > DELTA1

    def test_interstitial_region(self):
        r8 = ratio("r8")
        assert math.isclose(lower_bound_at(r8), 0.9503079938772262, abs_tol=1e-12)

    def test_curve_hands_back_recipe_samples(self):
        recipes = builtin_recipes()
        curve, per_recipe = lower_bound_curve([0.3, 0.42, 0.5, 0.9], recipes)
        assert set(per_recipe) == set(recipes)
        assert [r for r, _ in per_recipe["flow-841-mid"]] == [0.42, 0.5]
        assert [r for r, _ in per_recipe["flow-r6-1"]] == [0.42, 0.5, 0.9]
        for name, samples in per_recipe.items():
            for r, value in samples:
                assert value == eval_flow(recipes[name], r)[1]
        assert curve.samples[1][1] == max(v for s in per_recipe.values()
                                          for r, v in s if r == 0.42)

    def test_failed_recipe_samples_are_none(self):
        # flow-841-mid's discs overlap below r4
        obj = recipe_to_dict_841()
        obj["name"], obj["valid_range"] = "wide", [0.4, "r1"]
        wide = recipe_from_dict(obj)
        curve, per_recipe = lower_bound_curve([0.405, 0.42], {"wide": wide})
        assert per_recipe == {"wide": [(0.405, None), (0.42, curve.samples[1][1])]}
        assert curve.samples[0][1] == DELTA1
        assert curve.samples[1][1] == eval_flow(wide, 0.42)[1]

    def test_curve_rows(self):
        curve, _ = lower_bound_curve([0.1, 0.42, 0.9])
        assert [row[2] for row in curve.samples] == ["lower"] * 3
        values = [row[1] for row in curve.samples]
        assert math.isclose(values[0], interstitial(0.1)[1], rel_tol=1e-15)
        assert math.isclose(values[1], closed_form_841(0.42), rel_tol=1e-12)
        assert values[2] == DELTA1
