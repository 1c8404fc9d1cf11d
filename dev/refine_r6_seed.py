"""Refine the constrained-recipe seed and pick the held-out equation.

Run from the repo root with PYTHONPATH=src.  Prints the refined unknowns at
r0 = 0.4 for freezing into the recipe file, after checking every candidate
hold-out equation for post-hoc residual and Jacobian conditioning, and
cross-checks both built-in recipes against their closed forms, the test
oracles in `tests/closed_forms.py`.
"""

import dataclasses
import json
import math
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from bidisc import flows, solve
from bidisc.errors import NoConvergence
from bidisc.flows import builtin_recipes, eval_flow, clear_continuation_cache
from closed_forms import closed_form_841, closed_form_r6
from bidisc.geometry import cell_density, scan_cells
from bidisc.ratios import ratio
from bidisc.solve import newton_solve

HAND_SEED = {"x1": 2.891, "y2": 2.521, "x3": 1.345, "y3": 0.387,
             "x4": 1.89, "y4": 0.985}
R0 = 0.4


def jacobian_cond(recipe, values, r):
    jacobian = recipe.compiled[1]
    return np.linalg.cond(np.array(jacobian(values, r)))


def main():
    recipes = builtin_recipes()
    rec = recipes["flow-r6-1"]
    guess = np.array([HAND_SEED[v] for v in rec.variables])

    print("== hold-out candidates at r0 =", R0)
    # the frozen seed is solved a decade tighter than the sweep's Newton
    sweep_tol, solve._TOL = solve._TOL, 1e-13
    results = []
    for held in range(len(rec.equations)):
        trial = dataclasses.replace(rec, verify_index=held, guess=tuple(guess))
        try:
            residuals, jacobian, values = trial.compiled
            sol = np.array(newton_solve(lambda q: residuals(q, R0),
                                        lambda q: jacobian(q, R0), guess))
        except NoConvergence as exc:
            print(f"  held={held}: solver failed: {exc}")
            continue
        resid = abs(values(sol, R0)[0])
        cond = jacobian_cond(trial, sol, R0)
        cell = trial.cell_from(sol.tolist(), R0)
        dens = cell_density(*cell)
        ok = not scan_cells([cell])[0]
        print(f"  held={held}: post-hoc residual {resid:.3e}  cond {cond:.3e}  "
              f"density {dens:.15f}  valid={ok}")
        results.append((resid, cond, held, sol, dens))
    solve._TOL = sweep_tol

    results.sort(key=lambda t: (t[0], t[1]))
    resid, cond, held, sol, dens = results[0]
    print("\nchosen hold-out:", held)
    print("refined unknowns at r0:")
    for name, value in zip(rec.variables, sol):
        print(f"  {name} = {float(value)!r}")
    print("density at r0:", repr(dens))
    print("closed form  :", repr(closed_form_r6(R0)))
    print("|diff|       :", abs(dens - closed_form_r6(R0)))

    print("\n== continuation sweep vs closed form (r6 recipe)")
    clear_continuation_cache()
    r6 = ratio("r6")
    worst = 0.0
    for r in np.linspace(r6 + 1e-4, 0.99, 50):
        _, d = eval_flow(rec, float(r))
        worst = max(worst, abs(d - closed_form_r6(float(r))))
    print("max |eval - closed| over 50 samples:", worst)

    print("\n== sequential recipe vs closed form (841 recipe)")
    rec841 = recipes["flow-841-mid"]
    r4, r1 = ratio("r4"), ratio("r1")
    worst = 0.0
    for r in np.linspace(r4, r1, 100):
        dom, d = eval_flow(rec841, float(r))
        worst = max(worst, abs(d - closed_form_841(float(r))))
    print("max |eval - closed| over 100 samples:", worst)


if __name__ == "__main__":
    main()
