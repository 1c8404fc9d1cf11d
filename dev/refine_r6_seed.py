"""Refine the constrained-recipe seed and pick the held-out equation.

Run from the repo root with PYTHONPATH=src.  Prints the refined unknowns at
r0 = 0.4 for freezing into the recipe file, after checking every candidate
hold-out equation for post-hoc residual and Jacobian conditioning, and
cross-checks both built-in recipes against their closed forms.
"""

import json
import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from bidisc import flows
from bidisc.errors import NoConvergence, SingularJacobian
from bidisc.flows import (builtin_recipes, closed_form_841, closed_form_r6,
                          eval_flow, clear_continuation_cache)
from bidisc.geometry import density, validate
from bidisc.ratios import ratio
from bidisc.solve import Dual, newton_solve

HAND_SEED = {"x1": 2.891, "y2": 2.521, "x3": 1.345, "y3": 0.387,
             "x4": 1.89, "y4": 0.985}
R0 = 0.4


def jacobian_cond(recipe, values, r):
    rows = [out.grad for out in recipe.residual_system(r)(Dual.seed(values))]
    return np.linalg.cond(np.array(rows))


def main():
    recipes = builtin_recipes()
    rec = recipes["flow-r6-1"]
    guess = np.array([HAND_SEED[v] for v in rec.variables])

    print("== hold-out candidates at r0 =", R0)
    results = []
    for held in range(len(rec.equations)):
        trial = type(rec)(rec.name, rec.valid_range, rec.range_spec, rec.census,
                          rec.variables, rec.defines, rec.equations, held,
                          rec.r0, tuple(guess), rec.lattice, rec.cell)
        try:
            sol = newton_solve(trial.residual_system(R0), guess, tol=1e-13)
        except (NoConvergence, SingularJacobian) as exc:
            print(f"  held={held}: solver failed: {exc}")
            continue
        env = trial.environment(sol, R0)
        resid = abs(trial.equations[held](env))
        cond = jacobian_cond(trial, sol, R0)
        dom = trial.build_from(sol, R0)
        dens = density(dom)
        ok = not validate(dom, tol=1e-9)
        print(f"  held={held}: post-hoc residual {resid:.3e}  cond {cond:.3e}  "
              f"density {dens:.15f}  valid={ok}")
        results.append((resid, cond, held, sol, dens))

    results.sort(key=lambda t: (t[0], t[1]))
    resid, cond, held, sol, dens = results[0]
    print("\nchosen hold-out:", held)
    print("refined unknowns at r0:")
    for name, value in zip(rec.variables, sol):
        print(f"  {name} = {value!r}")
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
