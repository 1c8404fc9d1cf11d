"""One-parameter families of periodic packings and the lower-bound curve.

A flow recipe describes how a periodic binary packing deforms as the disc
ratio r varies.  Two kinds are supported:

* sequential: discs are built one by one with ``stick``, so positions are
  explicit in r.
* constrained: positions solve a square polynomial contact system; values
  are tracked in r by predictor-corrector continuation seeded from a stored
  starting point.  The continuation keeps its points as lists of Python
  floats, on which the compiled recipe code and the secant predictor do
  the same IEEE operations as on numpy arrays, at a fraction of the cost.

A recipe is checked once, when it is read, its file's ``census`` against
its cell's radius selectors included, so no built cell is recounted.

The module also provides the interstitial construction that drops small
discs into the holes of the unit hexagonal packing, its sites counted by an
exact census, crossing detection against a level, and the combined
lower-bound curve as plain ``(r, density)`` rows, which the command line
writes out.  The closed-form
density curves of the two built-in recipes, their test oracles, live in
``tests/closed_forms.py``.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import chain, repeat
from typing import Callable, Sequence

from .bounds import SQRT3, delta1
from .errors import DomainError, InvalidPacking, NoConvergence, NoSolution, RecipeError
from .expressions import Expr, compile_system
from .geometry import (OVERLAP_TOL, Disc, FundamentalDomain, cell_density, check_cell, density,
                       scan_cells, stick, validate)
from .intervals import Interval, narrow
from .ratios import ratio
from .solve import newton_solve

_RANGE_SLACK = 1e-12    # allowance at the ends of every ratio range

# ---------------------------------------------------------------------------
# recipes


def _resolve_range_endpoint(spec) -> float:
    if isinstance(spec, str):
        return ratio(spec)
    return float(spec)


@dataclass(frozen=True)
class FlowRecipe:
    """Common recipe data; concrete kinds subclass and implement cell_floats()."""

    name: str
    valid_range: tuple[float, float]

    kind = "abstract"

    def __post_init__(self):
        lo, hi = self.valid_range
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi <= 1.0):
            raise RecipeError(f"{self.name}: valid_range [{lo}, {hi}] does not satisfy "
                              f"0 < lo <= hi <= 1")
        # each kind's cell entries end in their radius selector
        for *_, sel in self.cell:
            _check_selector(self.name, sel)

    def contains(self, r: float) -> bool:
        lo, hi = self.valid_range
        return lo - _RANGE_SLACK <= r <= hi + _RANGE_SLACK

    def cell_floats(self, r: float) -> tuple:
        """The packing at ratio r as floats ``(u, v, flat)``: the lattice
        vectors and the x, y and radius of each disc of the cell in turn,
        not yet checked by ``check_cell``."""
        raise NotImplementedError

    def build(self, r: float) -> FundamentalDomain:
        return _domain(self.cell_floats(r))


def _domain(cell: tuple) -> FundamentalDomain:
    u, v, flat = cell
    return FundamentalDomain(u, v, tuple(map(Disc, flat[0::3], flat[1::3], flat[2::3])))


def _check_selector(name: str, sel: str) -> None:
    if sel not in ("one", "ratio"):
        raise RecipeError(f"{name}: bad radius selector {sel!r}")


def _combo_center(combo: tuple[tuple[int, float], ...], discs: Sequence[Disc]):
    x = 0.0
    y = 0.0
    for idx, coeff in combo:
        x += coeff * discs[idx].x
        y += coeff * discs[idx].y
    return x, y


@dataclass(frozen=True)
class SequentialRecipe(FlowRecipe):
    seeds: tuple[Disc, ...] = ()
    steps: tuple[tuple[int, int, str], ...] = ()   # (parent, parent, selector)
    lattice: tuple = ()                            # two position combos
    cell: tuple = ()                               # (combo, selector) pairs

    kind = "sequential"

    def __post_init__(self):
        super().__post_init__()
        n = len(self.seeds)
        for k, (i, j, sel) in enumerate(self.steps):
            if not (0 <= i < n + k and 0 <= j < n + k):
                raise RecipeError(f"{self.name}: step {k} references a later disc")
            _check_selector(self.name, sel)
        n += len(self.steps)
        for combo in (*self.lattice, *(combo for combo, _ in self.cell)):
            for i, _ in combo:
                if not 0 <= i < n:
                    raise RecipeError(f"{self.name}: combo names disc {i}, not one of 0..{n - 1}")

    def cell_floats(self, r: float) -> tuple:
        discs = list(self.seeds)
        for i, j, sel in self.steps:
            discs.append(stick(discs[i], discs[j], 1.0 if sel == "one" else r))
        flat = []
        for combo, sel in self.cell:
            flat += (*_combo_center(combo, discs), 1.0 if sel == "one" else r)
        return _combo_center(self.lattice[0], discs), _combo_center(self.lattice[1], discs), flat


@dataclass(frozen=True)
class ConstrainedRecipe(FlowRecipe):
    variables: tuple[str, ...] = ()
    defines: tuple[tuple[str, Expr], ...] = ()     # evaluated in order
    equations: tuple[Expr, ...] = ()
    verify_index: int = 0                          # held out of the Newton system
    r0: float = 0.0
    guess: tuple[float, ...] = ()
    lattice: tuple = ()                            # ((Expr, Expr), (Expr, Expr))
    cell: tuple = ()                               # (Expr, Expr, selector)

    kind = "constrained"

    def __post_init__(self):
        super().__post_init__()
        if len(self.equations) != len(self.variables) + 1:
            raise RecipeError(
                f"{self.name}: {len(self.equations)} equations cannot leave a "
                f"square system in {len(self.variables)} unknowns with one held out")
        if not 0 <= self.verify_index < len(self.equations):
            raise RecipeError(f"{self.name}: verify_index out of range")
        if len(self.guess) != len(self.variables):
            raise RecipeError(f"{self.name}: guess length mismatch")

    @cached_property
    def compiled(self) -> tuple[Callable, Callable, Callable]:
        """``residuals(q, r)`` and ``jacobian(q, r)`` of every equation but
        the held-out one, and ``values(q, r)`` of the held-out equation, the
        lattice vectors and the cell centres, compiled on first use."""
        eqs = [e for k, e in enumerate(self.equations) if k != self.verify_index]
        (ux, uy), (vx, vy) = self.lattice
        outputs = [self.equations[self.verify_index], ux, uy, vx, vy,
                   *(e for ex, ey, _ in self.cell for e in (ex, ey))]
        return compile_system(self.variables, self.defines, eqs, outputs)

    @cached_property
    def _flat(self) -> Callable:
        """Picks ``flat`` from the row of ``values`` followed by 1.0 and r."""
        one = 5 + 2 * len(self.cell)
        return operator.itemgetter(*chain.from_iterable(
            (5 + 2 * i, 6 + 2 * i, one if sel == "one" else one + 1)
            for i, (*_, sel) in enumerate(self.cell)))

    def cell_from(self, values, r: float) -> tuple:
        """``cell_floats`` at ratio r from the unknowns' values, a sequence of
        floats; a division by zero or an overflow in the recipe's outputs
        raises InvalidPacking, as the non-finite value it gave in numpy."""
        try:
            row = self.compiled[2](values, r)
        except (ZeroDivisionError, OverflowError) as exc:
            raise InvalidPacking(f"{self.name}: {exc} at r={r}") from exc
        row += (1.0, r)
        return (row[1], row[2]), (row[3], row[4]), self._flat(row)

    def cell_floats(self, r: float) -> tuple:
        return self.cell_from(solve_constrained(self, r), r)


def _counted(recipe: FlowRecipe, census: tuple[int, int]) -> FlowRecipe:
    """The recipe, once the census (unit discs, ratio discs) counts its cell."""
    counts = tuple(sum(sel == which for *_, sel in recipe.cell) for which in ("one", "ratio"))
    if census != counts:
        raise RecipeError(f"{recipe.name}: census {census} but the cell holds {counts}")
    return recipe


def recipe_from_dict(obj: dict) -> FlowRecipe:
    """The recipe a file's object describes, or RecipeError if it is not one."""
    try:
        name = obj["name"]
        kind = obj["kind"]
        lo, hi = (_resolve_range_endpoint(s) for s in obj["valid_range"])
        valid_range = (lo, hi)
        census = (int(obj["census"]["unit"]), int(obj["census"]["ratio"]))
        if kind == "sequential":
            seeds = tuple(Disc(*map(float, row)) for row in obj["seeds"])
            steps = tuple((int(i), int(j), str(sel)) for i, j, sel in obj["steps"])
            lattice = tuple(
                tuple((int(i), float(c)) for i, c in obj["lattice"][key])
                for key in ("u", "v"))
            cell = tuple(
                (tuple((int(i), float(c)) for i, c in entry["combo"]), str(entry["radius"]))
                for entry in obj["cell"])
            return _counted(SequentialRecipe(name, valid_range, seeds, steps, lattice, cell),
                            census)
        if kind == "constrained":
            variables = tuple(obj["variables"])
            scope = list(variables) + ["r"]
            defines = []
            for dname, src in obj["defines"].items():
                defines.append((dname, Expr(src, scope)))
                scope.append(dname)
            equations = tuple(Expr(src, scope) for src in obj["equations"])
            lattice = tuple(
                (Expr(obj["lattice"][key][0], scope), Expr(obj["lattice"][key][1], scope))
                for key in ("u", "v"))
            cell = tuple(
                (Expr(row[0], scope), Expr(row[1], scope), str(row[2]))
                for row in obj["cell"])
            guess_map = obj["guess"]
            guess = tuple(float(guess_map[v]) for v in variables)
            return _counted(ConstrainedRecipe(name, valid_range,
                                              variables, tuple(defines), equations,
                                              int(obj["verify_index"]), float(obj["r0"]),
                                              guess, lattice, cell), census)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise RecipeError(f"malformed recipe: {exc}") from exc
    raise RecipeError(f"unknown recipe kind {kind!r}")


def load_recipe(path) -> FlowRecipe:
    with open(path, "r", encoding="utf-8") as fh:
        return recipe_from_dict(json.load(fh))


_BUILTIN: dict[str, FlowRecipe] | None = None


def builtin_recipes() -> dict[str, FlowRecipe]:
    global _BUILTIN
    if _BUILTIN is None:
        found = {}
        root = resources.files("bidisc").joinpath("data")
        for entry in sorted(root.iterdir(), key=lambda e: e.name):
            if entry.name.endswith(".json"):
                rec = recipe_from_dict(json.loads(entry.read_text(encoding="utf-8")))
                found[rec.name] = rec
        _BUILTIN = found
    return dict(_BUILTIN)


# ---------------------------------------------------------------------------
# continuation for constrained recipes

_MAX_STEP = 1e-3
_MIN_STEP = 1e-9
# Relative length by which the last step may exceed the step size: grid
# ratios ``lo + k*step`` one _MAX_STEP apart can differ by a rounding error
# more than _MAX_STEP, and would otherwise take a second, ulp-short step.
_STEP_SLACK = 1e-9
_VERIFY_TOL = 1e-8

# Per-recipe solution paths: name -> list of (r, values) sorted by r, values
# a list of floats, with _path_owners[name] the recipe that walked them, the
# only one to read them.  Correct for single-writer access; concurrent sweeps
# must partition r ranges.
_paths: dict[str, list[tuple[float, list[float]]]] = {}
_path_owners: dict[str, ConstrainedRecipe] = {}
_ratio_of = operator.itemgetter(0)


def clear_continuation_cache(name: str | None = None) -> None:
    for cache in (_paths, _path_owners):
        if name is None:
            cache.clear()
        else:
            cache.pop(name, None)


def _correct(recipe: ConstrainedRecipe, r: float, guess) -> list[float]:
    """Newton's solution at ratio r from guess, as a list of floats, once
    the held-out equation holds there too."""
    residuals, jacobian, values = recipe.compiled
    sol = newton_solve(lambda q: residuals(q, r), lambda q: jacobian(q, r), guess)
    try:
        resid = values(sol, r)[0]
    except (ZeroDivisionError, OverflowError):
        resid = math.inf
    if abs(resid) > _VERIFY_TOL:
        raise InvalidPacking(
            f"{recipe.name}: held-out contact residual {resid:.3e} at r={r}")
    return sol


def _nearest(path: list[tuple[float, list[float]]], target: float) -> int:
    """First index of the least abs(path[i][0] - target) in a path sorted
    by r.

    The same index as ``min(range(len(path)), key=...)``.  The rounded
    distance does not increase up to the insertion point and does not
    decrease from it, so the least one is at one of its two neighbours, and
    equal distances before it can only sit directly to its left.
    """
    pos = bisect.bisect_left(path, target, key=_ratio_of)
    if pos == len(path) or (pos > 0 and
                            abs(path[pos - 1][0] - target) <= abs(path[pos][0] - target)):
        pos -= 1
    best = abs(path[pos][0] - target)
    while pos > 0 and abs(path[pos - 1][0] - target) == best:
        pos -= 1
    return pos


def _predict(path: list[tuple[float, list[float]]], target: float) -> list[float]:
    """Secant extrapolation from the two nearest path points, else nearest.

    The secant is ``qa[i] + (qb[i] - qa[i]) * t`` with ``t = (target - ra)
    / (rb - ra)`` computed once, element by element on floats: the
    operations, and so the bits, of the same expression broadcast in numpy.
    """
    k = _nearest(path, target)
    if len(path) == 1:
        return list(path[k][1])
    k2 = k - 1 if k == len(path) - 1 or (k > 0 and abs(path[k - 1][0] - target)
                                         <= abs(path[k + 1][0] - target)) else k + 1
    (ra, qa), (rb, qb) = path[k], path[k2]
    if ra == rb:
        return list(qa)
    t = (target - ra) / (rb - ra)
    return [a + (b - a) * t for a, b in zip(qa, qb)]


def solve_constrained(recipe: ConstrainedRecipe, r: float) -> list[float]:
    """Unknown values at ratio r, walked from the recipe's seed point.

    The walk starts at the path point nearest r and steps toward r, each
    step corrected by Newton from a secant prediction.  A step is at most
    ``_MAX_STEP`` long, halved on each failed correction and doubled back
    on each success; when r lies within the step size, up to a relative
    ``_STEP_SLACK``, the step goes to r itself, so a query a rounding error
    more than one step from the path takes one correction, not two.  The
    result is a new list of floats, which the caller may change without
    changing the path.
    """
    path = _paths.get(recipe.name)
    if path is None or _path_owners[recipe.name] is not recipe:
        try:
            seed = _correct(recipe, recipe.r0, recipe.guess)
        except NoConvergence as exc:
            raise NoSolution(f"{recipe.name}: no solution at r0={recipe.r0}: {exc}") from exc
        path = [(recipe.r0, seed)]
        _paths[recipe.name] = path
        _path_owners[recipe.name] = recipe
    pos = bisect.bisect_left(path, r, key=_ratio_of)
    if pos < len(path) and path[pos][0] == r:
        return list(path[pos][1])

    current, sol = path[_nearest(path, r)]
    step = _MAX_STEP
    while current != r:
        remaining = r - current
        if abs(remaining) <= step * (1.0 + _STEP_SLACK):
            target = r
        else:
            target = current + math.copysign(step, remaining)
        try:
            sol = _correct(recipe, target, _predict(path, target))
        except NoConvergence as exc:
            step *= 0.5
            if step < _MIN_STEP:
                raise NoSolution(
                    f"{recipe.name}: continuation stalled near r={current}: {exc}") from exc
            continue
        bisect.insort_right(path, (target, sol), key=_ratio_of)
        current = target
        step = min(step * 2.0, _MAX_STEP)
    return list(sol)


# ---------------------------------------------------------------------------
# evaluation


def eval_flow(recipe: FlowRecipe, r: float) -> tuple[FundamentalDomain, float]:
    """Build the recipe's packing at ratio r and return it with its density."""
    if not recipe.contains(r):
        raise DomainError(
            f"r={r} outside valid range [{recipe.valid_range[0]}, {recipe.valid_range[1]}] "
            f"of recipe {recipe.name}")
    domain = recipe.build(r)
    bad = validate(domain)
    if bad:
        worst = min(bad, key=lambda row: row.gap)
        raise InvalidPacking(f"{recipe.name}: {len(bad)} overlap(s) at r={r}, worst {worst}")
    return domain, density(domain)


# ---------------------------------------------------------------------------
# interstitial packings for small r

# Exact slack of the census's vertex tests: a kept site is at least
# 1 + r - _ADMIT_SLACK from each unit centre, so each gap between a small and
# a unit disc is at least -OVERLAP_TOL / 2, which ``validate`` accepts with
# room for the rounding of the built coordinates.  Like r it is a dyadic
# float, so the census clears its denominator with r's.  Without it the
# census would drop the snug disc at ratio("r8"), a float 2.8e-13 above the
# root of 3r^2 + 6r - 1 (tests/test_flows.py, TestCensus).
_ADMIT_SLACK = OVERLAP_TOL / 2
# The most rows the census walks: a hole spans about 1/r rows, so every
# r >= 1e-4 is admitted.
_MAX_ROWS = 1e4
# The most discs interstitial() builds: it refuses r below about 3.04e-4.
_MAX_DISCS = 1e6


def _fills_holes(r: float) -> bool:
    """Whether the interstitial construction applies at ratio r."""
    return 0.0 < r <= ratio("r8") + _RANGE_SLACK


def _root_up(x: int) -> int:
    """The least integer m >= 0 with m * m >= x."""
    return math.isqrt(x - 1) + 1 if x > 0 else 0


def _hole_runs(r: float) -> list[tuple[int, int, int]]:
    """The sites interstitial(r) keeps in the hole (0, 0), (2, 0), (1, sqrt(3)),
    as runs (n, first k, last k) of the sites k, k + 2, ... of row n; rows
    by n, a row's runs by k.

    Site (n, k), k = n mod 2, is x = 1 + rk, y = sqrt(3) Y / 3 with
    Y = 1 + 3rn.  With c = 1 + r - _ADMIT_SLACK it is kept when it lies
    strictly inside the triangle, Y > 0, 3r(n - k) < 2 and 3r(n + k) < 2,
    and at least c from the three vertices:

        A(k): 3(1 + rk)^2 + Y^2 >= 3c^2    B(k): 3(1 - rk)^2 + Y^2 >= 3c^2
        T(k): 3(rk)^2 + (Y - 3)^2 >= 3c^2

    r and the slack are ratios of integers, as every float is, so with d
    the least common denominator of the two, R = rd and C = cd are
    integers, and so is dY = d + 3Rn.  Each test, times d^2, is a test on
    integers, and each bound below is the exact least or greatest integer
    that passes its tests, by floor division and ``_root_up``.

    Rows: a kept site has min(x, 2 - x) <= 1, so A and B give
    1 + y^2 >= c^2, that is Y^2 >= 3(c^2 - 1).  With u = Y / 3 the
    triangle gives |x - 1| < 1 - u and T gives
    (x - 1)^2 >= c^2 - 3(1 - u)^2, so 4(1 - u)^2 > c^2 and
    4 - 6rn - 3c > 0.  The first row test, with Y > 0, holds from some n on
    and the second up to some n, so no row outside the two turns holds a
    site, and only the rows between are walked.

    Runs: on a row with Y > 0, Left(k) = [3r(n - k) < 2 and A(k)] holds
    from some k on, as 3r(n - k) < 2 gives 1 + rk > Y / 3 > 0, where A
    grows with k; by the mirror image Right(k) = [3r(n + k) < 2 and B(k)]
    holds up to some k; and T depends on |k| alone and holds from some |k|
    on.  So the row keeps the k of its parity in [kl, kr] with |k| >= kt,
    for the first kl where Left holds, the last kr where Right holds and
    the least kt >= 0 where T holds: one run, or two when kt > 0.  Where
    1 + rk > 0, A(k) is d + Rk >= a for the least integer a >= 0 with
    3a^2 >= 3C^2 - (dY)^2, and where 1 - rk > 0, B(k) is d - Rk >= a.
    """
    if not r * _MAX_ROWS >= 1.0:
        raise DomainError(f"interstitial construction at r={r} needs over "
                          f"{_MAX_ROWS:.0e} rows")
    p, q = r.as_integer_ratio()
    s, t = _ADMIT_SLACK.as_integer_ratio()
    d = math.lcm(q, t)
    R = p * d // q
    C = d + R - s * d // t
    R3, CC3 = 3 * R, 3 * C * C
    runs = []
    first_row = -((d - max(1, _root_up(CC3 - 3 * d * d))) // R3)
    last_row = (4 * d - 3 * C - 1) // (6 * R)
    for n in range(first_row, last_row + 1):
        Y = d + R3 * n      # dY
        edge = (d - _root_up(-((Y * Y - CC3) // 3))) // R
        kl = max((R3 * n - 2 * d) // R3 + 1, -edge)
        kr = min((2 * d - R3 * n - 1) // R3, edge)
        kl += (kl - n) % 2
        kr -= (kr - n) % 2
        if kl > kr:
            continue
        kt = -(-_root_up(-(((Y - 3 * d) ** 2 - CC3) // 3)) // R)
        kt += (kt - n) % 2
        if kt == 0:
            runs.append((n, kl, kr))
            continue
        if kl <= min(kr, -kt):
            runs.append((n, kl, min(kr, -kt)))
        if max(kl, kt) <= kr:
            runs.append((n, max(kl, kt), kr))
    return runs


def _site_count(runs: list[tuple[int, int, int]]) -> int:
    return sum((last - first) // 2 + 1 for _, first, last in runs)


def _fill_density(r: float, count: int) -> float:
    """``density`` of the interstitial domain at r with count sites per
    hole: the same sum of 1.0 and then 2 * count terms r * r, over the same
    cell area, 2 sqrt(3)."""
    return math.pi * sum(chain((1.0,), repeat(r * r, 2 * count))) / (2.0 * SQRT3)


def interstitial(r: float) -> tuple[FundamentalDomain, float]:
    """Hexagonal unit packing with small discs filling both holes per cell.

    The unit discs sit at (2a + b, sqrt(3) b).  Small discs sit on a pitch-2r
    triangular lattice centred on the hole centre (1, sqrt(3)/3); a site is
    kept when it lies strictly inside the hole's triangle (0, 0), (2, 0),
    (1, sqrt(3)) and at least 1 + r - ``_ADMIT_SLACK`` from its three
    vertices, as ``_hole_runs`` decides exactly.  The second hole is filled
    with the point reflection of the first through (3/2, sqrt(3)/2), which
    maps the unit centres onto themselves.

    The domain is not scanned for overlaps; this is the proof that it
    passes ``validate``.  Among the hole centres the triangle is exactly
    this hole's Voronoi cell, so adjacent holes never claim the same site;
    every other unit centre is at least sqrt(3) > 1 + r8 from the triangle;
    the small discs of one hole sit 2r apart; and a site at least
    1 + r' from both ends of an edge, r' = r - ``_ADMIT_SLACK``, is at least
    sqrt(2r' + r'^2) > r' from it, so small discs of two holes do not meet.
    So in exact arithmetic every gap between discs is at least
    -``_ADMIT_SLACK`` = -OVERLAP_TOL / 2, and the rounding of the built
    coordinates, of order 1e-16, keeps it above -OVERLAP_TOL.

    Sites are built row by row from the bottom, each row from the left, by
    the float expressions x = 1 + 2r m + r n (k = 2m + n) and
    y = sqrt(3)/3 + r sqrt(3) n.  A domain of over ``_MAX_DISCS`` discs is
    refused.
    """
    if not _fills_holes(r):
        raise DomainError(f"interstitial construction needs 0 < r <= {ratio('r8'):.6f}, got {r}")
    runs = _hole_runs(r)
    count = _site_count(runs)
    if 2 * count + 1 > _MAX_DISCS:
        raise DomainError(f"interstitial construction at r={r} needs over "
                          f"{_MAX_DISCS:.0e} discs")
    hx, hy = 1.0, SQRT3 / 3.0
    r2, rs = 2.0 * r, r * SQRT3
    sites = [(hx + r2 * m + r * n, hy + rs * n)
             for n, first, last in runs for m in range((first - n) // 2, (last - n) // 2 + 1)]
    discs = [Disc(0.0, 0.0, 1.0)]
    discs += [Disc(x, y, r) for x, y in sites]
    discs += [Disc(3.0 - x, SQRT3 - y, r) for x, y in sites]
    return FundamentalDomain((2.0, 0.0), (1.0, SQRT3), tuple(discs)), _fill_density(r, count)


# ---------------------------------------------------------------------------
# the lower-bound curve and crossings

# Recipe cells the lower curve scans for overlaps in one call: the smallest
# count at which the 854 cells of ``lower --range 0.36:0.99 --step 0.001``
# scan as fast as in one batch (12.5 ms in blocks of 128 and 12.8 ms in one,
# against 13.6 ms in blocks of 64 and 16.6 ms in blocks of 32, on 2 cores).
_SCAN_CELLS = 128


def lower_bound_curve(grid: Sequence[float],
                      recipes: dict[str, FlowRecipe] | None = None
                      ) -> tuple[list[tuple[float, float]],
                                 dict[str, list[tuple[float, float | None]]]]:
    """Best known packing density at each ratio of a sorted grid, with the
    samples behind it.

    At each ratio this is the maximum of the hexagonal baseline, the
    interstitial construction where it applies, and every registered recipe
    whose range covers the ratio; recipe evaluations that fail are skipped.
    Returns the curve as ``(r, density)`` rows in grid order and, for each
    recipe name, the ``(r, density)`` pairs at the grid ratios its range
    covers, in grid order; density is None where the evaluation failed.
    Each recipe is evaluated once per ratio.

    The interstitial value is its census's density: no disc is built.
    Recipe cells stay floats (``cell_floats``).  They are built strictly in
    grid order, so continuation stays sequential, checked by ``check_cell``
    as ``FundamentalDomain`` would check them, and scanned for overlaps
    ``_SCAN_CELLS`` at a time, as soon as that many are pending.  Of a
    scanned cell only its density is kept, so apart from the returned rows
    and the continuation cache, memory does not grow with the grid.
    """
    if recipes is None:
        recipes = builtin_recipes()
    grid = [float(r) for r in grid]
    best = [delta1() for _ in grid]
    per_recipe: dict[str, list[tuple[float, float | None]]] = {name: [] for name in recipes}
    pending = []        # (k, name, slot in per_recipe[name], cell), not yet scanned

    def scan():
        for (k, name, slot, cell), bad in zip(pending, scan_cells([c for *_, c in pending])):
            if not bad:
                value = cell_density(*cell)
                best[k] = max(best[k], value)
                per_recipe[name][slot] = (grid[k], value)
        pending.clear()

    for k, r in enumerate(grid):
        if _fills_holes(r):
            best[k] = max(best[k], _fill_density(r, _site_count(_hole_runs(r))))
        for name, recipe in recipes.items():
            if recipe.contains(r):
                samples = per_recipe[name]
                samples.append((r, None))
                try:
                    cell = recipe.cell_floats(r)
                    check_cell(*cell)
                except (NoSolution, InvalidPacking, DomainError):
                    continue
                pending.append((k, name, len(samples) - 1, cell))
                if len(pending) == _SCAN_CELLS:
                    scan()
    if pending:
        scan()
    return list(zip(grid, best)), per_recipe


def find_crossings(fn: Callable[[float], float], level: float,
                   samples: Sequence[tuple[float, float]],
                   tol: float = 1e-9) -> list[Interval]:
    """Brackets of sign changes of fn - level, each narrowed to width <= tol.

    ``samples`` are ``(x, fn(x))`` pairs sorted by x.  Adjacent samples
    strictly on opposite sides of the level are bisected with fn, which is
    called only there; a sample exactly at the level is a point bracket.
    Sides are told by comparing signs, so tiny values cannot underflow a
    crossing away, and a tol below the float spacing stops at adjacent
    floats.  Sign changes between samples that cancel out go unseen, so the
    sample spacing sets the resolution.
    """
    out = []
    xprev, fprev = None, 0.0
    for x, fx in samples:
        fcur = fx - level
        if fcur == 0.0:
            out.append(Interval(x, x))
        elif fprev < 0.0 < fcur:
            out.append(Interval(*narrow(lambda m: fn(m) - level, xprev, x, tol)))
        elif fcur < 0.0 < fprev:
            out.append(Interval(*narrow(lambda m: level - fn(m), xprev, x, tol)))
        xprev, fprev = x, fcur
    return out
