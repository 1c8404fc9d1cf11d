"""One-parameter families of periodic packings and the lower-bound curve.

A flow recipe describes how a periodic binary packing deforms as the disc
ratio r varies.  Two kinds are supported:

* sequential: discs are built one by one with ``stick``, so positions are
  explicit in r.
* constrained: positions solve a square polynomial contact system; values
  are tracked in r by predictor-corrector continuation seeded from a stored
  starting point.

The module also provides the two reference closed-form density curves used
as oracles, the interstitial construction that drops small discs into the
holes of the unit hexagonal packing, crossing detection against a level,
and the combined lower-bound curve.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .bounds import SQRT3, delta1
from .errors import (DomainError, InvalidPacking, NoConvergence, NoSolution,
                     RecipeError, SingularJacobian)
from .expressions import Expr
from .geometry import Disc, FundamentalDomain, density, stick, validate
from .intervals import Interval
from .ratios import ratio
from .solve import newton_solve

# ---------------------------------------------------------------------------
# closed-form density curves


def closed_form_841(r: float) -> float:
    """Density along the sequentially built flow, valid on its whole range.

    The formula itself is defined for every r > 0; outside the recipe's
    validity range it no longer describes a packing.
    """
    if r <= 0.0:
        raise DomainError("ratio must be positive")
    return (math.pi * (r * r + 1.0) * (r + 1.0) ** 4
            / (16.0 * (r + 2.0) * math.sqrt(r + 2.0) * r * math.sqrt(r)))


def closed_form_r6(r: float) -> float:
    """Density along the constrained flow, via its nested-radical form."""
    inner = 45.0 * r * r - 6.0 * r - 3.0
    if inner < 0.0:
        raise DomainError(f"inner radicand negative at r={r}")
    outer = (47.0 * r ** 4 + 84.0 * r ** 3 + 54.0 * r * r + 12.0 * r + 3.0
             - (7.0 * r ** 3 + 13.0 * r * r + 9.0 * r + 3.0) * math.sqrt(inner))
    if outer < 0.0:
        raise DomainError(f"outer radicand negative at r={r}")
    return (math.pi * (6.0 * r * r + 1.0) * math.sqrt(outer)
            / (math.sqrt(6.0) * (r ** 4 + 12.0 * r * r + 12.0 * r + 3.0)))


# ---------------------------------------------------------------------------
# recipes


def _resolve_range_endpoint(spec) -> float:
    if isinstance(spec, str):
        return ratio(spec)
    return float(spec)


@dataclass(frozen=True)
class FlowRecipe:
    """Common recipe data; concrete kinds subclass and implement build()."""

    name: str
    valid_range: tuple[float, float]
    range_spec: tuple
    census: tuple[int, int]            # (unit discs, ratio discs) per cell

    kind = "abstract"

    def contains(self, r: float, slack: float = 1e-12) -> bool:
        lo, hi = self.valid_range
        return lo - slack <= r <= hi + slack

    def build(self, r: float) -> FundamentalDomain:
        raise NotImplementedError


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
        n = len(self.seeds)
        for k, (i, j, sel) in enumerate(self.steps):
            if not (0 <= i < n + k and 0 <= j < n + k):
                raise RecipeError(f"{self.name}: step {k} references a later disc")
            if sel not in ("one", "ratio"):
                raise RecipeError(f"{self.name}: bad radius selector {sel!r}")

    def build(self, r: float) -> FundamentalDomain:
        discs = list(self.seeds)
        for i, j, sel in self.steps:
            discs.append(stick(discs[i], discs[j], 1.0 if sel == "one" else r))
        u = _combo_center(self.lattice[0], discs)
        v = _combo_center(self.lattice[1], discs)
        cell = []
        for combo, sel in self.cell:
            x, y = _combo_center(combo, discs)
            cell.append(Disc(x, y, 1.0 if sel == "one" else r))
        return FundamentalDomain(u, v, tuple(cell))


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
        if len(self.equations) != len(self.variables) + 1:
            raise RecipeError(
                f"{self.name}: {len(self.equations)} equations cannot leave a "
                f"square system in {len(self.variables)} unknowns with one held out")
        if not 0 <= self.verify_index < len(self.equations):
            raise RecipeError(f"{self.name}: verify_index out of range")
        if len(self.guess) != len(self.variables):
            raise RecipeError(f"{self.name}: guess length mismatch")

    def environment(self, values, r):
        """Name map for expression evaluation; defines are filled in order."""
        env = {"r": r}
        for name, value in zip(self.variables, values):
            env[name] = value
        for name, expr in self.defines:
            env[name] = expr(env)
        return env

    def residual_system(self, r: float) -> Callable[[Sequence], list]:
        """Newton system at ratio r: q -> residuals of every equation but the
        held-out one, all evaluated on one environment."""
        eqs = [e for k, e in enumerate(self.equations) if k != self.verify_index]

        def system(q):
            env = self.environment(q, r)
            return [e(env) for e in eqs]

        return system

    def build_from(self, values, r: float) -> FundamentalDomain:
        env = self.environment(values, r)
        ux, uy = self.lattice[0]
        vx, vy = self.lattice[1]
        cell = []
        for ex, ey, sel in self.cell:
            cell.append(Disc(ex(env), ey(env), 1.0 if sel == "one" else r))
        return FundamentalDomain((ux(env), uy(env)), (vx(env), vy(env)), tuple(cell))

    def build(self, r: float) -> FundamentalDomain:
        return self.build_from(solve_constrained(self, r), r)


def recipe_from_dict(obj: dict) -> FlowRecipe:
    try:
        name = obj["name"]
        kind = obj["kind"]
        range_spec = tuple(obj["valid_range"])
        valid_range = tuple(_resolve_range_endpoint(s) for s in range_spec)
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
            return SequentialRecipe(name, valid_range, range_spec, census,
                                    seeds, steps, lattice, cell)
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
            return ConstrainedRecipe(name, valid_range, range_spec, census,
                                     variables, tuple(defines), equations,
                                     int(obj["verify_index"]), float(obj["r0"]),
                                     guess, lattice, cell)
    except (KeyError, TypeError, ValueError) as exc:
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
_VERIFY_TOL = 1e-8

# Per-recipe solution paths: name -> sorted list of (r, values), with
# _path_keys[name] holding the same r values as a plain list for bisect.
# Correct for single-writer access; concurrent sweeps must partition their r
# ranges.
_paths: dict[str, list[tuple[float, np.ndarray]]] = {}
_path_keys: dict[str, list[float]] = {}


def clear_continuation_cache(name: str | None = None) -> None:
    if name is None:
        _paths.clear()
        _path_keys.clear()
    else:
        _paths.pop(name, None)
        _path_keys.pop(name, None)


def _correct(recipe: ConstrainedRecipe, r: float, guess) -> np.ndarray:
    sol = newton_solve(recipe.residual_system(r), guess, tol=1e-12)
    held = recipe.equations[recipe.verify_index]
    resid = held(recipe.environment(sol, r))
    if abs(resid) > _VERIFY_TOL:
        raise InvalidPacking(
            f"{recipe.name}: held-out contact residual {resid:.3e} at r={r}")
    return sol


def _nearest(rs: list[float], target: float) -> int:
    """First index of the least abs(rs[i] - target) in the sorted list rs.

    The same index as ``min(range(len(rs)), key=...)``.  The rounded
    distance does not increase up to the insertion point and does not
    decrease from it, so the least one is at one of its two neighbours, and
    equal distances before it can only sit directly to its left.
    """
    pos = bisect.bisect_left(rs, target)
    if pos == len(rs) or (pos > 0 and abs(rs[pos - 1] - target) <= abs(rs[pos] - target)):
        pos -= 1
    best = abs(rs[pos] - target)
    while pos > 0 and abs(rs[pos - 1] - target) == best:
        pos -= 1
    return pos


def _predict(path: list[tuple[float, np.ndarray]], rs: list[float],
             target: float) -> np.ndarray:
    """Secant extrapolation from the two nearest path points, else nearest."""
    k = _nearest(rs, target)
    if len(path) == 1:
        return path[k][1].copy()
    k2 = k - 1 if (k == len(path) - 1 or
                   (k > 0 and abs(rs[k - 1] - target) <= abs(rs[k + 1] - target))) else k + 1
    (ra, qa), (rb, qb) = path[k], path[k2]
    if ra == rb:
        return qa.copy()
    return qa + (qb - qa) * ((target - ra) / (rb - ra))


def solve_constrained(recipe: ConstrainedRecipe, r: float) -> np.ndarray:
    """Unknown values at ratio r, walked from the recipe's seed point."""
    path = _paths.get(recipe.name)
    if path is None:
        seed = _correct(recipe, recipe.r0, np.asarray(recipe.guess, dtype=float))
        path = [(recipe.r0, seed)]
        _paths[recipe.name] = path
        _path_keys[recipe.name] = [recipe.r0]
    rs = _path_keys[recipe.name]
    pos = bisect.bisect_left(rs, r)
    if pos < len(rs) and rs[pos] == r:
        return path[pos][1].copy()

    current, sol = path[_nearest(rs, r)]
    step = _MAX_STEP
    while current != r:
        remaining = r - current
        move = math.copysign(min(step, abs(remaining)), remaining)
        target = r if abs(remaining) <= step else current + move
        try:
            sol = _correct(recipe, target, _predict(path, rs, target))
        except (NoConvergence, SingularJacobian) as exc:
            step *= 0.5
            if step < _MIN_STEP:
                raise NoSolution(
                    f"{recipe.name}: continuation stalled near r={current}: {exc}") from exc
            continue
        pos = bisect.bisect_right(rs, target)
        rs.insert(pos, target)
        path.insert(pos, (target, sol))
        current = target
        step = min(step * 2.0, _MAX_STEP)
    return sol.copy()


# ---------------------------------------------------------------------------
# evaluation


def eval_flow(recipe: FlowRecipe, r: float) -> tuple[FundamentalDomain, float]:
    """Build the recipe's packing at ratio r and return it with its density."""
    if not recipe.contains(r):
        raise DomainError(
            f"r={r} outside valid range [{recipe.valid_range[0]}, {recipe.valid_range[1]}] "
            f"of recipe {recipe.name}")
    domain = recipe.build(r)
    n_unit, n_ratio = recipe.census
    census = domain.radius_census()
    if r == 1.0:
        # the two radius classes merge into one bucket
        ok = census == {1.0: n_unit + n_ratio}
    else:
        ok = census.get(1.0, 0) == n_unit
        if n_ratio:
            ok = ok and census.get(r, 0) == n_ratio
    if not ok:
        raise InvalidPacking(f"{recipe.name}: census {census} != {recipe.census} at r={r}")
    bad = validate(domain, tol=1e-9)
    if bad:
        raise InvalidPacking(f"{recipe.name}: {len(bad)} overlap(s) at r={r}, worst {bad[0]}")
    return domain, density(domain)


# ---------------------------------------------------------------------------
# interstitial packings for small r

_ADMIT_SLACK = 5e-10


def interstitial(r: float) -> tuple[FundamentalDomain, float]:
    """Hexagonal unit packing with small discs filling both holes per cell.

    Small discs sit on a pitch-2r triangular lattice centered on the hole
    center, keeping only those far enough from the surrounding unit discs
    and closer to this hole than to any other, so adjacent holes never
    claim the same site.  The second hole is filled with the point
    reflection of the first through the midpoint between the hole centers,
    which maps the surrounding unit centers onto themselves.  The domain is
    scanned for overlaps before it is returned, as in ``eval_flow``.
    """
    r8 = ratio("r8")
    if not 0.0 < r <= r8 + 1e-12:
        raise DomainError(f"interstitial construction needs 0 < r <= {r8:.6f}, got {r}")

    hx, hy = 1.0, SQRT3 / 3.0
    window = 2.0 / SQRT3
    kmax = int(math.ceil(window / (2.0 * r))) + 1
    m, n = np.meshgrid(np.arange(-kmax, kmax + 1), np.arange(-kmax, kmax + 1),
                       indexing="ij")
    px = hx + 2.0 * r * m.ravel() + r * n.ravel()
    py = hy + r * SQRT3 * n.ravel()
    keep = (px - hx) ** 2 + (py - hy) ** 2 <= window * window
    limit = (1.0 + r - _ADMIT_SLACK) ** 2
    for a in range(-2, 3):
        for b in range(-2, 3):
            cx = 2.0 * a + b
            cy = SQRT3 * b
            if (cx - hx) ** 2 + (cy - hy) ** 2 > 2.6 ** 2 + window * window:
                continue
            keep &= (px - cx) ** 2 + (py - cy) ** 2 >= limit
    # A site far enough from the unit discs may sit in an adjacent hole,
    # where the other cluster (or a periodic image of this one) would place
    # the same disc again.  Every site belongs to its nearest hole center,
    # and no admissible site is equidistant: the bisector between two holes
    # runs through the tangency cusp, inside the unit-disc exclusion zone.
    own = (px - hx) ** 2 + (py - hy) ** 2
    for a in range(-2, 3):
        for b in range(-2, 3):
            for gx, gy in ((hx, hy), (2.0, 2.0 * SQRT3 / 3.0)):
                cx = gx + 2.0 * a + b
                cy = gy + SQRT3 * b
                if cx == hx and cy == hy:
                    continue
                keep &= own < (px - cx) ** 2 + (py - cy) ** 2
    px, py = px[keep], py[keep]
    order = np.lexsort((px, py))
    px, py = px[order], py[order]

    discs = [Disc(0.0, 0.0, 1.0)]
    discs += [Disc(x, y, r) for x, y in zip(px, py)]
    discs += [Disc(3.0 - x, SQRT3 - y, r) for x, y in zip(px, py)]
    domain = FundamentalDomain((2.0, 0.0), (1.0, SQRT3), tuple(discs))
    bad = validate(domain, tol=1e-9)
    if bad:
        raise InvalidPacking(f"interstitial: {len(bad)} overlap(s) at r={r}, first {bad[0]}")
    return domain, density(domain)


def interstitial_count(r: float) -> int:
    """Number of small discs per hole."""
    domain, _ = interstitial(r)
    return (len(domain.discs) - 1) // 2


# ---------------------------------------------------------------------------
# curves and crossings


@dataclass(frozen=True)
class DensityCurve:
    """Sorted (r, value, tag) samples of a density curve."""

    samples: tuple[tuple[float, float, str], ...]

    def __post_init__(self):
        rs = [s[0] for s in self.samples]
        if any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError("curve samples must have strictly increasing r")

    def to_csv(self) -> str:
        lines = ["r,density,tag"]
        lines += [f"{r!r},{value!r},{tag}" for r, value, tag in self.samples]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "DensityCurve":
        rows = []
        lines = [ln for ln in text.strip().splitlines() if ln]
        for line in lines[1:]:
            r, value, tag = line.split(",")
            rows.append((float(r), float(value), tag))
        return cls(tuple(rows))

    def to_json(self) -> list:
        return [[r, value, tag] for r, value, tag in self.samples]


def lower_bound_at(r: float, recipes: dict[str, FlowRecipe] | None = None) -> float:
    """Best known packing density at one ratio.

    Maximum of the hexagonal baseline, the interstitial construction where
    it applies, and every registered recipe whose range covers the ratio;
    recipe evaluations that fail are skipped.
    """
    if recipes is None:
        recipes = builtin_recipes()
    best = delta1()
    if 0.0 < r <= ratio("r8") + 1e-12:
        best = max(best, interstitial(r)[1])
    for recipe in recipes.values():
        if recipe.contains(r):
            try:
                best = max(best, eval_flow(recipe, r)[1])
            except (NoSolution, InvalidPacking, DomainError):
                continue
    return best


def lower_bound_curve(grid: Sequence[float],
                      recipes: dict[str, FlowRecipe] | None = None) -> DensityCurve:
    """lower_bound_at sampled over a sorted grid."""
    if recipes is None:
        recipes = builtin_recipes()
    return DensityCurve(tuple(
        (float(r), lower_bound_at(float(r), recipes), "lower") for r in grid))


def find_crossings(fn: Callable[[float], float], level: float,
                   rng: tuple[float, float], tol: float = 1e-9,
                   scan_step: float = 1e-3) -> list[Interval]:
    """Brackets of sign changes of fn - level, each narrowed to width <= tol."""
    lo, hi = float(rng[0]), float(rng[1])
    if hi < lo:
        raise DomainError("empty range")
    count = max(2, int(math.ceil((hi - lo) / scan_step)) + 1)
    xs = [float(x) for x in np.linspace(lo, hi, count)]
    out = []
    fprev = fn(xs[0]) - level
    for k in range(1, len(xs)):
        fcur = fn(xs[k]) - level
        if fprev == 0.0:
            out.append(Interval(xs[k - 1], xs[k - 1]))
        elif fprev * fcur < 0.0:
            a, b = xs[k - 1], xs[k]
            fa = fprev
            while b - a > tol:
                mid = 0.5 * (a + b)
                fm = fn(mid) - level
                if fm == 0.0:
                    a = b = mid
                    break
                if fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            out.append(Interval(a, b))
        fprev = fcur
    if fprev == 0.0:
        out.append(Interval(xs[-1], xs[-1]))
    return out
