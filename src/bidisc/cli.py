"""Command line front end.

Four subcommands: ``ratios`` tabulates the algebraic breakpoint ratios,
``lower`` samples the best known packing densities over a ratio range,
``upper`` sweeps a certifier and reports the resulting Lipschitz envelope,
and ``certify`` runs the branch and bound prover on one interval.

Data outputs (stdout or --out) are byte deterministic: no timestamps, floats
printed via repr. Wall time and other diagnostics go to stderr. Exit codes:
0 success, 2 certification failure, 3 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Sequence

from .bounds import delta1, lipschitz_envelope, samples_from_csv, suspicious_samples
from .errors import BidiscError, DepthExceeded, DomainError
from .flows import (DensityCurve, builtin_recipes, eval_flow, find_crossings,
                    load_recipe, lower_bound_curve)
from .harness import (DEFAULT_MAX_DEPTH, DEFAULT_PRECISION, certify_interval,
                      make_certifier, sweep)
from .intervals import Interval
from .ratios import RATIO_TABLE, ratio_interval, ratio_polynomial


class _ConfigError(Exception):
    """Bad flags or unusable inputs; mapped to exit code 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which would collide with
    # the certification-failure code. Route usage problems through exit 3.
    def error(self, message):
        raise _ConfigError(message)


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise _ConfigError(f"range must look like LO:HI, got {text!r}")
    if not (0.0 < lo <= hi < 1.0):
        raise _ConfigError(f"range must satisfy 0 < LO <= HI < 1, got {text!r}")
    return lo, hi


def _check_positive(name: str, value: float) -> None:
    # isfinite also turns away nan, on which the grid loop never ends
    if not (math.isfinite(value) and value > 0.0):
        raise _ConfigError(f"{name} must be positive and finite, got {value}")


def _grid(lo: float, hi: float, step: float) -> list[float]:
    _check_positive("step", step)
    if (hi - lo) / step > 1e7:
        raise _ConfigError("step is too small for the range (over 1e7 points)")
    out = []
    k = 0
    while True:
        r = lo + k * step
        # snap the final point to the exact right endpoint
        if r >= hi - 1e-9 * step:
            out.append(hi)
            return out
        out.append(r)
        k += 1


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def cmd_ratios(args) -> int:
    rows = []
    for name in RATIO_TABLE:
        enc = ratio_interval(name, tol=1e-10)
        poly = ratio_polynomial(name)
        rows.append((name, enc, poly))
    if args.format == "json":
        payload = [{"name": name,
                    "lo": enc.lo,
                    "hi": enc.hi,
                    "polynomial": poly.to_json()}
                   for name, enc, poly in rows]
        _emit(_json_dumps(payload), args.out)
    else:
        lines = ["name,lo,hi,polynomial"]
        for name, enc, poly in rows:
            lines.append(f"{name},{enc.lo!r},{enc.hi!r},{poly}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _load_recipes(paths: Sequence[str]):
    recipes = dict(builtin_recipes())
    for path in paths:
        try:
            recipe = load_recipe(path)
        except (OSError, BidiscError, ValueError) as exc:
            raise _ConfigError(f"cannot load recipe {path}: {exc}")
        recipes[recipe.name] = recipe
    return recipes


def cmd_lower(args) -> int:
    lo, hi = _parse_range(args.range)
    recipes = _load_recipes(args.recipe)
    grid = _grid(lo, hi, args.step)
    curve, flow_samples = lower_bound_curve(grid, recipes)

    # Where does each construction cross the hexagonal baseline? The
    # interstitial construction strictly exceeds it everywhere it applies,
    # so only recipe curves can cross. The curve pass's samples are scanned
    # over the recipe's part of the range; the recipe is evaluated again
    # only at range ends off the grid and inside sign-change brackets.
    level = delta1()
    crossings = []
    for name, recipe in recipes.items():
        samples = flow_samples[name]
        failed = sum(value is None for _, value in samples)
        if failed:
            print(f"warning: recipe {name} failed at {failed} of {len(samples)} "
                  f"grid points", file=sys.stderr)
        rlo = max(lo, recipe.valid_range[0])
        rhi = min(hi, recipe.valid_range[1])
        scanned = [(r, value) for r, value in samples if rlo <= r <= rhi]
        if rlo >= rhi or any(value is None for _, value in scanned):
            continue

        def fn(r, _recipe=recipe):
            return eval_flow(_recipe, r)[1]

        try:
            if not scanned or scanned[0][0] != rlo:
                scanned.insert(0, (rlo, fn(rlo)))
            if scanned[-1][0] != rhi:
                scanned.append((rhi, fn(rhi)))
            found = find_crossings(fn, level, scanned)
        except BidiscError:
            continue
        crossings.extend(found)
    crossings.sort(key=lambda iv: iv.lo)

    if args.format == "json":
        payload = {"curve": curve.to_json(),
                   "crossings": [[iv.lo, iv.hi] for iv in crossings]}
        _emit(_json_dumps(payload), args.out)
    else:
        _emit(curve.to_csv(), args.out)
        for iv in crossings:
            print(f"crossing,{iv.lo!r},{iv.hi!r}", file=sys.stderr)
    return 0


def cmd_upper(args) -> int:
    lo, hi = _parse_range(args.range)
    _check_positive("precision", args.precision)
    certifier = make_certifier(args.certifier)
    grid = _grid(lo, hi, args.step)
    samples = list(sweep(certifier, grid, precision=args.precision))
    if args.samples is not None:
        try:
            with open(args.samples, encoding="utf-8") as fh:
                extra = samples_from_csv(fh.read())
        except (OSError, ValueError) as exc:
            raise _ConfigError(f"cannot load samples {args.samples}: {exc}")
        low = suspicious_samples(extra)
        if low:
            print(f"warning: {len(low)} of {len(extra)} rows in {args.samples} "
                  f"claim a value below delta1 {delta1()!r}", file=sys.stderr)
        samples.extend(extra)
    samples.sort(key=lambda s: (s.r, s.value))
    if not samples:
        raise _ConfigError("no certified samples and no --samples file")

    fine = _grid(lo, hi, args.step / 10.0)
    curve = DensityCurve(tuple(
        (r, value, "upper") for r, value in zip(fine, lipschitz_envelope(samples, fine))))
    if args.format == "json":
        payload = {"samples": [[s.r, s.value] for s in samples],
                   "curve": curve.to_json()}
        _emit(_json_dumps(payload), args.out)
    else:
        _emit(curve.to_csv(), args.out)
        print(f"samples,{len(samples)}", file=sys.stderr)
    return 0


def cmd_certify(args) -> int:
    lo, hi = _parse_range(args.range)
    if args.delta is not None and not math.isfinite(args.delta):
        raise _ConfigError(f"delta must be finite, got {args.delta}")
    if args.max_depth < 1:
        raise _ConfigError(f"max-depth must be at least 1, got {args.max_depth}")
    certifier = make_certifier(args.certifier)
    delta = delta1() if args.delta is None else args.delta
    try:
        trace = certify_interval(certifier, Interval(lo, hi), delta,
                                 max_depth=args.max_depth)
        failed = None
    except DepthExceeded as exc:
        trace = exc.trace
        failed = exc

    if args.format == "json":
        _emit(_json_dumps(trace.to_json()), args.out)
    else:
        _emit(trace.leaves_csv(), args.out)
    print(f"leaves,{trace.leaf_count}", file=sys.stderr)

    if failed is not None:
        bad = list(trace.failing_leaves())
        print(f"certification failed on {len(bad)} leaves", file=sys.stderr)
        for node in bad[:5]:
            print(f"  [{node.interval.lo!r}, {node.interval.hi!r}]",
                  file=sys.stderr)
        if len(bad) > 5:
            print(f"  ... and {len(bad) - 5} more", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bidisc",
                     description="Density bounds for two-size disc packings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("ratios", help="tabulate the algebraic breakpoint ratios")
    add_common(p)
    p.set_defaults(func=cmd_ratios)

    p = sub.add_parser("lower", help="sample best known packing densities")
    p.add_argument("--range", required=True, metavar="LO:HI")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--recipe", action="append", default=[],
                   help="extra recipe JSON file (repeatable)")
    add_common(p)
    p.set_defaults(func=cmd_lower)

    p = sub.add_parser("upper", help="sweep a certifier, report the envelope")
    p.add_argument("--range", required=True, metavar="LO:HI")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--precision", type=float, default=DEFAULT_PRECISION)
    p.add_argument("--certifier", default="florian",
                   help="blind, florian, or threshold:T")
    p.add_argument("--samples", default=None,
                   help="merge extra bound samples from a CSV file")
    add_common(p)
    p.set_defaults(func=cmd_upper)

    p = sub.add_parser("certify", help="branch and bound proof over an interval")
    p.add_argument("--range", required=True, metavar="LO:HI")
    p.add_argument("--delta", type=float, default=None,
                   help="density level to certify (default hexagonal)")
    p.add_argument("--certifier", default="blind",
                   help="blind, florian, or threshold:T")
    p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    add_common(p)
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    started = time.perf_counter()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        code = args.func(args)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        elapsed = time.perf_counter() - started
        print(f"wall time {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
