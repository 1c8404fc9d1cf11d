"""Command line front end.

Four subcommands: ``ratios`` tabulates the algebraic breakpoint ratios,
``lower`` samples the best known packing densities over a ratio range,
``upper`` sweeps a certifier and reports the resulting Lipschitz envelope,
and ``certify`` runs the branch and bound prover on one interval.

This module alone turns results into bytes: the library hands back rows,
samples and proof trees, and every CSV table and JSON document is written
here.  Data outputs (stdout or --out) are byte deterministic: no timestamps,
floats printed via repr.  Wall time and other diagnostics go to stderr.  Exit
codes: 0 success, 2 certification failure, 3 configuration error, which is
any DomainError, from a flag or from the library.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from itertools import islice
from typing import Iterable, Iterator, Sequence

from . import geometry
from .bounds import delta1, lipschitz_envelope, samples_from_csv, suspicious_samples
from .errors import BidiscError, DomainError
from .flows import builtin_recipes, find_crossings, load_recipe, lower_bound_curve
from .harness import DEFAULT_MAX_DEPTH, TraceNode, certify_interval, make_certifier, sweep
from .intervals import Interval
from .ratios import RATIO_TABLE, ratio_interval, ratio_polynomial


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which would collide with
    # the certification-failure code. Route usage problems through exit 3.
    def error(self, message):
        raise DomainError(message)


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise DomainError(f"range must look like LO:HI, got {text!r}")
    if not (0.0 < lo <= hi < 1.0):
        raise DomainError(f"range must satisfy 0 < LO <= HI < 1, got {text!r}")
    return lo, hi


def _grid(lo: float, hi: float, step: float) -> list[float]:
    # isfinite also turns away nan, on which the grid loop never ends
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be positive and finite, got {step}")
    if (hi - lo) / step > 1e7:
        raise DomainError("step is too small for the range (over 1e7 points)")
    out = []
    k = 0
    while True:
        r = lo + k * step
        # snap the final point to the exact right endpoint
        if r >= hi - 1e-9 * step:
            out.append(hi)
            return out
        if out and r <= out[-1]:
            raise DomainError(f"step {step!r} is below the float spacing of the "
                              f"range: the grid repeats r={r!r}")
        out.append(r)
        k += 1


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the text chunks in order, to stdout or to the file out."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc}")


# rows per chunk of CSV or JSON text: a table's text is never held whole
_CSV_BLOCK = 4096


def _csv(header: str, rows: Iterable) -> Iterator[str]:
    """A header line, then one line per row: floats by repr, the rest by str.

    Each field goes through ``str.format``, which prints a float as its str,
    and the str of a float is its repr.  The lines come as chunks of the
    header, then of at most _CSV_BLOCK rows each.
    """
    line = ",".join(["{}"] * len(header.split(","))).format
    yield header + "\n"
    rows = iter(rows)
    while block := list(islice(rows, _CSV_BLOCK)):
        yield "".join([line(*row) + "\n" for row in block])


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _json_lists(fields: dict[str, Iterable]) -> Iterator[str]:
    r"""``_json`` of a non-empty dict of lists, in chunks of at most
    _CSV_BLOCK rows.  There a row is ``json.dumps(row, indent=2)`` indented
    four spaces, rows joined by ``",\n"``; ``json.dumps(block, indent=2)``
    holds the block's rows so indented two spaces, after ``"["`` and before
    ``"\n]"``."""
    opener = "{"
    for key, rows in fields.items():
        yield f"{opener}\n  {json.dumps(key)}: "
        opener = ","
        rows = iter(rows)
        sep = "["
        while block := list(islice(rows, _CSV_BLOCK)):
            yield sep + json.dumps(block, indent=2)[1:-2].replace("\n", "\n  ")
            sep = ","
        yield "[]" if sep == "[" else "\n  ]"
    yield "\n}\n"


def _verdict(node: TraceNode) -> str:
    return "proven" if node.verdict else "unproven"


def _node_json(node: TraceNode) -> dict:
    return {"lo": repr(node.interval.lo), "hi": repr(node.interval.hi),
            "delta": node.delta, "verdict": _verdict(node),
            "children": [_node_json(child) for child in node.children]}


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
                    "polynomial": [[c.numerator, c.denominator] for c in poly.coeffs]}
                   for name, enc, poly in rows]
        _emit([_json(payload)], args.out)
    else:
        _emit(_csv("name,lo,hi,polynomial",
                   ((name, enc.lo, enc.hi, poly) for name, enc, poly in rows)), args.out)
    return 0


def _load_recipes(paths: Sequence[str]):
    recipes = dict(builtin_recipes())
    for path in paths:
        try:
            recipe = load_recipe(path)
        except (OSError, BidiscError, ValueError) as exc:
            raise DomainError(f"cannot load recipe {path}: {exc}")
        recipes[recipe.name] = recipe
    return recipes


def cmd_lower(args) -> int:
    lo, hi = _parse_range(args.range)
    recipes = _load_recipes(args.recipe)
    grid = _grid(lo, hi, args.step)
    rows, flow_samples = lower_bound_curve(grid, recipes)
    curve = ((r, value, "lower") for r, value in rows)

    # Where does each construction cross the hexagonal baseline? The
    # interstitial construction strictly exceeds it everywhere it applies,
    # so only recipe curves can cross. The curve pass's samples are scanned
    # over the recipe's part of the range; the recipe is built again only at
    # range ends off the grid and inside sign-change brackets, and those
    # cells are scanned for overlaps together, once the brackets are narrow.
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
        built = []

        def fn(r, _recipe=recipe, _built=built):
            domain = _recipe.build(r)
            _built.append(domain)
            return geometry.density(domain)

        try:
            if not scanned or scanned[0][0] != rlo:
                scanned.insert(0, (rlo, fn(rlo)))
            if scanned[-1][0] != rhi:
                scanned.append((rhi, fn(rhi)))
            found = find_crossings(fn, level, scanned)
        except BidiscError:
            continue
        # a recipe with an overlapping cell is dropped, as a failed build is
        if built and any(geometry.validate_many(built)):
            continue
        crossings.extend(found)
    crossings.sort(key=lambda iv: iv.lo)

    if args.format == "json":
        _emit(_json_lists({"curve": curve,
                           "crossings": ([iv.lo, iv.hi] for iv in crossings)}), args.out)
    else:
        _emit(_csv("r,density,tag", curve), args.out)
        for iv in crossings:
            print(f"crossing,{iv.lo!r},{iv.hi!r}", file=sys.stderr)
    return 0


def cmd_upper(args) -> int:
    lo, hi = _parse_range(args.range)
    certifier = make_certifier(args.certifier)
    grid = _grid(lo, hi, args.step)
    fine = _grid(lo, hi, args.step / 10.0)
    samples, skipped = sweep(certifier, grid)
    for r, exc in skipped:
        print(f"sweep: no bound at r={r} via {args.certifier}: {exc}", file=sys.stderr)
    if args.samples is not None:
        try:
            with open(args.samples, encoding="utf-8") as fh:
                extra = samples_from_csv(fh.read())
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot load samples {args.samples}: {exc}")
        low = suspicious_samples(extra)
        if low:
            print(f"warning: {len(low)} of {len(extra)} rows in {args.samples} "
                  f"claim a value below delta1 {delta1()!r}", file=sys.stderr)
        samples.extend(extra)
    samples.sort(key=lambda s: (s.r, s.value))
    if not samples:
        raise DomainError("no certified samples and no --samples file")

    curve = ((r, value, "upper") for r, value in zip(fine, lipschitz_envelope(samples, fine)))
    if args.format == "json":
        _emit(_json_lists({"samples": ([s.r, s.value] for s in samples),
                           "curve": curve}), args.out)
    else:
        _emit(_csv("r,density,tag", curve), args.out)
        print(f"samples,{len(samples)}", file=sys.stderr)
    return 0


def cmd_certify(args) -> int:
    lo, hi = _parse_range(args.range)
    certifier = make_certifier(args.certifier)
    delta = delta1() if args.delta is None else args.delta
    root = certify_interval(certifier, Interval(lo, hi), delta, max_depth=args.max_depth)

    if args.format == "json":
        # wall time stays out, so the document is byte-stable across runs
        _emit([_json({"leaf_count": root.leaf_count, "node_count": root.node_count,
                     "success": root.verdict, "root": _node_json(root)})], args.out)
    else:
        _emit(_csv("lo,hi,delta,verdict",
                   ((leaf.interval.lo, leaf.interval.hi, leaf.delta, _verdict(leaf))
                    for leaf in root.leaves())), args.out)
    print(f"leaves,{root.leaf_count}", file=sys.stderr)

    if not root.verdict:
        bad = [leaf for leaf in root.leaves() if not leaf.verdict]
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
    p.add_argument("--certifier", default="florian", help="blind or florian")
    p.add_argument("--samples", default=None,
                   help="merge extra bound samples from a CSV file")
    add_common(p)
    p.set_defaults(func=cmd_upper)

    p = sub.add_parser("certify", help="branch and bound proof over an interval")
    p.add_argument("--range", required=True, metavar="LO:HI")
    p.add_argument("--delta", type=float, default=None,
                   help="density level to certify (default hexagonal)")
    p.add_argument("--certifier", default="blind", help="blind or florian")
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
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        elapsed = time.perf_counter() - started
        print(f"wall time {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
