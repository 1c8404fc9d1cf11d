"""Paired benchmark runs of a git revision against the working tree.

    python3 dev/paired_bench.py --rev HEAD --workload packings --pairs 10 \\
        --seconds 50 [--seed 1] [--trace 0]

Run from anywhere inside the checkout.  The revision is exported with
``git archive`` into a temporary directory; ``perfbench/run.py`` then runs
alternately on that copy (the base) and on the working tree (the change),
each run in a fresh interpreter with the same workload, seed and length.
Pair k uses seed ``--seed + k`` on both sides, and the side that runs first
alternates from pair to pair.  Nothing under ``perfbench/`` is modified.

For every metric of the last stdout line of ``run.py`` the tool prints each
side's median and quartiles, the change's win share (pairs in which the
change is better, by the direction ``BENCHMARK.json`` declares, out of all
pairs; ties count for neither) and the verdict for a gain claim: at least
nine tenths of the pairs won, and medians further apart than the
distance between the base's quartiles.  A run whose passes failed is
reported and makes the tool exit 1.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> None:
    """Unpack the committed files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its result line as a dict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run.py failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to have quartiles")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"]
              for m in declared["end_to_end"] + declared["per_layer"]}
    results = {"base": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        export(args.rev, base)
        trees = {"base": base, "change": ROOT}
        for k in range(args.pairs):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for side in order:
                res = run_once(trees[side], args.workload, args.seed + k,
                               args.seconds, args.trace)
                results[side].append(res)
                print(f"pair {k} {side}: seed {args.seed + k}, "
                      f"{res['failed']} of {res['attempted']} passes failed, "
                      f"wall_s {res['metrics'].get('wall_s', {}).get('value')}",
                      file=sys.stderr)

    print(f"{args.workload}: {args.rev} (base) vs working tree (change), "
          f"{args.pairs} pairs of {args.seconds:g} s runs")
    for name in results["base"][0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in results["base"]]
        c = [r["metrics"][name]["value"] for r in results["change"]]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(b), quartiles(c)
        gain = wins >= 0.9 * args.pairs and sign * (cmed - bmed) > bq3 - bq1
        print(f"{name}: base {bmed:.4g} [{bq1:.4g}, {bq3:.4g}], "
              f"change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}], change won {wins}/{args.pairs}: "
              f"{'gain' if gain else 'no gain'}")
    failed = {side: sum(r["failed"] for r in runs) for side, runs in results.items()}
    attempted = {side: sum(r["attempted"] for r in runs) for side, runs in results.items()}
    print(f"failed passes: base {failed['base']} of {attempted['base']}, "
          f"change {failed['change']} of {attempted['change']}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
