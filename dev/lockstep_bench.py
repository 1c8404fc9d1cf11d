"""Benchmark passes of a git revision and the working tree, in lockstep.

    python3 dev/lockstep_bench.py --rev HEAD --workload packings --passes 40 [--seed 1]

Run from anywhere inside the checkout.  The revision is exported with
``git archive`` into a temporary directory, as ``dev/paired_bench.py`` does.
One worker interpreter starts per tree; each imports ``bidisc`` and
``perfbench/workloads.py`` from its own tree and readies bidisc once.  The
workers are then asked for one pass at a time, in ABBA order: pair k runs
the base first when k is even and the change first when k is odd, both
with seed ``--seed + k``.  A pass is ``perfbench/run.py``'s timed pass, and
each part's outcome is checked against that tree's ``expected.json``.

Two passes of a pair run seconds apart, so they share the host's speed of
the moment, which can drift by a third within minutes.  The tool prints,
for the pass and for each part, each side's median, quartiles and minimum
time, and the median of the per-pair ratios change / base.  It exits 1 when
a pass failed.  A gain claim still rests on ``dev/paired_bench.py``, which
runs the benchmark as it is run for real.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from paired_bench import ROOT, export, quartiles

# Runs in each worker: argv[1] is the tree.  Reads one seed a line and
# answers each with the timed pass as one JSON line, on a copy of the
# original stdout; bidisc's own output goes to stderr.
WORKER = r"""
import json, os, sys
tree, workload = sys.argv[1], sys.argv[2]
channel = os.fdopen(os.dup(1), "w")
os.dup2(2, 1)
sys.stdout = sys.stderr
sys.path.insert(0, os.path.join(tree, "perfbench"))
from ready import import_bidisc, ready
import_bidisc()
from run import timed_pass
from workloads import VARIANTS, WORKLOADS
parts = WORKLOADS[workload]
with open(os.path.join(tree, "perfbench", "expected.json"), encoding="utf-8") as fh:
    recorded = json.load(fh)
ready()
for line in sys.stdin:
    variant = int(line) % VARIANTS
    inputs = {p.name: p.inputs(variant) for p in parts}
    expected = {p.name: recorded[p.name][variant] for p in parts}
    channel.write(json.dumps(timed_pass(parts, inputs, expected)) + "\n")
    channel.flush()
"""


def start_worker(tree: Path, workload: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", WORKER, str(tree), workload],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def one_pass(worker: subprocess.Popen, seed: int) -> dict:
    worker.stdin.write(f"{seed}\n")
    worker.stdin.flush()
    line = worker.stdout.readline()
    if not line:
        raise RuntimeError(f"worker exited (code {worker.wait()})")
    return json.loads(line)


def summary(label: str, base: list[float], change: list[float]) -> str:
    (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
    ratio = statistics.median(c / b for b, c in zip(base, change))
    return (f"{label}: base {bmed:.4g} [{bq1:.4g}, {bq3:.4g}] min {min(base):.4g}, "
            f"change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}] min {min(change):.4g}, "
            f"median ratio {ratio:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--passes", type=int, default=40, help="passes per side")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2 to have quartiles")

    passes = {"base": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        export(args.rev, base)
        workers = {"base": start_worker(base, args.workload),
                   "change": start_worker(ROOT, args.workload)}
        try:
            for k in range(args.passes):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    passes[side].append(one_pass(workers[side], args.seed + k))
        finally:
            for worker in workers.values():
                worker.stdin.close()
                worker.wait()

    print(f"{args.workload}: {args.rev} (base) vs working tree (change), "
          f"{args.passes} lockstep passes a side")
    print(summary("pass wall_s", *([p["wall_s"] for p in passes[side]]
                                  for side in ("base", "change"))))
    for name in passes["base"][0]["parts"]:
        print(summary(f"part {name} s", *([p["parts"].get(name, 0.0) for p in passes[side]]
                                          for side in ("base", "change"))))
    failed = {side: sum(not p["ok"] for p in runs) for side, runs in passes.items()}
    print(f"failed passes: base {failed['base']}, change {failed['change']}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
