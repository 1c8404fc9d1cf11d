"""bidisc benchmark: one workload, measured for a fixed time, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; bidisc is imported from its ``src/``.
The run is a closed loop: one pass at a time, in this one process, until
``--seconds`` have elapsed.  A pass runs each part of the workload once
(see workloads.py); every CLI part starts cold.  A pass runs under a time
limit, and each of its parts is checked against the outcome recorded for
its seeded variant in ``expected.json``; a pass in which a part differs,
raises or times out counts as failed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
median wall and CPU seconds per pass, median set-up seconds over fresh
interpreters started at even intervals through the run, and the run's peak
resident memory.  With ``--trace 1`` untraced and traced passes alternate,
and it holds the per-layer metrics of the traced pass with the median wall
time, whose layer self times plus ``trace.unattributed_s`` sum to its
``trace.wall_s``, and the median seconds of each part over the untraced
passes.  The line before holds the machine facts; a JSON file with the
passes, the facts and (when traced) the spans is written under
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from ready import ROOT, import_bidisc, ready

PASS_LIMIT_S = 60.0       # runaway guard: a pass taking longer fails
SETUP_PROBES = 15         # fresh interpreters timed per run for setup_s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class PassTimeout(BaseException):
    """Raised by the alarm inside a pass that exceeds PASS_LIMIT_S."""


def _on_alarm(signum, frame):
    raise PassTimeout()


def timed_pass(parts, inputs, expected, on_part=None) -> dict:
    """Run one pass under the time limit; wall and CPU seconds, verdict.

    ``parts`` run in order on ``inputs[name]`` and must give
    ``expected[name]``; ``on_part(name)`` is called after each, outside
    its timing.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PASS_LIMIT_S)
    error, seconds = None, {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        for part in parts:
            start = time.perf_counter()
            outcome = part.execute(inputs[part.name])
            seconds[part.name] = time.perf_counter() - start
            if on_part:
                on_part(part.name)
            if outcome != expected[part.name]:
                error = (f"{part.name}: outcome {outcome} differs from the "
                         f"recorded {expected[part.name]}")
                break
    except PassTimeout:
        error = f"timed out after {PASS_LIMIT_S} s"
    except Exception:
        error = traceback.format_exc()
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if error is not None:
        print(f"perfbench: failed pass: {error}", file=sys.stderr)
    return {"wall_s": wall, "cpu_s": cpu, "parts": seconds, "ok": error is None}


def setup_probe() -> float:
    """Time one fresh interpreter from start to a ready bidisc."""
    script = str(Path(__file__).resolve().parent / "ready.py")
    done = subprocess.run([sys.executable, script], capture_output=True,
                          text=True, timeout=PASS_LIMIT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def machine_facts() -> dict:
    import numpy
    from bidisc import kernels
    backend = getattr(kernels, "backend_name", None)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend() if backend else None,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def plain_run(parts, inputs, expected, seconds):
    # Set-up probes fall due at even intervals over the run and run between
    # two passes, so that their median covers the same stretch of time as
    # the passes' median does.
    ready()
    passes, setup = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while not passes or time.perf_counter() < deadline:
        while (len(setup) < SETUP_PROBES and time.perf_counter()
               >= start + len(setup) * seconds / SETUP_PROBES):
            setup.append(setup_probe())
        passes.append(timed_pass(parts, inputs, expected))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return metrics, passes, {"setup_s": setup}


def traced_run(parts, inputs, expected, seconds):
    import tracing
    from bidisc import flows
    from bidisc.ratios import ratio_interval
    from workloads import PARTS

    tracer = tracing.Tracer()
    ratio_interval.cache_clear()
    tracer.install()
    ready()
    tracer.uninstall()
    setup_stats, cache = tracer.stats, ratio_interval.cache_info()

    passes, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        passes.append(timed_pass(parts, inputs, expected))
        tracer.reset()
        tracer.install()
        p = timed_pass(parts, inputs, expected, on_part=tracer.end_part)
        tracer.uninstall()
        p["traced"] = True
        passes.append(p)
        unattributed = p["wall_s"] - tracer.root_seconds()
        layers = tracing.layer_metrics(tracer.part_stats, setup_stats)
        attributed = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        if abs(attributed + unattributed - p["wall_s"]) > 1e-6 * max(1.0, p["wall_s"]):
            raise RuntimeError("span self times do not add up to the pass")
        layers.update({
            "trace.wall_s": p["wall_s"],
            "trace.unattributed_s": unattributed,
            "flows.path_len": sum(len(path) for path in flows._paths.values()),
        })
        traced.append((p["wall_s"], layers, tracer.spans))

    traced.sort(key=lambda t: t[0])
    _, metrics, spans = traced[(len(traced) - 1) // 2]
    untraced = [p for p in passes if not p.get("traced")]
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics.update({
        "trace.overhead_s": statistics.median(t[0] for t in traced) - untraced_wall,
        "fail_ratio": sum(not p["ok"] for p in passes) / len(passes),
        "ratios.cache_hits": cache.hits,
        "ratios.cache_misses": cache.misses,
    })
    # each part's median seconds over the untraced passes; 0 for the parts
    # of the other workload
    for name in PARTS:
        done = [p["parts"][name] for p in untraced if name in p["parts"]]
        metrics[f"part.{name}.s"] = statistics.median(done) if done else 0.0
    extra = {"trace_points_missing": tracer.missing, "spans": tracing.spans_json(spans)}
    return metrics, passes, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_bidisc()
    from workloads import VARIANTS, WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    parts = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS
    inputs = {part.name: part.inputs(variant) for part in parts}
    recorded = json.loads((Path(__file__).resolve().parent / "expected.json")
                          .read_text(encoding="utf-8"))
    expected = {part.name: recorded[part.name][variant] for part in parts}

    run = traced_run if args.trace else plain_run
    metrics, passes, extra = run(parts, inputs, expected, args.seconds)

    specs = declared["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in specs}:
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ {m['name'] for m in specs})} "
                           "are not both emitted and declared in BENCHMARK.json")
    failed = sum(not p["ok"] for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }
    facts = machine_facts()
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "variant": variant,
              "inputs": inputs, "machine": facts, "passes": passes,
              "result": result, **extra}
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report) + "\n", encoding="utf-8")
    print("machine " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
