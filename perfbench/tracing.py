"""Outside-in tracing of bidisc's layers, from the benchmark's own files.

Nothing in ``src/bidisc`` is instrumented.  Instead, wrappers replace the
names that callers look up at call time: module globals at the call site
(``from .x import y`` binds ``y`` in the importing module, so it is patched
there, e.g. ``bidisc.flows.newton_solve``) and methods on the class
(``Expr.__call__``, ``FlorianCertifier.check``).  Each wrapped call records
a span (id, parent id, name, start, end) in memory.  A span's self time is
its duration minus the durations of its direct children, so the self times
of all spans sum to the time spent inside any span; the benchmark reports
the rest of a pass as unattributed.

The wrappers are installed only around traced passes and removed after, so
untraced passes run the original code.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

# span name -> call sites, as "module:qualified.attribute".  The
# lower_bound_curve and sweep spans keep their loops out of cli.main.self_s,
# which should hold only argument parsing, grids and output formatting.
SPANS = {
    "cli.main": ["bidisc.cli:main"],
    "flows.lower_bound_curve": ["bidisc.cli:lower_bound_curve"],
    "flows.find_crossings": ["bidisc.cli:find_crossings"],
    "flows.eval_flow": ["bidisc.cli:eval_flow", "bidisc.flows:eval_flow"],
    "flows.solve_constrained": ["bidisc.flows:solve_constrained"],
    "solve.newton_solve": ["bidisc.flows:newton_solve"],
    "expressions": ["bidisc.expressions:Expr.__call__"],
    "flows.interstitial": ["bidisc.flows:interstitial"],
    "geometry.validate": ["bidisc.flows:validate", "bidisc.geometry:validate"],
    "kernels": ["bidisc.geometry:periodic_violations"],
    "harness.sweep": ["bidisc.cli:sweep"],
    "harness.find_delta": ["bidisc.harness:find_delta"],
    "harness.certify": ["bidisc.cli:certify_interval"],
    "harness.check": ["bidisc.harness:FlorianCertifier.check"],
    "bounds.florian_interval": ["bidisc.harness:florian_interval"],
    "intervals.iacos": ["bidisc.bounds:iacos"],
    "intervals.iatan": ["bidisc.intervals:iatan"],
    "bounds.lipschitz_envelope": ["bidisc.cli:lipschitz_envelope"],
    "polynomials.isolate_roots": ["bidisc.ratios:isolate_roots"],
}


def _kernel_counts(st, args, result):
    # periodic_violations(xy, radii, u, v, mwin, nwin, tol): pairs i <= j
    # times the translate window, computed from the inputs, not counted
    n, mwin, nwin = len(args[0]), args[4], args[5]
    st["pair_translates"] += n * (n + 1) // 2 * (2 * mwin + 1) * (2 * nwin + 1)
    st["violations"] += len(result)


def _check_counts(st, args, result):
    st["proven"] += bool(result)


def _envelope_counts(st, args, result):
    st["terms"] += len(args[0])


def _certify_counts(st, args, result):
    st["nodes"] += result.node_count
    st["leaves"] += result.leaf_count


HOOKS = {
    "kernels": _kernel_counts,
    "harness.check": _check_counts,
    "bounds.lipschitz_envelope": _envelope_counts,
    "harness.certify": _certify_counts,
}


def _resolve(site: str):
    module_name, _, qualname = site.partition(":")
    *path, attr = qualname.split(".")
    owner = importlib.import_module(module_name)
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder with install/uninstall of the call-site wrappers."""

    def __init__(self):
        self.missing: list[str] = []
        self._patches = []
        for name, sites in SPANS.items():
            for site in sites:
                try:
                    owner, attr = _resolve(site)
                    original = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(site)
                    continue
                self._patches.append((owner, attr, original,
                                      self._wrap(name, original, HOOKS.get(name))))
        if self.missing:
            print(f"perfbench: trace points not found: {', '.join(self.missing)}",
                  file=sys.stderr)
        self.reset()

    def reset(self):
        # spans as columns: a long pass opens hundreds of thousands of them
        self.spans = {"id": array("q"), "parent": array("q"), "name": array("H"),
                      "start": array("d"), "end": array("d")}
        self.stats: dict[str, Counter] = defaultdict(Counter)
        self.part_stats: dict[str, dict[str, Counter]] = {}
        self._stack: list[list] = []       # open spans: [id, child seconds]
        self._next_id = 0

    def end_part(self, part: str):
        """File the stats gathered since the last call under ``part``."""
        self.part_stats[part] = self.stats
        self.stats = defaultdict(Counter)

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def root_seconds(self) -> float:
        sp = self.spans
        return sum(end - start for parent, start, end
                   in zip(sp["parent"], sp["start"], sp["end"]) if parent == -1)

    def _wrap(self, name, fn, hook):
        clock = time.perf_counter
        name_index = list(SPANS).index(name)

        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                sp = self.spans
                sp["id"].append(frame[0])
                sp["parent"].append(parent[0] if parent else -1)
                sp["name"].append(name_index)
                sp["start"].append(start)
                sp["end"].append(end)
                st = self.stats[name]
                st["calls"] += 1
                st["s"] += duration
                st["self_s"] += duration - frame[1]
                if failed:
                    st["failures"] += 1
                elif hook is not None:
                    hook(st, args, result)

        return wrapper


def spans_json(sp: dict) -> dict:
    """Recorded spans as columns, ordered by id, times from the first start."""
    order = sorted(range(len(sp["id"])), key=sp["id"].__getitem__)
    t0 = sp["start"][order[0]] if order else 0.0
    return {"names": list(SPANS),
            "id": [sp["id"][k] for k in order],
            "parent": [sp["parent"][k] for k in order],
            "name": [sp["name"][k] for k in order],
            "start": [sp["start"][k] - t0 for k in order],
            "end": [sp["end"][k] - t0 for k in order]}


def layer_metrics(part_stats: dict, setup: dict) -> dict:
    """Per-layer metrics of one traced pass (and of the traced set-up).

    ``part_stats`` maps each part of the pass to its ``Tracer.stats``, and
    ``setup`` is the ``Tracer.stats`` of the set-up; in both, a span or
    counter that never occurred reads 0.  Metrics sum over the parts,
    except that checks per sample count only the parts that take samples.
    """
    stats: dict[str, Counter] = defaultdict(Counter)
    for part in part_stats.values():
        for name, counts in part.items():
            stats[name].update(counts)
    sampling = [st for st in part_stats.values() if st["harness.find_delta"]["calls"]]
    out = {f"{name}.self_s": stats[name]["self_s"]
           for name in SPANS if name != "polynomials.isolate_roots"}
    calls = {
        "flows.eval_flow.calls": "flows.eval_flow",
        "flows.solve_constrained.calls": "flows.solve_constrained",
        "solve.newton_solve.calls": "solve.newton_solve",
        "expressions.evals": "expressions",
        "geometry.validate.calls": "geometry.validate",
        "kernels.calls": "kernels",
        "harness.checks": "harness.check",
        "bounds.florian_interval.calls": "bounds.florian_interval",
        "intervals.iacos.calls": "intervals.iacos",
        "intervals.iatan.calls": "intervals.iatan",
    }
    out.update({metric: stats[name]["calls"] for metric, name in calls.items()})
    for name in ("flows.find_crossings", "flows.interstitial", "expressions",
                 "kernels", "harness.find_delta", "harness.certify",
                 "bounds.lipschitz_envelope", "intervals.iacos"):
        out[f"{name}.s"] = stats[name]["s"]
    newton_calls = stats["solve.newton_solve"]["calls"]
    newton_failures = stats["solve.newton_solve"]["failures"]
    samples = sum(st["harness.find_delta"]["calls"] for st in sampling)
    sample_checks = sum(st["harness.check"]["calls"] for st in sampling)
    out.update({
        "kernels.pair_translates": stats["kernels"]["pair_translates"],
        "kernels.violations": stats["kernels"]["violations"],
        "solve.newton_solve.failures": newton_failures,
        "solve.newton_solve.success_ratio":
            (newton_calls - newton_failures) / newton_calls if newton_calls else 1.0,
        "harness.checks_proven": stats["harness.check"]["proven"],
        "harness.checks_per_sample":
            sample_checks / samples if samples else 0.0,
        "harness.certify.nodes": stats["harness.certify"]["nodes"],
        "harness.certify.leaves": stats["harness.certify"]["leaves"],
        "bounds.envelope_terms": stats["bounds.lipschitz_envelope"]["terms"],
        "polynomials.isolate_roots.s": setup["polynomials.isolate_roots"]["s"],
    })
    return out
