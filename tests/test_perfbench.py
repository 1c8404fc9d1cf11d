"""What the benchmark in ``perfbench/`` reads of the package.

``perfbench/tracing.py`` wraps named call sites and reads a few results and
caches.  A refactor that renames one of them does not fail the benchmark: the
site is reported missing and its metric reads 0.  These tests fail instead.
"""

import importlib.util
import pathlib

from bidisc import flows
from bidisc.bounds import blind_enclosures, florian_enclosures
from bidisc.harness import certify_interval
from bidisc.intervals import Interval

ROOT = pathlib.Path(__file__).resolve().parents[1]

# the trace points that no longer name a call site (see ROADMAP, item 11);
# a change that fixes one removes it here
MISSING = [
    "bidisc.cli:eval_flow",
    "bidisc.expressions:Expr.__call__",
    "bidisc.geometry:periodic_violations",
    "bidisc.harness:find_delta",
    "bidisc.harness:FlorianCertifier.check",
    "bidisc.harness:florian_interval",
    "bidisc.bounds:iacos",
    "bidisc.intervals:iatan",
    "bidisc.ratios:isolate_roots",
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_missing_trace_points(capsys):
    # the tracer is built, which resolves every site, but never installed
    tracer = load_tracing().Tracer()
    assert tracer.missing == MISSING
    assert "trace points not found" in capsys.readouterr().err


def test_certify_result_counts():
    # the harness.certify.nodes and .leaves metrics
    trace = certify_interval(florian_enclosures, Interval(0.9, 0.99), 0.9075)
    assert trace.node_count > trace.leaf_count > 1
    # a failing run returns its root too, and the hook counts it the same way
    failed = certify_interval(blind_enclosures, Interval(0.3, 0.99), 0.931)
    assert not failed.verdict
    assert failed.node_count > failed.leaf_count > 1


def test_continuation_paths_have_lengths():
    # the flows.path_len metric: the summed length of the cached paths
    recipe = flows.builtin_recipes()["flow-r6-1"]
    try:
        flows.eval_flow(recipe, 0.5)
        assert recipe.name in flows._paths
        for name, path in flows._paths.items():
            assert isinstance(name, str) and isinstance(path, list) and path
            for r, point in path:
                assert isinstance(r, float) and isinstance(point, list)
        assert sum(len(path) for path in flows._paths.values()) >= len(flows._paths)
    finally:
        flows.clear_continuation_cache(recipe.name)
