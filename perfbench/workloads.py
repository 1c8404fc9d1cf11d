"""The two benchmark workloads, their seeded inputs and their outcomes.

Each workload is a fixed sequence of parts, and one pass runs every part
once, in this process.  The four parts are the north-star invocations; they
are paired so that each workload stresses one side of bidisc and bypasses
the other:

- ``packings``: ``lower_sweep`` then ``interstitial_scan`` (kernels,
  geometry, flows, solve, expressions; no intervals, bounds or harness);
- ``certifiers``: ``upper_sweep`` then ``certify_tree`` (intervals, bounds,
  harness; no kernels or flows).

A pass of either lasts a few seconds, so a run holds a dozen passes and its
median is steadier than that of four shorter single-part workloads.

Each part maps a variant number (the run's seed modulo ``VARIANTS``) to
concrete inputs.  The variants shift one end of a range, or scale the
radii, by far less than a grid step: the work per pass stays the same, but
no variant's output can be replayed for another.  ``expected.json`` holds
the outcome of every part and variant as recorded from the seed code by
``record.py``.

Every call into bidisc goes through a module attribute looked up at call
time (``cli.main``, ``flows.interstitial``, ``geometry.validate``), so the
wrappers that ``tracing.py`` installs at those attributes see these calls.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from bidisc import cli, flows, geometry

VARIANTS = 8
INTERSTITIAL_RADII = (0.03, 0.02, 0.015, 0.01)


@dataclass(frozen=True)
class Part:
    name: str                            # key of its outcomes in expected.json
    inputs: Callable[[int], object]      # variant -> inputs
    execute: Callable[[object], object]  # inputs -> JSON-able outcome


def run_cli(argv: list[str]) -> dict:
    """One cold ``bidisc`` invocation: exit code and stdout digest.

    The continuation cache is cleared first because each real invocation
    starts with an empty one; a warm cache would skip the walk from the
    recipe's seed point and hide or fake a change in its cost.
    """
    flows.clear_continuation_cache()
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "stdout_sha256": digest}


def run_interstitial(radii: tuple[float, ...]) -> list[dict]:
    """Build each interstitial packing and scan it for overlaps."""
    rows = []
    for r in radii:
        domain, rho = flows.interstitial(r)
        bad = geometry.validate(domain)
        rows.append({"r": repr(r), "discs": len(domain.discs),
                     "density": repr(rho), "violations": len(bad)})
    return rows


PARTS = {
    p.name: p for p in (
        Part("lower_sweep",
             lambda j: ["lower", "--range", f"{0.36 + j * 1e-4:.4f}:0.99",
                        "--step", "0.001"],
             run_cli),
        Part("interstitial_scan",
             lambda j: tuple(r * (1.0 - j * 2e-5) for r in INTERSTITIAL_RADII),
             run_interstitial),
        # Coarsened from --step 0.001 so that a run holds many passes:
        # certifier checks scale linearly with the number of samples, the
        # Lipschitz envelope quadratically (samples x fine-grid points).
        Part("upper_sweep",
             lambda j: ["upper", "--range", f"{0.3 + j * 1e-4:.4f}:0.99",
                        "--step", "0.002", "--certifier", "florian"],
             run_cli),
        Part("certify_tree",
             lambda j: ["certify", "--range", f"0.3:{0.99 - j * 5e-4:.4f}",
                        "--certifier", "florian", "--delta", "0.931"],
             run_cli),
    )
}

# workload name -> the parts one pass runs, in order
WORKLOADS = {
    "packings": (PARTS["lower_sweep"], PARTS["interstitial_scan"]),
    "certifiers": (PARTS["upper_sweep"], PARTS["certify_tree"]),
}
