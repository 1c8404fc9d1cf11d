"""Proof drivers over pluggable certifiers, with full traces.

A certifier is a decision procedure: ``check(r, delta)`` returns True only
when it has rigorously established that every packing with ratio in the
interval r has density at most delta.  A certifier that proves through one
enclosure of a density bound also exposes it as ``bound(r)``, and then
``check(r, delta)`` is ``bound(r).hi <= delta``.  Two drivers run on top:

* ``find_delta`` narrows the least provable delta by dichotomy, evaluating
  ``bound`` once per call where a certifier has it;
* ``certify_interval`` bisects a ratio interval until every leaf is proven,
  recording the whole bisection tree.

Shipped certifiers wrap the interval forms of the analytic bounds, plus a
synthetic threshold certifier for driver tests.  The real strength of a
certifier is whatever bound it wraps; the drivers only ever weaken claims,
never strengthen them.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence, runtime_checkable

from .bounds import (BoundSample, blind_interval, delta1, florian_bound,
                     BLIND_MIN_RATIO)
from .bounds import florian_interval
from .errors import DepthExceeded, DomainError, InitialBoundsInvalid
from .intervals import Interval

log = logging.getLogger(__name__)

DEFAULT_PRECISION = 1e-4
DEFAULT_MAX_DEPTH = 40
_DELTA_LO_OFFSET = 1e-6
_DELTA_HI_HEADROOM = 1e-9


@runtime_checkable
class Certifier(Protocol):
    """check must be a pure decision procedure: True means proven.

    Implementations must be monotone in delta (anything proven at delta is
    proven at any larger delta) and anti-monotone in r (a proof on an
    interval covers its subintervals).  An optional ``probe(r, delta)``
    returning False lets drivers skip a check that cannot succeed.

    An optional ``bound(r)`` returns an Interval whose ``hi`` is a proven
    upper bound on the density over r, and may raise DomainError where the
    certifier cannot bound r.  A certifier with ``bound`` must have
    ``check(r, delta)`` equal to ``bound(r).hi <= delta``, False on
    DomainError; drivers may then test deltas against one ``bound(r).hi``
    instead of calling ``check`` and ``probe``.
    """

    name: str

    def check(self, r: Interval, delta: float) -> bool: ...


class BlindCertifier:
    """Proves delta bounds through the polygonal bound where it is valid."""

    name = "blind"

    def bound(self, r: Interval) -> Interval:
        return blind_interval(r)

    def check(self, r: Interval, delta: float) -> bool:
        try:
            return self.bound(r).hi <= delta
        except DomainError:
            return False


class FlorianCertifier:
    """Proves delta bounds through the tangent-triangle bound."""

    name = "florian"

    def bound(self, r: Interval) -> Interval:
        return florian_interval(r)

    def check(self, r: Interval, delta: float) -> bool:
        try:
            return self.bound(r).hi <= delta
        except DomainError:
            return False


class ThresholdCertifier:
    """Synthetic driver-test certifier: proven exactly when delta >= t."""

    def __init__(self, t: float):
        self.t = float(t)
        self.name = f"threshold:{self.t!r}"

    def check(self, r: Interval, delta: float) -> bool:
        return delta >= self.t


def make_certifier(spec: str) -> Certifier:
    """Build a certifier from its command-line name."""
    if spec == "blind":
        return BlindCertifier()
    if spec == "florian":
        return FlorianCertifier()
    if spec.startswith("threshold:"):
        try:
            return ThresholdCertifier(float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise DomainError(f"bad threshold in certifier spec {spec!r}") from exc
    raise DomainError(f"unknown certifier {spec!r}")


def _proven(c: Certifier, r: Interval, delta: float) -> bool:
    probe = getattr(c, "probe", None)
    if probe is not None and not probe(r, delta):
        return False
    return c.check(r, delta)


def find_delta(c: Certifier, r: Interval, precision: float = DEFAULT_PRECISION,
               delta_lo: float | None = None, delta_hi: float | None = None) -> float:
    """Least provable density bound on r, to within precision, by dichotomy.

    Maintains an unproven lower value and a proven upper value and returns
    the proven one once they are within precision.  The defaults start just
    below the equal-disc density and at the triangle bound of the interval
    midpoint.  A defaulted lower start that turns out provable is walked
    downward (the default is a heuristic, not a claim); explicit bounds
    that fail their role raise InitialBoundsInvalid.

    A certifier with ``bound`` is asked for it once, and each candidate
    delta is tested against its ``hi`` (infinite where ``bound`` raises
    DomainError), which gives the same verdicts as ``check``.  A defaulted
    upper start that is not provable, as on wide intervals where the bound
    at the midpoint lies below the bound on the whole interval, then moves
    up to that ``hi``.
    """
    if precision <= 0.0:
        raise DomainError("precision must be positive")
    top = math.inf
    if hasattr(c, "bound"):
        try:
            top = c.bound(r).hi
        except DomainError:
            pass

        def proven(delta: float) -> bool:
            return top <= delta
    else:
        def proven(delta: float) -> bool:
            return _proven(c, r, delta)

    explicit_lo = delta_lo is not None
    explicit_hi = delta_hi is not None
    if delta_hi is None:
        delta_hi = florian_bound(r.mid) + _DELTA_HI_HEADROOM
    if delta_lo is None:
        delta_lo = delta1() - _DELTA_LO_OFFSET
    if not proven(delta_hi):
        if explicit_hi or top == math.inf:
            raise InitialBoundsInvalid(
                f"upper start {delta_hi} is not provable on {r} by {c.name}")
        delta_hi = top
    if proven(delta_lo):
        if explicit_lo:
            raise InitialBoundsInvalid(
                f"lower start {delta_lo} is already provable on {r} by {c.name}")
        gap = max(precision, _DELTA_LO_OFFSET)
        while delta_lo > 0.0 and proven(delta_lo):
            delta_hi = delta_lo
            delta_lo = max(0.0, delta_lo - gap)
            gap *= 2.0
    while delta_hi - delta_lo > precision:
        mid = 0.5 * (delta_lo + delta_hi)
        if mid <= delta_lo or mid >= delta_hi:
            break
        if proven(mid):
            delta_hi = mid
        else:
            delta_lo = mid
    return delta_hi


@dataclass(frozen=True)
class TraceNode:
    interval: Interval
    delta: float
    verdict: bool
    children: tuple["TraceNode", ...] = ()

    def leaves(self):
        if not self.children:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()

    def count(self) -> int:
        return 1 + sum(child.count() for child in self.children)

    def to_json(self) -> dict:
        return {
            "lo": repr(self.interval.lo),
            "hi": repr(self.interval.hi),
            "delta": self.delta,
            "verdict": "proven" if self.verdict else "unproven",
            "children": [child.to_json() for child in self.children],
        }


@dataclass(frozen=True)
class ProofTrace:
    """Bisection tree of one certification run."""

    root: TraceNode
    wall_time: float = field(compare=False, default=0.0)

    @property
    def success(self) -> bool:
        return all(leaf.verdict for leaf in self.root.leaves())

    def leaves(self) -> list[TraceNode]:
        return list(self.root.leaves())

    def failing_leaves(self) -> list[TraceNode]:
        return [leaf for leaf in self.root.leaves() if not leaf.verdict]

    @property
    def leaf_count(self) -> int:
        return sum(1 for _ in self.root.leaves())

    @property
    def node_count(self) -> int:
        return self.root.count()

    def to_json(self) -> dict:
        # wall time is deliberately left out so serialized traces are
        # byte-stable across runs; it stays available on the object
        return {
            "leaf_count": self.leaf_count,
            "node_count": self.node_count,
            "success": self.success,
            "root": self.root.to_json(),
        }

    def leaves_csv(self) -> str:
        lines = ["lo,hi,delta,verdict"]
        for leaf in self.root.leaves():
            verdict = "proven" if leaf.verdict else "unproven"
            lines.append(f"{leaf.interval.lo!r},{leaf.interval.hi!r},{leaf.delta!r},{verdict}")
        return "\n".join(lines) + "\n"


def certify_interval(c: Certifier, r: Interval, delta: float,
                     max_depth: int = DEFAULT_MAX_DEPTH) -> ProofTrace:
    """Prove delta on all of r by depth-first bisection, left child first.

    Returns the trace on success; raises DepthExceeded carrying the trace
    (failing leaves marked) when the depth cap stops the recursion on any
    subinterval.  Children share their parent's float midpoint, so the
    leaves of any trace tile the root interval exactly.
    """
    if max_depth < 1:
        raise DomainError("max_depth must be at least 1")
    start = time.perf_counter()

    def descend(iv: Interval, depth: int) -> TraceNode:
        if _proven(c, iv, delta):
            return TraceNode(iv, delta, True)
        mid = 0.5 * (iv.lo + iv.hi)
        if depth >= max_depth or not iv.lo < mid < iv.hi:
            return TraceNode(iv, delta, False)
        left = descend(Interval(iv.lo, mid), depth + 1)
        right = descend(Interval(mid, iv.hi), depth + 1)
        return TraceNode(iv, delta, left.verdict and right.verdict, (left, right))

    root = descend(r, 1)
    trace = ProofTrace(root, wall_time=time.perf_counter() - start)
    if not trace.success:
        raise DepthExceeded(
            f"{len(trace.failing_leaves())} leaf interval(s) unproven at depth {max_depth}",
            trace=trace)
    return trace


def sweep(c: Certifier, grid: Sequence[float],
          precision: float = DEFAULT_PRECISION) -> list[BoundSample]:
    """find_delta at each grid ratio; failed points are logged and skipped."""
    samples = []
    for r in grid:
        point = Interval(float(r), float(r))
        try:
            samples.append(BoundSample(float(r), find_delta(c, point, precision)))
        except (InitialBoundsInvalid, DomainError) as exc:
            log.warning("sweep: no bound at r=%s via %s: %s", r, c.name, exc)
    return samples
