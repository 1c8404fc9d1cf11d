"""Proof drivers over pluggable certifiers, with full traces.

A certifier is its bound: ``bound(r)`` returns an Interval whose ``hi`` is
a proven upper bound on the density of every packing with ratio in the
interval r, and raises DomainError where the certifier cannot bound r.  Two
drivers run on top, both reading one enclosure per interval:

* ``find_delta`` narrows the least provable delta by dichotomy against the
  ``hi`` of one enclosure;
* ``certify_interval`` bisects a ratio interval until every leaf is proven,
  recording the whole bisection tree, and stops early on nodes that no
  bisection can prove.

Shipped certifiers wrap the interval forms of the analytic bounds, plus a
synthetic threshold certifier for driver tests.  The real strength of a
certifier is whatever bound it wraps; the drivers only ever weaken claims,
never strengthen them.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from .bounds import (BoundSample, blind_interval, delta1, florian_bound,
                     florian_interval)
from .errors import DepthExceeded, DomainError, InitialBoundsInvalid
from .intervals import Interval

log = logging.getLogger(__name__)

DEFAULT_PRECISION = 1e-4
DEFAULT_MAX_DEPTH = 40
_DELTA_LO_OFFSET = 1e-6
_DELTA_HI_HEADROOM = 1e-9


class Certifier(Protocol):
    """``bound(r)`` encloses, over the ratio interval r, a function g whose
    value at each ratio is a proven upper bound on the density there.

    Inclusion: the enclosure over r contains g(x) for every x in r, so for
    any interval s containing a point x, ``bound(s).hi >= bound(x).lo``.  A
    point with ``bound(x).lo > delta`` therefore refutes delta on every
    interval that contains it.  DomainError is inherited the same way:
    where ``bound(x)`` raises it, ``bound(s)`` raises it for every interval
    s that contains x.
    """

    name: str

    def bound(self, r: Interval) -> Interval: ...


class BlindCertifier:
    """Bounds density by the polygonal bound where it is valid."""

    name = "blind"

    def bound(self, r: Interval) -> Interval:
        return blind_interval(r)


class FlorianCertifier:
    """Bounds density by the tangent-triangle bound."""

    name = "florian"

    def bound(self, r: Interval) -> Interval:
        return florian_interval(r)


class ThresholdCertifier:
    """Synthetic driver-test certifier: the bound is t at every ratio."""

    def __init__(self, t: float):
        self.t = float(t)
        if not math.isfinite(self.t):
            raise DomainError(f"threshold must be finite, got {t!r}")
        self.name = f"threshold:{self.t!r}"

    def bound(self, r: Interval) -> Interval:
        return Interval(self.t)


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


def _enclosure(c: Certifier, r: Interval) -> Interval | None:
    """``c.bound(r)``, or None where c cannot bound r."""
    try:
        return c.bound(r)
    except DomainError:
        return None


def find_delta(c: Certifier, r: Interval, precision: float = DEFAULT_PRECISION,
               delta_lo: float | None = None, delta_hi: float | None = None) -> float:
    """Least provable density bound on r, to within precision, by dichotomy.

    Maintains an unproven lower value and a proven upper value and returns
    the proven one once they are within precision.  The defaults start just
    below the equal-disc density and at the triangle bound of the interval
    midpoint.  A defaulted lower start that turns out provable is walked
    downward (the default is a heuristic, not a claim); explicit bounds
    that fail their role raise InitialBoundsInvalid.

    The certifier's bound is read once, and a candidate delta is proven
    when that enclosure's ``hi`` is at most delta.  Where the certifier
    cannot bound r, its DomainError propagates.  A defaulted upper start
    that is not provable, as on wide intervals where the bound at the
    midpoint lies below the bound on the whole interval, moves up to that
    ``hi``.
    """
    if precision <= 0.0:
        raise DomainError("precision must be positive")
    top = c.bound(r).hi

    def proven(delta: float) -> bool:
        return top <= delta

    explicit_lo = delta_lo is not None
    explicit_hi = delta_hi is not None
    if delta_hi is None:
        delta_hi = florian_bound(r.mid) + _DELTA_HI_HEADROOM
    if delta_lo is None:
        delta_lo = delta1() - _DELTA_LO_OFFSET
    if not proven(delta_hi):
        if explicit_hi:
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

    A node is proven when its enclosure's ``hi`` is at most delta.  An
    unproven node becomes a failing leaf, without descending, once no
    bisection of it can succeed: when its enclosure has ``lo > delta``, or
    when ``bound`` raises DomainError on it and on each of its ends and its
    float midpoint the point bound raises DomainError or has ``lo > delta``
    (see the inclusion property on Certifier).

    Returns the trace on success; raises DepthExceeded carrying the trace
    (failing leaves marked) when the depth cap or a refutation stops the
    recursion on any subinterval.  Children share their parent's float
    midpoint, so the leaves of any trace tile the root interval exactly.
    """
    if max_depth < 1:
        raise DomainError("max_depth must be at least 1")
    start = time.perf_counter()

    def hopeless(iv: Interval, mid: float, enclosure: Interval | None) -> bool:
        if enclosure is None:
            points = (_enclosure(c, Interval(x)) for x in (iv.lo, mid, iv.hi))
            return all(p is None or p.lo > delta for p in points)
        return enclosure.lo > delta

    def descend(iv: Interval, depth: int) -> TraceNode:
        enclosure = _enclosure(c, iv)
        if enclosure is not None and enclosure.hi <= delta:
            return TraceNode(iv, delta, True)
        mid = 0.5 * (iv.lo + iv.hi)
        if (depth >= max_depth or not iv.lo < mid < iv.hi
                or hopeless(iv, mid, enclosure)):
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
