"""Proof drivers over pluggable certifiers, with full traces.

A certifier is its bound: ``bound(r)`` returns an Interval whose ``hi`` is
a proven upper bound on the density of every packing with ratio in the
interval r, and raises DomainError where the certifier cannot bound r.
``bound_many(rs)`` is the same bound on a batch of intervals: for each it
gives the enclosure, or the DomainError that ``bound`` raises there.  The
base class loops over ``bound``; the florian certifier evaluates the whole
batch at once on endpoint arrays.  Two drivers run on top, both reading one
enclosure per interval:

* ``find_delta`` narrows the least provable delta by dichotomy against the
  ``hi`` of one enclosure, and ``sweep`` runs that dichotomy at each point
  of a grid after one batch call;
* ``certify_interval`` bisects a ratio interval until every leaf is proven,
  recording the whole bisection tree, and stops early on nodes that no
  bisection can prove.  It builds the tree in level order, with one batch
  call for the nodes of each depth and one for their point probes.

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
from typing import Sequence

from .bounds import (BoundSample, blind_interval, delta1, florian_bound,
                     florian_enclosures, florian_interval)
from .errors import DepthExceeded, DomainError, InitialBoundsInvalid
from .intervals import Interval

log = logging.getLogger(__name__)

DEFAULT_PRECISION = 1e-4
DEFAULT_MAX_DEPTH = 40
_DELTA_LO_OFFSET = 1e-6
_DELTA_HI_HEADROOM = 1e-9


class Certifier:
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

    def bound(self, r: Interval) -> Interval:
        raise NotImplementedError

    def bound_many(self, rs: Sequence[Interval]) -> list[Interval | DomainError]:
        """``bound`` on each of rs: its enclosure, or the DomainError it raises."""
        out: list[Interval | DomainError] = []
        for r in rs:
            try:
                out.append(self.bound(r))
            except DomainError as exc:
                out.append(exc)
        return out


class BlindCertifier(Certifier):
    """Bounds density by the polygonal bound where it is valid."""

    name = "blind"

    def bound(self, r: Interval) -> Interval:
        return blind_interval(r)


class FlorianCertifier(Certifier):
    """Bounds density by the tangent-triangle bound."""

    name = "florian"

    def bound(self, r: Interval) -> Interval:
        return florian_interval(r)

    def bound_many(self, rs: Sequence[Interval]) -> list[Interval | DomainError]:
        return florian_enclosures(rs)


class ThresholdCertifier(Certifier):
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


def _check_precision(precision: float) -> None:
    # isfinite also turns away nan, which passes "precision <= 0" and would
    # skip the dichotomy
    if not (math.isfinite(precision) and precision > 0.0):
        raise DomainError(f"precision must be positive and finite, got {precision}")


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
    _check_precision(precision)
    return _dichotomy(c, r, c.bound(r).hi, precision, delta_lo, delta_hi)


def _dichotomy(c: Certifier, r: Interval, top: float, precision: float,
               delta_lo: float | None = None, delta_hi: float | None = None) -> float:
    """find_delta's search on r, given the ``hi`` of c's enclosure over r."""

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
    """Prove delta on all of r by bisection, one depth at a time.

    A node is proven when its enclosure's ``hi`` is at most delta.  An
    unproven node becomes a failing leaf, without descending, once no
    bisection of it can succeed: when its enclosure has ``lo > delta``, or
    when ``bound`` raises DomainError on it and on each of its ends and its
    float midpoint the point bound raises DomainError or has ``lo > delta``
    (see the inclusion property on Certifier).  Each node's verdict depends
    on that node alone, so the nodes of one depth take one ``bound_many``
    call, and their point probes one more; the tree is the one a
    depth-first bisection builds, children left first.

    Returns the trace on success; raises DepthExceeded carrying the trace
    (failing leaves marked) when the depth cap or a refutation stops the
    bisection on any subinterval.  Children share their parent's float
    midpoint, so the leaves of any trace tile the root interval exactly.
    A non-finite delta raises DomainError: nan is never proven nor refuted.
    """
    if max_depth < 1:
        raise DomainError("max_depth must be at least 1")
    if not math.isfinite(delta):
        raise DomainError(f"delta must be finite, got {delta}")
    start = time.perf_counter()

    def refuted(p: Interval | DomainError) -> bool:
        return isinstance(p, DomainError) or p.lo > delta

    # per depth, each node's interval and verdict, None where it splits
    levels: list[list[tuple[Interval, bool | None]]] = []
    frontier = [r]
    for depth in range(1, max_depth + 1):
        level: list[tuple[Interval, bool | None]] = []
        probed = []  # (position in level, interval, float midpoint)
        for iv, enc in zip(frontier, c.bound_many(frontier)):
            mid = 0.5 * (iv.lo + iv.hi)
            verdict = None
            if not isinstance(enc, DomainError) and enc.hi <= delta:
                verdict = True
            elif depth >= max_depth or not iv.lo < mid < iv.hi:
                verdict = False
            elif isinstance(enc, DomainError):
                probed.append((len(level), iv, mid))
            elif enc.lo > delta:
                verdict = False
            level.append((iv, verdict))
        if probed:
            points = [Interval(x) for _, iv, mid in probed for x in (iv.lo, mid, iv.hi)]
            enclosures = c.bound_many(points)
            for k, (i, iv, _) in enumerate(probed):
                if all(refuted(p) for p in enclosures[3 * k:3 * k + 3]):
                    level[i] = (iv, False)
        levels.append(level)
        frontier = []
        for iv, verdict in level:
            if verdict is None:
                mid = 0.5 * (iv.lo + iv.hi)
                frontier += [Interval(iv.lo, mid), Interval(mid, iv.hi)]
        if not frontier:
            break

    # build the nodes from the deepest level up; each split node takes the
    # next two nodes of the level below
    nodes: list[TraceNode] = []
    for level in reversed(levels):
        below = iter(nodes)
        nodes = []
        for iv, verdict in level:
            if verdict is None:
                children = (next(below), next(below))
                verdict = children[0].verdict and children[1].verdict
                nodes.append(TraceNode(iv, delta, verdict, children))
            else:
                nodes.append(TraceNode(iv, delta, verdict))
    trace = ProofTrace(nodes[0], wall_time=time.perf_counter() - start)
    if not trace.success:
        raise DepthExceeded(
            f"{len(trace.failing_leaves())} leaf interval(s) unproven at depth {max_depth}",
            trace=trace)
    return trace


def sweep(c: Certifier, grid: Sequence[float],
          precision: float = DEFAULT_PRECISION) -> list[BoundSample]:
    """find_delta at each grid ratio, after one ``bound_many`` call for all
    of them; failed points are logged and skipped."""
    _check_precision(precision)
    points = [Interval(float(r)) for r in grid]
    samples = []
    for r, point, enclosure in zip(grid, points, c.bound_many(points)):
        try:
            if isinstance(enclosure, DomainError):
                raise enclosure
            samples.append(BoundSample(float(r), _dichotomy(c, point, enclosure.hi, precision)))
        except (InitialBoundsInvalid, DomainError) as exc:
            log.warning("sweep: no bound at r=%s via %s: %s", r, c.name, exc)
    return samples
