"""Proof drivers over pluggable certifiers, with full traces.

A certifier is a function, its bound: ``bound(rs)`` encloses, over each
ratio interval r of rs, a function g whose value at each ratio is a proven
upper bound on the density there; where it cannot, the element is a
DomainError.  So each element's ``hi`` is a proven upper bound on the
density of every packing with ratio in r.  The blind and florian
certifiers, ``bounds.blind_enclosures`` and ``bounds.florian_enclosures``,
evaluate the whole batch at once on endpoint arrays.

Inclusion: the enclosure over r contains g(x) for every x in r, so for any
interval s containing a point x, the enclosure over s has ``hi`` at least
the ``lo`` of the enclosure over x.  A point whose enclosure has
``lo > delta`` therefore refutes delta on every interval that contains it.
DomainError is inherited the same way: where the element for x is a
DomainError, so is the element for every interval s that contains x.

Two drivers run on top, both reading one enclosure per interval:

* ``sweep`` narrows the least provable delta at each point of a grid, by
  dichotomy against the ``hi`` of its enclosure, after one batch call;
* ``certify_interval`` bisects a ratio interval until every leaf is proven,
  and stops early on nodes that no bisection can prove.  It builds the tree
  in level order, with one batch call for the nodes of each depth and one
  for their point probes.  The proof is the tree's root ``TraceNode``,
  returned whether or not it proves: its verdict is the run's, and its
  leaves tile the interval.

The real strength of a certifier is whatever bound it is; the drivers only
ever weaken claims, never strengthen them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .bounds import (BoundSample, blind_enclosures, delta1, florian_bound,
                     florian_enclosures)
from .errors import DomainError
from .intervals import Interval, narrow

DEFAULT_MAX_DEPTH = 40
_PRECISION = 1e-4
_DELTA_LO_OFFSET = 1e-6
_DELTA_HI_HEADROOM = 1e-9

Bound = Callable[[Sequence[Interval]], list[Interval | DomainError]]

_CERTIFIERS: dict[str, Bound] = {"blind": blind_enclosures, "florian": florian_enclosures}


def make_certifier(spec: str) -> Bound:
    """The certifier a command-line name stands for."""
    if spec not in _CERTIFIERS:
        raise DomainError(f"unknown certifier {spec!r}")
    return _CERTIFIERS[spec]


def _dichotomy(x: float, top: float) -> float:
    """Least provable density bound at ratio x, to within ``_PRECISION``,
    where the certifier's enclosure has ``hi`` top: delta is proven exactly
    when ``top <= delta``.  The search starts just below the equal-disc
    density and at the triangle bound at x.  A provable lower start is
    walked downward (it is a heuristic, not a claim), and an unprovable
    upper start moves up to top."""
    delta_hi = florian_bound(x) + _DELTA_HI_HEADROOM
    delta_lo = delta1() - _DELTA_LO_OFFSET
    if not top <= delta_hi:
        delta_hi = top
    if top <= delta_lo:
        # steps of at least _DELTA_LO_OFFSET, so the walk moves at any _PRECISION
        gap = max(_PRECISION, _DELTA_LO_OFFSET)
        while delta_lo > 0.0 and top <= delta_lo:
            delta_hi = delta_lo
            delta_lo = max(0.0, delta_lo - gap)
            gap *= 2.0
    return narrow(lambda d: 1 if top <= d else -1, delta_lo, delta_hi, _PRECISION)[1]


@dataclass(frozen=True)
class TraceNode:
    """One node of a bisection tree, and with its children the tree below
    it.  A split node's verdict is the AND of its children's, so the root's
    verdict says whether the whole run succeeded."""

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

    @property
    def node_count(self) -> int:
        return 1 + sum(child.node_count for child in self.children)

    @property
    def leaf_count(self) -> int:
        return sum(1 for _ in self.leaves())


def certify_interval(bound: Bound, r: Interval, delta: float,
                     max_depth: int = DEFAULT_MAX_DEPTH) -> TraceNode:
    """Prove delta on all of r by bisection, one depth at a time.

    A node is proven when its enclosure's ``hi`` is at most delta.  An
    unproven node becomes a failing leaf, without descending, once no
    bisection of it can succeed: when its enclosure has ``lo > delta``, or
    when the certifier gives DomainError for it and, at each of its ends and
    its float midpoint, DomainError or a point enclosure with ``lo > delta``
    (see the inclusion property in the module docstring).  Each node's
    verdict depends on that node alone, so the nodes of one depth take one
    ``bound`` call, and their point probes one more; the tree is the one a
    depth-first bisection builds, children left first.

    Returns the root of the tree whether or not it proves: its verdict is
    the run's, False when the depth cap or a refutation stops the bisection
    on any subinterval, and its failing leaves mark where.  Children share
    their parent's float midpoint, so the leaves of any trace tile the root
    interval exactly.
    A non-finite delta raises DomainError: nan is never proven nor refuted.
    """
    if max_depth < 1:
        raise DomainError("max_depth must be at least 1")
    if not math.isfinite(delta):
        raise DomainError(f"delta must be finite, got {delta}")

    def refuted(p: Interval | DomainError) -> bool:
        return isinstance(p, DomainError) or p.lo > delta

    # per depth, each node's interval and verdict, None where it splits
    levels: list[list[tuple[Interval, bool | None]]] = []
    frontier = [r]
    for depth in range(1, max_depth + 1):
        level: list[tuple[Interval, bool | None]] = []
        probed = []  # (position in level, interval, float midpoint)
        for iv, enc in zip(frontier, bound(frontier)):
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
            enclosures = bound(points)
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
    return nodes[0]


def sweep(bound: Bound, grid: Sequence[float]
          ) -> tuple[list[BoundSample], list[tuple[float, DomainError]]]:
    """``_dichotomy`` at each grid ratio, after one ``bound`` call for all of
    them.  Returns the samples and, in grid order, the ``(r, error)`` pairs
    of the points that could not be bounded, non-finite ones included."""
    points: list[Interval | DomainError] = []
    for r in grid:
        try:
            points.append(Interval(float(r)))
        except DomainError as exc:
            points.append(exc)
    enclosures = iter(bound([p for p in points if isinstance(p, Interval)]))
    samples, skipped = [], []
    for r, point in zip(grid, points):
        enclosure = next(enclosures) if isinstance(point, Interval) else point
        try:
            if isinstance(enclosure, DomainError):
                raise enclosure
            samples.append(BoundSample(float(r), _dichotomy(float(r), enclosure.hi)))
        except DomainError as exc:
            skipped.append((r, exc))
    return samples, skipped
