"""Planar disc configurations repeated by a lattice.

A packing candidate is described by a fundamental domain: two lattice
vectors u, v and the discs whose translates by the lattice tile the plane.
``validate`` checks every periodic pair for overlap at every translate in
reach (``validate_many`` does so for many domains in one scan), ``density``
measures covered area per cell, and ``stick`` is the basic constructor that
rolls a new disc into tangency with two existing ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidPacking, NoSolution
from .kernels import batch_violations

# Two discs overlap when their centres are closer than the sum of their
# radii by more than this; it absorbs the roundoff of constructed packings.
OVERLAP_TOL = 1e-9


class Disc(NamedTuple):
    x: float
    y: float
    radius: float


class Violation(NamedTuple):
    """Overlapping periodic pair: disc i against disc j shifted by m*u + n*v."""

    i: int
    j: int
    m: int
    n: int
    gap: float


@dataclass(frozen=True)
class FundamentalDomain:
    u: tuple[float, float]
    v: tuple[float, float]
    discs: tuple[Disc, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", (float(self.u[0]), float(self.u[1])))
        object.__setattr__(self, "v", (float(self.v[0]), float(self.v[1])))
        # discs that are already a tuple of Discs on Python floats are kept
        # as they are: the constructions build them so, and the copy would
        # cost more than the checks below
        if not (type(self.discs) is tuple and all(
                type(d) is Disc and type(d.x) is float and type(d.y) is float
                and type(d.radius) is float for d in self.discs)):
            object.__setattr__(
                self, "discs", tuple(Disc(float(x), float(y), float(r)) for x, y, r in self.discs)
            )
        if not all(map(math.isfinite, (*self.u, *self.v))):
            raise InvalidPacking("lattice vectors must be finite")
        if abs(self.cell_area) < 1e-12:
            raise InvalidPacking("lattice vectors are degenerate")
        if not self.discs:
            raise InvalidPacking("domain holds no discs")
        for d in self.discs:
            if not (math.isfinite(d.x) and math.isfinite(d.y) and d.radius > 0.0):
                raise InvalidPacking(f"bad disc {d}")

    @property
    def cell_area(self) -> float:
        return abs(self.u[0] * self.v[1] - self.u[1] * self.v[0])


def stick(d1: Disc, d2: Disc, radius: float) -> Disc:
    """New disc of given radius tangent to d1 and d2, on the left of d1->d2.

    Requires the two tangency circles around d1 and d2 to intersect; when
    they only just touch, the new center lands on the segment.
    """
    if radius <= 0.0:
        raise NoSolution("radius must be positive")
    ex = d2.x - d1.x
    ey = d2.y - d1.y
    a = math.hypot(ex, ey)
    if a == 0.0:
        raise NoSolution("base discs are concentric")
    b = d1.radius + radius
    c = d2.radius + radius
    x = (a * a + b * b - c * c) / (2.0 * a)
    y2 = b * b - x * x
    if y2 < 0.0:
        if y2 < -1e-9 * b * b:
            raise NoSolution(f"no tangent disc: separation {a} vs arms {b}, {c}")
        y2 = 0.0
    y = math.sqrt(y2)
    return Disc(d1.x + (x * ex - y * ey) / a, d1.y + (x * ey + y * ex) / a, radius)


def density(domain: FundamentalDomain) -> float:
    return math.pi * sum(d.radius * d.radius for d in domain.discs) / domain.cell_area


def validate(domain: FundamentalDomain, tol: float = OVERLAP_TOL) -> list[Violation]:
    """All overlapping periodic disc pairs, worst offenders included once.

    Empty result means no two discs (over all lattice translates) are
    closer than the sum of their radii minus tol.
    """
    return validate_many([domain], tol)[0]


def validate_many(domains: Sequence[FundamentalDomain],
                  tol: float = OVERLAP_TOL) -> list[list[Violation]]:
    """``[validate(d, tol) for d in domains]``, from one scan of all their cells."""
    # np.fromiter reads the floats without the nested lists that np.array
    # would first have to walk
    count = [len(domain.discs) for domain in domains]
    discs = np.fromiter(chain.from_iterable(chain.from_iterable(d.discs for d in domains)),
                        dtype=float, count=3 * sum(count)).reshape(-1, 3)
    lattices = np.fromiter(chain.from_iterable((d.u[0], d.v[0], d.u[1], d.v[1]) for d in domains),
                           dtype=float, count=4 * len(domains)).reshape(-1, 2, 2)
    rows = batch_violations(discs[:, :2], discs[:, 2], np.cumsum([0] + count), lattices, tol)
    found = [Violation(int(i), int(j), int(m), int(n), float(g)) for _, i, j, m, n, g in rows]
    cuts = np.searchsorted(rows[:, 0], np.arange(len(domains) + 1))
    return [found[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
