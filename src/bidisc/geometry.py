"""Planar disc configurations repeated by a lattice.

A packing candidate is described by a fundamental domain: two lattice
vectors u, v and the discs whose translates by the lattice tile the plane.
``validate`` checks every periodic pair for overlap at every translate in
reach (``validate_many`` does so for many domains in one scan), ``density``
measures covered area per cell, and ``stick`` is the basic constructor that
rolls a new disc into tangency with two existing ones.

A cell can also stay plain floats: u, v and ``flat``, the x, y and radius
of each disc in turn.  ``check_cell`` is the one test of a cell that
``FundamentalDomain`` makes, and ``scan_cells`` and ``cell_density`` give
what ``validate_many`` and ``density`` give, from the same floats, so a
caller that keeps only a density need build no ``Disc``.
"""

from __future__ import annotations

import math
import operator
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
        check_cell(self.u, self.v, tuple(chain.from_iterable(self.discs)))

    @property
    def cell_area(self) -> float:
        return _area(self.u, self.v)


def _area(u, v) -> float:
    return abs(u[0] * v[1] - u[1] * v[0])


def check_cell(u, v, flat: Sequence[float]) -> None:
    """Raise InvalidPacking unless the cell is a valid fundamental domain:
    finite lattice vectors u and v spanning an area of at least 1e-12, and
    at least one disc, each with a finite centre and a positive radius.
    ``flat`` holds the x, y and radius of each disc in turn."""
    if not all(map(math.isfinite, (*u, *v))):
        raise InvalidPacking("lattice vectors must be finite")
    if _area(u, v) < 1e-12:
        raise InvalidPacking("lattice vectors are degenerate")
    if not flat:
        raise InvalidPacking("domain holds no discs")
    # a cell of finite floats and positive radii passes at once; (0.0).__lt__
    # is false for a nan radius, as radius > 0.0 is
    if not (all(map(math.isfinite, flat)) and all(map((0.0).__lt__, flat[2::3]))):
        for x, y, radius in zip(flat[0::3], flat[1::3], flat[2::3]):
            if not (math.isfinite(x) and math.isfinite(y) and radius > 0.0):
                raise InvalidPacking(f"bad disc {Disc(x, y, radius)}")


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
    return cell_density(domain.u, domain.v, tuple(chain.from_iterable(domain.discs)))


def cell_density(u, v, flat: Sequence[float]) -> float:
    """Covered area per cell of the cell (u, v, flat)."""
    radii = flat[2::3]
    return math.pi * sum(map(operator.mul, radii, radii)) / _area(u, v)


def validate(domain: FundamentalDomain, tol: float = OVERLAP_TOL) -> list[Violation]:
    """All overlapping periodic disc pairs, worst offenders included once.

    Empty result means no two discs (over all lattice translates) are
    closer than the sum of their radii minus tol.
    """
    return validate_many([domain], tol)[0]


def validate_many(domains: Sequence[FundamentalDomain],
                  tol: float = OVERLAP_TOL) -> list[list[Violation]]:
    """``[validate(d, tol) for d in domains]``, from one scan of all their cells."""
    return scan_cells([(d.u, d.v, tuple(chain.from_iterable(d.discs))) for d in domains], tol)


def scan_cells(cells: Sequence[tuple], tol: float = OVERLAP_TOL) -> list[list[Violation]]:
    """``validate_many`` of cells given as ``(u, v, flat)`` floats that
    ``check_cell`` accepts, from one scan of all of them."""
    # np.fromiter reads the floats without the nested lists that np.array
    # would first have to walk
    count = [len(flat) // 3 for *_, flat in cells]
    discs = np.fromiter(chain.from_iterable(flat for *_, flat in cells),
                        dtype=float, count=3 * sum(count)).reshape(-1, 3)
    lattices = np.fromiter(chain.from_iterable((u[0], v[0], u[1], v[1]) for u, v, _ in cells),
                           dtype=float, count=4 * len(cells)).reshape(-1, 2, 2)
    rows = batch_violations(discs[:, :2], discs[:, 2], np.cumsum([0] + count), lattices, tol)
    found = [Violation(int(i), int(j), int(m), int(n), float(g)) for _, i, j, m, n, g in rows]
    cuts = np.searchsorted(rows[:, 0], np.arange(len(cells) + 1))
    return [found[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
