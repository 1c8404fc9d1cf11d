"""Planar disc configurations repeated by a lattice.

A packing candidate is described by a fundamental domain: two lattice
vectors u, v and the discs whose translates by the lattice tile the plane.
``validate`` checks every periodic pair for overlap, ``density`` measures
covered area per cell, and ``stick`` is the basic constructor that rolls a
new disc into tangency with two existing ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidPacking, NoSolution
from .intervals import Interval, pi_interval
from .kernels import periodic_violations


class Disc(NamedTuple):
    x: float
    y: float
    radius: float

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y])


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

    def radius_census(self) -> dict[float, int]:
        """Count of discs per distinct radius."""
        census: dict[float, int] = {}
        for d in self.discs:
            census[d.radius] = census.get(d.radius, 0) + 1
        return census

    def to_json(self) -> dict:
        return {
            "u": list(self.u),
            "v": list(self.v),
            "discs": [[d.x, d.y, d.radius] for d in self.discs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FundamentalDomain":
        return cls(tuple(obj["u"]), tuple(obj["v"]), tuple(Disc(*row) for row in obj["discs"]))


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


def density_interval(domain: FundamentalDomain) -> Interval:
    """Enclosure of the cell density from exact-float inputs."""
    area = (
        Interval(domain.u[0], domain.u[0]) * Interval(domain.v[1], domain.v[1])
        - Interval(domain.u[1], domain.u[1]) * Interval(domain.v[0], domain.v[0])
    ).abs()
    total = Interval(0.0, 0.0)
    for d in domain.discs:
        total = total + Interval(d.radius, d.radius).square()
    return pi_interval() * total / area


def _window_extents(domain: FundamentalDomain) -> tuple[int, int]:
    """Translate window half-widths that cannot miss an overlapping pair.

    This is the outer clip of the scan: ``periodic_violations`` visits, for
    each pair, only the translates within reach of contact, and never more
    than mwin steps along u and nwin along v from the lattice point nearest
    to c_i - c_j.  The per-pair reach lies inside this window whenever
    tol >= 0: a translate m can overlap only if |a - m| <= |v| / cell_area
    * 2 * rmax (a the pair's u coordinate, and |v| / cell_area the norm of
    the inverse basis row), the nearest lattice point is within 1/2 of a,
    and the 0.5 * (|u| + |v|) term below adds at least 1/2 step because
    |u| * |v| >= cell_area.  Likewise for v.
    """
    nu = math.hypot(*domain.u)
    nv = math.hypot(*domain.v)
    rmax = max(d.radius for d in domain.discs)
    reach = 2.0 * rmax + 0.5 * (nu + nv)
    area = domain.cell_area
    return (math.ceil(reach * nv / area), math.ceil(reach * nu / area))


def validate(domain: FundamentalDomain, tol: float = 1e-9) -> list[Violation]:
    """All overlapping periodic disc pairs, worst offenders included once.

    Empty result means no two discs (over all lattice translates) are
    closer than the sum of their radii minus tol.
    """
    xy = np.array([[d.x, d.y] for d in domain.discs])
    radii = np.array([d.radius for d in domain.discs])
    mwin, nwin = _window_extents(domain)
    rows = periodic_violations(xy, radii, domain.u, domain.v, mwin, nwin, tol)
    return [Violation(int(i), int(j), int(m), int(n), float(g)) for i, j, m, n, g in rows]
