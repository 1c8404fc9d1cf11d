"""Periodic domains, tangency construction, overlap validation."""

import math
from collections import Counter

import numpy as np
import pytest

from bidisc.errors import InvalidPacking, NoSolution
from bidisc.geometry import (
    Disc,
    FundamentalDomain,
    Violation,
    density,
    stick,
    validate,
    validate_many,
)

SQRT3 = math.sqrt(3.0)


def hex_domain():
    return FundamentalDomain((2.0, 0.0), (1.0, SQRT3), (Disc(0.0, 0.0, 1.0),))


class TestStick:
    def test_tangency(self):
        a = Disc(0.3, -0.2, 1.0)
        b = Disc(1.9, 0.4, 0.7)
        c = stick(a, b, 0.45)
        da = math.hypot(c.x - a.x, c.y - a.y)
        db = math.hypot(c.x - b.x, c.y - b.y)
        assert abs(da - (a.radius + c.radius)) <= 4 * np.spacing(da)
        assert abs(db - (b.radius + c.radius)) <= 4 * np.spacing(db)
        assert c.radius == 0.45

    def test_left_of_directed_segment(self):
        a = Disc(0.0, 0.0, 1.0)
        b = Disc(2.0, 0.0, 1.0)
        c = stick(a, b, 1.0)
        assert c.x == 1.0 and math.isclose(c.y, SQRT3, rel_tol=1e-15)

    def test_swap_reflects(self):
        a = Disc(0.5, 1.5, 0.8)
        b = Disc(2.0, 2.5, 1.0)
        c1 = stick(a, b, 0.6)
        c2 = stick(b, a, 0.6)
        # both tangent to both parents, on opposite sides of the center line
        ex, ey = b.x - a.x, b.y - a.y
        s1 = ex * (c1.y - a.y) - ey * (c1.x - a.x)
        s2 = ex * (c2.y - a.y) - ey * (c2.x - a.x)
        assert s1 > 0 > s2
        assert math.isclose(s1, -s2, rel_tol=1e-12)

    def test_scaling_invariance(self):
        a = Disc(0.1, 0.2, 1.0)
        b = Disc(1.8, -0.3, 0.6)
        c = stick(a, b, 0.5)
        s = 3.7
        cs = stick(Disc(a.x * s, a.y * s, a.radius * s),
                   Disc(b.x * s, b.y * s, b.radius * s), 0.5 * s)
        assert math.isclose(cs.x, c.x * s, rel_tol=1e-13)
        assert math.isclose(cs.y, c.y * s, rel_tol=1e-13)

    def test_collinear_limit(self):
        a = Disc(0.0, 0.0, 1.0)
        b = Disc(4.0, 0.0, 1.0)
        c = stick(a, b, 1.0)
        assert (c.x, c.y) == (2.0, 0.0)

    def test_rejects_nonpositive_radius(self):
        a = Disc(0.0, 0.0, 1.0)
        b = Disc(2.0, 0.0, 1.0)
        with pytest.raises(NoSolution):
            stick(a, b, 0.0)
        with pytest.raises(NoSolution):
            stick(a, b, -0.5)

    def test_rejects_concentric_parents(self):
        a = Disc(1.0, 1.0, 1.0)
        with pytest.raises(NoSolution):
            stick(a, Disc(1.0, 1.0, 0.5), 0.3)

    def test_rejects_too_distant_parents(self):
        a = Disc(0.0, 0.0, 1.0)
        b = Disc(4.1, 0.0, 1.0)
        with pytest.raises(NoSolution):
            stick(a, b, 1.0)


class TestFundamentalDomain:
    def test_coercion_and_area(self):
        d = FundamentalDomain((2, 0), (1, SQRT3), (Disc(0, 0, 1),))
        assert isinstance(d.u[0], float)
        assert math.isclose(d.cell_area, 2 * SQRT3, rel_tol=1e-15)

    def test_census(self):
        d = FundamentalDomain((4.0, 0.0), (0.0, 4.0),
                              (Disc(0, 0, 1.0), Disc(2, 0, 1.0), Disc(1, 2, 0.5)))
        assert Counter(disc.radius for disc in d.discs) == {1.0: 2, 0.5: 1}

    def test_rejects_degenerate_lattice(self):
        with pytest.raises(InvalidPacking):
            FundamentalDomain((1.0, 2.0), (2.0, 4.0), (Disc(0, 0, 1),))

    def test_rejects_empty(self):
        with pytest.raises(InvalidPacking):
            FundamentalDomain((2.0, 0.0), (0.0, 2.0), ())

    def test_rejects_bad_disc(self):
        with pytest.raises(InvalidPacking):
            FundamentalDomain((2.0, 0.0), (0.0, 2.0), (Disc(0, 0, -1.0),))
        with pytest.raises(InvalidPacking):
            FundamentalDomain((2.0, 0.0), (0.0, 2.0), (Disc(math.nan, 0, 1.0),))


class TestDensity:
    def test_hexagonal_value(self):
        assert math.isclose(density(hex_domain()), math.pi / (2 * SQRT3), rel_tol=1e-15)

    def test_census_formula(self):
        d = FundamentalDomain((5.0, 0.0), (1.0, 4.0),
                              (Disc(0, 0, 1.0), Disc(2, 1, 1.0), Disc(1, 2, 0.4)))
        census = Counter(disc.radius for disc in d.discs)
        by_census = math.pi * sum(r * r * k for r, k in census.items())
        assert math.isclose(density(d), by_census / d.cell_area, rel_tol=1e-15)

    def test_shrink_identity(self):
        # shrinking p discs from radius y to radius x changes the density
        # by exactly -p*pi*(y**2 - x**2)/A, whatever the geometry does
        rng = np.random.default_rng(20240817)
        for _ in range(50):
            a = rng.uniform(2.0, 5.0)
            c = rng.uniform(2.0, 5.0)
            b = rng.uniform(-1.0, 1.0)
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, n + 1))
            y = float(rng.uniform(0.4, 1.0))
            x = float(rng.uniform(0.05, y))
            discs = []
            for k in range(n):
                cx, cy = rng.uniform(0, 5, size=2)
                discs.append(Disc(cx, cy, y if k < p else float(rng.uniform(0.1, 1.0))))
            before = FundamentalDomain((a, 0.0), (b, c), tuple(discs))
            after = FundamentalDomain((a, 0.0), (b, c), tuple(
                Disc(d.x, d.y, x) if k < p else d for k, d in enumerate(discs)))
            drop = density(after) - density(before)
            expect = -p * math.pi * (y * y - x * x) / before.cell_area
            assert abs(drop - expect) <= 1e-12


class TestValidate:
    def test_clean_hexagonal(self):
        assert validate(hex_domain()) == []

    def test_planted_pair_overlap(self):
        d = FundamentalDomain((10.0, 0.0), (0.0, 10.0),
                              (Disc(0.0, 0.0, 1.0), Disc(1.5, 0.0, 1.0)))
        rows = validate(d)
        assert rows == [Violation(0, 1, 0, 0, pytest.approx(-0.5, abs=1e-12))]

    def test_planted_periodic_self_overlap(self):
        d = FundamentalDomain((1.8, 0.0), (0.0, 10.0), (Disc(0.0, 0.0, 1.0),))
        rows = validate(d)
        assert rows == [Violation(0, 0, 1, 0, pytest.approx(-0.2, abs=1e-12))]

    def test_image_translate_convention(self):
        # disc 1 placed one cell over: its (m, n) = (-1, 0) image overlaps disc 0
        d = FundamentalDomain((10.0, 0.0), (0.0, 10.0),
                              (Disc(0.0, 0.0, 1.0), Disc(11.5, 0.0, 1.0)))
        rows = validate(d)
        assert len(rows) == 1
        i, j, m, n, gap = rows[0]
        ox = d.discs[i].x - d.discs[j].x - (m * d.u[0] + n * d.v[0])
        oy = d.discs[i].y - d.discs[j].y - (m * d.u[1] + n * d.v[1])
        assert math.isclose(math.hypot(ox, oy) - 2.0, gap, rel_tol=1e-12)
        assert gap == pytest.approx(-0.5, abs=1e-12)

    def test_tolerance_gates_report(self):
        d = FundamentalDomain((10.0, 0.0), (0.0, 10.0),
                              (Disc(0.0, 0.0, 1.0), Disc(2.0 - 1e-6, 0.0, 1.0)))
        assert validate(d, tol=1e-5) == []
        assert len(validate(d, tol=1e-7)) == 1

    def test_touching_is_clean(self):
        d = FundamentalDomain((4.0, 0.0), (0.0, 4.0),
                              (Disc(0.0, 0.0, 1.0), Disc(2.0, 0.0, 1.0)))
        assert validate(d) == []

    def test_validate_many_is_validate_per_domain(self):
        domains = [
            hex_domain(),
            FundamentalDomain((1.8, 0.0), (0.0, 10.0), (Disc(0.0, 0.0, 1.0),)),
            FundamentalDomain((10.0, 0.0), (0.0, 10.0),
                              (Disc(0.0, 0.0, 1.0), Disc(11.5, 0.0, 1.0))),
            FundamentalDomain((2.5, 0.3), (0.7, 1.9),
                              (Disc(0.1, 0.2, 0.9), Disc(1.0, 0.9, 0.25))),
        ]
        for tol in (1e-9, -0.5):
            got = validate_many(domains, tol)
            assert got == [validate(d, tol) for d in domains]
            assert got == validate_many(domains[::-1], tol)[::-1]
            assert sum(map(bool, got)) == (3 if tol > 0 else 4)
        assert validate_many([]) == []
