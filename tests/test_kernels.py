"""The overlap scan against a loop oracle, and its reporting conventions."""

import numpy as np

from bidisc import kernels
from bidisc.flows import interstitial
from bidisc.geometry import Disc, FundamentalDomain, _window_extents

RNG = np.random.default_rng(20240817)


def loop_violations(xy, radii, u, v, mwin, nwin, tol):
    """Reference scan, one pair and one translate at a time.

    Uses the same float expressions as ``kernels.periodic_violations``, so
    the two must agree bit for bit.  The loop visits (i, j, m, n) in
    ascending order, so its rows need no sort.
    """
    inv = np.linalg.inv(np.array([[u[0], v[0]], [u[1], v[1]]], dtype=float))
    rows = []
    for i in range(len(xy)):
        for j in range(i, len(xy)):
            dx = xy[i][0] - xy[j][0]
            dy = xy[i][1] - xy[j][1]
            rs = radii[i] + radii[j]
            # np.rint rounds half to even, like the scan's base translate
            bm = np.rint(inv[0, 0] * dx + inv[0, 1] * dy)
            bn = np.rint(inv[1, 0] * dx + inv[1, 1] * dy)
            for dm in range(-mwin, mwin + 1):
                for dn in range(-nwin, nwin + 1):
                    m = bm + dm
                    n = bn + dn
                    if i == j and not (n > 0 or (n == 0 and m > 0)):
                        continue
                    ox = dx - (m * u[0] + n * v[0])
                    oy = dy - (m * u[1] + n * v[1])
                    gap = np.sqrt(ox * ox + oy * oy) - rs
                    if gap < -tol:
                        rows.append((i, j, m, n, gap))
    return np.array(rows, dtype=float).reshape(-1, 5)


def workloads():
    out = []
    for n in (40, 120):
        xy = RNG.uniform(0.0, 10.0, size=(n, 2))
        radii = RNG.uniform(0.3, 0.8, size=n)
        out.append((xy, radii, (10.0, 0.0), (0.0, 10.0), 1, 1, 1e-9))
    # exact half-lattice separations make the base translate land on
    # rounding ties, where the scan and the oracle must still agree bit for bit
    half = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [1.5, 1.0], [1.0, 0.5]])
    out.append((half, np.full(5, 0.6), (2.0, 0.0), (0.0, 2.0), 2, 2, 1e-9))
    # skewed cell
    xy = RNG.uniform(-3.0, 3.0, size=(60, 2))
    out.append((xy, RNG.uniform(0.2, 0.5, size=60), (4.0, 0.5), (1.0, 3.5), 2, 2, 1e-9))
    # the lattices above have exact small multiples, so a regrouped translate
    # expression would still agree; these two do not
    domain, _ = interstitial(0.03)
    mwin, nwin = _window_extents(domain)
    xy = np.array([[d.x, d.y] for d in domain.discs])
    radii = np.array([d.radius for d in domain.discs])
    out.append((xy, radii, domain.u, domain.v, mwin, nwin, 1e-9))
    xy = RNG.uniform(-2.0, 4.0, size=(50, 2))
    u = tuple(RNG.uniform((2.7, -0.6), (3.3, 0.6)))
    v = tuple(RNG.uniform((0.4, 2.2), (1.6, 2.9)))
    out.append((xy, RNG.uniform(0.2, 0.6, size=50), u, v, 2, 2, 1e-9))
    return out


def test_matches_loop_oracle_exactly():
    for xy, radii, u, v, mwin, nwin, tol in workloads():
        ref = loop_violations(xy, radii, u, v, mwin, nwin, tol)
        got = kernels.periodic_violations(xy, radii, u, v, mwin, nwin, tol)
        assert np.array_equal(ref, got)


def random_cell(rng):
    """A small cell with inexact lattice entries and placements at the edge.

    Some pairs sit at exactly r_i + r_j - tol, or one ulp either side, along
    the direction where that distance reaches furthest in one lattice
    coordinate; some one-disc cells touch their own translate by u; some
    discs are stored many cells away from the fundamental cell.
    """
    u = np.array([rng.uniform(1.5, 3.0), rng.uniform(-0.7, 0.7)])
    v = np.array([rng.uniform(-1.2, 1.2), rng.uniform(1.5, 3.0)])
    lat = np.array([u, v]).T
    inv = np.linalg.inv(lat)
    n = int(rng.integers(1, 7))
    tol = float(rng.choice([0.0, 1e-9, 1e-3, -0.05]))
    radii = rng.uniform(0.05, 0.6, size=n)
    xy = rng.uniform(0.0, 1.0, size=(n, 2)) @ lat.T
    nudge = float(rng.choice([-np.inf, 0.0, np.inf]))
    if n == 1 and rng.random() < 0.5:
        radii[0] = np.nextafter((np.hypot(*u) + tol) / 2.0, nudge)
    if n >= 2 and rng.random() < 0.6:
        row = inv[int(rng.integers(2))]
        reach = np.nextafter(radii[0] + radii[1] - tol, nudge)
        xy[1] = xy[0] - reach * row / np.hypot(*row)
    if rng.random() < 0.3:
        far = rng.integers(-60, 61, size=2)
        xy[int(rng.integers(n))] += far[0] * u + far[1] * v
    if rng.random() < 0.5:
        discs = tuple(Disc(x, y, r) for (x, y), r in zip(xy, radii))
        mwin, nwin = _window_extents(FundamentalDomain(tuple(u), tuple(v), discs))
    else:
        mwin, nwin = (int(w) for w in rng.integers(0, 3, size=2))
    return xy, radii, tuple(u), tuple(v), mwin, nwin, tol


def test_matches_loop_oracle_on_random_cells():
    rng = np.random.default_rng(7321)
    flagged = 0
    for _ in range(200):
        cell = random_cell(rng)
        ref = loop_violations(*cell)
        got = kernels.periodic_violations(*cell)
        assert np.array_equal(ref, got), cell
        flagged += len(ref) > 0
    assert 0 < flagged < 200


def test_no_violation_shape():
    xy = np.array([[0.0, 0.0], [5.0, 5.0]])
    radii = np.array([1.0, 1.0])
    out = kernels.periodic_violations(xy, radii, (10.0, 0.0), (0.0, 10.0), 1, 1, 1e-9)
    assert out.shape == (0, 5)


def test_self_pair_half_lattice_dedup():
    # a crowded one-disc cell: every self image pair must be reported
    # exactly once, from the canonical half of the translate lattice
    xy = np.array([[0.3, 0.4]])
    radii = np.array([1.0])
    out = kernels.periodic_violations(xy, radii, (1.9, 0.0), (0.2, 1.9), 2, 2, 0.0)
    assert len(out) > 0
    seen = set()
    for i, j, m, n, gap in out:
        assert (i, j) == (0.0, 0.0)
        assert n > 0 or (n == 0 and m > 0)
        assert (m, n) not in seen and (-m, -n) not in seen
        seen.add((m, n))
        assert gap < 0


def test_far_disc_recentred_before_scan():
    # second disc stored many cells away from its canonical position;
    # the base translate must bring the pair back into scan range
    u, v = (10.0, 0.0), (0.0, 10.0)
    xy = np.array([[0.0, 0.0], [1.5 + 7 * 10.0, 3 * 10.0]])
    radii = np.array([1.0, 1.0])
    out = kernels.periodic_violations(xy, radii, u, v, 1, 1, 1e-9)
    assert out.shape == (1, 5)
    i, j, m, n, gap = out[0]
    assert (i, j, m, n) == (0.0, 1.0, -7.0, -3.0)
    assert abs(gap - (-0.5)) < 1e-12


def test_mixed_pair_gap_value():
    xy = np.array([[0.0, 0.0], [1.0, 0.0]])
    radii = np.array([1.0, 0.3])
    out = kernels.periodic_violations(xy, radii, (8.0, 0.0), (0.0, 8.0), 1, 1, 1e-9)
    assert out.shape == (1, 5)
    assert abs(out[0, 4] - (1.0 - 1.3)) < 1e-15
