"""The overlap scan against a loop oracle, and its reporting conventions."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from bidisc import cli, flows, geometry, kernels
from bidisc.flows import interstitial
from bidisc.geometry import Disc, FundamentalDomain, validate

RNG = np.random.default_rng(20240817)


def loop_violations(xy, radii, u, v, mwin, nwin, tol):
    """Reference scan, one pair and one translate at a time.

    Uses the same float expressions as ``kernels.batch_violations``, so
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
            # the window's centre: np.rint rounds half to even
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


def reach_window(radii, u, v, tol):
    """Oracle window half-widths (mwin, nwin) that hold every pair's reach.

    A translate m can have gap < -tol only if |a - m| <= |v| / area * (r_i +
    r_j - tol) <= |v| / area * (2 * rmax + max(0, -tol)) (a the pair's u
    coordinate, and |v| / area the norm of the inverse basis row), the
    window's centre rint(a) is within 1/2 of a, and the 0.5 * (|u| + |v|)
    term below adds at least 1/2 step because |u| * |v| >= area.  Likewise
    for n.
    """
    nu, nv = math.hypot(*u), math.hypot(*v)
    area = abs(u[0] * v[1] - u[1] * v[0])
    reach = 2.0 * max(radii) + max(0.0, -tol) + 0.5 * (nu + nv)
    return math.ceil(reach * nv / area), math.ceil(reach * nu / area)


def oracle(xy, radii, u, v, tol):
    """``loop_violations`` over the ``reach_window``, after checking that the
    window holds, with room to spare, every translate the scan visits."""
    mwin, nwin = reach_window(radii, u, v, tol)
    inv = np.linalg.inv(np.array([[u[0], v[0]], [u[1], v[1]]], dtype=float))
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    diff = pts[:, None, :] - pts[None, :, :]                 # c_i - c_j
    rsum = np.add.outer(radii, radii) - tol
    for row, win in zip(inv, (mwin, nwin)):
        coord = diff @ row
        assert np.all(np.abs(coord - np.rint(coord)) + np.hypot(*row) * rsum + 1e-6 <= win)
    return loop_violations(xy, radii, u, v, mwin, nwin, tol)


def batch(cells):
    """``kernels.batch_violations`` in one call over cells given as (xy,
    radii, u, v, tol) with one tol, its rows split per cell as (i, j, m, n,
    gap)."""
    cells = list(cells)
    start = np.cumsum([0] + [len(c[1]) for c in cells])
    rows = kernels.batch_violations(
        np.concatenate([np.asarray(c[0], dtype=float).reshape(-1, 2) for c in cells]),
        np.concatenate([c[1] for c in cells]), start,
        [((u[0], v[0]), (u[1], v[1])) for _, _, u, v, _ in cells], cells[0][4])
    assert rows.shape[1] == 6 and np.all(np.diff(rows[:, 0]) >= 0)
    cuts = np.searchsorted(rows[:, 0], np.arange(len(cells) + 1))
    return [rows[lo:hi, 1:] for lo, hi in zip(cuts[:-1], cuts[1:])]


def scan(xy, radii, u, v, tol):
    """The batch kernel on one cell."""
    return batch([(xy, radii, u, v, tol)])[0]


def workloads():
    out = []
    for n in (40, 120):
        xy = RNG.uniform(0.0, 10.0, size=(n, 2))
        radii = RNG.uniform(0.3, 0.8, size=n)
        out.append((xy, radii, (10.0, 0.0), (0.0, 10.0), 1e-9))
    # exact half-lattice separations put the oracle's window centre on
    # rounding ties, where the scan and the oracle must still agree bit for bit
    half = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [1.5, 1.0], [1.0, 0.5]])
    out.append((half, np.full(5, 0.6), (2.0, 0.0), (0.0, 2.0), 1e-9))
    # skewed cell
    xy = RNG.uniform(-3.0, 3.0, size=(60, 2))
    out.append((xy, RNG.uniform(0.2, 0.5, size=60), (4.0, 0.5), (1.0, 3.5), 1e-9))
    # the lattices above have exact small multiples, so a regrouped translate
    # expression would still agree; these two do not
    domain, _ = interstitial(0.03)
    xy = np.array([[d.x, d.y] for d in domain.discs])
    radii = np.array([d.radius for d in domain.discs])
    out.append((xy, radii, domain.u, domain.v, 1e-9))
    xy = RNG.uniform(-2.0, 4.0, size=(50, 2))
    u = tuple(RNG.uniform((2.7, -0.6), (3.3, 0.6)))
    v = tuple(RNG.uniform((0.4, 2.2), (1.6, 2.9)))
    out.append((xy, RNG.uniform(0.2, 0.6, size=50), u, v, 1e-9))
    return out


def test_matches_loop_oracle_exactly():
    for cell in workloads():
        assert np.array_equal(oracle(*cell), scan(*cell))


def test_mixed_batch_matches_loop_oracle_per_cell():
    cells = workloads()
    refs = [oracle(*cell) for cell in cells]
    order = np.random.default_rng(5).permutation(len(cells))
    got = batch(cells[k] for k in order)
    assert sum(len(ref) > 0 for ref in refs) >= 2
    for k, rows in zip(order, got):
        assert np.array_equal(refs[k], rows)


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
    # these draws once chose the oracle's window; they are kept so that
    # later cells keep their random stream
    if rng.random() >= 0.5:
        rng.integers(0, 3, size=2)
    return xy, radii, tuple(u), tuple(v), tol


def test_matches_loop_oracle_on_random_cells():
    # one cell at a time, then all cells of one tol in one batch
    rng = np.random.default_rng(7321)
    cells = [random_cell(rng) for _ in range(200)]
    refs = [oracle(*cell) for cell in cells]
    for cell, ref in zip(cells, refs):
        assert np.array_equal(ref, scan(*cell)), cell
    assert 0 < sum(len(ref) > 0 for ref in refs) < 200
    for tol in sorted({cell[4] for cell in cells}):
        group = [k for k, cell in enumerate(cells) if cell[4] == tol]
        for k, rows in zip(group, batch(cells[k] for k in group)):
            assert np.array_equal(refs[k], rows), cells[k]


def edge_cells():
    """Cells at the edges of the pair pruning, as (xy, radii, u, v, tol)."""
    out = []
    # On the lattice 2Z x 2Z the lattice coordinates are x / 2 and y / 2 to
    # the last bit, so fractional parts land within an ulp of 0 and 1
    # (-2 * tiny has frac(A) == 1.0): overlapping pairs across the
    # wrap-around.  Equal radii leave the pair order to the disc index.
    tiny, below, above = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    xs = [0.0, 2 * tiny, -2 * tiny, 2 * below, 2.0, 2 * above, -2 * below, 4 * below]
    xy = np.array([(x, 0.37 * k) for k, x in enumerate(xs)])
    for tol in (1e-9, -1e-3):
        out.append((xy, np.full(len(xs), 0.2), (2.0, 0.0), (0.0, 2.0), tol))
    # the same on a skewed lattice whose inverse is inexact: discs spread
    # along v from lattice points, one far away, and nudged by an ulp of x
    u, v = (2.3, 0.1), (0.4, 1.9)
    pts = [(m * u[0] + (n + 0.16 * k) * v[0], m * u[1] + (n + 0.16 * k) * v[1])
           for k, (m, n) in enumerate(((0, 0), (1, 0), (0, 1), (-1, 1), (3, -2), (40, -17)))]
    xy = np.array([(x + s * np.spacing(2.0 + abs(x)), y) for (x, y), s in zip(pts, (1, -1) * 3)])
    out.append((xy, np.array([0.25, 0.2, 0.25, 0.1, 0.25, 0.2]), u, v, 1e-9))
    # Search windows either side of half a cell: on 2Z x 2Z, (2r - tol) / 2
    # is 0.5 + nudge, and a chain of discs along u holds pairs one ulp
    # either side of contact (r_i + r_j - tol apart), so that a pair in
    # reach lies at the end of its window.
    for tol in (0.0, 1e-9, -1e-3):
        for nudge in (-1e-6, -1e-12, 0.0, 1e-12, 1e-6):
            r = (1.0 + tol) / 2 + nudge
            step = 2 * r - tol
            xs = np.cumsum([0.0, step, np.nextafter(step, 0.0), np.nextafter(step, 9.0), 0.5])
            xy = np.column_stack((xs, np.full(len(xs), 0.7)))
            out.append((xy, np.full(len(xs), r), (2.0, 0.0), (0.0, 2.0), tol))
    # one-disc cells touching their own translates, with a negative tol
    for tol in (1e-9, -0.3):
        out.append((np.array([[0.3, 0.4]]), np.array([1.0]), (1.9, 0.0), (0.2, 1.9), tol))
    # a tol above the small discs' diameter: they search no window at all
    xy = np.array([[0.1, 0.2], [0.5, 0.3], [1.2, 1.1], [1.0, 0.4]])
    out.append((xy, np.array([1.0, 0.3, 0.3, 1.0]), (1.9, 0.0), (0.2, 1.9), 0.7))
    return out


def test_edge_cells_match_loop_oracle():
    cells = edge_cells()
    refs = [oracle(*cell) for cell in cells]
    for cell, ref in zip(cells, refs):
        assert np.array_equal(ref, scan(*cell)), cell
    assert sum(len(ref) > 0 for ref in refs) > len(cells) // 2
    for tol in sorted({cell[4] for cell in cells}):
        group = [k for k, cell in enumerate(cells) if cell[4] == tol]
        for k, rows in zip(group, batch(cells[k] for k in group)):
            assert np.array_equal(refs[k], rows), cells[k]


def test_no_violation_shape():
    xy = np.array([[0.0, 0.0], [5.0, 5.0]])
    radii = np.array([1.0, 1.0])
    out = scan(xy, radii, (10.0, 0.0), (0.0, 10.0), 1e-9)
    assert out.shape == (0, 5)


def test_self_pair_half_lattice_dedup():
    # a crowded one-disc cell: every self image pair must be reported
    # exactly once, from the canonical half of the translate lattice
    xy = np.array([[0.3, 0.4]])
    radii = np.array([1.0])
    out = scan(xy, radii, (1.9, 0.0), (0.2, 1.9), 0.0)
    assert len(out) > 0
    seen = set()
    for i, j, m, n, gap in out:
        assert (i, j) == (0.0, 0.0)
        assert n > 0 or (n == 0 and m > 0)
        assert (m, n) not in seen and (-m, -n) not in seen
        seen.add((m, n))
        assert gap < 0


def test_far_disc_recentred_before_scan():
    # second disc stored many cells away from its canonical position; the
    # pair's translate range follows its lattice coordinates out to it
    u, v = (10.0, 0.0), (0.0, 10.0)
    xy = np.array([[0.0, 0.0], [1.5 + 7 * 10.0, 3 * 10.0]])
    radii = np.array([1.0, 1.0])
    out = scan(xy, radii, u, v, 1e-9)
    assert out.shape == (1, 5)
    i, j, m, n, gap = out[0]
    assert (i, j, m, n) == (0.0, 1.0, -7.0, -3.0)
    assert abs(gap - (-0.5)) < 1e-12


def test_mixed_pair_gap_value():
    xy = np.array([[0.0, 0.0], [1.0, 0.0]])
    radii = np.array([1.0, 0.3])
    out = scan(xy, radii, (8.0, 0.0), (0.0, 8.0), 1e-9)
    assert out.shape == (1, 5)
    assert abs(out[0, 4] - (1.0 - 1.3)) < 1e-15


def test_negative_tol_widens_window():
    # asking for near-contacts (tol < 0) reaches past 2 * rmax by -tol
    domain = FundamentalDomain((1.0, 0.0), (0.0, 1.0), (Disc(0.2, 0.3, 0.3),))
    xy = np.array([[0.2, 0.3]])
    radii = np.array([0.3])
    for tol in (-3.0, -5.0):
        rows = np.array(validate(domain, tol=tol), dtype=float).reshape(-1, 5)
        ref = oracle(xy, radii, domain.u, domain.v, tol)
        assert len(ref) > 0
        assert np.array_equal(rows, ref)


@pytest.fixture(scope="module")
def benchmark_cells():
    """The cells the benchmark's ``packings`` workload scans: every cell of
    ``bidisc lower --range 0.36:0.99 --step 0.001`` from a cold
    continuation cache, then the interstitial cells at four radii."""
    seen = []
    original = geometry.validate_many

    def recording(domains, tol=1e-9):
        seen.extend(domains)
        return original(domains, tol)

    flows.clear_continuation_cache()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "validate_many", recording)
        mp.setattr(flows, "validate_many", recording)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(["lower", "--range", "0.36:0.99", "--step", "0.001"]) == 0
    return seen, [interstitial(r)[0] for r in (0.03, 0.02, 0.015, 0.01)]


@pytest.mark.parametrize("tol,flagged", [(1e-9, (0, 0)), (-1e-3, (12382, 3462)),
                                         (0.0, (2490, 1614)), (-0.05, (12640, 18522))])
def test_benchmark_cells_batch_equals_per_cell(benchmark_cells, tol, flagged):
    # all cells in one batch, small and large together, against one scan
    # per cell; the negative tol flags near-contacts, so rows are compared
    lower, large = benchmark_cells
    assert len(lower) == 896
    got = geometry.validate_many(lower + large, tol)
    assert got == [validate(domain, tol) for domain in lower + large]
    assert (sum(map(len, got[:len(lower)])), sum(map(len, got[len(lower):]))) == flagged
