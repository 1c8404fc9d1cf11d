"""The periodic overlap scan over a batch of cells, vectorized in numpy.

One call scans any number of cells in a fixed number of whole-array numpy
operations: the small cells of a ``lower`` sweep share one call, and a large
interstitial cell (thousands of discs) forms only the pairs that can touch.
For each pair i <= j the scan takes the lattice coordinates
(a, b) = L^-1 (c_i - c_j), L the matrix with columns u and v, and lists only
the translates (m, n) that can overlap.  When m*u + n*v lies at distance d
from c_i - c_j, |a - m| <= |row 0 of L^-1| * d and |b - n| <= |row 1 of
L^-1| * d, and an overlap needs d < r_i + r_j - tol.  No window limits the
translates further, so discs far outside the fundamental cell need no wrapping.
"""

import math

import numpy as np

# Relative widening of each pair's translate range.  It is millions of
# times the rounding of the gap expressions, and covers the error of the
# computed inverse for bases with condition number up to about 1e6, so a
# translate that the all-translates scan would flag is never skipped.
_PAD = 1e-9


def batch_violations(xy, radii, start, lattices, tol: float) -> np.ndarray:
    """All periodic pair violations of many cells: rows (cell, i, j, m, n, gap).

    Cell k owns the disc rows start[k]:start[k+1] (at least one) and has the
    lattice matrix lattices[k] with columns u and v; i and j count from the
    cell's first row, and rows are sorted (cell, i, j, m, n).  gap = distance
    - (r_i + r_j); a violation has gap < -tol.  Pairs are reported once
    (i < j, any translate; i == j only for nonzero translates with n > 0 or
    (n == 0, m > 0) to halve the symmetric double count).  Each pair visits
    the m in ceil(a - reach_m) .. floor(a + reach_m) and likewise the n, so
    the result equals that of visiting every translate of every pair.

    Pairs are pruned first, keeping a superset of the pairs with any
    translate within reach.  With A, B = L^-1 c per disc: the pair's u range
    below holds an integer only if dist(a, Z) <= reach_m, and a differs from
    A_i - A_j by rounding far below pad, so a kept pair has
    dist(A_i - A_j, Z) <= inv_m * (r_i + r_j - tol) + 2 * pad, and likewise
    for B.  Each pair is looked for from its larger side, (r_j, j) <=
    (r_i, i), whose window inv_m * (2 * r_i - tol) + 2 * pad + slack in
    frac(A) covers r_i + r_j; slack covers the rounding of the
    cell + frac(A) sort keys, and a window of half a cell or more takes
    the whole cell.
    """
    xy, radii = np.asarray(xy, dtype=float).reshape(-1, 2), np.asarray(radii, dtype=float)
    start = np.asarray(start, dtype=np.int64)
    lat = np.asarray(lattices, dtype=float).reshape(-1, 2, 2)
    inv = np.linalg.inv(lat)
    size = len(radii)
    cell = np.repeat(np.arange(len(lat)), np.diff(start))

    # Per-cell scalars, as the single-cell scan computed them.  The pad is
    # _PAD times a bound on every magnitude the gap expressions below round
    # at: |c_i - c_j| <= ext, |a| <= inv_m * ext, and a visited m has |m| <=
    # inv_m * ext + reach_m + 1 <= inv_m * (ext + 2 * rmax + |tol|) + 2 (pad < 1).
    inv_m, inv_n, norm_u, norm_v = np.array(
        [[math.hypot(*row) for row in (*rows, *uv)]       # L^-1 rows, u, v
         for rows, uv in zip(inv.tolist(), lat.transpose(0, 2, 1).tolist())]).reshape(-1, 4).T
    ext = 2.0 * math.sqrt(2.0) * np.maximum.reduceat(np.abs(xy).max(axis=1), start[:-1])
    far = ext + 2.0 * np.maximum.reduceat(radii, start[:-1]) + abs(tol)
    scale = (inv_m * far + 2.0) * norm_u + (inv_n * far + 2.0) * norm_v + far
    pad = _PAD * (inv_m + inv_n) * scale

    # prune: each disc searches its window in frac(A) order, wrapping
    # around through copies of the cell's keys one unit below and above
    ic = inv[cell]
    A = ic[:, 0, 0] * xy[:, 0] + ic[:, 0, 1] * xy[:, 1]
    B = ic[:, 1, 0] * xy[:, 0] + ic[:, 1, 1] * xy[:, 1]
    home = 3 * cell + 1 + (A - np.floor(A))
    keys = np.concatenate((home - 1, home, home + 1))
    srt = np.argsort(keys, kind="stable")
    keys, owner = keys[srt], srt % size
    slack = 8.0 * np.spacing(3.0 * len(lat) + 3.0)
    half = np.minimum(inv_m[cell] * (2.0 * radii - tol) + 2.0 * pad[cell] + slack, 0.5 + slack)
    lo = np.searchsorted(keys, home - half, "left")
    count = np.maximum(np.searchsorted(keys, home + half, "right") - lo, 0)
    ci = np.repeat(np.arange(size), count)
    cj = owner[np.arange(ci.size) - np.repeat(np.cumsum(count) - count - lo, count)]
    keep = (radii[cj] < radii[ci]) | ((radii[cj] == radii[ci]) & (cj <= ci))
    ci, cj = ci[keep], cj[keep]
    da, db, rc, cc = A[ci] - A[cj], B[ci] - B[cj], radii[ci] + radii[cj] - tol, cell[ci]
    pc = 2.0 * pad[cc]
    keep = ((np.abs(da - np.rint(da)) <= inv_m[cc] * rc + pc)
            & (np.abs(db - np.rint(db)) <= inv_n[cc] * rc + pc))
    ci, cj = ci[keep], cj[keep]
    iu, ju = np.divmod(np.unique(np.minimum(ci, cj) * size + np.maximum(ci, cj)), size)

    # scan the kept pairs (i <= j, rows of one cell)
    c = cell[iu]
    ip, pad_c = inv[c], pad[c]
    dx = xy[iu, 0] - xy[ju, 0]                        # c_i - c_j
    dy = xy[iu, 1] - xy[ju, 1]
    # explicit two-term dots, not a matmul: the loop oracle in the tests
    # evaluates the same expressions and must agree bit for bit
    a = ip[:, 0, 0] * dx + ip[:, 0, 1] * dy
    b = ip[:, 1, 0] * dx + ip[:, 1, 1] * dy
    rsum = radii[iu] + radii[ju]
    reach_m = inv_m[c] * (rsum - tol) + pad_c
    reach_n = inv_n[c] * (rsum - tol) + pad_c
    lo_m, hi_m = np.ceil(a - reach_m), np.floor(a + reach_m)
    lo_n, hi_n = np.ceil(b - reach_n), np.floor(b + reach_n)
    span_n = np.maximum(hi_n - lo_n + 1, 0).astype(np.int64)
    count = np.maximum(hi_m - lo_m + 1, 0).astype(np.int64) * span_n

    # one flat row per (pair, translate) candidate; pairs in (i, j) order and
    # each pair's translates in (m, n) order, so the rows come out sorted
    pair = np.repeat(np.arange(count.size), count)
    k = np.arange(pair.size) - np.repeat(np.cumsum(count) - count, count)
    mm = lo_m[pair] + k // span_n[pair]
    nn = lo_n[pair] + k % span_n[pair]
    lp = lat[c[pair]]
    ox = dx[pair] - (mm * lp[:, 0, 0] + nn * lp[:, 0, 1])
    oy = dy[pair] - (mm * lp[:, 1, 0] + nn * lp[:, 1, 1])
    gap = np.sqrt(ox * ox + oy * oy) - rsum[pair]

    hit = gap < -tol
    p, hm, hn = pair[hit], mm[hit], nn[hit]
    hc, hi, hj = c[p], iu[p] - start[c[p]], ju[p] - start[c[p]]
    keep = (hi < hj) | ((hi == hj) & ((hn > 0) | ((hn == 0) & (hm > 0))))
    return np.array((hc, hi, hj, hm, hn, gap[hit]), dtype=float)[:, keep].T
