"""The periodic overlap scan over a batch of cells, vectorized in numpy.

One call scans any number of cells: the small cells of a ``lower`` sweep
share one call, and a large interstitial cell (thousands of discs) forms
only the pairs that can touch.  For each pair i <= j the scan takes the
lattice coordinates (a, b) = L^-1 (c_i - c_j), L the matrix with columns u
and v, and lists only the translates (m, n) that can overlap.  When
m*u + n*v lies at distance d from c_i - c_j, |a - m| <= |row 0 of L^-1| * d
and |b - n| <= |row 1 of L^-1| * d, and an overlap needs d < r_i + r_j - tol.
No window limits the translates further, so discs far outside the
fundamental cell need no wrapping.

Both stages work in blocks of at most ``BLOCK_ROWS`` candidate rows: the
pruning forms (disc, neighbour) candidates for a block of discs at a time,
and the scan forms (pair, translate) candidates for a block of kept pairs.
Each stage counts every item's candidates before it forms any, and
``row_blocks`` cuts its blocks where those counts add up to the budget;
``bounds.lipschitz_envelope`` walks its caps the same way.  Only arrays
with one entry per disc or per kept pair grow with the input, and a batch
that fits in one block runs each loop once.
"""

import math

import numpy as np

# Relative widening of each pair's translate range.  It is millions of
# times the rounding of the gap expressions, and covers the error of the
# computed inverse for bases with condition number up to about 1e6, so a
# translate that the all-translates scan would flag is never skipped.
_PAD = 1e-9

# Candidate rows formed at once in either stage, and kept pairs taken into
# the scan at once.  Measured on 2 cores against one block, validate on the
# 3417-disc interstitial(0.005) cell takes 16 ms, not 22 ms, at a traced
# peak of 3.2 MB, not 14.7 MB, and on the 795-disc interstitial(0.01) cell
# 2.8 ms as before; 4096 rows cost that cell 20% more time, and 16384 rows
# raise the first peak to 5.0 MB.
BLOCK_ROWS = 1 << 13


def row_blocks(count, budget):
    """The rows of items in blocks, item i owning count[i] rows: each block
    takes the next items while their rows add up to at most budget, else the
    next item alone.  Yields, per block, each row's item and its index within
    the item, and the offset of each of the block's items' first row."""
    ends, a = np.cumsum(count), 0
    while a < ends.size:
        b = max(int(np.searchsorted(ends, (ends[a - 1] if a else 0) + budget, "right")), a + 1)
        cnt = count[a:b]
        first = np.cumsum(cnt) - cnt
        item = np.repeat(np.arange(a, b), cnt)
        yield item, np.arange(item.size) - np.repeat(first, cnt), first
        a = b


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

    Blocks change neither the rows nor their order.  Each row is computed
    from its own pair and translate alone; the kept pairs of all prune
    blocks are merged by one sort that drops repeated pairs, which orders
    them (i, j) as one block would; and scan blocks follow that pair order,
    each pair's translates in (m, n) order, so the blocks' rows concatenate
    sorted.
    """
    xy, radii = np.asarray(xy, dtype=float).reshape(-1, 2), np.asarray(radii, dtype=float)
    start = np.asarray(start, dtype=np.int64)
    lat = np.asarray(lattices, dtype=float).reshape(-1, 2, 2)
    inv = np.linalg.inv(lat)
    size = len(radii)
    cell = np.repeat(np.arange(len(lat)), np.diff(start))

    # Per-cell scalars.  The norms of L^-1's rows and of u and v only size
    # each pair's translate reach and the pad, and np.hypot is within an ulp
    # or two of the exact norm; _PAD is 1e-9 relative, millions of ulps, so
    # that rounding cannot skip a translate.  The pad is _PAD times a bound on
    # every magnitude the gap expressions below round at: |c_i - c_j| <= ext,
    # |a| <= inv_m * ext, and a visited m has |m| <= inv_m * ext + reach_m + 1
    # <= inv_m * (ext + 2 * rmax + |tol|) + 2 (pad < 1).
    inv_m, inv_n = np.hypot(inv[:, :, 0], inv[:, :, 1]).T    # rows of L^-1
    norm_u, norm_v = np.hypot(lat[:, 0, :], lat[:, 1, :]).T  # columns u and v
    ext = 2.0 * math.sqrt(2.0) * np.maximum.reduceat(np.abs(xy).max(axis=1), start[:-1])
    far = ext + 2.0 * np.maximum.reduceat(radii, start[:-1]) + abs(tol)
    scale = (inv_m * far + 2.0) * norm_u + (inv_n * far + 2.0) * norm_v + far
    pad = _PAD * (inv_m + inv_n) * scale

    # prune: each disc searches its window in frac(A) order, wrapping
    # around through copies of the cell's keys one unit below and above;
    # the windows are counted first, then read a block of discs at a time
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
    codes = [np.empty(0, dtype=np.int64)]
    for ci, k, _ in row_blocks(count, BLOCK_ROWS):
        cj = owner[lo[ci] + k]
        keep = (radii[cj] < radii[ci]) | ((radii[cj] == radii[ci]) & (cj <= ci))
        ci, cj = ci[keep], cj[keep]
        da, db, rc, cc = A[ci] - A[cj], B[ci] - B[cj], radii[ci] + radii[cj] - tol, cell[ci]
        pc = 2.0 * pad[cc]
        keep = ((np.abs(da - np.rint(da)) <= inv_m[cc] * rc + pc)
                & (np.abs(db - np.rint(db)) <= inv_n[cc] * rc + pc))
        ci, cj = ci[keep], cj[keep]
        codes.append(np.minimum(ci, cj) * size + np.maximum(ci, cj))
    # merge: sort the codes and keep the first of each run of equal ones
    # (np.unique does the same, but through a slower hash path)
    codes = np.sort(np.concatenate(codes))
    first = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    iu, ju = np.divmod(codes[first], size)

    # scan the kept pairs (i <= j, rows of one cell), BLOCK_ROWS pairs at a time
    out = [np.empty((0, 6))]
    for p0 in range(0, iu.size, BLOCK_ROWS):
        pi, pj = iu[p0:p0 + BLOCK_ROWS], ju[p0:p0 + BLOCK_ROWS]
        c = cell[pi]
        ip, pad_c = inv[c], pad[c]
        dx = xy[pi, 0] - xy[pj, 0]                    # c_i - c_j
        dy = xy[pi, 1] - xy[pj, 1]
        # explicit two-term dots, not a matmul: the loop oracle in the tests
        # evaluates the same expressions and must agree bit for bit
        a = ip[:, 0, 0] * dx + ip[:, 0, 1] * dy
        b = ip[:, 1, 0] * dx + ip[:, 1, 1] * dy
        rsum = radii[pi] + radii[pj]
        reach_m = inv_m[c] * (rsum - tol) + pad_c
        reach_n = inv_n[c] * (rsum - tol) + pad_c
        lo_m, hi_m = np.ceil(a - reach_m), np.floor(a + reach_m)
        lo_n, hi_n = np.ceil(b - reach_n), np.floor(b + reach_n)
        span_n = np.maximum(hi_n - lo_n + 1, 0).astype(np.int64)
        count = np.maximum(hi_m - lo_m + 1, 0).astype(np.int64) * span_n

        # one flat row per (pair, translate) candidate; pairs in (i, j) order
        # and each pair's translates in (m, n) order, so the rows come out sorted
        for pair, k, _ in row_blocks(count, BLOCK_ROWS):
            mm = lo_m[pair] + k // span_n[pair]
            nn = lo_n[pair] + k % span_n[pair]
            lp = lat[c[pair]]
            ox = dx[pair] - (mm * lp[:, 0, 0] + nn * lp[:, 0, 1])
            oy = dy[pair] - (mm * lp[:, 1, 0] + nn * lp[:, 1, 1])
            gap = np.sqrt(ox * ox + oy * oy) - rsum[pair]

            hit = gap < -tol
            p, hm, hn = pair[hit], mm[hit], nn[hit]
            hc, hi, hj = c[p], pi[p] - start[c[p]], pj[p] - start[c[p]]
            keep = (hi < hj) | ((hi == hj) & ((hn > 0) | ((hn == 0) & (hm > 0))))
            out.append(np.array((hc, hi, hj, hm, hn, gap[hit]), dtype=float)[:, keep].T)
    return np.concatenate(out)
