"""The periodic overlap scan, vectorized in numpy.

The pair-times-translate distance sweep is the only part of the package that
ever sees large arrays (interstitial cells at small radius hold hundreds of
discs), so it runs as a fixed number of whole-array numpy operations over
flat (pair, translate) candidates, whatever the cell size.

For each pair i <= j the scan takes the lattice coordinates
(a, b) = L^-1 (c_i - c_j), L the matrix with columns u and v, and lists only
the translates (m, n) that can overlap.  When m*u + n*v lies at distance d
from c_i - c_j, |a - m| <= |row 0 of L^-1| * d and |b - n| <= |row 1 of
L^-1| * d, and an overlap needs d < r_i + r_j - tol.  Discs far outside the
fundamental cell need no prior wrapping, and pairs far from contact in every
translate (most pairs of a large cell) list none.
"""

import math

import numpy as np

# Relative widening of each pair's translate range.  It is millions of
# times the rounding of the gap expressions, and covers the error of the
# computed inverse for bases with condition number up to about 1e6, so a
# translate that the window-wide scan would flag is never skipped.
_PAD = 1e-9


def periodic_violations(xy, radii, u, v, mwin: int, nwin: int, tol: float) -> np.ndarray:
    """All periodic pair violations: rows (i, j, m, n, gap), sorted (i, j, m, n).

    gap = distance - (r_i + r_j); a violation has gap < -tol.  Pairs are
    reported once (i < j, any translate; i == j only for nonzero translates
    with n > 0 or (n == 0, m > 0) to halve the symmetric double count).

    Translates are searched around the lattice point nearest to c_i - c_j,
    at most mwin steps along u and nwin along v from it; within that window
    each pair visits only the translates within reach of contact.  The
    result equals that of visiting every translate of the window.
    """
    xy = np.asarray(xy, dtype=float)
    radii = np.asarray(radii, dtype=float)
    lat = np.array([[u[0], v[0]], [u[1], v[1]]], dtype=float)
    inv = np.linalg.inv(lat)

    # pairs i <= j in (i, j) order: the upper triangle, diagonal included
    iu, ju = np.nonzero(np.tri(xy.shape[0], dtype=bool).T)
    dx = xy[iu, 0] - xy[ju, 0]                        # c_i - c_j
    dy = xy[iu, 1] - xy[ju, 1]
    # explicit two-term dots, not a matmul: the loop oracle in
    # tests/test_kernels.py evaluates the same expressions and must agree
    # bit for bit
    a = inv[0, 0] * dx + inv[0, 1] * dy
    b = inv[1, 0] * dx + inv[1, 1] * dy
    base_m, base_n = np.rint(a), np.rint(b)
    rsum = radii[iu] + radii[ju]

    # Reach of contact in lattice units.  The pad is _PAD times a bound on
    # every magnitude the gap expressions below round at: |c_i - c_j| <= ext,
    # so |a| <= inv_m * ext and |m| <= inv_m * ext + mwin + 1.
    inv_m, inv_n = math.hypot(*inv[0]), math.hypot(*inv[1])
    ext = 2.0 * math.sqrt(2.0) * np.abs(xy).max(initial=0.0)
    scale = ((inv_m * ext + mwin + 1) * math.hypot(*u)
             + (inv_n * ext + nwin + 1) * math.hypot(*v)
             + ext + 2.0 * radii.max(initial=0.0) + abs(tol))
    pad = _PAD * (inv_m + inv_n) * scale
    reach_m = inv_m * (rsum - tol) + pad
    reach_n = inv_n * (rsum - tol) + pad
    lo_m = np.maximum(np.ceil(a - reach_m) - base_m, -mwin)
    hi_m = np.minimum(np.floor(a + reach_m) - base_m, mwin)
    lo_n = np.maximum(np.ceil(b - reach_n) - base_n, -nwin)
    hi_n = np.minimum(np.floor(b + reach_n) - base_n, nwin)
    span_n = np.maximum(hi_n - lo_n + 1, 0).astype(np.int64)
    count = np.maximum(hi_m - lo_m + 1, 0).astype(np.int64) * span_n

    # one flat row per (pair, translate) candidate; pairs in (i, j) order and
    # each pair's translates in (m, n) order, so the rows come out sorted
    pair = np.repeat(np.arange(count.size), count)
    k = np.arange(pair.size) - np.repeat(np.cumsum(count) - count, count)
    mm = base_m[pair] + (lo_m[pair] + k // span_n[pair])
    nn = base_n[pair] + (lo_n[pair] + k % span_n[pair])
    ox = dx[pair] - (mm * lat[0, 0] + nn * lat[0, 1])
    oy = dy[pair] - (mm * lat[1, 0] + nn * lat[1, 1])
    gap = np.sqrt(ox * ox + oy * oy) - rsum[pair]

    hit = np.flatnonzero(gap < -tol)
    hi, hj = iu[pair[hit]], ju[pair[hit]]
    hm, hn = mm[hit], nn[hit]
    keep = (hi < hj) | ((hi == hj) & ((hn > 0) | ((hn == 0) & (hm > 0))))
    return np.array((hi, hj, hm, hn, gap[hit]), dtype=float)[:, keep].T
