"""The periodic overlap scan, vectorized in numpy.

The pair-times-translate distance sweep is the only part of the package that
ever sees large arrays (interstitial cells at small radius hold hundreds of
discs), so it runs as whole-array numpy operations over all pairs, one
lattice translate at a time.

For each ordered pair (i, j) the scan centers the translate search on the
lattice point nearest to c_i - c_j and scans a window around it, so discs
far outside the fundamental cell are handled without any prior wrapping.
"""

import numpy as np


def periodic_violations(xy, radii, u, v, mwin: int, nwin: int, tol: float) -> np.ndarray:
    """All periodic pair violations: rows (i, j, m, n, gap), sorted (i, j, m, n).

    gap = distance - (r_i + r_j); a violation has gap < -tol.  Pairs are
    reported once (i < j, any translate; i == j only for nonzero translates
    with n > 0 or (n == 0, m > 0) to halve the symmetric double count).
    """
    xy = np.asarray(xy, dtype=float)
    radii = np.asarray(radii, dtype=float)
    n_discs = xy.shape[0]
    lat = np.array([[u[0], v[0]], [u[1], v[1]]], dtype=float)
    inv = np.linalg.inv(lat)

    diff = xy[:, None, :] - xy[None, :, :]            # c_i - c_j
    # explicit two-term dots, not a matmul: the loop oracle in
    # tests/test_kernels.py evaluates the same expressions and must agree
    # bit for bit
    base = np.stack([np.rint(inv[0, 0] * diff[..., 0] + inv[0, 1] * diff[..., 1]),
                     np.rint(inv[1, 0] * diff[..., 0] + inv[1, 1] * diff[..., 1])],
                    axis=-1)
    rsum = radii[:, None] + radii[None, :]

    iu, ju = np.triu_indices(n_discs, k=0)
    rows = []
    for dm in range(-mwin, mwin + 1):
        for dn in range(-nwin, nwin + 1):
            mm = base[iu, ju, 0] + dm
            nn = base[iu, ju, 1] + dn
            ox = diff[iu, ju, 0] - (mm * lat[0, 0] + nn * lat[0, 1])
            oy = diff[iu, ju, 1] - (mm * lat[1, 0] + nn * lat[1, 1])
            dist = np.sqrt(ox * ox + oy * oy)
            gap = dist - rsum[iu, ju]
            hit = gap < -tol
            if not np.any(hit):
                continue
            hi, hj = iu[hit], ju[hit]
            hm, hn = mm[hit], nn[hit]
            hg = gap[hit]
            keep = (hi < hj) | ((hi == hj) & ((hn > 0) | ((hn == 0) & (hm > 0))))
            for i, j, m, n, g in zip(hi[keep], hj[keep], hm[keep], hn[keep], hg[keep]):
                rows.append((float(i), float(j), float(m), float(n), float(g)))
    out = np.array(rows, dtype=float).reshape(-1, 5)
    return out[np.lexsort((out[:, 3], out[:, 2], out[:, 1], out[:, 0]))]
