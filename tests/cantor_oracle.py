"""Level-by-level Cantor descent: an oracle for `_cantor.distance_many`.

This is the original descent, which starts every point at [0, 1] and
splits one level at a time.  The package replaces its first levels with one
search in a sorted gap table; both must give bit-identical distances.
"""

from __future__ import annotations

import numpy as np

from dirtrace._cantor import _MAX_DEPTH, DESCENT_FLOOR, _split


def distance_many(x, ratio=1.0 / 3.0, scheme="third"):
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    dist = np.zeros(flat.shape)
    below = flat < 0.0
    above = flat > 1.0
    dist[below] = -flat[below]
    dist[above] = flat[above] - 1.0
    idx = np.nonzero(~(below | above))[0]
    xa = flat[idx]
    a = np.zeros(xa.shape)
    b = np.ones(xa.shape)
    for depth in range(_MAX_DEPTH):
        if idx.size == 0:
            break
        c, d = _split(a, b, depth, ratio, scheme)
        in_gap = (xa > c) & (xa < d)
        dist[idx[in_gap]] = np.minimum(xa[in_gap] - c[in_gap], d[in_gap] - xa[in_gap])
        keep = ~in_gap
        idx, xa, a, b, c, d = idx[keep], xa[keep], a[keep], b[keep], c[keep], d[keep]
        right = xa >= d
        a = np.where(right, d, a)
        b = np.where(right, b, c)
        done = (b - a) < DESCENT_FLOOR
        idx, xa, a, b = idx[~done], xa[~done], a[~done], b[~done]
    return dist.reshape(x.shape)
