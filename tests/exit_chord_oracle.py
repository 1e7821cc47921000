"""Exit-chord lookup that nudges every chord: an oracle for `exit_chords`.

`geometry.exit_chords` nudges only the chords that can be returned.  This
lookup takes the whole nudged table of `chord_table` and then selects,
so the two must agree float for float.
"""

from __future__ import annotations

import numpy as np

from dirtrace.geometry import _row_starts, chord_table, offset_normal


def exit_chords(domain, theta, points, r_match, offsets=None):
    """(t, alpha, beta, found) as `geometry.exit_chords` returns them."""
    points = np.asarray(points, dtype=float).reshape(-1, theta.dim)
    n = points.shape[0]
    perp = offset_normal(theta)
    if offsets is None:
        offsets = np.zeros(n) if theta.dim == 1 else points[:, 0] * perp[0] + points[:, 1] * perp[1]
    offsets = np.asarray(offsets, dtype=float)
    rows, alpha, beta, flags = chord_table(domain, theta, offsets)
    exits = offsets[rows, None] * perp[None, :] + beta[:, None] * theta.vector[None, :]
    dist = np.linalg.norm(exits - points[rows], axis=1)
    order = np.lexsort((dist, rows))
    starts = _row_starts(rows, n)
    lines = np.nonzero(starts[:-1] < starts[1:])[0]
    best = order[starts[lines]]
    ok = (dist[best] <= r_match) & ~flags[lines]
    lines, best = lines[ok], best[ok]
    found = np.zeros(n, dtype=bool)
    found[lines] = True
    a, b = np.full(n, np.nan), np.full(n, np.nan)
    a[lines], b[lines] = alpha[best], beta[best]
    return offsets, a, b, found
