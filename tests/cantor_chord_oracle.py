"""Earlier Cantor chord algorithms: oracles for the shared band cut.

`comb_line_slices` builds the oblique chords of a Cantor comb per gap
column above the axis, in blocks of (line, gap) cells, and joins the
lower rectangle chord with the column that touches it when the axis
crossing falls inside a gap.  `apex_slices` lays out the horizontal
sections {x : dist(x, C) < h} of a cone union once per count of gaps
longer than 2h.  The package cuts both from a band with
`geometry._band_minus`; both must give bit-identical chords, signs of
zero included.
"""

from __future__ import annotations

import numpy as np

from dirtrace import _cantor


def _min(a, b):
    """Elementwise min(a, b) that keeps a on ties, as Python's min does
    (so -0.0 against 0.0 keeps a's sign)."""
    return np.where(b < a, b, a)


def _max(a, b):
    """Elementwise max(a, b) with Python's tie rule, as in `_min`."""
    return np.where(b > a, b, a)


def comb_line_slices(comb, theta, ts):
    """Flat chord table (rows, lo, hi) of the comb along a non-axis theta."""
    tv = theta.vector
    p = theta.perp_vector
    ts = np.asarray(ts, dtype=float)
    c = comb._gaps_sorted[:, 0]
    d = comb._gaps_sorted[:, 1]
    bx = ts * p[0]
    by = ts * p[1]
    x0, x1 = (0.0 - bx) / tv[0], (1.0 - bx) / tv[0]
    s_ym1 = (-1.0 - by) / tv[1]
    s_y0 = (0.0 - by) / tv[1]
    s_y1 = (1.0 - by) / tv[1]
    low_lo = _max(_min(s_ym1, s_y0), _min(x0, x1))
    low_hi = _min(_max(s_ym1, s_y0), np.where(x1 < x0, x0, x1))
    up_lo, up_hi = _min(s_y0, s_y1), _max(s_y0, s_y1)

    # gap columns above the axis, in blocks of about 2**20 (line, gap) cells
    step = max(1, 2**20 // c.size)
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
    for start in range(0, ts.size, step):
        block = slice(start, start + step)
        sc = (c[None, :] - bx[block, None]) / tv[0]
        sd = (d[None, :] - bx[block, None]) / tv[0]
        glo = np.maximum(np.minimum(sc, sd), up_lo[block, None])
        ghi = np.minimum(np.maximum(sc, sd), up_hi[block, None])
        r, k = np.nonzero(ghi > glo)
        parts.append((r + start, glo[r, k], ghi[r, k]))
    prow, plo, phi = (np.concatenate(col) for col in zip(*parts))

    # lower rectangle chords; where the axis crossing falls inside a
    # gap, the first column touching it continues the lower chord
    lows = np.nonzero(low_hi > low_lo)[0]
    lo, hi = low_lo[lows], low_hi[lows]
    in_gap = _cantor.gap_search(bx[lows] + s_y0[lows] * tv[0], comb._gaps_sorted)[1] > 0.0
    s0 = s_y0[prow]
    touch = np.nonzero((np.abs(plo - s0) <= 1e-12) | (np.abs(phi - s0) <= 1e-12))[0]
    touch = touch[np.unique(prow[touch], return_index=True)[1]]
    touch = touch[np.isin(prow[touch], lows[in_gap])]
    at = np.searchsorted(lows, prow[touch])
    lo[at] = _min(lo[at], plo[touch])
    hi[at] = _max(hi[at], phi[touch])
    rest = np.ones(prow.size, dtype=bool)
    rest[touch] = False
    rows = np.concatenate((lows, prow[rest]))
    lo = np.concatenate((lo, plo[rest]))
    hi = np.concatenate((hi, phi[rest]))
    order = np.lexsort((hi, lo, rows))
    return rows[order], lo[order], hi[order]


def apex_slices(cone, heights):
    """Open horizontal sections {x : dist(x, C) < h} of the cone union, one
    per height (all positive), as a flat table (rows, lo, hi)."""
    h = np.asarray(heights, dtype=float)
    gap_lengths = cone._gaps_sorted[:, 1] - cone._gaps_sorted[:, 0]
    lengths = np.sort(gap_lengths)
    counts = lengths.size - np.searchsorted(lengths, 2.0 * h, side="right")
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
    for count in np.unique(counts):
        rows = np.nonzero(counts == count)[0]
        hg = h[rows, None]
        long = gap_lengths > 2.0 * h[rows[0]]
        c, d = cone._gaps_sorted[long, 0], cone._gaps_sorted[long, 1]
        parts.append((np.repeat(rows, count + 1),
                      np.hstack((-hg, d - hg)).ravel(),
                      np.hstack((c + hg, 1.0 + hg)).ravel()))
    rows, lo, hi = (np.concatenate(col) for col in zip(*parts))
    order = np.argsort(rows, kind="stable")
    return rows[order], lo[order], hi[order]


def cone_coordinate_slices(cone, values):
    """Horizontal chords of the cone union at heights values, as the
    package's `coordinate_slices(1, values)` returns them."""
    rows = np.nonzero((values > 0.0) & (values < 1.0))[0]
    sub, lo, hi = apex_slices(cone, values[rows])
    return rows[sub], lo, hi
