"""Earlier Cantor chord algorithms: oracles for the shared band cut.

`comb_line_slices` builds the oblique chords of a Cantor comb per gap
column above the axis, in blocks of (line, gap) cells, and joins the
lower rectangle chord with the column that touches it when the axis
crossing falls inside a gap.  `apex_slices` lays out the horizontal
sections {x : dist(x, C) < h} of a cone union once per count of gaps
longer than 2h.  `axis_slices` holds the axis closed forms of the cusp,
the cone union, the bicone and the comb as sections of the moving
coordinate, negated and reversed along -E1 and -E2.  The package cuts
every line of these kinds from a band with `geometry._band_minus` or reads
it off the moving coordinate; the chords must be bit-identical, signs of
zero included, except where a cone union's triangle shrinks to its apex
on the line: the package splits the chord at that point, which membership
rejects, and `apex_slices` keeps it whole.
"""

from __future__ import annotations

import numpy as np

from dirtrace import _cantor
from dirtrace.geometry import Bicone, CantorComb, ConeUnionCantor, Cusp


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


def _coordinate_slices(dom, fixed_axis, values):
    """Sections (rows, lo, hi) of the moving coordinate on the axis lines
    where coordinate `fixed_axis` is values[i], sorted by (row, lo)."""
    if isinstance(dom, Bicone):
        if fixed_axis == 1:
            return _coordinate_slices(dom.upper, 1, np.abs(values))
        # -1 < y < 1 less the closed gap |y| <= dist(x, C)
        d = dom.upper._dist(values)
        rows = np.nonzero(d < 1.0)[0]
        ones = np.ones(rows.size)
        return (np.repeat(rows, 2), np.column_stack((-ones, d[rows])).ravel(),
                np.column_stack((-d[rows], ones)).ravel())
    if isinstance(dom, ConeUnionCantor):
        if fixed_axis == 1:
            rows = np.nonzero((values > 0.0) & (values < 1.0))[0]
            sub, lo, hi = apex_slices(dom, values[rows])
            return rows[sub], lo, hi
        d = dom._dist(values)
        rows = np.nonzero(d < 1.0)[0]
        return rows, d[rows], np.ones(rows.size)
    if isinstance(dom, CantorComb):
        gaps = dom._gaps_sorted
        if fixed_axis == 1:
            below = np.nonzero((values > -1.0) & (values < 0.0))[0]
            above = np.nonzero((values >= 0.0) & (values < 1.0))[0]
            rows = np.concatenate((below, np.repeat(above, gaps.shape[0])))
            lo = np.concatenate((np.zeros(below.size), np.tile(gaps[:, 0], above.size)))
            hi = np.concatenate((np.ones(below.size), np.tile(gaps[:, 1], above.size)))
            order = np.argsort(rows, kind="stable")
            return rows[order], lo[order], hi[order]
        rows = np.nonzero((values > 0.0) & (values < 1.0))[0]
        column = _cantor.gap_search(values[rows], gaps)[1] > dom._rounding
        return rows, np.full(rows.size, -1.0), np.where(column, 1.0, 0.0)
    assert isinstance(dom, Cusp)
    # Python's float pow, as the package rounds
    if fixed_axis == 1:
        rows = np.nonzero((values > 0.0) & (values < 1.0))[0]
        w = np.array([v**3 for v in values[rows].tolist()])
        return rows, -w, w
    rows = np.nonzero((values > -1.0) & (values < 1.0))[0]
    lo = np.array([abs(v) ** (1.0 / 3.0) for v in values[rows].tolist()])
    keep = lo < 1.0
    return rows[keep], lo[keep], np.ones(np.count_nonzero(keep))


def axis_slices(dom, theta, ts):
    """Flat chord table (rows, lo, hi), before trimming, of a cusp, cone
    union, bicone or comb along an axis direction theta: the sections of
    the moving coordinate at the offsets ts, whose lines hold the other
    coordinate at ts, and along a negative direction each line's sections
    negated and in reverse order."""
    moving = 0 if theta.vector[0] != 0.0 else 1
    rows, lo, hi = _coordinate_slices(dom, 1 - moving, np.asarray(ts, dtype=float))
    if theta.vector[moving] > 0.0:
        return rows, lo, hi
    order = np.lexsort((-np.arange(rows.size), rows))
    return rows[order], -hi[order], -lo[order]
