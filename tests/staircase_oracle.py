"""Segment-at-a-time staircase rounds: an oracle for `fractal.staircase_levels`.

This is the original construction, one `searchsorted` pair and one Python
tuple per segment per round.  The package does the same rounds one array
operation at a time; both must give bit-identical breakpoints.
"""

from __future__ import annotations

import numpy as np

from dirtrace.fractal import _prepare_gaps


def _breakpoints(segments, alpha, beta):
    ts = [alpha]
    vs = [0.0]
    value = 0.0
    for c, d, m in segments:
        if c > ts[-1]:
            ts.append(c)
            vs.append(value)
        value += 2.0 ** (-m)
        ts.append(d)
        vs.append(value)
    if beta > ts[-1]:
        ts.append(beta)
        vs.append(value)
    return np.column_stack([np.asarray(ts), np.asarray(vs)])


def staircase_levels(gaps, alpha, beta, p_max, margin=0.0):
    """(breakpoints, p) for every round p = 0 .. p_max."""
    a, b, orig = _prepare_gaps(gaps, alpha, beta, margin)
    lengths = b - a

    segments = [(alpha, beta, 0)]
    out = [(_breakpoints(segments, alpha, beta), 0)]
    for p in range(1, p_max + 1):
        refined = []
        changed = False
        for c, d, m in segments:
            lo = int(np.searchsorted(a, c, side="left"))
            hi = int(np.searchsorted(b, d, side="right"))
            if hi <= lo:
                refined.append((c, d, m))
                continue
            run = lengths[lo:hi]
            best = np.nonzero(run == run.max())[0]
            # Ties resolve toward the smallest original gap index.
            pick = lo + best[np.argmin(orig[lo + best])] if len(best) > 1 else lo + best[0]
            refined.append((c, float(a[pick]), m + 1))
            refined.append((float(b[pick]), d, m + 1))
            changed = True
        segments = refined
        out.append((_breakpoints(segments, alpha, beta), p))
        if not changed:
            final = out[-1][0]
            for q in range(p + 1, p_max + 1):
                out.append((final, q))
            break
    return out
