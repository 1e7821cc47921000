"""Scan-and-bisect chords: an independent oracle for the closed forms.

Membership is sampled along each line at a fixed fraction of the
diameter, and every sign change is bisected down to EPS_SCAN.  Features
thinner than the sampling step can be missed, so the oracle bounds the
chord count from below and, where the counts agree, pins the endpoints
to within EPS_SCAN.
"""

from __future__ import annotations

import math

import numpy as np

# Endpoint accuracy of the bisection.
EPS_SCAN = 1e-7
# Membership sampling step along a line, as a fraction of the diameter.
SCAN_STEP_FRACTION = 1e-4
# Membership points per batch.
_CHUNK_POINTS = 2_000_000


def scan_slices(domain, theta, ts):
    """Flat chord table (rows, alpha, beta) of the lines at offsets ts."""
    tv = theta.vector
    p = theta.perp_vector
    ts = np.asarray(ts, dtype=float)
    lo, hi = domain.bbox
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
    proj = corners @ tv
    step = SCAN_STEP_FRACTION * domain.diameter
    smin = float(proj.min()) - 2.0 * step
    smax = float(proj.max()) + 2.0 * step
    ns = int(math.ceil((smax - smin) / step)) + 1
    s = np.linspace(smin, smax, ns)
    n_iter = int(math.ceil(math.log2(max(s[1] - s[0], EPS_SCAN) / EPS_SCAN))) + 2

    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
    rows_per_chunk = max(1, _CHUNK_POINTS // ns)
    for start in range(0, ts.size, rows_per_chunk):
        tc = ts[start:start + rows_per_chunk]
        pts = tc[:, None, None] * p[None, None, :] + s[None, :, None] * tv[None, None, :]
        mask = domain.contains_many(pts.reshape(-1, 2)).reshape(tc.size, ns)
        mask[:, 0] = False
        mask[:, -1] = False
        delta = np.diff(mask.astype(np.int8), axis=1)
        rr, cc = np.nonzero(delta)
        kind = delta[rr, cc]  # +1 enter, -1 exit
        pin = np.where(kind > 0, s[cc + 1], s[cc])
        pout = np.where(kind > 0, s[cc], s[cc + 1])
        tvals = tc[rr]
        for _ in range(n_iter):
            mid = 0.5 * (pin + pout)
            mpts = tvals[:, None] * p[None, :] + mid[:, None] * tv[None, :]
            ins = domain.contains_many(mpts)
            pin = np.where(ins, mid, pin)
            pout = np.where(ins, pout, mid)
        # transitions come out ordered by line, then s; on every line
        # enters and exits alternate, starting with an enter
        enter = kind > 0
        parts.append((rr[enter] + start, pout[enter], pout[~enter]))
    rows, alpha, beta = (np.concatenate(col) for col in zip(*parts))
    return rows, alpha, beta
