"""The Gauss-node builder as plain row-major broadcast expressions: an
oracle for the blocked, coordinate-major nodes of `quadrature.chord_means`.

`geometry.points_along` fills one contiguous block per coordinate and
returns a transposed view, and `quadrature.chord_means` builds its node
parameters in place, a block of at most _BLOCK nodes at a time (a
grid keeps its one-block set for `quadrature.grid_means`), the nodes of
each run of a block along that run's direction.  The functions below
build every node of every chord in one fresh row-major array, a run at a
time.  Both reduce with the package's one reduction,
`quadrature.chord_reduce`, whose sum over a chord depends only on that
chord, not on the batch or block it is computed in; so the two must agree
float for float, and a difference is a difference in the nodes.
`replacements()` lists where each one stands in for the package's own.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from dirtrace import _gauss
from dirtrace.geometry import _feet
from dirtrace.quadrature import chord_reduce


def points_along(base, s, vec):
    """base + s * vec as an s.shape + (d,) row-major array."""
    lead = (-1,) + (1,) * (s.ndim - 1)
    out = np.empty(s.shape + (base.shape[1],))
    for k in range(base.shape[1]):
        np.multiply(s, vec[k], out=out[..., k])
        out[..., k] += base[:, k].reshape(lead)
    return out


def _rows(runs):
    """The runs (Direction, count) as (Direction, rows), end to end."""
    ends = list(accumulate(count for _, count in runs))
    return [(direction, slice(end - count, end))
            for (direction, count), end in zip(runs, ends)]


def chord_nodes(runs, t, alpha, length, order):
    """Points (n, q, d), arc offsets s (n, q) and weights w of all chords,
    each run (Direction, count) along its own direction."""
    x, w = _gauss.nodes(order)
    s = alpha[:, None] + (x + 1.0) * 0.5 * length[:, None]
    pts = np.concatenate([
        points_along(_feet(t[rows], direction.perp_vector), s[rows], direction.vector)
        for direction, rows in _rows(runs)])
    return pts, s, w


def chord_means(runs, t, alpha, length, order, node_arrays):
    pts, s, w = chord_nodes(runs, t, alpha, length, order)
    pieces = [(direction, rows) for direction, rows in _rows(runs) if rows.stop > rows.start]
    return [chord_reduce(v, 0.5 * w) for v in node_arrays(pts, s, slice(None), pieces)]


def replacements():
    """(module name, attribute, oracle) for every place the package binds
    one of the functions above."""
    return [
        ("geometry", "points_along", points_along),
        ("quadrature", "points_along", points_along),
        ("trace", "points_along", points_along),
        ("quadrature", "chord_means", chord_means),
        ("trace", "chord_means", chord_means),
        ("calculus", "chord_means", chord_means),
    ]
