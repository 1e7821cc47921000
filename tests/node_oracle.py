"""The Gauss-node builder as plain row-major broadcast expressions: an
oracle for the blocked, coordinate-major nodes of `quadrature.chord_means`.

`geometry.points_along` fills one contiguous block per coordinate and
returns a transposed view, and `quadrature.chord_means` builds its node
parameters in place, _BLOCK chords at a time.  The functions below build
every node of every chord in one fresh row-major array.  Both reduce with
the package's one reduction, `quadrature.chord_reduce`, whose sum over a
chord depends only on that chord, not on the batch or block it is
computed in; so the two must agree float for float, and a difference is
a difference in the nodes.  `replacements()` lists where each one stands
in for the package's own.
"""

from __future__ import annotations

import numpy as np

from dirtrace import _gauss
from dirtrace.geometry import _feet, offset_normal
from dirtrace.quadrature import chord_reduce


def points_along(base, s, vec):
    """base + s * vec as an s.shape + (d,) row-major array."""
    lead = (-1,) + (1,) * (s.ndim - 1)
    out = np.empty(s.shape + (base.shape[1],))
    for k in range(base.shape[1]):
        np.multiply(s, vec[k], out=out[..., k])
        out[..., k] += base[:, k].reshape(lead)
    return out


def chord_nodes(theta, t, alpha, length, order):
    """Points (n, q, d), arc offsets s (n, q) and weights w of all chords."""
    x, w = _gauss.nodes(order)
    s = alpha[:, None] + (x + 1.0) * 0.5 * length[:, None]
    return points_along(_feet(t, offset_normal(theta)), s, theta.vector), s, w


def chord_means(theta, t, alpha, length, order, node_arrays):
    pts, s, w = chord_nodes(theta, t, alpha, length, order)
    return [chord_reduce(v, 0.5 * w) for v in node_arrays(pts, s, slice(None))]


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
