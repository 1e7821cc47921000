"""The Gauss-node pipeline as plain row-major broadcast expressions: an
oracle for the coordinate-major nodes and the in-place chord reductions.

`geometry.points_along` fills one contiguous block per coordinate and
returns a transposed view, `quadrature.chord_nodes` and
`trace._depth_means` build their node parameters in place,
`trace.traces_from_nodes` reuses one scratch buffer and
`quadrature._product_sum` sums into one array.  The functions below build
every intermediate as a fresh row-major array, so the two must agree float
for float.  `replacements()` lists where each one stands in for the
package's own.
"""

from __future__ import annotations

import numpy as np

from dirtrace import _gauss
from dirtrace.geometry import _feet, offset_normal


def points_along(base, s, vec):
    """base + s * vec as an s.shape + (d,) row-major array."""
    lead = (-1,) + (1,) * (s.ndim - 1)
    out = np.empty(s.shape + (base.shape[1],))
    for k in range(base.shape[1]):
        np.multiply(s, vec[k], out=out[..., k])
        out[..., k] += base[:, k].reshape(lead)
    return out


def chord_nodes(theta, t, alpha, length, order):
    x, w = _gauss.nodes(order)
    s = alpha[:, None] + (x + 1.0) * 0.5 * length[:, None]
    return points_along(_feet(t, offset_normal(theta)), s, theta.vector), s, w


def traces_from_nodes(u, du, s, w, grid):
    rise = s - grid.alpha[:, None]
    fall = grid.beta[:, None] - s
    gplus = 0.5 * ((u + rise * du) @ w)
    gminus = 0.5 * ((u - fall * du) @ w)
    return gplus, gminus


def product_sum(a, b, c, d):
    """uu * dv + vv * du of integration by parts; with (u, u, du, du) it is
    u**2 + du**2 of the directional norm (see `square_sum`)."""
    return a * b + c * d


def square_sum(u, du):
    return u**2 + du**2


def depth_means(fld, theta, base, beta, lengths, eps, order):
    x, w = _gauss.nodes(order)
    s = beta[:, None] - (x[None, :] + 1.0) * 0.5 * np.minimum(eps, lengths)[:, None]
    pts = points_along(base, s, theta.vector)
    u = np.asarray(fld.eval_many(pts.reshape(-1, pts.shape[-1])), dtype=float)
    return 0.5 * (u.reshape(s.shape) @ w)


def replacements():
    """(module name, attribute, oracle) for every place the package binds
    one of the functions above."""
    return [
        ("geometry", "points_along", points_along),
        ("quadrature", "points_along", points_along),
        ("trace", "points_along", points_along),
        ("quadrature", "chord_nodes", chord_nodes),
        ("trace", "chord_nodes", chord_nodes),
        ("calculus", "chord_nodes", chord_nodes),
        ("trace", "traces_from_nodes", traces_from_nodes),
        ("calculus", "traces_from_nodes", traces_from_nodes),
        ("trace", "_product_sum", product_sum),
        ("calculus", "_product_sum", product_sum),
        ("trace", "_depth_means", depth_means),
    ]
