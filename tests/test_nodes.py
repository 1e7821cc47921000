"""Gauss nodes and per-chord reductions against the row-major oracle.

The package stores node points coordinate-major and reduces per chord in
place; `node_oracle` keeps the plain broadcast expressions.  Every array
and every reported float must agree bit for bit.
"""

import numpy as np
import pytest

import node_oracle
from dirtrace import calculus, fractal, quadrature, trace
from dirtrace.fields import get_field
from dirtrace.geometry import Direction
from dirtrace.quadrature import QuadratureSpec, chord_grid, chord_nodes

PLANAR = [name for name in fractal.DOMAIN_NAMES if fractal.named_domain(name).dim == 2]
DIRECTIONS = [Direction([0.0, 1.0]), Direction.from_angle(0.7)]
N_OFFSETS = 32


def _direction_id(theta):
    return ",".join(f"{c:+.3f}" for c in theta.vector)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("order", [4, 8, 16])
@pytest.mark.parametrize("theta", DIRECTIONS, ids=_direction_id)
@pytest.mark.parametrize("name", PLANAR)
def test_node_pipeline_matches_the_row_major_oracle(name, theta, order):
    grid = chord_grid(fractal.named_domain(name), theta, N_OFFSETS)
    assert grid.n_chords > 0
    pts, s, w = grid.gauss_points(order)
    want_pts, want_s, want_w = node_oracle.chord_nodes(theta, grid.t, grid.alpha,
                                                       grid.lengths, order)
    for got, want in ((pts, want_pts), (s, want_s), (w, want_w)):
        _same(got, want)

    fld = get_field("sincos")
    u, du = trace.node_values(fld, theta, pts, s.shape)
    want_u, want_du = trace.node_values(fld, theta, want_pts, s.shape)
    _same(u, want_u)
    _same(du, want_du)
    for got, want in zip(trace.traces_from_nodes(u, du, s, w, grid),
                         node_oracle.traces_from_nodes(u, du, s, w, grid)):
        _same(got, want)
    _same(quadrature._product_sum(u, du, du, u), node_oracle.product_sum(u, du, du, u))
    _same(quadrature._product_sum(u, u, du, du), node_oracle.square_sum(u, du))


@pytest.mark.parametrize("theta", DIRECTIONS, ids=_direction_id)
def test_node_coordinates_are_contiguous_blocks(theta):
    # each coordinate a field reads, p[:, k] of the flattened nodes, is one
    # contiguous block of memory
    grid = chord_grid(fractal.named_domain("triangle"), theta, N_OFFSETS)
    pts = chord_nodes(theta, grid.t, grid.alpha, grid.lengths, 8)[0]
    flat = pts.reshape(-1, pts.shape[-1])
    assert np.shares_memory(flat, pts)
    for k in range(pts.shape[-1]):
        assert pts[..., k].flags.c_contiguous
        assert flat[:, k].flags.c_contiguous


def _reports():
    """The floats of every public reduction the node pipeline feeds, as
    reprs, on fresh grids."""
    quadrature.clear_cache()
    spec = QuadratureSpec(n_offsets=256, gauss_order=8)
    theta = Direction.from_angle(0.7)
    u, v = get_field("sincos"), get_field("x1x2")
    out = []
    for name in ("square", "triangle", "omega_C", "cusp"):
        dom = fractal.named_domain(name)
        out.append(calculus.integration_by_parts(u, v, dom, theta, spec))
        out.append(trace.trace_inequalities(u, dom, theta, spec))
        out.append(trace.lebesgue_comparisons(u, dom, theta, [0.05, 0.2], spec))
        out.append(quadrature.h1_norm(u, dom, spec, theta))
        out.append(quadrature.volume_integral(dom, u, spec, theta, panel=0.1))
    quadrature.clear_cache()
    return [repr(r) for r in out]


def test_reductions_match_the_row_major_oracle(monkeypatch):
    got = _reports()
    with monkeypatch.context() as m:
        for module, attr, oracle in node_oracle.replacements():
            m.setattr(f"dirtrace.{module}.{attr}", oracle)
        want = _reports()
    assert got == want
