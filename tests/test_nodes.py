"""Gauss nodes and per-chord reductions against the row-major oracle.

The package builds node points coordinate-major, a block of chords at a
time; `node_oracle` builds all of them in one row-major array.  Both
reduce with `quadrature.chord_reduce`, so every array and every reported
float must agree bit for bit, and a chord's value must not depend on the
batch or block it is computed in.
"""

import numpy as np
import pytest

import node_oracle
from dirtrace import calculus, fractal, quadrature, trace
from dirtrace.errors import ValidationError
from dirtrace.fields import get_field
from dirtrace.geometry import Direction, IntervalUnion, Polygon
from dirtrace.quadrature import QuadratureSpec, chord_grid, chord_means

PLANAR = [name for name in fractal.DOMAIN_NAMES if fractal.named_domain(name).dim == 2]
DIRECTIONS = [Direction([0.0, 1.0]), Direction.from_angle(0.7)]
N_OFFSETS = 32


def _direction_id(theta):
    return ",".join(f"{c:+.3f}" for c in theta.vector)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _blocks(theta, grid, order):
    """(rows, points, s) of every block `chord_means` builds on the grid."""
    out = []
    chord_means([(theta, grid.n_chords)], grid.t, grid.alpha, grid.lengths, order,
                lambda pts, s, rows, runs: out.append((rows, pts, s)) or ())
    return out


def _dderiv_terms(fld, theta, pts, s, alpha, beta):
    """The exit and entry terms of `trace._trace_terms`, with du from
    `ScalarField.dderiv_many` along theta on the whole block."""
    flat = pts.reshape(-1, pts.shape[-1])
    u = fld.eval_many(flat).reshape(s.shape)
    du = fld.dderiv_many(flat, theta).reshape(s.shape)
    return [(s - alpha[:, None]) * du + u, u - (beta[:, None] - s) * du]


@pytest.mark.parametrize("order", [4, 8, 16])
@pytest.mark.parametrize("theta", DIRECTIONS, ids=_direction_id)
@pytest.mark.parametrize("name", PLANAR)
def test_node_pipeline_matches_the_row_major_oracle(name, theta, order, monkeypatch):
    grid = chord_grid(fractal.named_domain(name), theta, N_OFFSETS)
    # five or six blocks, the last one short
    block = grid.n_chords // 5 + 1
    assert block > 3 and grid.n_chords % block
    monkeypatch.setattr(quadrature, "_BLOCK", block)
    blocks = _blocks(theta, grid, order)
    assert [rows.start for rows, _, _ in blocks] == list(range(0, grid.n_chords, block))
    runs = [(theta, grid.n_chords)]
    want_pts, want_s, _ = node_oracle.chord_nodes(runs, grid.t, grid.alpha, grid.lengths,
                                                  order)
    _same(np.concatenate([pts for _, pts, _ in blocks]), want_pts)
    _same(np.concatenate([s for _, _, s in blocks]), want_s)

    fld = get_field("sincos")
    alpha, beta = grid.alpha, grid.beta

    def node_arrays(pts, s, rows, runs):
        return trace._trace_terms(fld, runs, pts, s, alpha[rows], beta[rows])

    def reference(pts, s, rows, runs):
        assert runs == [(theta, slice(0, grid.n_chords))]
        return _dderiv_terms(fld, theta, pts, s, alpha, beta)

    args = (runs, grid.t, alpha, grid.lengths, order)
    oracle = node_oracle.chord_means(*args, reference)
    for got, want in zip(chord_means(*args, node_arrays), oracle, strict=True):
        _same(got, want)


@pytest.mark.parametrize("theta", DIRECTIONS, ids=_direction_id)
def test_node_coordinates_are_contiguous_blocks(theta, monkeypatch):
    # each coordinate a field reads, p[:, k] of the flattened nodes, is one
    # contiguous block of memory
    monkeypatch.setattr(quadrature, "_BLOCK", 5)
    grid = chord_grid(fractal.named_domain("triangle"), theta, N_OFFSETS)
    for _, pts, _ in _blocks(theta, grid, 8):
        flat = pts.reshape(-1, pts.shape[-1])
        assert np.shares_memory(flat, pts)
        for k in range(pts.shape[-1]):
            assert pts[..., k].flags.c_contiguous
            assert flat[:, k].flags.c_contiguous


@pytest.mark.parametrize("order", [8, 16])
@pytest.mark.parametrize("theta", DIRECTIONS, ids=_direction_id)
@pytest.mark.parametrize("name", PLANAR)
def test_exit_traces_do_not_depend_on_the_batch(name, theta, order, monkeypatch):
    # the exit trace of a chord, as consistency reports and directional_trace
    # compute it, is the float of the grid's trace field, in any subset of
    # chords and in any block size
    grid = chord_grid(fractal.named_domain(name), theta, N_OFFSETS)
    fld = get_field("sincos")
    want = trace.chord_trace_values(fld, grid, order)[0]
    block = max(16, grid.n_chords // 5)
    monkeypatch.setattr(quadrature, "_BLOCK", block)
    t, alpha, beta = grid.t, grid.alpha, grid.beta
    _same(trace._chord_traces(fld, theta, t, alpha, beta, order)[0], want)
    rng = np.random.default_rng(11)
    for size in (1, 3, 7, block - 1, block + 1):
        for _ in range(4):
            sub = rng.choice(grid.n_chords, size=size, replace=False)
            got = trace._chord_traces(fld, theta, t[sub], alpha[sub], beta[sub], order)[0]
            _same(got, want[sub])


# axis, oblique and reversed directions, and the chords each run takes from
# its grid: all, one, none, every other one
RUNS = [(Direction([0.0, 1.0]), slice(None)), (Direction.from_angle(0.7), slice(0, 1)),
        (Direction([-1.0, 0.0]), slice(0, 0)), (-Direction.from_angle(0.7), slice(None)),
        (Direction.from_angle(2.3), slice(None, None, 2)), (Direction([1.0, 0.0]), slice(None))]


def _run_chords(dom):
    """The runs (Direction, count) of RUNS on dom and their chords' t,
    alpha, beta, end to end."""
    grids = [(theta, chord_grid(dom, theta, N_OFFSETS), take) for theta, take in RUNS]
    runs = [(theta, grid.t[take].size) for theta, grid, take in grids]
    t, alpha, beta = (np.concatenate([getattr(grid, name)[take] for _, grid, take in grids])
                      for name in ("t", "alpha", "beta"))
    return runs, t, alpha, beta


@pytest.mark.parametrize("order", [4, 8, 16])
@pytest.mark.parametrize("name", PLANAR)
def test_run_form_matches_one_call_per_direction(name, order, monkeypatch):
    # chord_means over runs of chords, each along its own direction, builds
    # every node and every mean float for float as one call per run does,
    # and takes du as dderiv_many does
    runs, t, alpha, beta = _run_chords(fractal.named_domain(name))
    counts = [count for _, count in runs]
    assert counts[1] == 1 and counts[2] == 0
    ends = np.cumsum(counts)
    # three or four blocks, every boundary inside a run
    block = next(b for b in range(ends[-1] // 3 + 1, ends[-1])
                 if not set(range(b, ends[-1], b)) & set(ends.tolist()))
    assert block < ends[-1] // 2
    monkeypatch.setattr(quadrature, "_BLOCK", block)
    fld = get_field("sincos")
    got = []

    def batched(pts, s, rows, pieces):
        got.append((rows, pts, s, pieces))
        return trace._trace_terms(fld, pieces, pts, s, alpha[rows], beta[rows])

    means = chord_means(runs, t, alpha, beta - alpha, order, batched)
    assert [rows.start for rows, _, _, _ in got] == list(range(0, ends[-1], block))
    # the runs of each block, the empty one left out, cover the block
    pieces = [(theta, rows.start + piece.start, rows.start + piece.stop)
              for rows, _, _, block_pieces in got for theta, piece in block_pieces]
    assert [lo for _, lo, _ in pieces] == [0] + [hi for _, _, hi in pieces[:-1]]
    assert sum(hi - lo for _, lo, hi in pieces) == ends[-1]

    want_pts, want_s, want_means = [], [], []
    for (theta, count), end in zip(runs, ends):
        mine = slice(end - count, end)
        one = []

        def single(pts, s, rows, runs, theta=theta, mine=mine, one=one):
            one.append((pts, s))
            return _dderiv_terms(fld, theta, pts, s, alpha[mine][rows], beta[mine][rows])

        want_means.append(chord_means([(theta, count)], t[mine], alpha[mine],
                                      beta[mine] - alpha[mine], order, single))
        want_pts += [pts for pts, _ in one]
        want_s += [s for _, s in one]
    _same(np.concatenate([pts for _, pts, _, _ in got]), np.concatenate(want_pts))
    _same(np.concatenate([s for _, _, s, _ in got]), np.concatenate(want_s))
    for k, got_means in enumerate(means):
        _same(got_means, np.concatenate([m[k] for m in want_means]))

    oracle = node_oracle.chord_nodes(runs, t, alpha, beta - alpha, order)
    _same(np.concatenate([pts for _, pts, _, _ in got]), oracle[0])
    args = (runs, t, alpha, beta - alpha, order,
            lambda pts, s, rows, pieces: trace._trace_terms(fld, pieces, pts, s, alpha[rows],
                                                            beta[rows]))
    for got_means, want in zip(means, node_oracle.chord_means(*args), strict=True):
        _same(got_means, want)


def _panel_reports(domain, theta, spec):
    f = get_field("sincos" if domain.dim == 2 else "sin1")
    return [repr(quadrature.volume_integral(domain, f, spec, theta, panel=0.1)),
            repr(quadrature.volume_integral(domain, f, spec, theta))]


@pytest.mark.parametrize("domain, theta, n_offsets", [
    (Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]), Direction.from_angle(0.3),
     4096),
    (IntervalUnion([(-0.2, 0.9)]), Direction([1.0]), 2),
], ids=["square_34897_panels", "one_chord"])
def test_block_size_changes_no_float(domain, theta, n_offsets, monkeypatch):
    spec = QuadratureSpec(n_offsets=n_offsets, gauss_order=16)
    grid = chord_grid(domain, theta, n_offsets)
    if domain.dim == 2:
        panels = np.maximum(1, np.ceil(grid.lengths / 0.1)).sum()
        assert panels == 34897 and panels % quadrature._BLOCK
    else:
        assert grid.n_chords == 1
    want = _panel_reports(domain, theta, spec)
    for block in (3, 4096, 2**40):
        monkeypatch.setattr(quadrature, "_BLOCK", block)
        assert _panel_reports(domain, theta, spec) == want


def _estimating_reports(domain, theta, spec):
    u, v = get_field("x1x2"), get_field("sincos")
    return [repr(r) for r in (
        quadrature.boundary_integral(domain, theta, v, spec),
        trace.trace_norm_sq(v, domain, theta, spec),
        trace.trace_inequalities(v, domain, theta, spec),
        trace.lebesgue_comparison(v, domain, theta, 0.01, spec),
        calculus.integration_by_parts(u, v, domain, theta, spec),
        calculus.paired_identity(u, v, domain, theta, spec))]


@pytest.mark.parametrize("name", ["omega_C", "cusp"])
def test_block_size_changes_no_error_bar(name, monkeypatch):
    # values and their offset-rule errors, whose row sums add the chord
    # terms offset by offset
    dom, theta = fractal.named_domain(name), Direction.from_angle(0.8)
    spec = QuadratureSpec(n_offsets=512)
    want = _estimating_reports(dom, theta, spec)
    for block in (7, 4096):
        monkeypatch.setattr(quadrature, "_BLOCK", block)
        assert _estimating_reports(dom, theta, spec) == want


def _bad_order_calls():
    sq = fractal.named_domain("square")
    theta = Direction.from_angle(0.3)
    z = chord_grid(sq, theta, 64).endpoint_plus[20]
    fld = get_field("x1x2")
    return {
        "directional_trace": lambda o: trace.directional_trace(fld, sq, theta, z, order=o),
        "lebesgue_average": lambda o: trace.lebesgue_average(fld, sq, theta, z, 0.1, order=o),
        "nu_value": lambda o: calculus.nu_value(fld, 2, o),
        "nu_sequence": lambda o: calculus.nu_sequence(fld, 3, 1.0, o),
        "mirror_gap": lambda o: calculus.mirror_gap(fld, 2, o),
    }


@pytest.mark.parametrize("order", [1, 2, 0, -1, True, 32, 8.0])
@pytest.mark.parametrize("entry", sorted(_bad_order_calls()))
def test_gauss_order_outside_the_rules_is_rejected(entry, order):
    call = _bad_order_calls()[entry]
    call(8)
    with pytest.raises(ValidationError, match="gauss_order"):
        call(order)


def _reports():
    """The floats of every public reduction the node builder feeds, as
    reprs, on fresh grids."""
    quadrature.clear_cache()
    spec = QuadratureSpec(n_offsets=256, gauss_order=8)
    theta = Direction.from_angle(0.7)
    u, v = get_field("sincos"), get_field("x1x2")
    out = []
    for name in ("square", "triangle", "omega_C", "cusp"):
        dom = fractal.named_domain(name)
        out.append(calculus.integration_by_parts(u, v, dom, theta, spec))
        out.append(calculus.paired_identity(u, v, dom, theta, spec))
        out.append(trace.trace_inequalities(u, dom, theta, spec))
        out.append(trace.lebesgue_comparisons(u, dom, theta, [0.05, 0.2], spec))
        out.append(quadrature.h1_norm(u, dom, spec, theta))
        out.append(quadrature.volume_integral(dom, u, spec, theta, panel=0.1))
        z = chord_grid(dom, theta, 256).endpoint_plus[100]
        out.append(trace.directional_trace(u, dom, theta, z))
        out.append(trace.consistency_report(u, dom, [theta, Direction([0.0, 1.0])], spec,
                                            probes_per_direction=40).to_json())
    out.extend(calculus.nu_value(get_field("bump", cx=0.4, cy=0.1, r=0.6), n, 16, mirror)
               for n in range(6) for mirror in (False, True))
    quadrature.clear_cache()
    return [repr(r) for r in out]


def test_reductions_match_the_row_major_oracle(monkeypatch):
    got = _reports()
    with monkeypatch.context() as m:
        for module, attr, oracle in node_oracle.replacements():
            m.setattr(f"dirtrace.{module}.{attr}", oracle)
        want = _reports()
    assert got == want

