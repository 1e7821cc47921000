"""Chord grids and the volume/boundary integration rules."""

import dataclasses

import numpy as np
import pytest

from dirtrace import _cantor, _gauss, calculus, fractal, measure, quadrature, trace
from dirtrace.errors import UnresolvedSingularity, ValidationError
from dirtrace.fields import get_field
from dirtrace.geometry import (Cusp, Direction, Domain, IntervalUnion, Polygon,
                               direction_table, hyperplane_range, points_along)
from dirtrace.quadrature import (
    ChordGrid,
    QuadratureSpec,
    _offset_cells,
    boundary_integral,
    chord_grid,
    h1_norm,
    norm_theta,
    offset_estimate,
    volume_integral,
    volume_integrals,
)

E1 = Direction([1.0, 0.0])
SPEC = QuadratureSpec(n_offsets=512, gauss_order=8)


def unit_square() -> Polygon:
    return Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def test_spec_validation():
    with pytest.raises(ValidationError):
        QuadratureSpec(n_offsets=1)
    with pytest.raises(ValidationError):
        QuadratureSpec(gauss_order=5)
    with pytest.raises(ValidationError):
        QuadratureSpec(n_offsets=2**22 + 1)
    assert QuadratureSpec(n_offsets=2).n_offsets == 2


_INTEGER_ARGUMENTS = {
    "n_offsets": lambda v: QuadratureSpec(n_offsets=v),
    "gauss_order": lambda v: QuadratureSpec(gauss_order=v),
    "direction_table": direction_table,
    "bump_tests": lambda v: calculus.bump_tests(fractal.named_domain("square"), v),
    "probes_per_direction": lambda v: trace.consistency_report(
        get_field("x1x2"), fractal.named_domain("square"), direction_table(4),
        QuadratureSpec(n_offsets=64), probes_per_direction=v),
    "level": _cantor.level_intervals,
    "comb_level": lambda v: fractal.named_domain("cantor_comb", level=v),
    "p_max": lambda v: fractal.staircase_levels([(0.25, 0.75)], 0.0, 1.0, v),
}


@pytest.mark.parametrize("value", [256.7, np.float64(256.0), True],
                         ids=["fraction", "whole_float", "bool"])
@pytest.mark.parametrize("name", _INTEGER_ARGUMENTS)
def test_integer_arguments_reject_floats_and_bools_before_any_grid(name, value):
    # a float n_offsets used to reach numpy (a TypeError) on a cold grid and
    # the grid of its integer part on a warm one; True passed as level 1
    quadrature.clear_cache()
    with pytest.raises(ValidationError, match="must be an integer"):
        _INTEGER_ARGUMENTS[name](value)
    assert not quadrature._cache


def _values(obj):
    """repr of every field of a result, its arrays as lists, so that every
    float counts, the sign of a zero included."""
    return repr([v.tolist() if isinstance(v, np.ndarray) else v for v in vars(obj).values()])


def test_results_along_a_direction_do_not_depend_on_a_grid_of_its_zero_flip():
    # direction_table(16)[12] is (-0.0, -1.0): equal to (0.0, -1.0), with
    # other bits, so each has a grid of its own and its own endpoints
    square, fld, spec = fractal.named_domain("square"), get_field("x1x2"), SPEC
    theta, flipped = direction_table(16)[12], Direction([0.0, -1.0])
    assert theta == flipped and theta.vector.tobytes() != flipped.vector.tobytes()

    def results():
        return [_values(measure.measure_atoms(square, theta, spec)),
                _values(trace.trace_field(fld, square, theta, spec)),
                repr(volume_integral(square, fld, spec, theta))]

    quadrature.clear_cache()
    fresh = results()
    quadrature.clear_cache()
    chord_grid(square, flipped, spec.n_offsets)
    assert results() == fresh
    # the flip's grid is another grid
    assert chord_grid(square, flipped, spec.n_offsets).theta.vector.tobytes() == (
        flipped.vector.tobytes())
    quadrature.clear_cache()


def _within_ulps(got, want, ulps) -> bool:
    return bool(np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want))))


@pytest.mark.parametrize("order", quadrature._GAUSS_ORDERS)
def test_gauss_rules_are_the_legendre_rules(order):
    # the literal rules copy numpy's leggauss floats; numpy is unpinned, so
    # they are checked against it to 2 ulp, not bit for bit, and against
    # sympy's 50-digit rule: the nodes to 2 ulp, the weights to 1e-14
    # relative, as leggauss's weights are up to 63 ulp off (numpy 2.4)
    sympy = pytest.importorskip("sympy.integrals.quadrature")
    x, w = _gauss.nodes(order)
    assert x.shape == w.shape == (order,) and not (x.flags.writeable or w.flags.writeable)
    assert np.all(np.diff(x) > 0)
    lx, lw = np.polynomial.legendre.leggauss(order)
    assert _within_ulps(x, lx, 2) and _within_ulps(w, lw, 2)
    ex, ew = (np.array([float(v) for v in vals]) for vals in sympy.gauss_legendre(order, 50))
    assert _within_ulps(x, ex, 2)
    np.testing.assert_allclose(w, ew, rtol=1e-14, atol=0.0)


def test_square_volume_is_exact():
    res = volume_integral(unit_square(), lambda p: np.ones(p.shape[0]), SPEC)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert abs(res.value - 1.0) <= res.error


def test_oblique_direction_volume_is_exact():
    # cells never straddle a chord-length kink, so constant integrands
    # integrate exactly for any direction
    theta = Direction.from_angle(0.6)
    res = volume_integral(unit_square(), lambda p: np.ones(p.shape[0]), SPEC, theta)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_polynomial_golden_value():
    fld = get_field("x1x2")
    res = volume_integral(unit_square(), fld, SPEC)
    assert res.value == pytest.approx(0.25, abs=1e-6)
    assert abs(res.value - 0.25) <= 3.0 * res.error + 1e-12


def test_cusp_volume():
    res = volume_integral(Cusp(), lambda p: np.ones(p.shape[0]),
                          QuadratureSpec(n_offsets=4096, gauss_order=8))
    assert res.value == pytest.approx(0.5, abs=1e-6)


def test_one_dimensional_volume_is_exact():
    dom = fractal.named_domain("cantor_complement", ratio=0.25, level=6,
                               scheme="rho")
    res = volume_integral(dom, lambda p: np.ones(p.shape[0]), SPEC)
    assert res.value == pytest.approx(dom.volume, abs=1e-14)


def test_error_estimate_is_honest():
    # |value - exact| stays within a few error estimates on smooth data
    fld = get_field("sincos")
    exact = (1.0 - np.cos(1.0)) * np.sin(1.0)
    for n in (128, 256, 512):
        spec = QuadratureSpec(n_offsets=n, gauss_order=8)
        res = volume_integral(unit_square(), fld, spec,
                              Direction.from_angle(0.35))
        assert abs(res.value - exact) <= 3.0 * res.error + 1e-12


def test_offset_cells_respect_breakpoints():
    sq = unit_square()
    theta = Direction.from_angle(np.pi / 4.0)
    lo, hi = -np.sqrt(0.5), np.sqrt(0.5)
    ts, widths, _ = _offset_cells(sq, theta, lo, hi, 37)
    assert ts.size == widths.size
    assert float(np.sum(widths)) == pytest.approx(hi - lo, abs=1e-12)
    edges = np.concatenate([ts - 0.5 * widths, ts + 0.5 * widths])
    for cut in sq.offset_breakpoints(theta):
        if lo + 1e-9 < cut < hi - 1e-9:
            assert np.min(np.abs(edges - cut)) < 1e-12


def test_chord_grid_weights_sum_to_volume():
    grid = chord_grid(unit_square(), Direction.from_angle(1.2), 97)
    assert float(np.sum(grid.weights)) == pytest.approx(1.0, abs=1e-12)


def test_chord_grid_cache_reuses_objects():
    a = chord_grid(unit_square(), E1, 64)
    b = chord_grid(unit_square(), E1, 64)
    assert a is b
    assert not a.lengths.flags.writeable


def test_tiny_cusp_chords_are_kept():
    grid = chord_grid(Cusp(), E1, 4096)
    assert grid.lengths.min() < 1e-10
    assert grid.lengths.min() > 0.0
    assert grid.flagged_offsets == 0


def test_panel_subdivision_matches_plain_rule():
    fld = get_field("sincos")
    theta = Direction.from_angle(0.35)
    plain = volume_integral(unit_square(), fld, SPEC, theta)
    panelled = volume_integral(unit_square(), fld, SPEC, theta, panel=0.2)
    assert panelled.value == pytest.approx(plain.value, abs=1e-10)
    assert panelled.error >= 0.0


def test_panel_resolves_narrow_features():
    # a bump much narrower than the chord: the plain rule misses it, the
    # panelled rule with an honest error bound does not
    bump = get_field("bump", cx=0.31, cy=0.47, r=0.05)

    def integrand(p):
        return bump.grad_many(p)[:, 0]

    spec = QuadratureSpec(n_offsets=512, gauss_order=8)
    res = volume_integral(unit_square(), integrand, spec, E1, panel=0.05 / 8.0)
    # grad integrates to zero over the full support
    assert abs(res.value) <= 3.0 * res.error + 1e-12
    assert abs(res.value) < 1e-7


@pytest.mark.parametrize("panel", [None, 0.02])
def test_one_node_set_for_two_integrands(panel):
    # two integrands in one call equal two single calls, bit for bit
    dom = fractal.named_domain("omega_C")
    bump = get_field("bump", cx=0.2, cy=0.5, r=0.1)
    sincos = get_field("sincos")
    theta = Direction.from_angle(0.4)

    def both(p):
        yield bump.grad_many(p)[:, 1]
        yield sincos.eval_many(p)

    got = volume_integrals(dom, both, SPEC, theta, panel=panel)
    want = [volume_integral(dom, lambda p: bump.grad_many(p)[:, 1], SPEC, theta, panel=panel),
            volume_integral(dom, sincos, SPEC, theta, panel=panel)]
    assert repr(got) == repr(want)
    assert volume_integrals(dom, lambda p: iter(()), SPEC, theta, panel=panel) == []


class _Missed(Domain):
    """A planar domain that no line meets: every chord grid is empty."""

    kind = "missed"
    bbox = (np.zeros(2), np.ones(2))

    def contains_many(self, pts):
        return np.zeros(len(pts), dtype=bool)

    def params(self):
        return {}

    def line_slices(self, theta, ts):
        return np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)


def test_empty_grids_sum_to_zero():
    # no reduction special-cases a grid without chords: the array code
    # gives zero sums, and only the float floor remains in the errors
    dom, fld, spec = _Missed(), get_field("x1x2"), QuadratureSpec(n_offsets=16)
    assert chord_grid(dom, E1, 16).n_chords == 0
    floor = 32.0 * np.finfo(float).eps
    for res in (volume_integral(dom, fld, spec, E1), volume_integral(dom, fld, spec, E1, 0.1),
                volume_integrals(dom, lambda p: (fld(p), fld(p)), spec, E1)[1],
                boundary_integral(dom, E1, fld, spec), trace.trace_norm_sq(fld, dom, E1, spec)):
        assert (res.value, res.error) == (0.0, floor)
    assert trace.trace_field(fld, dom, E1, spec).n_atoms == 0
    assert trace.trace_inequalities(fld, dom, E1, spec).slacks == (0.0, 0.0, 0.0)
    ibp = calculus.integration_by_parts(fld, get_field("x1"), dom, E1, spec)
    assert (ibp.lhs, ibp.rhs, ibp.err_lhs, ibp.err_rhs) == (0.0, 0.0, floor, floor)


def test_norms_match_closed_forms():
    sq = unit_square()
    # integral of x^2 + 1 over the square
    assert norm_theta(get_field("x1"), sq, E1, SPEC) == pytest.approx(
        np.sqrt(4.0 / 3.0), abs=1e-9)
    # along e2 the integrand is constant per chord and the offset
    # midpoint rule carries the only (second order) error
    assert norm_theta(get_field("x1"), sq, Direction([0.0, 1.0]), SPEC) == (
        pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-6))
    assert h1_norm(get_field("x1"), sq, SPEC) == pytest.approx(
        np.sqrt(4.0 / 3.0), abs=1e-6)
    assert h1_norm(get_field("x1x2"), sq, SPEC) == pytest.approx(
        np.sqrt(7.0 / 9.0), abs=1e-6)


def test_non_finite_integrand_is_rejected():
    fld = get_field("cusp_pow")  # blows up like y^(-3/4) at the tip

    def worst(p):
        out = fld.eval_many(p)
        out[p[:, 1] <= 0.0] = np.inf
        return out

    sq = Polygon([(0.0, -1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 1.0)])
    with pytest.raises(UnresolvedSingularity):
        volume_integral(sq, worst, SPEC, Direction([0.0, 1.0]))


@pytest.mark.parametrize("shape", [(9,), (9, 4)])
def test_points_along_matches_stacked_coordinates(shape):
    rng = np.random.default_rng(5)
    base = rng.standard_normal((9, 2))
    s = rng.standard_normal(shape) * 10.0
    vec = Direction.from_angle(0.7).vector
    lead = (-1,) + (1,) * (s.ndim - 1)
    stacked = np.stack([base[:, k].reshape(lead) + s * vec[k] for k in range(2)], axis=-1)
    got = points_along(base, s, vec)
    assert got.shape == s.shape + (2,)
    assert got.tobytes() == stacked.tobytes()


def test_offset_cells_match_piecewise_loop():
    # per-piece midpoint grids, concatenated: the construction the cells keep
    tri = fractal.named_domain("triangle")
    for angle in np.linspace(0.0, 6.0, 13):
        theta = Direction.from_angle(angle)
        lo, hi = -0.3, 1.4
        cuts = np.unique(tri.offset_breakpoints(theta))
        cuts = cuts[(cuts > lo + 1e-13 * 1.7) & (cuts < hi - 1e-13 * 1.7)]
        edges = np.concatenate([[lo], cuts, [hi]])
        counts = np.maximum(1, np.rint(257 * np.diff(edges) / (hi - lo)).astype(np.int64))
        ts, ws = [], []
        for left, length, m in zip(edges[:-1], np.diff(edges), counts):
            ts.append(left + (np.arange(m) + 0.5) * (length / m))
            ws.append(np.full(m, length / m))
        got_t, got_w, got_counts = _offset_cells(tri, theta, lo, hi, 257)
        assert got_t.tobytes() == np.concatenate(ts).tobytes()
        assert got_w.tobytes() == np.concatenate(ws).tobytes()
        assert got_counts.tolist() == counts.tolist()


def test_offset_cells_drop_breakpoints_that_differ_by_rounding():
    # at pi/4 the square's vertex projections include both -1.1e-16 and 0.0
    for name in ("square", "triangle"):
        dom = fractal.named_domain(name)
        for k in range(16):
            theta = Direction.from_angle(np.pi * k / 8)
            lo, hi = hyperplane_range(dom, theta)
            ts, widths, _ = _offset_cells(dom, theta, lo, hi, 256)
            assert np.all(widths > 1e-13 * max(hi - lo, 1.0))
            if name == "square" and k == 2:
                assert ts.size == 256


def test_offset_estimate_reads_the_fine_rows_only():
    # rows affine within each segment: the null rule leaves exactly the
    # floor, the nested rules give the fine value back, errors are floats
    rows = np.array([2.0, 4.0, 6.0, 8.0, 10.0, 1.0, -3.0, -7.0])
    counts = np.array([5, 3])
    sums = [(0.25, 3.0, (rows, counts)), (2.0, 0.0, (rows, counts)),
            (-1.0, 1e6, (np.zeros(8), counts))]
    values, errors, coarse = offset_estimate(sums, floor=1e-10)
    assert values == [0.25, 2.0, -1.0]
    assert errors == [1e-10 * 4.0, 1e-10 * 1.0, 1e-10 * (1e6 + 1.0)]
    assert all(type(e) is float for e in errors)
    assert coarse == [(0.25, 0.25), (2.0, 2.0), (-1.0, -1.0)]


def test_null_rule_hand_formula_with_leftover_cells():
    # 7 cells in segments of 5 and 2: interior cells 1, 2, 3 of the first
    # segment only; the n/3 rule takes cells 0-2 as one triple (3 R_1) and
    # keeps cells 3, 4 and the short segment; no group of 9 fits
    r = np.array([1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0])
    want = (abs(r[0] - 2 * r[1] + r[2]) + abs(r[1] - 2 * r[2] + r[3])
            + abs(r[2] - 2 * r[3] + r[4])) / 8.0
    assert want == 22.0 / 8.0
    value = float(np.sum(r))
    (v,), (err,), ((c3, c9),) = offset_estimate(
        [(value, 30.0, (r, np.array([5, 2])))], floor=1e-3)
    assert v == value
    assert err == want + 1e-3 * 31.0
    assert c3 == 3.0 * r[1] + np.sum(r[3:]) == 35.0
    assert c9 == value


@pytest.mark.parametrize("name", ["square", "triangle", "omega_C", "cusp"])
def test_row_sums_add_each_offsets_terms_in_chord_order(name):
    # the rows of a result add its per-chord terms offset by offset, in
    # chord order from 0.0, as a plain loop does
    dom = fractal.named_domain(name)
    theta = Direction.from_angle(0.8)
    grid = chord_grid(dom, theta, 256)
    terms = grid.weights * np.cos(grid.t)
    value, scale, (rows, counts) = grid.sums(terms)
    assert rows.shape == grid.offsets.shape and counts.sum() == grid.offsets.size
    assert value == float(np.sum(terms)) and scale == float(np.sum(np.abs(terms)))
    for i in range(grid.offsets.size):
        assert rows[i] == sum(terms[grid.offset_index == i].tolist())


def test_nested_coarse_values_are_the_coarser_midpoint_rules():
    # along e1 the square is one segment; at 576 offsets the middle cells of
    # each triple (and of each 9-fold cell) are the midpoints of 192 (64)
    spec = QuadratureSpec(n_offsets=576)
    fld = get_field("sincos")
    grid = chord_grid(unit_square(), E1, spec.n_offsets)
    assert grid.segment_counts.tolist() == [576]
    sums = quadrature._rule_sums(grid, lambda p: [fld.eval_many(p)], spec.gauss_order)
    (fine,), (err,), ((c3, c9),) = offset_estimate(sums)
    for n, coarse in ((192, c3), (64, c9)):
        direct = volume_integral(unit_square(), fld, QuadratureSpec(n_offsets=n)).value
        assert coarse == pytest.approx(direct, rel=1e-13, abs=1e-15)
    # smooth rows: the null rule is about 3 times the fine midpoint error,
    # |fine - n/3 rule| / 8 * 3
    assert err == pytest.approx(3.0 * abs(fine - c3) / 8.0, rel=0.05)


def test_divergent_finite_integrand_does_not_settle():
    # 1/(y - 0.5)^2 is finite at every node (no offset midpoint hits 0.5) but
    # its rule grows like n; wherever 0.5 falls in the n/3 cells, one of the
    # two levels disagrees
    def pole(p):
        return 1.0 / (p[:, 1] - 0.5) ** 2

    for n in (256, 384, 1024, 4096):
        with pytest.raises(UnresolvedSingularity, match="fails to settle"):
            volume_integral(unit_square(), pole, QuadratureSpec(n_offsets=n), E1)


def test_divergence_outside_the_first_level_is_caught_by_the_second():
    # at 256 offsets 0.5 sits a sixth into an n/3 cell and the n/3 rule
    # stays within 40% of the fine one; the n/3 - n/9 check raises
    spec = QuadratureSpec(n_offsets=256)
    sums = quadrature._rule_sums(chord_grid(unit_square(), E1, spec.n_offsets),
                                 lambda p: [1.0 / (p[:, 1] - 0.5) ** 2], spec.gauss_order)
    (fine,), _, ((c3, c9),) = offset_estimate(sums)
    assert abs(fine - c3) < 0.4 * abs(fine)
    assert abs(c3 - c9) > 0.4 * abs(c3)


def _counted(fld, points, grads):
    def wrapper(fn, calls):
        def inner(pts):
            calls.append(len(pts))
            return fn(pts)
        return inner
    return dataclasses.replace(fld, _eval=wrapper(fld._eval, points),
                               _grad=wrapper(fld._grad, grads))


def test_every_estimate_reads_one_grid_and_one_node_set(monkeypatch):
    # each of the nine estimating callers builds its grids at spec's offset
    # count only (reflection_check one per sense, the consistency report one
    # per direction) and, where its value is one rule, evaluates u (and its
    # gradient) once per Gauss node of that grid; the Lebesgue comparison
    # also reads u at its depth nodes, but its gradient once, on the grid
    built = []

    class CountedGrid(quadrature.ChordGrid):
        def __init__(self, domain, theta, n_offsets):
            built.append(n_offsets)
            super().__init__(domain, theta, n_offsets)

    monkeypatch.setattr(quadrature, "ChordGrid", CountedGrid)
    dom, theta, spec = fractal.named_domain("omega_C"), Direction.from_angle(0.8), SPEC
    directions = [theta, Direction.from_angle(2.1), Direction.from_angle(3.9)]
    u, v = get_field("x1x2"), get_field("sincos")
    nodes = 1  # one u (or gradient) point per Gauss node of the grid
    gradient = 2  # one gradient call, on the Gauss nodes of the grid
    calls = [
        (lambda f: volume_integral(dom, f, spec, theta), 1, nodes),
        (lambda f: boundary_integral(dom, theta, f, spec), 1, None),
        (lambda f: trace.trace_norm_sq(f, dom, theta, spec), 1, nodes),
        (lambda f: trace.trace_inequalities(f, dom, theta, spec), 1, nodes),
        (lambda f: trace.lebesgue_comparison(f, dom, theta, 0.01, spec), 1, gradient),
        (lambda f: calculus.integration_by_parts(f, v, dom, theta, spec), 1, nodes),
        (lambda f: calculus.paired_identity(f, v, dom, theta, spec), 1, nodes),
        (lambda f: measure.reflection_check(dom, theta, lambda p: p[:, 1] > 0.0, spec), 2,
         None),
        (lambda f: trace.consistency_report(f, dom, directions, spec, probes_per_direction=8),
         len(directions), None),
    ]
    for call, grids, per_node in calls:
        quadrature.clear_cache()
        built.clear()
        points, grads = [], []
        call(_counted(u, points, grads))
        assert built == [spec.n_offsets] * grids
        n_nodes = chord_grid(dom, theta, spec.n_offsets).n_chords * spec.gauss_order
        if per_node == nodes:
            assert set(points + grads) == {n_nodes}
        elif per_node == gradient:
            assert grads == [n_nodes]
    quadrature.clear_cache()


def test_crack_square_volume_at_its_slit_end_kinks():
    # offset cells end at the offsets of the slit ends as at the corners
    dom = fractal.named_domain("crack_square")
    res = volume_integral(dom, get_field("one"), QuadratureSpec(n_offsets=4096),
                          Direction.from_angle(0.7))
    assert abs(res.value - 2.0) <= 1e-11


# ROADMAP item 1's honesty matrix on the kinds whose chords carry the whole
# volume: 16 directions pi k / 16 + 0.013 at 256, 1024 and 4096 offsets
_MATRIX_KINDS = ("square", "triangle", "crack_square", "omega_C", "cusp", "bicone",
                 "disk_minus_cantor")


@pytest.mark.parametrize("name", _MATRIX_KINDS)
def test_volume_error_bars_are_honest_and_not_inflated(name):
    dom, one = fractal.named_domain(name), get_field("one")
    ratios = []
    for ny in (256, 1024, 4096):
        spec = QuadratureSpec(n_offsets=ny, gauss_order=8)
        for k in range(16):
            res = volume_integral(dom, one, spec, Direction.from_angle(np.pi * k / 16 + 0.013))
            diff = abs(res.value - dom.volume)
            assert diff <= res.error, (ny, k, diff, res.error)
            if diff:
                ratios.append(res.error / diff)
    # honest by estimate, not by inflation
    assert np.median(ratios) <= 100.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the level-6 comb's chords miss "
                   "the gaps below its level, its volume does not, and that tail is in "
                   "no error bar")
def test_comb_volume_error_bar_misses_the_tail_below_its_level():
    dom = fractal.named_domain("cantor_comb", level=6)
    res = volume_integral(dom, get_field("one"), QuadratureSpec(n_offsets=256),
                          Direction.from_angle(0.013))
    assert abs(res.value - dom.volume) <= res.error
