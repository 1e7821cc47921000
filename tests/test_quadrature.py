"""Chord grids and the volume/boundary integration rules."""

import numpy as np
import pytest

from dirtrace import calculus, fractal, trace
from dirtrace.errors import UnresolvedSingularity, ValidationError
from dirtrace.fields import get_field
from dirtrace.geometry import Cusp, Direction, Domain, IntervalUnion, Polygon, points_along
from dirtrace.quadrature import (
    ChordGrid,
    QuadratureSpec,
    _offset_cells,
    boundary_integral,
    chord_grid,
    h1_norm,
    norm_theta,
    refined,
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
    assert QuadratureSpec(n_offsets=512).coarse().n_offsets == 256


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
    ts, widths = _offset_cells(sq, theta, lo, hi, 37)
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
        got_t, got_w = _offset_cells(tri, theta, lo, hi, 257)
        assert got_t.tobytes() == np.concatenate(ts).tobytes()
        assert got_w.tobytes() == np.concatenate(ws).tobytes()


def test_refined_pairs_spec_with_its_coarse_grid():
    seen = []

    def evaluate(spec):
        seen.append(spec)
        return (0.25, 2.0, -1.0), (3.0, 0.0, 1e6)

    spec = QuadratureSpec(n_offsets=300, gauss_order=16)
    fine, error, coarse = refined(evaluate, spec, floor=1e-10)
    assert seen == [spec, spec.coarse()]
    assert seen[1].n_offsets == 150 and seen[1].gauss_order == 16
    assert fine == coarse == [0.25, 2.0, -1.0]
    # equal passes leave exactly the floor, and the errors are plain floats
    assert error == [1e-10 * 4.0, 1e-10 * 1.0, 1e-10 * (1e6 + 1.0)]
    assert all(type(e) is float for e in error)
    value, err, _ = refined(lambda s: (1.0 / s.n_offsets, 0.0), spec, floor=0.0)
    assert (value, err) == (1.0 / 300, abs(1.0 / 300 - 1.0 / 150))


def test_crack_square_volume_at_its_slit_end_kinks():
    # offset cells end at the offsets of the slit ends as at the corners
    dom = fractal.named_domain("crack_square")
    res = volume_integral(dom, get_field("one"), QuadratureSpec(n_offsets=4096),
                          Direction.from_angle(0.7))
    assert abs(res.value - 2.0) <= 1e-11
