"""Integration by parts, paired boundary products, stage functionals."""

import numpy as np
import pytest

from dirtrace import calculus, quadrature, trace
from dirtrace.fields import get_field
from dirtrace.geometry import Bicone, Cusp, Direction, Polygon
from dirtrace.quadrature import QuadratureSpec, h1_norm

E1 = Direction([1.0, 0.0])
SPEC = QuadratureSpec(n_offsets=512, gauss_order=8, mc_samples=100, seed=0)


def unit_square() -> Polygon:
    return Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def test_ibp_golden_value_against_symbolic_oracle():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    u, v = x * y, x + y
    lhs = sympy.integrate(u * sympy.diff(v, x) + v * sympy.diff(u, x),
                          (x, 0, 1), (y, 0, 1))
    assert lhs == sympy.Rational(5, 6)

    rep = calculus.integration_by_parts(get_field("x1x2"), get_field("x1px2"),
                                        unit_square(), E1, SPEC)
    assert rep.lhs == pytest.approx(5.0 / 6.0, abs=1e-6)
    assert rep.rhs == pytest.approx(5.0 / 6.0, abs=1e-6)
    assert rep.residual <= 1e-9
    assert rep.passes()


def test_ibp_oblique_direction():
    theta = Direction.from_angle(0.85)
    rep = calculus.integration_by_parts(get_field("sincos"), get_field("x1"),
                                        unit_square(), theta, SPEC)
    assert rep.passes(3.0)
    payload = rep.to_json()
    assert set(payload) >= {"lhs", "rhs", "residual", "theta"}


def test_ibp_on_cusp():
    rep = calculus.integration_by_parts(get_field("x1"), get_field("x2"),
                                        Cusp(), E1, SPEC)
    assert rep.passes(3.0)


def test_paired_identity_golden():
    rep = calculus.paired_identity(get_field("x1x2"), get_field("x1px2"),
                                   unit_square(), E1, SPEC)
    assert rep.volume_pairing == pytest.approx(5.0 / 6.0, abs=1e-6)
    assert rep.bracket == pytest.approx(5.0 / 6.0, abs=1e-6)
    assert rep.passes(3.0)


def test_error_fields_are_plain_floats():
    u, v = get_field("x1x2"), get_field("sin1")
    theta = Direction.from_angle(0.35)
    reports = [
        quadrature.volume_integral(unit_square(), u, SPEC, theta),
        quadrature.boundary_integral(unit_square(), theta, u, SPEC),
        trace.trace_norm_sq(u, unit_square(), theta, SPEC),
        trace.lebesgue_comparison(u, unit_square(), theta, 0.01, SPEC),
        calculus.integration_by_parts(u, v, unit_square(), theta, SPEC),
        calculus.paired_identity(u, v, unit_square(), theta, SPEC),
    ]
    for report in reports:
        assert "np.float64" not in repr(report)


def test_paired_boundary_field_products():
    gu = calculus.paired_boundary_field(get_field("x1x2"), unit_square(), E1, SPEC)
    gv = calculus.paired_boundary_field(get_field("x1px2"), unit_square(), E1, SPEC)
    # G+ values at x = 1 are y and 1 + y; G- values are 0 and y
    assert gu.inner_plus(gv) == pytest.approx(1.0 / 2.0 + 1.0 / 3.0, abs=1e-6)
    assert gu.inner_minus(gv) == pytest.approx(0.0, abs=1e-12)


def test_stage_functional_of_constant_is_exact():
    fld = get_field("one")
    for n in (0, 1, 5, 9):
        assert calculus.nu_value(fld, n) == 1.0


def test_stage_functional_of_height_tracks_stage():
    fld = get_field("x2")
    for n in (0, 2, 4):
        val = calculus.nu_value(fld, n)
        assert val == pytest.approx(0.5 * 3.0 ** (-n), rel=1e-10)
        assert calculus.mirror_gap(fld, n) == pytest.approx(3.0 ** (-n), rel=1e-10)


def test_mirror_gap_of_jump_field_is_two():
    fld = get_field("sign_y")
    for n in range(6):
        assert calculus.mirror_gap(fld, n) == pytest.approx(2.0, abs=1e-12)


def test_nu_sequence_bounds():
    sq = unit_square()
    for name in ("one", "x1", "x1x2"):
        fld = get_field(name)
        seq = calculus.nu_sequence(fld, 8, h1_norm(fld, sq, SPEC))
        assert seq.bounds_hold
        assert seq.values.size == 9
        assert seq.tail_bound > 0.0
    ones = calculus.nu_sequence(get_field("one"), 8, 1.0)
    np.testing.assert_array_equal(ones.values, 1.0)


def test_bump_tests_sit_inside_the_domain():
    dom = Bicone(level=8)
    tests = calculus.bump_tests(dom, 16)
    assert len(tests) == 16
    for t in tests:
        cx, cy, r = t.params["cx"], t.params["cy"], t.params["r"]
        ring = np.stack([
            np.array([cx, cy]) + r * np.array([np.cos(a), np.sin(a)])
            for a in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        ])
        assert np.all(dom.contains_many(ring))


def test_variational_residuals_vanish_for_solutions():
    dom = Bicone(level=8)
    tests = calculus.bump_tests(dom, 4)
    spec = QuadratureSpec(n_offsets=256, gauss_order=8, mc_samples=100, seed=0)
    for name in ("x2", "sign_y"):
        rep = calculus.variational_residual(get_field(name), dom, tests, spec)
        assert rep.passes(3.0)
        assert rep.max_residual <= 3.0 * rep.max_error + 1e-12


def test_variational_residual_detects_non_solutions():
    # sin(x)cos(y) has nonzero Laplacian, so bump pairings cannot vanish
    # (harmonic fields like x1 x2 would pass silently)
    dom = Bicone(level=8)
    tests = calculus.bump_tests(dom, 8)
    spec = QuadratureSpec(n_offsets=256, gauss_order=8, mc_samples=100, seed=0)
    rep = calculus.variational_residual(get_field("sincos"), dom, tests, spec)
    assert rep.max_residual > 1e-3
    assert not rep.passes(3.0)
