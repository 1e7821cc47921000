"""Integration by parts, paired boundary products, stage functionals."""

import dataclasses

import numpy as np
import pytest

from dirtrace import calculus, fractal, quadrature, trace
from dirtrace.errors import ValidationError
from dirtrace.fields import get_field
from dirtrace.geometry import Bicone, Cusp, Direction, Polygon
from dirtrace.quadrature import QuadratureSpec, h1_norm, volume_integral

E1 = Direction([1.0, 0.0])
SPEC = QuadratureSpec(n_offsets=512, gauss_order=8)


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
    assert rep.passes()
    payload = rep.to_json()
    assert set(payload) >= {"lhs", "rhs", "residual", "theta"}


def test_ibp_on_cusp():
    rep = calculus.integration_by_parts(get_field("x1"), get_field("x2"),
                                        Cusp(), E1, SPEC)
    assert rep.passes()


def test_paired_identity_golden():
    rep = calculus.paired_identity(get_field("x1x2"), get_field("x1px2"),
                                   unit_square(), E1, SPEC)
    assert rep.volume_pairing == pytest.approx(5.0 / 6.0, abs=1e-6)
    assert rep.bracket == pytest.approx(5.0 / 6.0, abs=1e-6)
    assert rep.passes()


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


# nu_value of bump(cx=0.4, cy=0.1, r=0.6) at stages 0..8, by (order, mirror),
# as hex floats: the stage means over freshly sorted gap tables, each chord
# reduced by quadrature.chord_reduce
_NU_BUMP_HEX = {
    (8, False): [
        "0x1.9c752013edc89p-4", "0x1.1002df97e9487p-1", "0x1.1d7cd4a552d7bp-1",
        "0x1.16c42406c83c2p-1", "0x1.139dd5c7da7a0p-1", "0x1.1271ab101d92cp-1",
        "0x1.120a1fe433a00p-1", "0x1.11e73978cd2bcp-1", "0x1.11db8c63770e1p-1",
    ],
    (8, True): [
        "0x0.0p+0", "0x1.6f06af7dae034p-2", "0x1.f72ae00576318p-2",
        "0x1.0baf1caf6d01bp-1", "0x1.0fea94cb37c07p-1", "0x1.1135d882951a3p-1",
        "0x1.11a0d905999dep-1", "0x1.11c421d2c0e98p-1", "0x1.11cfd9d68a858p-1",
    ],
    (16, False): [
        "0x1.9df0af196b5cfp-4", "0x1.10035d4ffa6e9p-1", "0x1.1d7b9fb0257f5p-1",
        "0x1.16c4242649f53p-1", "0x1.139dd5c7da77ep-1", "0x1.1271ab101d92dp-1",
        "0x1.120a1fe433a00p-1", "0x1.11e73978cd2bcp-1", "0x1.11db8c63770e2p-1",
    ],
    (16, True): [
        "0x0.0p+0", "0x1.6ebc1a2989b84p-2", "0x1.f72cc9739450cp-2",
        "0x1.0baf1cb09b791p-1", "0x1.0fea94cb37cfap-1", "0x1.1135d882951a3p-1",
        "0x1.11a0d905999dep-1", "0x1.11c421d2c0e98p-1", "0x1.11cfd9d68a858p-1",
    ],
}


@pytest.mark.parametrize("order, mirror", sorted(_NU_BUMP_HEX))
def test_stage_functional_values_are_pinned(order, mirror):
    fld = get_field("bump", cx=0.4, cy=0.1, r=0.6)
    got = [calculus.nu_value(fld, n, order, mirror).hex() for n in range(9)]
    assert got == _NU_BUMP_HEX[order, mirror]


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


@pytest.mark.parametrize("n_max", [0, calculus._cantor.MAX_LEVEL + 1])
def test_nu_sequence_checks_its_last_stage_first(n_max, monkeypatch):
    calls = []
    monkeypatch.setattr(calculus, "_stage_mean", lambda *a: calls.append(a) or 0.0)
    with pytest.raises(ValidationError, match="n_max"):
        calculus.nu_sequence(get_field("one"), n_max, 1.0)
    assert calls == []


@pytest.mark.parametrize("n", [-1, calculus.MAX_STAGE + 1])
@pytest.mark.parametrize("stage_functional", [calculus.nu_value, calculus.mirror_gap])
def test_stage_functionals_check_their_stage_first(stage_functional, n, monkeypatch):
    # a single stage is capped as the sequences are: stage 22 alone would
    # average over 2**22 intervals
    calls = []
    monkeypatch.setattr(calculus, "_stage_mean", lambda *a: calls.append(a) or 0.0)
    with pytest.raises(ValidationError, match=rf"n must lie in \[0, {calculus.MAX_STAGE}\]"):
        stage_functional(get_field("one"), n)
    assert calls == []


def test_nu_sequence_stops_at_the_cost_cap(monkeypatch):
    # stage n averages over 2**n intervals: the last stage is capped where
    # each further stage would double the time and memory, not where the
    # gap tables end
    assert calculus.MAX_STAGE < calculus._cantor.MAX_LEVEL
    calls = []
    monkeypatch.setattr(calculus, "_stage_mean", lambda *a: calls.append(a) or 0.0)
    with pytest.raises(ValidationError, match=rf"n_max must lie in \[1, {calculus.MAX_STAGE}\]"
                                              r".*doubles time and memory"):
        calculus.nu_sequence(get_field("one"), calculus.MAX_STAGE + 1, 1.0)
    assert calls == []
    seq = calculus.nu_sequence(get_field("one"), calculus.MAX_STAGE, 1.0)
    assert seq.values.size == len(calls) == calculus.MAX_STAGE + 1


def _assert_supports_inside(dom, tests):
    for t in tests:
        cx, cy, r = t.params["cx"], t.params["cy"], t.params["r"]
        ring = np.stack([
            np.array([cx, cy]) + r * np.array([np.cos(a), np.sin(a)])
            for a in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        ])
        assert np.all(dom.contains_many(ring))


def test_bump_tests_sit_inside_the_domain():
    dom = Bicone(level=8)
    tests = calculus.bump_tests(dom, 16)
    assert len(tests) == 16
    _assert_supports_inside(dom, tests)


@pytest.mark.parametrize("name", fractal.DOMAIN_NAMES)
def test_bump_tests_fill_every_planar_kind(name):
    dom = fractal.named_domain(name)
    if dom.dim != 2:
        with pytest.raises(ValidationError):
            calculus.bump_tests(dom, 1)
        return
    for count in (1, 4, 9, 16):
        tests = calculus.bump_tests(dom, count)
        assert len(tests) == count
        _assert_supports_inside(dom, tests)


@pytest.mark.parametrize("count", [0, -1, 2.0, True])
def test_bump_tests_reject_bad_counts(count):
    with pytest.raises(ValidationError):
        calculus.bump_tests(unit_square(), count)


def test_bump_tests_keep_the_first_grid_that_fits():
    # the 3 x 3 grid of the unit square holds all nine supports
    tests = calculus.bump_tests(unit_square(), 9)
    centres = [(t.params["cx"], t.params["cy"], t.params["r"]) for t in tests]
    mids = (np.arange(3) + 0.5) / 3.0
    assert centres == [(float(x), float(y), 0.4 / 3.0) for x in mids for y in mids]


def test_variational_residuals_vanish_for_solutions():
    dom = Bicone(level=8)
    tests = calculus.bump_tests(dom, 4)
    spec = QuadratureSpec(n_offsets=256, gauss_order=8)
    for name in ("x2", "sign_y"):
        rep = calculus.variational_residual(get_field(name), dom, tests, spec)
        assert rep.passes()
        assert rep.max_residual <= 3.0 * rep.max_error + 1e-12


def test_variational_residual_detects_non_solutions():
    # sin(x)cos(y) has nonzero Laplacian, so bump pairings cannot vanish
    # (harmonic fields like x1 x2 would pass silently)
    dom = Bicone(level=8)
    tests = calculus.bump_tests(dom, 8)
    spec = QuadratureSpec(n_offsets=256, gauss_order=8)
    rep = calculus.variational_residual(get_field("sincos"), dom, tests, spec)
    assert rep.max_residual > 1e-3
    assert not rep.passes()


def _per_test_residuals(fld, domain, tests, spec):
    # the reference: one volume_integral per test, each evaluating grad(u)
    # on its own nodes
    panel = min(t.params["r"] for t in tests) / 8.0
    return [volume_integral(domain,
                            lambda p, _t=t: np.sum(fld.grad_many(p) * _t.grad_many(p), axis=1),
                            spec, panel=panel)
            for t in tests]


# sign_y, whose residuals are sums of signed zeros, at both resolutions;
# the other fields at the cheaper one
@pytest.mark.parametrize("n_offsets, names", [(256, ("x2", "sign_y", "sincos")),
                                              (512, ("sign_y",))])
def test_variational_residual_matches_the_per_test_integrals_on_the_bicone(n_offsets, names):
    dom = Bicone(level=8)
    tests = calculus.bump_tests(dom, 8)
    spec = QuadratureSpec(n_offsets=n_offsets, gauss_order=8)
    for name in names:
        fld = get_field(name)
        want = _per_test_residuals(fld, dom, tests, spec)
        for count in (4, 8):
            got = calculus.variational_residual(fld, dom, tests[:count], spec)
            assert repr(got.residuals) == repr(want[:count])
            assert got.max_residual == max(abs(r.value) for r in want[:count])
            assert got.max_error == max(r.error for r in want[:count])


@pytest.mark.parametrize("order", [4, 8, 16])
def test_variational_residual_matches_the_per_test_integrals_on_planar_domains(order):
    spec = QuadratureSpec(n_offsets=32, gauss_order=order)
    square = fractal.named_domain("square")
    omega = fractal.named_domain("omega_C")
    for dom, tests in ((square, calculus.bump_tests(square, 9)),
                       (omega, calculus.bump_tests(omega, 9))):
        for name in ("x1x2", "sincos"):
            fld = get_field(name)
            got = calculus.variational_residual(fld, dom, tests, spec)
            assert repr(got.residuals) == repr(_per_test_residuals(fld, dom, tests, spec))


def test_variational_residual_evaluates_the_candidate_gradient_once_per_rule(monkeypatch):
    dom = Bicone(level=8)
    tests = calculus.bump_tests(dom, 16)
    calls = []
    fld = get_field("x2")

    def grad(p):
        calls.append(len(p))
        return fld._grad(p)

    counted = dataclasses.replace(fld, _grad=grad)

    def evaluated():
        calls.clear()
        calculus.variational_residual(counted, dom, tests, QuadratureSpec(n_offsets=256))
        return list(calls)

    # blocks of 4,096 chords at spec's order 8 (8,192 at the other order, 4)
    monkeypatch.setattr(quadrature, "_BLOCK", 4096 * 8)
    blocked = evaluated()
    monkeypatch.setattr(quadrature, "_BLOCK", 2**40)
    # spec and the other Gauss order on spec's grid, for all 16 tests
    assert len(evaluated()) == 2
    # once per block of each rule: every node still once
    assert sum(blocked) == sum(calls) and len(blocked) > 2


def test_row_dot_makes_the_additions_of_np_sum():
    # signed zeros included: rows whose products are both -0.0 sum to +0.0
    rng = np.random.default_rng(5)
    g = rng.choice([-1.5, -0.0, 0.0, 2.0], size=(400, 2))
    h = rng.choice([-0.0, 0.0, 3.0, 0.25], size=(400, 2))
    prod = g * h
    assert np.any(np.all(np.signbit(prod) & (prod == 0.0), axis=1))
    assert calculus._row_dot(g, h).tobytes() == np.sum(prod, axis=1).tobytes()
