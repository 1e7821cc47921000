"""Catalogue fields: values, gradients, parsing."""

import numpy as np
import pytest

from dirtrace import fields
from dirtrace.errors import UnknownName, ValidationError
from dirtrace.fields import ScalarField, get_field, parse_field
from dirtrace.geometry import Direction


def fd_gradient(fld: ScalarField, pts, step: float) -> np.ndarray:
    """Central-difference gradient, the independent cross-check."""
    arr = np.asarray(pts, dtype=float)
    out = np.empty_like(arr)
    for axis in range(arr.shape[1]):
        hi = arr.copy()
        lo = arr.copy()
        hi[:, axis] += step
        lo[:, axis] -= step
        out[:, axis] = (fld.eval_many(hi) - fld.eval_many(lo)) / (2.0 * step)
    return out


def test_registry_contents():
    names = fields.field_names()
    for expected in ("one", "x1", "x2", "sin1", "x1px2", "x1x2", "sincos",
                     "bump", "cusp_pow", "sign_y", "crack_2d", "crack_1d"):
        assert expected in names
    for name in fields.SMOOTH_FIELD_NAMES:
        assert get_field(name).smooth


def test_parse_field_with_parameters():
    fld = parse_field("bump:cx=0.5,cy=0.25,r=0.1")
    assert fld.params == {"cx": 0.5, "cy": 0.25, "r": 0.1}
    assert parse_field("x1x2").label == "x1x2"
    with pytest.raises(UnknownName):
        parse_field("squiggle")


@pytest.mark.parametrize("spec", ["bump:radius=0.1", "x1:foo=2", "sign_y:alpha=3",
                                  "cusp_pow:r=0.1", "bump:r=nan", "bump:cx=inf",
                                  "bump:r=inf", "cusp_pow:alpha=nan"])
def test_parse_field_rejects_unknown_and_non_finite_parameters(spec):
    with pytest.raises(ValidationError):
        parse_field(spec)


def test_an_unknown_parameter_names_the_accepted_ones():
    with pytest.raises(ValidationError, match="'radius'.*cx, cy, r"):
        get_field("bump", radius=0.1)
    with pytest.raises(ValidationError, match="'foo'.*none"):
        get_field("x1", foo=2.0)
    with pytest.raises(ValidationError, match="finite"):
        get_field("bump", cy=float("-inf"))


@pytest.mark.parametrize("name", fields.SMOOTH_FIELD_NAMES)
def test_gradients_match_finite_differences(name):
    fld = get_field(name)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    exact = fld.grad_many(pts)
    approx = fd_gradient(fld, pts, 1e-6)
    np.testing.assert_allclose(exact, approx, atol=1e-6)


def test_bump_gradient_and_support():
    fld = get_field("bump", cx=0.5, cy=0.5, r=0.2)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.31, 0.69, size=(60, 2))
    np.testing.assert_allclose(fld.grad_many(pts), fd_gradient(fld, pts, 1e-7),
                               atol=1e-5)
    ring = np.array([[0.5 + 0.2, 0.5], [0.5, 0.5 - 0.2], [0.9, 0.9]])
    np.testing.assert_array_equal(fld.eval_many(ring), 0.0)
    np.testing.assert_array_equal(fld.grad_many(ring), 0.0)
    assert fld.eval_many(np.array([[0.5, 0.5]]))[0] == pytest.approx(1.0)


def test_directional_derivative():
    fld = get_field("x1x2")
    pts = np.array([[0.3, 0.7], [0.9, 0.1]])
    d = fld.dderiv_many(pts, Direction([1.0, 0.0]))
    np.testing.assert_allclose(d, pts[:, 1], atol=1e-14)
    diag = Direction([1.0, 1.0])
    d2 = fld.dderiv_many(pts, diag)
    np.testing.assert_allclose(d2, (pts[:, 0] + pts[:, 1]) / np.sqrt(2.0), atol=1e-14)


def test_sign_y_values():
    fld = get_field("sign_y")
    pts = np.array([[0.2, 0.5], [0.2, -0.5], [0.2, 1e-9]])
    np.testing.assert_array_equal(fld.eval_many(pts), [1.0, -1.0, 1.0])
    assert not fld.smooth


def test_cusp_pow_profile():
    fld = get_field("cusp_pow")
    pts = np.array([[0.0, 0.25], [0.0, 1.0]])
    np.testing.assert_allclose(fld.eval_many(pts), [0.25 ** -0.75, 1.0], atol=1e-14)
    assert fld.params == {"alpha": 0.75}
    with pytest.raises(ValidationError):
        get_field("cusp_pow", alpha=0.4)
    with pytest.raises(ValidationError):
        get_field("cusp_pow", alpha=1.0)


def test_crack_1d_is_one_dimensional():
    fld = get_field("crack_1d")
    assert fld.dim == 1
    x = np.array([0.5, 0.999999, 1.000001, 1.5])
    np.testing.assert_allclose(fld.eval_many(x.reshape(-1, 1)),
                               [0.5, 0.999999, 1e-6, 0.5], atol=1e-12)


def test_crack_2d_jump_across_slit():
    fld = get_field("crack_2d")
    pts = np.array([[0.5 - 1e-9, 0.5], [0.5 + 1e-9, 0.5], [0.3, -0.5]])
    vals = fld.eval_many(pts)
    assert vals[0] == pytest.approx(-0.5)
    assert vals[1] == pytest.approx(0.5)
    assert vals[2] == 0.0


def test_sin1_is_univariate():
    fld = get_field("sin1")
    x = np.array([[0.25], [0.5]])
    np.testing.assert_allclose(fld.eval_many(x), np.sin(x[:, 0]), atol=1e-14)


def _whole_array_bump(cx, cy, r, p):
    # the bump formula with r2 computed at every point
    center = np.array([cx, cy])
    r2 = ((p - center) ** 2).sum(axis=1) / r**2
    inside = r2 < 1.0 - 1e-12
    val = np.zeros(p.shape[0])
    grad = np.zeros_like(p)
    u = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    val[inside] = u
    scale = -u / (1.0 - r2[inside]) ** 2 * (2.0 / r**2)
    grad[inside] = scale[:, None] * (p[inside] - center)
    return val, grad


@pytest.mark.parametrize("cx, cy, r", [(0.5, 0.5, 0.2), (0.31, -0.47, 0.05), (1 / 3, 0.75, 0.15)])
def test_bump_matches_the_whole_array_formula(cx, cy, r):
    # value and gradient are computed only in the support's bounding box;
    # inside, on and outside the support they equal the formula evaluated
    # on every point, bit for bit
    fld = get_field("bump", cx=cx, cy=cy, r=r)
    rng = np.random.default_rng(11)
    ang = rng.uniform(0.0, 2.0 * np.pi, 400)
    rho = r * np.concatenate([rng.uniform(0.0, 1.0, 200), np.ones(100),
                              rng.uniform(1.0, 1.5, 100)])
    on_and_near = np.column_stack([cx + rho * np.cos(ang), cy + rho * np.sin(ang)])
    corners = np.array([[cx + r, cy], [cx, cy - r], [cx + r, cy + r], [cx - r, cy - r]])
    far = rng.uniform(-2.0, 2.0, size=(400, 2))
    pts = np.vstack([on_and_near, corners, far, [[cx, cy]]])
    val, grad = _whole_array_bump(cx, cy, r, pts)
    assert np.count_nonzero(val) > 150
    assert fld.eval_many(pts).tobytes() == val.tobytes()
    assert fld.grad_many(pts).tobytes() == grad.tobytes()
