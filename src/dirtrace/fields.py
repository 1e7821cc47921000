"""Scalar test fields with exact gradients.

Every field evaluates vectorized on an (n, d) array of points and knows
its own gradient, so directional derivatives never fall back to finite
differences inside the library (finite differences appear only in tests,
as an independent check).  Fields that are not globally smooth say so:
`smooth` is False and `note` states where regularity fails.

The catalogue is deliberately small: coordinates and low-degree
polynomials (enough for golden-value checks, since chord quadrature is
exact on them), one trigonometric field, a compactly supported bump, the
power singularity used on the cusp, the sign of the second coordinate,
and the piecewise linear field that jumps across a vertical slit.

Points may come coordinate-major (`geometry.points_along`), but gradients
are always allocated row-major: `dderiv_many` takes grad @ theta, and a
column-major matrix-vector product can round differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import UnknownName, ValidationError


@dataclass(frozen=True)
class ScalarField:
    label: str
    _eval: Callable[[np.ndarray], np.ndarray]
    _grad: Callable[[np.ndarray], np.ndarray]
    smooth: bool = True
    note: str = "smooth everywhere"
    dim: Optional[int] = None
    params: dict = field(default_factory=dict)

    def _points(self, pts) -> np.ndarray:
        arr = np.asarray(pts, dtype=float)
        if arr.ndim != 2:
            raise ValidationError(f"expected (n, d) points, got shape {arr.shape}")
        if self.dim is not None and arr.shape[1] < self.dim:
            raise ValidationError(
                f"field {self.label!r} needs {self.dim} coordinates, "
                f"points have {arr.shape[1]}"
            )
        return arr

    def eval_many(self, pts) -> np.ndarray:
        return self._eval(self._points(pts))

    def grad_many(self, pts) -> np.ndarray:
        return self._grad(self._points(pts))

    def dderiv_many(self, pts, theta) -> np.ndarray:
        """Directional derivative along the unit vector theta."""
        vec = np.asarray(getattr(theta, "vector", theta), dtype=float)
        return self.grad_many(pts) @ vec

    def __call__(self, pts) -> np.ndarray:
        return self.eval_many(pts)


def _const(value: float):
    def ev(p):
        return np.full(p.shape[0], value)

    def gr(p):
        return np.zeros(p.shape)

    return ev, gr


def _coordinate(axis: int):
    def ev(p):
        return p[:, axis].copy()

    def gr(p):
        out = np.zeros(p.shape)
        out[:, axis] = 1.0
        return out

    return ev, gr


def _make_one(params: dict) -> ScalarField:
    ev, gr = _const(1.0)
    return ScalarField("one", ev, gr)


def _make_x1(params: dict) -> ScalarField:
    ev, gr = _coordinate(0)
    return ScalarField("x1", ev, gr)


def _make_x2(params: dict) -> ScalarField:
    ev, gr = _coordinate(1)
    return ScalarField("x2", ev, gr, dim=2)


def _make_sin1(params: dict) -> ScalarField:
    def ev(p):
        return np.sin(p[:, 0])

    def gr(p):
        out = np.zeros(p.shape)
        out[:, 0] = np.cos(p[:, 0])
        return out

    return ScalarField("sin1", ev, gr)


def _make_x1px2(params: dict) -> ScalarField:
    def ev(p):
        return p[:, 0] + p[:, 1]

    def gr(p):
        return np.ones(p.shape)

    return ScalarField("x1px2", ev, gr, dim=2)


def _make_x1x2(params: dict) -> ScalarField:
    def ev(p):
        return p[:, 0] * p[:, 1]

    def gr(p):
        return p[:, ::-1].copy()

    return ScalarField("x1x2", ev, gr, dim=2)


def _make_sincos(params: dict) -> ScalarField:
    def ev(p):
        return np.sin(p[:, 0]) * np.cos(p[:, 1])

    def gr(p):
        out = np.empty(p.shape)
        out[:, 0] = np.cos(p[:, 0]) * np.cos(p[:, 1])
        out[:, 1] = -np.sin(p[:, 0]) * np.sin(p[:, 1])
        return out

    return ScalarField("sincos", ev, gr, dim=2)


def _make_bump(params: dict) -> ScalarField:
    """exp(1 - 1 / (1 - |p - c|^2 / r^2)) in the ball B(c, r), 0 outside."""
    cx = float(params.get("cx", 0.5))
    cy = float(params.get("cy", 0.5))
    radius = float(params.get("r", 0.25))
    if radius <= 0.0:
        raise ValidationError("bump radius must be positive")
    center = np.array([cx, cy])

    def _inside(p):
        """Rows of p inside the support, and r2 = |p - center|^2 / r^2 there,
        computed only in the support's bounding box (outside it r2 >= 1)."""
        idx = np.flatnonzero((np.abs(p[:, 0] - cx) < radius)
                             & (np.abs(p[:, 1] - cy) < radius))
        r2 = ((p[idx] - center) ** 2).sum(axis=1) / radius**2
        keep = r2 < 1.0 - 1e-12
        return idx[keep], r2[keep]

    def ev(p):
        idx, r2 = _inside(p)
        out = np.zeros(p.shape[0])
        out[idx] = np.exp(1.0 - 1.0 / (1.0 - r2))
        return out

    def gr(p):
        idx, r2 = _inside(p)
        out = np.zeros(p.shape)
        u = np.exp(1.0 - 1.0 / (1.0 - r2))
        scale = -u / (1.0 - r2) ** 2 * (2.0 / radius**2)
        out[idx] = scale[:, None] * (p[idx] - center)
        return out

    label = f"bump(cx={cx:g},cy={cy:g},r={radius:g})"
    return ScalarField(label, ev, gr, dim=2,
                       note="smooth, supported in the ball of radius r",
                       params={"cx": cx, "cy": cy, "r": radius})


def _make_cusp_pow(params: dict) -> ScalarField:
    alpha = float(params.get("alpha", 0.75))
    if not (0.5 < alpha < 1.0):
        raise ValidationError(f"alpha must lie in ]1/2, 1[, got {alpha!r}")

    def ev(p):
        y = p[:, 1]
        out = np.full(p.shape[0], np.inf)
        pos = y > 0.0
        out[pos] = y[pos] ** (-alpha)
        return out

    def gr(p):
        y = p[:, 1]
        out = np.zeros(p.shape)
        pos = y > 0.0
        out[pos, 1] = -alpha * y[pos] ** (-alpha - 1.0)
        out[~pos, 1] = np.inf
        return out

    return ScalarField(f"cusp_pow(alpha={alpha:g})", ev, gr, smooth=False,
                       note="smooth for x2 > 0, blows up as x2 -> 0",
                       dim=2, params={"alpha": alpha})


def _make_sign_y(params: dict) -> ScalarField:
    def ev(p):
        return np.sign(p[:, 1])

    def gr(p):
        return np.zeros(p.shape)

    return ScalarField("sign_y", ev, gr, smooth=False,
                       note="locally constant off x2 = 0, jumps across it",
                       dim=2)


def _make_crack_2d(params: dict) -> ScalarField:
    # sign(x1 - 1/2) * x2 above the axis, 0 below: continuous except
    # across the vertical slit x1 = 1/2, 0 < x2.
    def ev(p):
        x, y = p[:, 0], p[:, 1]
        return np.where(y > 0.0, np.sign(x - 0.5) * y, 0.0)

    def gr(p):
        x, y = p[:, 0], p[:, 1]
        out = np.zeros(p.shape)
        pos = y > 0.0
        out[pos, 1] = np.sign(x[pos] - 0.5)
        return out

    return ScalarField("crack_2d", ev, gr, smooth=False,
                       note="piecewise linear, jumps across the slit "
                            "x1 = 1/2, x2 > 0",
                       dim=2)


def _make_crack_1d(params: dict) -> ScalarField:
    # x on ]0,1[ and x - 1 on ]1,2[: one-sided limits at 1 disagree.
    def ev(p):
        x = p[:, 0]
        return np.where(x > 1.0, x - 1.0, x)

    def gr(p):
        out = np.zeros(p.shape)
        out[:, 0] = 1.0
        return out

    return ScalarField("crack_1d", ev, gr, smooth=False,
                       note="affine on each side of x = 1, jumps there",
                       dim=1)


_REGISTRY: dict[str, Callable[[dict], ScalarField]] = {
    "one": _make_one,
    "x1": _make_x1,
    "x2": _make_x2,
    "sin1": _make_sin1,
    "x1px2": _make_x1px2,
    "x1x2": _make_x1x2,
    "sincos": _make_sincos,
    "bump": _make_bump,
    "cusp_pow": _make_cusp_pow,
    "sign_y": _make_sign_y,
    "crack_2d": _make_crack_2d,
    "crack_1d": _make_crack_1d,
}

# Globally smooth catalogue fields, the pool for smooth-pair matrices.
SMOOTH_FIELD_NAMES = ("one", "x1", "x2", "x1px2", "x1x2", "sincos")


def field_names() -> tuple:
    return tuple(sorted(_REGISTRY))


def get_field(name: str, **params) -> ScalarField:
    key = str(name).strip()
    maker = _REGISTRY.get(key)
    if maker is None:
        raise UnknownName(
            f"unknown field {name!r}; known names: {', '.join(field_names())}"
        )
    return maker(params)


def parse_field(spec: str) -> ScalarField:
    """Parse 'name' or 'name:key=value,key=value' into a field."""
    text = str(spec).strip()
    if ":" not in text:
        return get_field(text)
    name, _, tail = text.partition(":")
    params = {}
    for item in tail.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ValidationError(f"bad field parameter {item!r} in {spec!r}")
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise ValidationError(f"bad field parameter value {value!r} in {spec!r}")
    return get_field(name.strip(), **params)
