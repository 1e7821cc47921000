"""Chord quadrature for volume and boundary integrals.

Both integral kinds start from the same object: the chord grid of a
domain for a direction, a midpoint grid of hyperplane offsets with every
chord of every sampled line.  Volume integrals apply Gauss-Legendre
nodes along each chord and the midpoint rule across offsets; boundary
integrals weight the exit endpoint of each chord by chord length times
offset step, which is exactly the atom weight of the directional
boundary measure.

Every error estimate comes from `refined`: the absolute difference
against the half-resolution grid plus a float floor (so an error of zero
is never reported, even when both grids agree to the last bit).  The
floor is `_FLOOR_EPS` (32 eps) times (magnitude + 1) per value in
`volume_integral`, `boundary_integral`, `trace_norm_sq`,
`lebesgue_comparison`, `integration_by_parts` and `paired_identity`;
`trace_inequalities` and `reflection_check` add 1e-12 (1 + magnitude)
once to their summed differences, and the default tolerance of
`consistency_report` floors its largest mass difference at 1e-12.
Offsets whose slice carried the thin-feature flag are excluded from all
sums and surface as a flag count in every result.

Summation order is fixed (offset-major, then interval order along the
line) and uses numpy's deterministic pairwise reduction, so repeated
runs with the same configuration are bit-identical.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from . import _gauss
from .errors import UnresolvedSingularity, ValidationError
from .geometry import Direction, Domain, chord_table, hyperplane_range, offset_normal

_GAUSS_ORDERS = (4, 8, 16)

# Keep this many chord grids alive; grids are rebuilt transparently.
_CACHE_LIMIT = 160

# Multiplier on the magnitude-scaled float floor added to error reports.
_FLOOR_EPS = 32.0 * np.finfo(float).eps

# A value whose refinement difference stays this large relative to the
# value itself is treated as non-convergent.
_DIVERGENCE_RATIO = 0.4
_DIVERGENCE_SCALE = 1e3


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs shared by every integral routine."""

    n_offsets: int = 4096
    gauss_order: int = 8
    mc_samples: int = 20000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (2 <= self.n_offsets <= 2**22):
            raise ValidationError(f"n_offsets out of range: {self.n_offsets!r}")
        if self.gauss_order not in _GAUSS_ORDERS:
            raise ValidationError(
                f"gauss_order must be one of {_GAUSS_ORDERS}, got {self.gauss_order!r}"
            )
        if self.mc_samples < 1:
            raise ValidationError("mc_samples must be positive")

    def coarse(self) -> "QuadratureSpec":
        return replace(self, n_offsets=max(2, self.n_offsets // 2))


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float
    flags: int
    n_offsets: int
    gauss_order: int
    method: str = "chord_midpoint_gauss"

    def __float__(self) -> float:
        return self.value


def _offset_cells(domain, theta, lo, hi, n_offsets):
    """Midpoint offsets and cell widths, never straddling a length kink.

    When the domain reports breakpoints of its chord length function, the
    offset range is cut there and each piece gets its own uniform midpoint
    grid, so the midpoint rule stays exact on piecewise affine lengths.
    """
    span = hi - lo
    cuts = domain.offset_breakpoints(theta)
    if cuts is not None:
        tol = 1e-13 * max(span, 1.0)
        cuts = np.unique(np.asarray(cuts, dtype=float))
        cuts = cuts[(cuts > lo + tol) & (cuts < hi - tol)]
    if cuts is None or cuts.size == 0:
        dt = span / n_offsets
        return lo + (np.arange(n_offsets) + 0.5) * dt, np.full(n_offsets, dt)
    edges = np.concatenate([[lo], cuts, [hi]])
    seg = np.diff(edges)
    counts = np.maximum(1, np.rint(n_offsets * seg / span).astype(np.int64))
    h = np.repeat(seg / counts, counts)
    k = np.arange(h.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(edges[:-1], counts) + (k + 0.5) * h, h


def points_along(base: np.ndarray, s: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Points base + s * vec, with one line foot per row of base (n, d) and
    s (n,) or (n, q) the parameters along each line; shape s.shape + (d,).

    Written into one array one coordinate at a time, because numpy broadcasts
    over a short last axis slowly; the arithmetic per element is the same.
    """
    lead = (-1,) + (1,) * (s.ndim - 1)
    out = np.empty(s.shape + (base.shape[1],))
    for k in range(base.shape[1]):
        np.multiply(s, vec[k], out=out[..., k])
        out[..., k] += base[:, k].reshape(lead)
    return out


class ChordGrid:
    """All chords of a domain for one direction at one offset resolution.

    Arrays are parallel over chords, in offset-major order.  `dt` is the
    nominal offset step (1 in dimension one, where the single line through
    the origin carries everything); cell widths can vary around kinks.
    """

    def __init__(self, domain: Domain, theta: Direction, n_offsets: int) -> None:
        self.theta = theta
        self.dim = domain.dim
        if domain.dim == 1:
            ts = np.zeros(1)
            dt = 1.0
            widths = np.ones(1)
        else:
            lo, hi = hyperplane_range(domain, theta)
            dt = (hi - lo) / n_offsets
            ts, widths = _offset_cells(domain, theta, lo, hi, n_offsets)
        rows, alpha, beta, flags = chord_table(domain, theta, ts)
        keep = ~flags[rows]

        self.offset_index = rows[keep]
        self.alpha = alpha[keep]
        self.beta = beta[keep]
        self.offsets = ts
        self.offset_widths = widths
        self.dt = float(dt)
        self.flagged_offsets = int(np.count_nonzero(flags))
        self.lengths = self.beta - self.alpha
        self._perp = offset_normal(theta)
        for arr in (self.offsets, self.offset_widths, self.offset_index,
                    self.alpha, self.beta, self.lengths):
            arr.setflags(write=False)

    # Arrays that are cheap to derive are derived on demand rather than
    # kept with every cached grid; callers that use one several times keep
    # it in a local.
    @property
    def t(self) -> np.ndarray:
        """Offset of each chord's line."""
        return self.offsets[self.offset_index]

    @property
    def chord_dt(self) -> np.ndarray:
        """Offset cell width of each chord's line."""
        return self.offset_widths[self.offset_index]

    @property
    def weights(self) -> np.ndarray:
        """Atom weight of each chord: its length times its cell width."""
        return self.lengths * self.chord_dt

    @property
    def base(self) -> np.ndarray:
        """Foot of each chord's line on the offset hyperplane, (n, d)."""
        t = self.t
        return np.column_stack([t * p for p in self._perp])

    @property
    def endpoint_plus(self) -> np.ndarray:
        """Exit endpoint of each chord, (n, d)."""
        return points_along(self.base, self.beta, self.theta.vector)

    @property
    def endpoint_minus(self) -> np.ndarray:
        """Entry endpoint of each chord, (n, d)."""
        return points_along(self.base, self.alpha, self.theta.vector)

    @property
    def n_chords(self) -> int:
        return self.alpha.shape[0]

    def gauss_points(self, order: int):
        """Nodes along every chord: points (n, q, d), arc offsets s (n, q),
        reference weights w (q,) with w.sum() == 2."""
        x, w = _gauss.nodes(order)
        s = self.alpha[:, None] + (x[None, :] + 1.0) * 0.5 * self.lengths[:, None]
        return points_along(self.base, s, self.theta.vector), s, w


_cache_lock = threading.Lock()
_cache: "OrderedDict[tuple, ChordGrid]" = OrderedDict()


def chord_grid(domain: Domain, theta: Direction, n_offsets: int) -> ChordGrid:
    key = (domain.cache_key(), theta.key(), int(n_offsets))
    with _cache_lock:
        grid = _cache.get(key)
        if grid is not None:
            _cache.move_to_end(key)
            return grid
    grid = ChordGrid(domain, theta, n_offsets)
    with _cache_lock:
        _cache[key] = grid
        while len(_cache) > _CACHE_LIMIT:
            _cache.popitem(last=False)
    return grid


def clear_cache() -> None:
    with _cache_lock:
        _cache.clear()


def _as_eval(f):
    return f.eval_many if hasattr(f, "eval_many") else f


def default_direction(domain: Domain) -> Direction:
    if domain.dim == 1:
        return Direction([1.0])
    return Direction([1.0, 0.0])


def _chord_sum(vals, w, half_len, row_dt):
    """(value, scale) of the Gauss rule with node values vals (n, q) over chords."""
    if not np.all(np.isfinite(vals)):
        raise UnresolvedSingularity("integrand not finite on a chord quadrature node")
    per_chord = (vals @ w) * half_len * row_dt
    return float(np.sum(per_chord)), float(np.sum(np.abs(per_chord)))


def _volume_value(domain, fe, theta, spec, panel=None):
    """(value, scale) of the chord rule for the integral of fe on spec's grid."""
    grid = chord_grid(domain, theta, spec.n_offsets)
    if grid.n_chords == 0:
        return 0.0, 0.0
    if panel is None:
        pts, s, w = grid.gauss_points(spec.gauss_order)
        half_len = 0.5 * grid.lengths
        row_dt = grid.chord_dt
    else:
        # Composite rule: chords much longer than the integrand's feature
        # scale are cut into panels so the per-chord Gauss error cannot
        # hide below the offset refinement difference.
        x, w = _gauss.nodes(spec.gauss_order)
        m = np.maximum(1, np.ceil(grid.lengths / panel).astype(np.int64))
        ci = np.repeat(np.arange(grid.n_chords), m)
        pj = np.arange(ci.size) - np.repeat(np.cumsum(m) - m, m)
        plen = grid.lengths[ci] / m[ci]
        a = grid.alpha[ci] + pj * plen
        s = a[:, None] + (x[None, :] + 1.0) * 0.5 * plen[:, None]
        pts = points_along(np.multiply.outer(grid.t[ci], grid._perp), s, theta.vector)
        half_len = 0.5 * plen
        row_dt = grid.chord_dt[ci]
    vals = np.asarray(fe(pts.reshape(-1, grid.dim)), dtype=float).reshape(s.shape)
    return _chord_sum(vals, w, half_len, row_dt)


def _check_settled(value: float, coarse: float, error=UnresolvedSingularity,
                   what: str = "integral fails to settle") -> None:
    if abs(value - coarse) > max(_DIVERGENCE_RATIO * abs(value), _DIVERGENCE_SCALE):
        raise error(f"{what} under refinement: {value!r} vs {coarse!r}")


def refined(evaluate, spec: QuadratureSpec, floor: float = _FLOOR_EPS):
    """(fine, |fine - coarse| + floor * (scale + 1), coarse) from
    `evaluate(s) -> (values, scales)` at spec, then at spec.coarse(): floats,
    or lists of floats where `evaluate` returns sequences."""
    fine, scale = evaluate(spec)
    coarse, _ = evaluate(spec.coarse())
    fine, scale, coarse = (np.asarray(a, dtype=float) for a in (fine, scale, coarse))
    error = np.abs(fine - coarse) + floor * (scale + 1.0)
    return fine.tolist(), error.tolist(), coarse.tolist()


def volume_integral(domain: Domain, f, spec: QuadratureSpec | None = None,
                    direction: Direction | None = None,
                    panel: float | None = None) -> IntegralResult:
    """Integral of f over the domain, sliced into chords along `direction`.

    `panel` caps the arc length covered by one Gauss rule; when set, the
    error estimate also includes the difference against a lower-order rule
    so that integrands far below the chord scale are reported honestly.
    """
    spec = spec or QuadratureSpec()
    theta = direction or default_direction(domain)
    fe = _as_eval(f)
    value, error, coarse = refined(lambda s: _volume_value(domain, fe, theta, s, panel), spec)
    if panel is not None:
        alt = replace(spec, gauss_order=4 if spec.gauss_order != 4 else 8)
        error += abs(value - _volume_value(domain, fe, theta, alt, panel)[0])
    _check_settled(value, coarse)
    flags = chord_grid(domain, theta, spec.n_offsets).flagged_offsets
    return IntegralResult(value, error, flags, spec.n_offsets, spec.gauss_order)


def boundary_integral(domain: Domain, theta: Direction, g,
                      spec: QuadratureSpec | None = None) -> IntegralResult:
    """Integral of g against the direction-theta boundary measure."""
    spec = spec or QuadratureSpec()
    ge = _as_eval(g)

    def evaluate(s):
        grid = chord_grid(domain, theta, s.n_offsets)
        if grid.n_chords == 0:
            return 0.0, 0.0
        vals = np.asarray(ge(grid.endpoint_plus), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise UnresolvedSingularity("boundary integrand not finite at an atom")
        terms = grid.weights * vals
        return float(np.sum(terms)), float(np.sum(np.abs(terms)))

    value, error, _ = refined(evaluate, spec)
    flags = chord_grid(domain, theta, spec.n_offsets).flagged_offsets
    return IntegralResult(value, error, flags, spec.n_offsets, spec.gauss_order,
                          method="boundary_atoms")


def volume_integral_mc(domain: Domain, f, spec: QuadratureSpec | None = None) -> IntegralResult:
    """Monte Carlo cross-check: uniform samples in the bounding box."""
    spec = spec or QuadratureSpec()
    fe = _as_eval(f)
    lo, hi = domain.bbox
    rng = np.random.default_rng(spec.seed)
    pts = rng.uniform(lo, hi, size=(spec.mc_samples, domain.dim))
    inside = domain.contains_many(pts)
    vals = np.zeros(spec.mc_samples)
    if np.any(inside):
        got = np.asarray(fe(pts[inside]), dtype=float)
        if not np.all(np.isfinite(got)):
            raise UnresolvedSingularity("integrand not finite at a sample point")
        vals[inside] = got
    box = float(np.prod(np.asarray(hi) - np.asarray(lo)))
    value = box * float(np.mean(vals))
    stderr = box * float(np.std(vals) / np.sqrt(spec.mc_samples))
    return IntegralResult(value, stderr, 0, spec.mc_samples, 0, method="monte_carlo")


def norm_theta(fld, domain: Domain, theta: Direction,
               spec: QuadratureSpec | None = None) -> float:
    """Directional Sobolev norm: (integral of u^2 + (du/dtheta)^2)^(1/2).

    Chords are sliced along theta itself, so the derivative direction and
    the integration direction agree.
    """
    return float(np.sqrt(volume_integral(domain, _theta_integrand(fld, theta), spec,
                                         theta).value))


def _theta_integrand(fld, theta: Direction):
    """u^2 + (du/dtheta)^2, the integrand of `norm_theta`."""
    return lambda pts: fld.eval_many(pts) ** 2 + fld.dderiv_many(pts, theta) ** 2


def h1_norm(fld, domain: Domain, spec: QuadratureSpec | None = None,
            direction: Direction | None = None) -> float:
    """Full Sobolev norm: (integral of u^2 + |grad u|^2)^(1/2)."""
    def integrand(pts):
        grad = fld.grad_many(pts)
        return fld.eval_many(pts) ** 2 + np.sum(grad * grad, axis=1)

    return float(np.sqrt(volume_integral(domain, integrand, spec, direction).value))
