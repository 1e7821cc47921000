"""Chord quadrature for volume and boundary integrals.

Both integral kinds start from the same object: the chord grid of a
domain for a direction, a midpoint grid of hyperplane offsets with every
chord of every sampled line.  The one volume rule applies Gauss-Legendre
nodes along each chord (or each panel of it) and the midpoint rule across
offsets, and `volume_integrals` evaluates any number of integrands on one
node set per rule; boundary integrals weight the exit endpoint of each
chord by chord length times offset step, which is exactly the atom weight
of the directional boundary measure.

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
from .geometry import (
    Direction,
    Domain,
    _feet,
    chord_table,
    hyperplane_range,
    offset_normal,
    points_along,
)

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

    def __post_init__(self) -> None:
        if not (2 <= self.n_offsets <= 2**22):
            raise ValidationError(f"n_offsets out of range: {self.n_offsets!r}")
        if self.gauss_order not in _GAUSS_ORDERS:
            raise ValidationError(
                f"gauss_order must be one of {_GAUSS_ORDERS}, got {self.gauss_order!r}"
            )

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
    Breakpoints within tol of the one before them differ by rounding only
    (two vertices on one offset line, say) and are dropped.
    """
    span = hi - lo
    cuts = domain.offset_breakpoints(theta)
    if cuts is not None:
        tol = 1e-13 * max(span, 1.0)
        cuts = np.unique(np.asarray(cuts, dtype=float))
        cuts = cuts[(cuts > lo + tol) & (cuts < hi - tol)]
        cuts = cuts[np.diff(cuts, prepend=-np.inf) > tol]
    if cuts is None or cuts.size == 0:
        dt = span / n_offsets
        return lo + (np.arange(n_offsets) + 0.5) * dt, np.full(n_offsets, dt)
    edges = np.concatenate([[lo], cuts, [hi]])
    seg = np.diff(edges)
    counts = np.maximum(1, np.rint(n_offsets * seg / span).astype(np.int64))
    h = np.repeat(seg / counts, counts)
    k = np.arange(h.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(edges[:-1], counts) + (k + 0.5) * h, h


def chord_nodes(theta: Direction, t, alpha, length, order: int):
    """Gauss nodes on the chords ]alpha, alpha + length[ of the lines at
    offsets t (arrays (n,)): points (n, q, d), arc offsets s (n, q) and
    reference weights w (q,) with w.sum() == 2.

    s = alpha + ((x + 1) / 2) * length is built in one (n, q) array, the
    product first and alpha added in place; IEEE products and sums do not
    depend on operand order, so these are the floats of the broadcast
    expression.  The points are coordinate-major (see `points_along`).
    """
    x, w = _gauss.nodes(order)
    s = np.multiply.outer(length, (x + 1.0) * 0.5)
    s += alpha[:, None]
    return points_along(_feet(t, offset_normal(theta)), s, theta.vector), s, w


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
        return _feet(self.t, self._perp)

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
        """Nodes along every chord, as `chord_nodes` gives them."""
        return chord_nodes(self.theta, self.t, self.alpha, self.lengths, order)


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


def _product_sum(a, b, c, d):
    """a * b + c * d over node values, summed in place into one new array."""
    out = np.multiply(a, b)
    out += c * d
    return out


def _chord_sum(vals, w, half_len, row_dt):
    """(value, scale) of the Gauss rule with node values vals (n, q) over chords."""
    if not np.all(np.isfinite(vals)):
        raise UnresolvedSingularity("integrand not finite on a chord quadrature node")
    per_chord = (vals @ w) * half_len * row_dt
    return float(np.sum(per_chord)), float(np.sum(np.abs(per_chord)))


def _rule_sums(domain, integrands, theta, spec, panel=None):
    """(values, scales) of the chord rule at spec, one entry per array that
    `integrands(points)` yields, all from one set of nodes on spec's grid."""
    grid = chord_grid(domain, theta, spec.n_offsets)
    t, alpha, length, row_dt = grid.t, grid.alpha, grid.lengths, grid.chord_dt
    if panel is not None:
        # Composite rule: chords much longer than the integrand's feature
        # scale are cut into panels so the per-chord Gauss error cannot
        # hide below the offset refinement difference.
        m = np.maximum(1, np.ceil(length / panel).astype(np.int64))
        ci = np.repeat(np.arange(grid.n_chords), m)
        pj = np.arange(ci.size) - np.repeat(np.cumsum(m) - m, m)
        length = length[ci] / m[ci]
        t, alpha, row_dt = t[ci], alpha[ci] + pj * length, row_dt[ci]
    # the rule needs no arc offsets: left unbound, they are freed before
    # the integrands run, and the points are the largest array alive then
    pts, w = chord_nodes(theta, t, alpha, length, spec.gauss_order)[::2]
    half_len = 0.5 * length
    sums = [_chord_sum(np.asarray(vals, dtype=float).reshape(pts.shape[:-1]), w, half_len, row_dt)
            for vals in integrands(pts.reshape(-1, grid.dim))]
    return [v for v, _ in sums], [scale for _, scale in sums]


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


def volume_integrals(domain: Domain, integrands, spec: QuadratureSpec | None = None,
                     direction: Direction | None = None,
                     panel: float | None = None) -> list[IntegralResult]:
    """Integral over the domain, sliced into chords along `direction`, of each
    array that `integrands(points)` yields (best one at a time, from a
    generator); every rule builds its nodes once for all of them.

    `panel` caps the arc length covered by one Gauss rule; when set, each
    error estimate also includes the difference against the other order's
    rule so that integrands far below the chord scale are reported honestly.
    """
    spec = spec or QuadratureSpec()
    theta = direction or default_direction(domain)
    values, errors, coarse = refined(
        lambda s: _rule_sums(domain, integrands, theta, s, panel), spec)
    if panel is not None:
        alt = replace(spec, gauss_order=4 if spec.gauss_order != 4 else 8)
        alt_values = _rule_sums(domain, integrands, theta, alt, panel)[0]
        errors = [e + abs(v - a) for e, v, a in zip(errors, values, alt_values)]
    for v, c in zip(values, coarse):
        _check_settled(v, c)
    flags = chord_grid(domain, theta, spec.n_offsets).flagged_offsets
    return [IntegralResult(v, e, flags, spec.n_offsets, spec.gauss_order)
            for v, e in zip(values, errors)]


def volume_integral(domain: Domain, f, spec: QuadratureSpec | None = None,
                    direction: Direction | None = None,
                    panel: float | None = None) -> IntegralResult:
    """Integral of f over the domain: `volume_integrals` with one integrand."""
    fe = _as_eval(f)
    return volume_integrals(domain, lambda pts: [fe(pts)], spec, direction, panel)[0]


def boundary_integral(domain: Domain, theta: Direction, g,
                      spec: QuadratureSpec | None = None) -> IntegralResult:
    """Integral of g against the direction-theta boundary measure."""
    spec = spec or QuadratureSpec()
    ge = _as_eval(g)

    def evaluate(s):
        grid = chord_grid(domain, theta, s.n_offsets)
        vals = np.asarray(ge(grid.endpoint_plus), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise UnresolvedSingularity("boundary integrand not finite at an atom")
        terms = grid.weights * vals
        return float(np.sum(terms)), float(np.sum(np.abs(terms)))

    value, error, _ = refined(evaluate, spec)
    flags = chord_grid(domain, theta, spec.n_offsets).flagged_offsets
    return IntegralResult(value, error, flags, spec.n_offsets, spec.gauss_order,
                          method="boundary_atoms")


def norm_theta(fld, domain: Domain, theta: Direction,
               spec: QuadratureSpec | None = None) -> float:
    """Directional Sobolev norm: (integral of u^2 + (du/dtheta)^2)^(1/2).

    Chords are sliced along theta itself, so the derivative direction and
    the integration direction agree.
    """
    return float(np.sqrt(volume_integrals(domain, _theta_integrands(fld, theta), spec,
                                          theta)[0].value))


def _theta_integrands(fld, theta: Direction):
    """u^2 + (du/dtheta)^2, the one integrand of `norm_theta`."""
    return lambda pts: [fld.eval_many(pts) ** 2 + fld.dderiv_many(pts, theta) ** 2]


def h1_norm(fld, domain: Domain, spec: QuadratureSpec | None = None,
            direction: Direction | None = None) -> float:
    """Full Sobolev norm: (integral of u^2 + |grad u|^2)^(1/2)."""
    def integrand(pts):
        grad = fld.grad_many(pts)
        return fld.eval_many(pts) ** 2 + np.sum(grad * grad, axis=1)

    return float(np.sqrt(volume_integral(domain, integrand, spec, direction).value))
