"""Integration by parts, paired boundary fields, and limit functionals.

The chord-paired integration by parts identity: the volume integral of
u dv + v du along a direction equals the boundary sum, over chords, of
the exit-trace product minus the entry-trace product, each chord's terms
weighted by offset step.  Both sides are evaluated on the same chord
grid, so the identity is checked per configuration with the offset
discretization error cancelling structurally; what remains is honest
quadrature error, which the report carries.

The paired fields G+ and G- repackage exit and entry traces so that the
difference of their boundary inner products reproduces the volume
pairing; their atoms live on the same measure.

The nu functionals probe the Cantor-supported boundary of the cone
union: at stage n, average the field over slightly extended level-n
intervals at height 3**-n / 2, then average the averages.  Increments
are controlled by 2**((1-n)/2) times the Sobolev norm, so the sequence
converges geometrically and a tail bound encloses the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _cantor
from .errors import NonIntegrablePairing, UnresolvedSingularity, ValidationError, check_integer
from .fields import ScalarField, get_field
from .geometry import Direction, Domain
from .quadrature import (
    QuadratureSpec,
    _check_settled,
    _rule_terms,
    chord_grid,
    chord_means,
    grid_means,
    offset_estimate,
    volume_integrals,
)
from .trace import _finite_means, _trace_terms, chord_trace_values

# A report passes when its residual is within this many error bars.
_PASS_FACTOR = 3.0


@dataclass(frozen=True)
class IbpReport:
    theta: Direction
    lhs: float
    rhs: float
    err_lhs: float
    err_rhs: float
    flags: int
    n_offsets: int
    gauss_order: int

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    def passes(self) -> bool:
        return self.residual <= _PASS_FACTOR * (self.err_lhs + self.err_rhs)

    def to_json(self) -> dict:
        return {
            "theta": list(map(float, self.theta.vector)),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "err_lhs": self.err_lhs,
            "err_rhs": self.err_rhs,
            "flags": self.flags,
            "n_offsets": self.n_offsets,
            "gauss_order": self.gauss_order,
        }


def _ibp_sides(u, v, grid, order: int):
    """`ChordGrid.sums` of lhs, rhs and the bracket <G+u, G+v> - <G-u, G-v>
    on the chord grid, from one evaluation of each field at the Gauss nodes
    of the order."""
    alpha, beta, lengths, chord_dt = grid.alpha, grid.beta, grid.lengths, grid.chord_dt

    def node_arrays(pts, s, rows, runs):
        uu, du = yield from _trace_terms(u, runs, pts, s, alpha[rows], beta[rows])
        vv, dv = yield from _trace_terms(v, runs, pts, s, alpha[rows], beta[rows])
        pair = np.multiply(uu, dv)
        pair += vv * du
        yield pair

    up, um, vp, vm, pair = _finite_means(4, grid_means, grid, order, node_arrays)
    lhs = grid.sums(_rule_terms(pair, lengths, chord_dt))
    rhs = grid.sums((up * vp - um * vm) * chord_dt)
    if not (np.isfinite(lhs[0]) and np.isfinite(rhs[0])):
        raise NonIntegrablePairing("boundary pairing failed to produce finite sums")
    gu_plus, gu_minus = _paired(up, um, lengths)
    gv_plus, gv_minus = _paired(vp, vm, lengths)
    weights = lengths * chord_dt
    plus, minus = weights * gu_plus * gv_plus, weights * gu_minus * gv_minus
    bracket = float(np.sum(plus)) - float(np.sum(minus))
    return lhs, rhs, (bracket, abs(bracket), grid.row_sums(plus - minus))


def integration_by_parts(u: ScalarField, v: ScalarField, domain: Domain,
                         theta: Direction,
                         spec: QuadratureSpec | None = None) -> IbpReport:
    """Both sides of the chord-paired integration by parts identity."""
    spec = spec or QuadratureSpec()
    grid = chord_grid(domain, theta, spec.n_offsets)
    (lhs, rhs, _), (err_lhs, err_rhs, _), (_, rhs_c, _) = offset_estimate(
        _ibp_sides(u, v, grid, spec.gauss_order))
    _check_settled(rhs, rhs_c, NonIntegrablePairing, "boundary pairing does not settle")
    return IbpReport(theta, lhs, rhs, err_lhs, err_rhs, grid.flagged_offsets,
                     spec.n_offsets, spec.gauss_order)


@dataclass(frozen=True)
class PairedBoundaryField:
    """G+ and G- values of one field over the atoms of one direction."""

    theta: Direction
    points: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    weights: np.ndarray
    lengths: np.ndarray

    def inner_plus(self, other: "PairedBoundaryField") -> float:
        return float(np.sum(self.weights * self.plus * other.plus))

    def inner_minus(self, other: "PairedBoundaryField") -> float:
        return float(np.sum(self.weights * self.minus * other.minus))


def _paired(a, b, lengths):
    """G+ and G- = (a + b +- (a - b) / length) / 2 from exit trace a, entry
    trace b."""
    diff = (a - b) / lengths
    return 0.5 * (a + b + diff), 0.5 * (a + b - diff)


def paired_boundary_field(fld: ScalarField, domain: Domain, theta: Direction,
                          spec: QuadratureSpec | None = None) -> PairedBoundaryField:
    """G+- = (a + b +- (a - b) / length) / 2 from exit trace a, entry trace b."""
    spec = spec or QuadratureSpec()
    grid = chord_grid(domain, theta, spec.n_offsets)
    plus, minus = _paired(*chord_trace_values(fld, grid, spec.gauss_order), grid.lengths)
    return PairedBoundaryField(
        theta=theta,
        points=grid.endpoint_plus,
        plus=plus,
        minus=minus,
        weights=grid.weights,
        lengths=grid.lengths,
    )


@dataclass(frozen=True)
class PairedIdentityReport:
    theta: Direction
    volume_pairing: float
    bracket: float
    err_volume: float
    err_bracket: float

    @property
    def residual(self) -> float:
        return abs(self.volume_pairing - self.bracket)

    def passes(self) -> bool:
        return self.residual <= _PASS_FACTOR * (self.err_volume + self.err_bracket)


def paired_identity(u: ScalarField, v: ScalarField, domain: Domain,
                    theta: Direction,
                    spec: QuadratureSpec | None = None) -> PairedIdentityReport:
    """<G+u, G+v> - <G-u, G-v> against the volume pairing of u and v."""
    spec = spec or QuadratureSpec()
    (lhs, _, bracket), (err_lhs, _, err_bracket), _ = offset_estimate(
        _ibp_sides(u, v, chord_grid(domain, theta, spec.n_offsets), spec.gauss_order))
    return PairedIdentityReport(
        theta=theta,
        volume_pairing=lhs,
        bracket=bracket,
        err_volume=err_lhs,
        err_bracket=err_bracket,
    )


# ---------------------------------------------------------------------------
# Cantor-boundary limit functionals


def _stage_mean(fld: ScalarField, n: int, height: float, order: int) -> float:
    """Average of interval averages of the field at one height.

    Intervals are the 2**n surviving middle-third intervals extended by
    half the interval length on both sides.
    """
    a, b = _cantor.level_intervals(n)
    y = 0.5 * (3.0 ** (-n))
    lo = a - y
    means, weight_means = chord_means(
        [(Direction.from_angle(0.0), a.size)], np.full(a.size, height), lo, (b + y) - lo, order,
        lambda pts, s, rows, runs: (fld.eval_many(pts.reshape(-1, 2)), np.ones(s.shape)))
    # Normalizing by the weight sum computed with the same reduction keeps
    # constant fields exact: each row becomes x / x.
    means /= weight_means
    if not np.all(np.isfinite(means)):
        raise UnresolvedSingularity("field not finite on a stage interval")
    return float(np.mean(means))


# Last stage of a nu sequence (`nu_sequence`, the `nu` command).  Stage n
# averages over 2**n intervals, so from stage 20 on each stage takes about
# twice the time and memory of the one before: the gap tables would allow
# 24, at about 16 times stage 20's cost.
MAX_STAGE = 20


def check_last_stage(n: int, name: str, first: int) -> None:
    """Raise ValidationError unless first <= n <= MAX_STAGE."""
    if not first <= n <= MAX_STAGE:
        raise ValidationError(
            f"{name} must lie in [{first}, {MAX_STAGE}], got {n!r} (stage n averages over "
            f"2**n intervals: past stage {MAX_STAGE} each stage doubles time and memory)")


def nu_value(fld: ScalarField, n: int, order: int = 8, mirror: bool = False) -> float:
    """Stage-n functional: interval averages at height 3**-n / 2.

    With mirror=True the field is sampled at the reflected height, which
    composes the field with the vertical flip.
    """
    check_last_stage(n, "n", 0)
    y = 0.5 * (3.0 ** (-n))
    return _stage_mean(fld, n, -y if mirror else y, order)


@dataclass(frozen=True)
class NuSequence:
    values: np.ndarray
    increments: np.ndarray
    increment_bounds: np.ndarray
    h1_norm: float
    limit_estimate: float
    tail_bound: float

    @property
    def bounds_hold(self) -> bool:
        return bool(np.all(self.increments <= self.increment_bounds + 1e-12))


def nu_sequence(fld: ScalarField, n_max: int, h1_norm_value: float,
                order: int = 8) -> NuSequence:
    """Stages 0..n_max with increment bounds and a limit enclosure."""
    check_last_stage(n_max, "n_max", 1)
    return _nu_sequence([nu_value(fld, n, order) for n in range(n_max + 1)], h1_norm_value)


def _nu_sequence(stage_values, h1_norm_value: float) -> NuSequence:
    """The sequence of the stage values nu_0 .. nu_n_max, n_max >= 1."""
    values = np.array(stage_values)
    n_max = values.size - 1
    increments = np.abs(np.diff(values))
    stages = np.arange(n_max)
    bounds = 2.0 ** ((1.0 - stages) / 2.0) * h1_norm_value
    tail = 2.0 ** ((1.0 - n_max) / 2.0) * h1_norm_value / (1.0 - 2.0 ** (-0.5))
    return NuSequence(
        values=values,
        increments=increments,
        increment_bounds=bounds,
        h1_norm=h1_norm_value,
        limit_estimate=float(values[-1]),
        tail_bound=float(tail),
    )


def mirror_gap(fld: ScalarField, n: int, order: int = 8) -> float:
    """Stage-n gap between the field and its vertical reflection."""
    return nu_value(fld, n, order) - nu_value(fld, n, order, mirror=True)


# ---------------------------------------------------------------------------
# Variational residuals


@dataclass(frozen=True)
class VariationalReport:
    residuals: list
    max_residual: float
    max_error: float

    def passes(self) -> bool:
        return all(
            abs(r.value) <= _PASS_FACTOR * r.error for r in self.residuals
        )


def _row_dot(g, h):
    """Row-wise g . h with the additions of np.sum(g * h, axis=1) on short
    rows: from 0.0, one column at a time (two -0.0 products give +0.0)."""
    out = np.zeros(g.shape[0])
    for k in range(g.shape[1]):
        out += g[:, k] * h[:, k]
    return out


def variational_residual(fld: ScalarField, domain: Domain, tests,
                         spec: QuadratureSpec | None = None) -> VariationalReport:
    """Gradient pairings of a candidate against compactly supported tests.

    Each residual is the volume integral of grad(u) . grad(v); a field
    solving the homogeneous problem annihilates every admissible test.  Each
    rule's nodes, and grad(u) on them, are built once for all tests.
    """
    spec = spec or QuadratureSpec()
    radii = [
        t.params["r"] for t in tests
        if isinstance(getattr(t, "params", None), dict) and "r" in t.params
    ]
    # Test supports are typically far smaller than a chord, so the chords
    # are panelled down to the support scale.
    panel = min(radii) / 8.0 if radii else domain.diameter / 64.0

    def integrands(pts):
        g = fld.grad_many(pts)
        for test in tests:
            yield _row_dot(g, test.grad_many(pts))

    out = volume_integrals(domain, integrands, spec, panel=panel)
    return VariationalReport(
        residuals=out,
        max_residual=max((abs(r.value) for r in out), default=0.0),
        max_error=max((r.error for r in out), default=0.0),
    )


def _support_inside(domain: Domain, cx: float, cy: float, r: float) -> bool:
    ang = np.linspace(0.0, 2.0 * np.pi, 33)[:-1]
    ok = True
    for rho in (r, 0.5 * r):
        ring = np.column_stack([cx + rho * np.cos(ang), cy + rho * np.sin(ang)])
        ok = ok and bool(np.all(domain.contains_many(ring)))
    return ok and domain.contains((cx, cy))


def _grid_bumps(lo, hi, side: int):
    """Bumps centred on a side x side grid of the box [lo, hi], of radius
    0.4 times the smaller cell side, as (cx, cy, r)."""
    radius = 0.4 * float(min(hi - lo)) / side
    xs = lo[0] + (np.arange(side) + 0.5) * (hi[0] - lo[0]) / side
    ys = lo[1] + (np.arange(side) + 0.5) * (hi[1] - lo[1]) / side
    return [(float(cx), float(cy), radius) for cx in xs for cy in ys]


def bump_tests(domain: Domain, count: int = 16) -> list[ScalarField]:
    """Compactly supported smooth tests with support verified inside.

    For the mirrored cone union the bumps sit inside individual cones on
    both sides; for other planar domains a bounding-box grid is filtered
    by membership of the support ring.  The grid starts at ceil(sqrt(count))
    cells a side and grows, up to three times that, until count supports
    fit; the first grid that fits gives the bumps.
    """
    if domain.dim != 2:
        raise ValidationError("bump tests are planar")
    check_integer("count", count, 1)
    if domain.kind == "bicone":
        grids = [[(a, sgn * h, 0.15) for a in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
                  for h in (0.45, 0.75) for sgn in (1.0, -1.0)]]
    else:
        lo, hi = domain.bbox
        first = int(np.ceil(np.sqrt(count)))
        grids = (_grid_bumps(lo, hi, side) for side in range(first, 3 * first + 1))
    placed = 0
    for cands in grids:
        tests = []
        for cx, cy, r in cands:
            if len(tests) >= count:
                break
            if _support_inside(domain, cx, cy, r):
                tests.append(get_field("bump", cx=cx, cy=cy, r=r))
        if len(tests) >= count:
            return tests
        placed = max(placed, len(tests))
    raise ValidationError(
        f"could only place {placed} of {count} test bumps inside {domain.kind}"
    )
