"""Directional traces at chord exit points.

Along a single chord ]alpha, beta[ the trace at the exit endpoint is the
chord average of u + (s - alpha) du/dtheta, and the trace at the entry
endpoint is the chord average of u - (beta - s) du/dtheta.  For u smooth
up to the boundary both averages collapse to the boundary values; for u
merely square integrable with a square integrable chord derivative they
are the canonical representatives, and one set of Gauss nodes per chord
evaluates both at once.

Omnidirectional consistency asks whether traces taken along different
directions agree where the directions share boundary points.  Shared
points are found by recomputing chords (never by accidental coincidence
of atoms): a probe point from one direction's atoms is reachable in
another direction exactly when the slice through it has a chord exiting
there.  A finite direction family can only ever refute agreement, so a
clean report says "not refuted", not "proved".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _gauss
from .errors import DivergentChordIntegral, InsufficientOverlap, ValidationError
from .geometry import (
    Direction,
    Domain,
    _exit_chord,
    _feet,
    exit_chords,
    match_radius,
    offset_normal,
    points_along,
)
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    _check_settled,
    _chord_sum,
    _product_sum,
    _rule_sums,
    _theta_integrands,
    chord_grid,
    chord_nodes,
    refined,
    volume_integral,
)


def node_values(fld, theta: Direction, pts, shape):
    """Field values and chord derivatives at Gauss nodes pts (n, q, d),
    each reshaped to `shape`; raises when either is not finite."""
    flat = pts.reshape(-1, pts.shape[-1])
    u = np.asarray(fld.eval_many(flat), dtype=float).reshape(shape)
    du = np.asarray(fld.dderiv_many(flat, theta), dtype=float).reshape(shape)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(du))):
        raise DivergentChordIntegral(
            "chord integrand not finite at a quadrature node"
        )
    return u, du


def traces_from_nodes(u, du, s, w, grid):
    """Exit and entry traces of the grid's chords from the values u and
    chord derivatives du at their Gauss nodes s (n, q), reference weights w."""
    # one scratch buffer holds u + (s - alpha) du, then u - (beta - s) du
    buf = np.subtract(s, grid.alpha[:, None])
    buf *= du
    buf += u
    gplus = 0.5 * (buf @ w)
    np.subtract(grid.beta[:, None], s, out=buf)
    buf *= du
    np.subtract(u, buf, out=buf)
    gminus = 0.5 * (buf @ w)
    return gplus, gminus


def chord_trace_values(fld, grid, order: int):
    """Exit and entry traces for every chord of a grid.

    Returns (gamma_plus, gamma_minus), each of shape (n_chords,).
    """
    pts, s, w = grid.gauss_points(order)
    return traces_from_nodes(*node_values(fld, grid.theta, pts, s.shape), s, w, grid)


@dataclass(frozen=True)
class TraceField:
    """Traces of one field over all atoms of one directional measure."""

    theta: Direction
    points: np.ndarray
    values: np.ndarray
    opposite_values: np.ndarray
    opposite: np.ndarray
    weights: np.ndarray
    lengths: np.ndarray
    offsets: np.ndarray
    dt: float
    n_offsets: int
    gauss_order: int
    flagged_offsets: int

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    def norm_sq(self) -> float:
        return float(np.sum(self.weights * self.values**2))

    def pair_sum_sq(self) -> float:
        return float(np.sum(self.weights * (self.values + self.opposite_values) ** 2))

    def diff_quotient_sq(self) -> float:
        quot = (self.values - self.opposite_values) / self.lengths
        return float(np.sum(self.weights * quot**2))

    def to_rows(self) -> np.ndarray:
        return np.column_stack([
            self.offsets,
            self.points,
            self.values,
            self.lengths,
            self.opposite,
            self.opposite_values,
        ])

    def row_header(self) -> list[str]:
        d = self.points.shape[1]
        names = ["offset"]
        names += [f"z{i+1}" for i in range(d)]
        names += ["trace", "length"]
        names += [f"zhat{i+1}" for i in range(d)]
        names += ["opposite_trace"]
        return names


def trace_field(fld, domain: Domain, theta: Direction,
                spec: QuadratureSpec | None = None) -> TraceField:
    return _trace_field(fld, domain, theta, spec or QuadratureSpec())[0]


def _trace_field(fld, domain: Domain, theta: Direction, spec: QuadratureSpec):
    """The trace field, and the volume rule of u^2 + (du/dtheta)^2 (what
    `norm_theta` squares) from the same node values."""
    grid = chord_grid(domain, theta, spec.n_offsets)
    pts, s, w = grid.gauss_points(spec.gauss_order)
    u, du = node_values(fld, theta, pts, s.shape)
    gplus, gminus = traces_from_nodes(u, du, s, w, grid)
    norm_sq = _chord_sum(_product_sum(u, u, du, du), w, 0.5 * grid.lengths, grid.chord_dt)[0]
    return TraceField(
        theta=theta,
        points=grid.endpoint_plus,
        values=gplus,
        opposite_values=gminus,
        opposite=grid.endpoint_minus,
        weights=grid.weights,
        lengths=grid.lengths,
        offsets=grid.t,
        dt=grid.dt,
        n_offsets=spec.n_offsets,
        gauss_order=spec.gauss_order,
        flagged_offsets=grid.flagged_offsets,
    ), norm_sq


def trace_norm_sq(fld, domain: Domain, theta: Direction,
                  spec: QuadratureSpec | None = None) -> IntegralResult:
    """Boundary L2 norm squared of the trace, with refinement error."""
    spec = spec or QuadratureSpec()

    def evaluate(s):
        # every term is nonnegative, so the sum is its own magnitude
        value = trace_field(fld, domain, theta, s).norm_sq()
        return value, value

    value, error, _ = refined(evaluate, spec)
    flags = chord_grid(domain, theta, spec.n_offsets).flagged_offsets
    return IntegralResult(value, error, flags,
                          spec.n_offsets, spec.gauss_order, method="trace_norm_sq")


def _exit_traces(fld, theta: Direction, t, a, b, order: int) -> np.ndarray:
    """Exit trace of the field on each chord ]a, b[ of the line at offset
    t, one Gauss rule per chord; NaN where the integrand is not finite."""
    pts, s, w = chord_nodes(theta, t, a, b - a, order)
    flat = pts.reshape(-1, pts.shape[-1])
    u = np.asarray(fld.eval_many(flat), dtype=float).reshape(s.shape)
    du = np.asarray(fld.dderiv_many(flat, theta), dtype=float).reshape(s.shape)
    finite = np.all(np.isfinite(u), axis=1) & np.all(np.isfinite(du), axis=1)
    values = 0.5 * np.sum(w * (u + (s - a[:, None]) * du), axis=1)
    return np.where(finite, values, np.nan)


def directional_trace(fld, domain: Domain, theta: Direction, z,
                      order: int = 16) -> float:
    """Trace of the field at one boundary point, along one direction."""
    value = _exit_traces(fld, theta, *_exit_chord(domain, theta, z), order)[0]
    if not np.isfinite(value):
        raise DivergentChordIntegral("chord integrand not finite")
    return float(value)


def _check_depth(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValidationError(f"eps must be finite and positive, got {eps!r}")


def _depth_means(fld, theta: Direction, base, beta, lengths, eps: float,
                 order: int) -> np.ndarray:
    """Average of the field over the last eps (at most the whole chord) of
    each chord of the given lengths ending at beta on the line with foot
    base[i], by one Gauss rule per chord."""
    x, w = _gauss.nodes(order)
    s = np.multiply.outer(np.minimum(eps, lengths), (x + 1.0) * 0.5)
    np.subtract(beta[:, None], s, out=s)
    pts = points_along(base, s, theta.vector)
    u = np.asarray(fld.eval_many(pts.reshape(-1, pts.shape[-1])), dtype=float)
    return 0.5 * (u.reshape(s.shape) @ w)


def lebesgue_average(fld, domain: Domain, theta: Direction, z, eps: float,
                     order: int = 16) -> float:
    """Average of the field over the last eps of the chord into z."""
    _check_depth(eps)
    t, a, b = _exit_chord(domain, theta, z)
    base = _feet(t, offset_normal(theta))
    return float(_depth_means(fld, theta, base, b, b - a, eps, order)[0])


@dataclass(frozen=True)
class LebesgueCheck:
    eps: float
    deviation_sq: float
    bound: float
    error: float


def lebesgue_comparison(fld, domain: Domain, theta: Direction, eps: float,
                        spec: QuadratureSpec | None = None) -> LebesgueCheck:
    """Boundary L2 gap between the trace and its depth-eps averages.

    The gap integral is bounded by eps times the diameter times the
    squared chord-derivative norm.
    """
    return lebesgue_comparisons(fld, domain, theta, [eps], spec)[0]


def lebesgue_comparisons(fld, domain: Domain, theta: Direction, eps_values,
                         spec: QuadratureSpec | None = None) -> list[LebesgueCheck]:
    """`lebesgue_comparison` at each depth of eps_values, with the exit
    traces and the derivative norm, which no depth changes, computed once."""
    eps_values = list(eps_values)
    for eps in eps_values:
        _check_depth(eps)
    spec = spec or QuadratureSpec()

    def gap_sq(sp: QuadratureSpec):
        grid = chord_grid(domain, theta, sp.n_offsets)
        if grid.n_chords == 0:
            return [0.0] * len(eps_values), [0.0] * len(eps_values)
        gplus, _ = chord_trace_values(fld, grid, sp.gauss_order)
        base, weights = grid.base, grid.weights
        values = []
        for eps in eps_values:
            means = _depth_means(fld, theta, base, grid.beta, grid.lengths, eps, sp.gauss_order)
            values.append(float(np.sum(weights * (gplus - means) ** 2)))
        return values, [abs(v) for v in values]

    values, errors, _ = refined(gap_sq, spec)

    def dsq(pts):
        return fld.dderiv_many(pts, theta) ** 2

    dnorm = volume_integral(domain, dsq, spec, theta).value
    return [LebesgueCheck(eps, value, eps * domain.diameter * dnorm, error)
            for eps, value, error in zip(eps_values, values, errors)]


@dataclass(frozen=True)
class TraceInequalityReport:
    """Boundary norms of one field against its directional volume norm."""

    theta: Direction
    trace_sq: float
    pair_sum_sq: float
    diff_quotient_sq: float
    norm_theta_sq: float
    diameter: float
    error: float

    @property
    def trace_bound(self) -> float:
        return 2.0 * max(1.0, self.diameter**2) * self.norm_theta_sq

    @property
    def pair_sum_bound(self) -> float:
        return 4.0 * max(1.0, self.diameter**2) * self.norm_theta_sq

    @property
    def diff_quotient_bound(self) -> float:
        return self.norm_theta_sq

    @property
    def slacks(self) -> tuple[float, float, float]:
        return (
            self.trace_bound - self.trace_sq,
            self.pair_sum_bound - self.pair_sum_sq,
            self.diff_quotient_bound - self.diff_quotient_sq,
        )

    @property
    def holds(self) -> bool:
        margin = 3.0 * self.error
        return all(s >= -margin for s in self.slacks)


def trace_inequalities(fld, domain: Domain, theta: Direction,
                       spec: QuadratureSpec | None = None) -> TraceInequalityReport:
    return _trace_inequalities(fld, domain, theta, spec or QuadratureSpec())[0]


def _trace_inequalities(fld, domain: Domain, theta: Direction, spec: QuadratureSpec):
    """The report, and the trace field of spec's grid it was computed from."""
    passes = []

    def evaluate(s):
        tf, sq = _trace_field(fld, domain, theta, s)
        passes.append((tf, sq))
        # in the report's field order; norm_theta_sq squares the rounded norm,
        # as norm_theta(...) ** 2 does
        nrm = float(np.sqrt(sq))
        return (tf.norm_sq(), tf.pair_sum_sq(), tf.diff_quotient_sq(), nrm**2), 0.0

    values, errors, _ = refined(evaluate, spec, floor=0.0)
    (fine, sq), (_, sq_c) = passes
    # norm_theta at both resolutions; only the n/4 grid adds field evaluations
    _check_settled(sq, sq_c)
    (sq_q,), _ = _rule_sums(domain, _theta_integrands(fld, theta), theta,
                            spec.coarse().coarse())
    _check_settled(sq_c, sq_q)
    error = sum(errors) + 1e-12 * (1.0 + values[3])
    return TraceInequalityReport(theta, *values, domain.diameter, error), fine


@dataclass(frozen=True)
class ConsistencyWitness:
    point: np.ndarray
    values: dict
    spread: float


@dataclass(frozen=True)
class ConsistencyReport:
    verdict: str
    tolerance: float
    max_spread: float
    disagreement_mass: float
    probed_mass: float
    n_probes: int
    n_shared: int
    transient_conflations: int = 0
    witnesses: list = field(default_factory=list)
    note: str = (
        "finite direction sample: 'in' means agreement was not refuted "
        "at this tolerance, not that it was proved"
    )

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "max_spread": self.max_spread,
            "disagreement_mass": self.disagreement_mass,
            "probed_mass": self.probed_mass,
            "n_probes": self.n_probes,
            "n_shared": self.n_shared,
            "transient_conflations": self.transient_conflations,
            "witnesses": [
                {
                    "point": list(map(float, w.point)),
                    "values": {k: float(v) for k, v in w.values.items()},
                    "spread": float(w.spread),
                }
                for w in self.witnesses
            ],
            "note": self.note,
        }


def _spreads(fld, domain: Domain, directions, points: np.ndarray, order: int,
             r_match: float):
    """Traces at points along every direction, as (values, shared,
    spreads): values (n, directions) is NaN where a direction does not
    reach a point (the slice through it has no chord exiting there), shared
    marks the points two or more directions reach, and spreads holds
    max - min of their values there (0 elsewhere)."""
    values = np.full((points.shape[0], len(directions)), np.nan)
    for j, theta in enumerate(directions):
        t, a, b, found = exit_chords(domain, theta, points, r_match)
        if np.any(found):
            values[found, j] = _exit_traces(fld, theta, t[found], a[found], b[found], order)
    shared = np.isfinite(values).sum(axis=1) >= 2
    spreads = np.zeros(points.shape[0])
    with np.errstate(invalid="ignore"):
        spreads[shared] = np.nanmax(values[shared], axis=1) - np.nanmin(values[shared], axis=1)
    return values, shared, spreads


def _jittered_probes(domain: Domain, theta: Direction, points: np.ndarray,
                     offsets: np.ndarray, dt: float) -> np.ndarray:
    """Exit points near the given atoms on slightly shifted offset lines.

    Each input atom yields two probe points, one per shifted offset; rows
    are NaN when the shifted line carries no usable chord.
    """
    shifts = np.array([-dt / 3.0, dt / 3.0])
    ts = (offsets[:, None] + shifts[None, :]).reshape(-1)
    t, _, b, found = exit_chords(domain, theta, np.repeat(points, 2, axis=0),
                                 np.inf, offsets=ts)
    out = np.full((ts.size, points.shape[1]), np.nan)
    out[found] = points_along(_feet(t[found], offset_normal(theta)), b[found], theta.vector)
    return out


# Largest share of the probed mass that may disagree in an "in" verdict.
_MASS_TOLERANCE = 1e-6


def consistency_report(fld, domain: Domain, directions,
                       spec: QuadratureSpec | None = None,
                       tolerance: float | None = None,
                       probes_per_direction: int = 160) -> ConsistencyReport:
    """Cross-direction agreement of traces at shared boundary points.

    A disagreement counts toward the reported mass only when it persists
    at perturbed offsets.  Exit points of different directions can land
    within the matching radius without being the same boundary point;
    such coincidences carry no measure and vanish under perturbation,
    while a genuine trace mismatch survives it.
    """
    spec = spec or QuadratureSpec()
    directions = list(directions)
    if len(directions) < 2:
        raise ValidationError("need at least two directions")
    if (isinstance(probes_per_direction, bool)
            or not isinstance(probes_per_direction, (int, np.integer))
            or probes_per_direction < 1):
        raise ValidationError(
            f"probes_per_direction must be an integer >= 1, got {probes_per_direction!r}")
    r_match = match_radius(domain)

    probe_pts = []
    probe_wts = []
    probe_src = []
    probe_off = []
    probe_dt = []
    for idx, theta in enumerate(directions):
        grid = chord_grid(domain, theta, spec.n_offsets)
        if grid.n_chords == 0:
            continue
        # every stride-th atom of the direction's measure: its exit point,
        # weight and offset
        stride = max(1, grid.n_chords // probes_per_direction)
        line = grid.offset_index[::stride]
        t = grid.offsets[line]
        beta = grid.beta[::stride]
        probe_pts.append(points_along(_feet(t, offset_normal(theta)), beta, theta.vector))
        probe_wts.append(grid.lengths[::stride] * grid.offset_widths[line])
        probe_src.append(np.full(beta.size, idx))
        probe_off.append(t)
        probe_dt.append(np.full(beta.size, grid.dt))
    if not probe_pts:
        raise InsufficientOverlap("no boundary atoms to probe")
    probes = np.concatenate(probe_pts)
    weights = np.concatenate(probe_wts)
    sources = np.concatenate(probe_src)
    offsets = np.concatenate(probe_off)
    dts = np.concatenate(probe_dt)

    values, shared, spreads = _spreads(fld, domain, directions, probes,
                                       spec.gauss_order, r_match)
    if not np.any(shared):
        raise InsufficientOverlap(
            "no probed boundary point was reachable from two directions"
        )

    if tolerance is None:
        # Ten times the measure-mass refinement error, a crude but
        # configuration-independent scale for quadrature noise.
        _, errs, _ = refined(
            lambda s: ([float(np.sum(chord_grid(domain, theta, s.n_offsets).weights))
                        for theta in directions], 0.0),
            spec, floor=0.0)
        tolerance = 10.0 * max(max(errs), 1e-12)

    bad = shared & (spreads > tolerance)

    persistent = bad.copy()
    n_transient = 0
    bad_idx = np.nonzero(bad)[0]
    if bad_idx.size:
        # the two jittered probes of bad_idx[k] go to rows 2k and 2k + 1
        jittered = np.full((2 * bad_idx.size, probes.shape[1]), np.nan)
        for src in np.unique(sources[bad_idx]):
            k = np.nonzero(sources[bad_idx] == src)[0]
            idxs = bad_idx[k]
            jittered[(2 * k[:, None] + [0, 1]).ravel()] = _jittered_probes(
                domain, directions[src], probes[idxs], offsets[idxs], float(dts[idxs[0]]))

        ok = np.all(np.isfinite(jittered), axis=1)
        jspread = np.zeros(jittered.shape[0])
        if np.any(ok):
            jspread[ok] = _spreads(fld, domain, directions, jittered[ok],
                                   spec.gauss_order, r_match)[2]
        transient = ~((jspread[0::2] > tolerance) & (jspread[1::2] > tolerance))
        persistent[bad_idx[transient]] = False
        n_transient = int(np.count_nonzero(transient))

    probed_mass = float(np.sum(weights[shared]))
    disagreement = (
        float(np.sum(weights[persistent]) / probed_mass) if probed_mass else 0.0
    )

    order = np.argsort(spreads)[::-1]
    pool = persistent if np.any(persistent) else shared
    witnesses = []
    for i in order:
        if len(witnesses) >= 8:
            break
        if not pool[i]:
            continue
        witnesses.append(ConsistencyWitness(
            point=probes[i].copy(),
            values={
                ",".join(f"{c:+.6f}" for c in directions[j].vector):
                    float(values[i, j])
                for j in np.nonzero(np.isfinite(values[i]))[0]
            },
            spread=float(spreads[i]),
        ))

    return ConsistencyReport(
        verdict="out" if disagreement > _MASS_TOLERANCE else "in",
        tolerance=float(tolerance),
        max_spread=float(np.max(spreads[shared])),
        disagreement_mass=disagreement,
        probed_mass=probed_mass,
        n_probes=int(probes.shape[0]),
        n_shared=int(np.count_nonzero(shared)),
        transient_conflations=n_transient,
        witnesses=witnesses,
    )
