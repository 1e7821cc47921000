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
clean report says "not refuted", not "proved".  The lookups of a report
that need no field are kept with a cached grid (`quadrature.kept_entry`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DivergentChordIntegral,
    InsufficientOverlap,
    ValidationError,
    check_integer,
    check_tolerance,
)
from .geometry import (
    Direction,
    Domain,
    _exit_chord,
    _feet,
    exit_chords,
    match_radius,
    points_along,
)
from .quadrature import (
    ChordGrid,
    IntegralResult,
    QuadratureSpec,
    _check_settled,
    _rule_terms,
    chord_grid,
    chord_means,
    grid_means,
    kept_entry,
    offset_estimate,
)


def _trace_terms(fld, runs, pts, s, alpha, beta):
    """Yield u + (s - alpha) du, then, unless beta is None, u - (beta - s)
    du in the same buffer (chord averages: the exit and entry traces) at
    the nodes pts, s of the chords ]alpha, beta[ of a block of
    `chord_means`; return u and du = du/dtheta.  Along each of the block's
    runs (Direction, rows), du is grad @ vector of its rows, as
    `dderiv_many` computes it."""
    flat = pts.reshape(-1, pts.shape[-1])
    u = np.asarray(fld.eval_many(flat), dtype=float).reshape(s.shape)
    grad, q = fld.grad_many(flat), s.shape[1]
    du = np.empty(s.shape)
    for direction, rows in runs:
        du[rows] = (grad[rows.start * q:rows.stop * q] @ direction.vector).reshape(-1, q)
    buf = np.subtract(s, alpha[:, None])
    buf *= du
    buf += u
    yield buf
    if beta is not None:
        np.subtract(beta[:, None], s, out=buf)
        buf *= du
        yield np.subtract(u, buf, out=buf)
    return u, du


def _finite_means(traces: int, rule, *args):
    """rule(*args), `chord_means` or `grid_means`, with numpy's warnings
    off; DivergentChordIntegral where one of its first `traces` arrays, the
    traces, is not finite."""
    with np.errstate(all="ignore"):
        means = rule(*args)
    if not all(np.all(np.isfinite(g)) for g in means[:traces]):
        raise DivergentChordIntegral("chord integrand not finite at a quadrature node")
    return means


def _chord_traces(fld, theta: Direction, t, alpha, beta, order: int):
    """Exit and entry traces on the chords ]alpha, beta[ of the lines at
    offsets t (see `_finite_means`)."""
    return _finite_means(
        2, chord_means, [(theta, t.size)], t, alpha, beta - alpha, order,
        lambda pts, s, rows, runs: _trace_terms(fld, runs, pts, s, alpha[rows], beta[rows]))


def chord_trace_values(fld, grid, order: int):
    """Exit and entry traces for every chord of a grid, from its kept
    nodes (`grid_means`), float for float those of `_chord_traces`.

    Returns (gamma_plus, gamma_minus), each of shape (n_chords,).
    """
    alpha, beta = grid.alpha, grid.beta
    return _finite_means(
        2, grid_means, grid, order,
        lambda pts, s, rows, runs: _trace_terms(fld, runs, pts, s, alpha[rows], beta[rows]))


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

    def norm_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-atom terms of `norm_sq`, `pair_sum_sq` and `diff_quotient_sq`."""
        quot = (self.values - self.opposite_values) / self.lengths
        return (self.weights * self.values**2,
                self.weights * (self.values + self.opposite_values) ** 2,
                self.weights * quot**2)

    def norm_sq(self) -> float:
        return float(np.sum(self.norm_terms()[0]))

    def pair_sum_sq(self) -> float:
        return float(np.sum(self.norm_terms()[1]))

    def diff_quotient_sq(self) -> float:
        return float(np.sum(self.norm_terms()[2]))

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
    spec = spec or QuadratureSpec()
    return _trace_field(fld, chord_grid(domain, theta, spec.n_offsets), spec)[0]


def _trace_field(fld, grid: ChordGrid, spec: QuadratureSpec):
    """The trace field on the grid at spec's Gauss order, and the
    `ChordGrid.sums` of the volume rule of u^2 + (du/dtheta)^2 (what
    `norm_theta` squares) from the same node values."""
    alpha, beta = grid.alpha, grid.beta

    def node_arrays(pts, s, rows, runs):
        u, du = yield from _trace_terms(fld, runs, pts, s, alpha[rows], beta[rows])
        sq = np.multiply(u, u)
        sq += du * du
        yield sq

    gplus, gminus, sq = _finite_means(2, grid_means, grid, spec.gauss_order, node_arrays)
    norm_sq = grid.sums(_rule_terms(sq, grid.lengths, grid.chord_dt))
    return TraceField(
        theta=grid.theta,
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
    """Boundary L2 norm squared of the trace, with its offset-rule error."""
    spec = spec or QuadratureSpec()
    grid = chord_grid(domain, theta, spec.n_offsets)
    gplus = chord_trace_values(fld, grid, spec.gauss_order)[0]
    (value,), (error,), _ = offset_estimate([grid.sums(grid.weights * gplus**2)])
    return IntegralResult(value, error, grid.flagged_offsets,
                          spec.n_offsets, spec.gauss_order, method="trace_norm_sq")


def directional_trace(fld, domain: Domain, theta: Direction, z,
                      order: int = 16) -> float:
    """Trace of the field at one boundary point, along one direction."""
    return float(_chord_traces(fld, theta, *_exit_chord(domain, theta, z), order)[0][0])


def _check_depth(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValidationError(f"eps must be finite and positive, got {eps!r}")


def _depth_means(fld, theta: Direction, t, beta, lengths, eps: float,
                 order: int) -> np.ndarray:
    """Gauss mean of the field over the last eps (at most the whole chord)
    of each chord of the given lengths ending at beta on its line at t
    (DivergentChordIntegral where it is not finite, see `_finite_means`)."""
    depth = np.minimum(eps, lengths)
    return _finite_means(
        1, chord_means, [(theta, t.size)], t, beta - depth, depth, order,
        lambda pts, s, rows, runs: [fld.eval_many(pts.reshape(-1, pts.shape[-1]))])[0]


def lebesgue_average(fld, domain: Domain, theta: Direction, z, eps: float,
                     order: int = 16) -> float:
    """Average of the field over the last eps of the chord into z."""
    _check_depth(eps)
    t, a, b = _exit_chord(domain, theta, z)
    return float(_depth_means(fld, theta, t, b, b - a, eps, order)[0])


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
    traces and the derivative norm, which no depth changes, computed once,
    from one set of Gauss nodes on the grid."""
    eps_values = list(eps_values)
    for eps in eps_values:
        _check_depth(eps)
    spec = spec or QuadratureSpec()
    grid = chord_grid(domain, theta, spec.n_offsets)
    t, alpha, lengths, weights = grid.t, grid.alpha, grid.lengths, grid.weights

    def node_arrays(pts, s, rows, runs):
        _, du = yield from _trace_terms(fld, runs, pts, s, alpha[rows], None)
        yield np.multiply(du, du)

    gplus, dsq = _finite_means(1, grid_means, grid, spec.gauss_order, node_arrays)
    # the volume rule of (du/dtheta)^2, as volume_integral computes it
    sums = [grid.sums(_rule_terms(dsq, lengths, grid.chord_dt))]
    for eps in eps_values:
        means = _depth_means(fld, theta, t, grid.beta, lengths, eps, spec.gauss_order)
        sums.append(grid.sums(weights * (gplus - means) ** 2))
    (dnorm, *values), (_, *errors), (coarse, *_) = offset_estimate(sums)
    _check_settled(dnorm, coarse)
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
    """The report, and the trace field it was computed from."""
    grid = chord_grid(domain, theta, spec.n_offsets)
    tf, (sq, _, rows) = _trace_field(fld, grid, spec)
    # in the report's field order; norm_theta_sq squares the rounded norm,
    # as norm_theta(...) ** 2 does
    sums = [grid.sums(terms) for terms in tf.norm_terms()]
    sums.append((float(np.sqrt(sq)) ** 2, 0.0, rows))
    values, errors, coarse = offset_estimate(sums, floor=0.0)
    # norm_theta against its n/3 rule, and that against the n/9 rule
    _check_settled(values[3], coarse[3])
    error = sum(errors) + 1e-12 * (1.0 + values[3])
    return TraceInequalityReport(theta, *values, domain.diameter, error), tf


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


# Gauss nodes per `chord_means` call of `_spreads`: consecutive directions
# share a call until it would hold more nodes than this, and a direction
# with more runs alone.  Larger calls fault tens of MB of transient arrays
# in again on every call: warm bicone `bump` reports at 32 directions,
# 1,024 offsets and 160 probes took 104-135 ms with no cap, 71-98 ms with
# this one (2-core host).  Every report of the consistency_warm benchmark
# fits in one call.
_SPREAD_NODES = 2**15


def _spreads(fld, directions, points: np.ndarray, order: int, chords):
    """Traces at points along every direction, as (values, shared,
    spreads): values (n, directions) is NaN where a direction does not
    reach a point (the slice through it has no chord exiting there),
    shared marks the points two or more directions reach, and spreads
    holds max - min of their values there (0 elsewhere).  chords[j] is
    `exit_chords` of the points along directions[j].  The exit traces of
    consecutive directions come from one `chord_means` call per batch of
    at most `_SPREAD_NODES` nodes (or one direction).  Raises
    DivergentChordIntegral, with no numpy warning on the way, where a
    trace is not finite."""
    values = np.full((points.shape[0], len(directions)), np.nan)
    batches, nodes = [], 0
    for j, (_, _, _, found) in enumerate(chords):
        idx = np.nonzero(found)[0]
        if not idx.size:
            continue
        if not batches or nodes + idx.size * order > _SPREAD_NODES:
            batches.append([])
            nodes = 0
        batches[-1].append((j, idx))
        nodes += idx.size * order
    for batch in batches:
        t, a, b = (np.concatenate([chords[j][k][idx] for j, idx in batch]) for k in range(3))
        gplus = _finite_means(
            1, chord_means, [(directions[j], idx.size) for j, idx in batch], t, a, b - a, order,
            lambda pts, s, rows, runs: _trace_terms(fld, runs, pts, s, a[rows], None))[0]
        start = 0
        for j, idx in batch:
            values[idx, j] = gplus[start:start + idx.size]
            start += idx.size
    shared = np.isfinite(values).sum(axis=1) >= 2
    spreads = np.zeros(points.shape[0])
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
    out[found] = points_along(_feet(t[found], theta.perp_vector), b[found], theta.vector)
    return out


# Largest share of the probed mass that may disagree in an "in" verdict.
_MASS_TOLERANCE = 1e-6


class _Lookups(NamedTuple):
    """What consistency reports read from their chord grids alone, whatever
    the field: each probe's source direction (its index in the table),
    exit point, atom weight and offset, each direction's grid dt, the
    probes' `exit_chords` along each direction, the largest null-rule
    error of a direction's measure mass, and, row by row as reports need
    them, the probes' jittered probes and their exit chords
    (`_jittered_lookups`; None before the first).  One per report
    configuration (direction table, probe count and matching radius), kept
    with the grid of the table's first direction (`kept_entry`); shared,
    so read-only and replaced, never written in place."""

    source: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    dt: np.ndarray
    chords: tuple
    mass_error: float
    jittered: tuple | None = None


def _read_only(arrays):
    for arr in arrays:
        arr.setflags(write=False)


def _lookups(domain: Domain, directions, n_offsets: int, probes_per_direction: int,
             r_match: float) -> _Lookups:
    """The `_Lookups` of a report: the probes (every stride-th atom of each
    direction's measure) and their exit chords, one `exit_chords` batch
    along each direction over all of them."""
    grids = [chord_grid(domain, theta, n_offsets) for theta in directions]
    parts = []
    for j, (grid, theta) in enumerate(zip(grids, directions)):
        if grid.n_chords:
            stride = max(1, grid.n_chords // probes_per_direction)
            line = grid.offset_index[::stride]
            t = grid.offsets[line]
            parts.append((np.full(t.size, j),
                          points_along(_feet(t, theta.perp_vector), grid.beta[::stride],
                                       theta.vector),
                          grid.lengths[::stride] * grid.offset_widths[line], t))
    if not parts:
        raise InsufficientOverlap("no boundary atoms to probe")
    source, points, weights, offsets = (np.concatenate(arrs) for arrs in zip(*parts))
    chords = tuple(exit_chords(domain, theta, points, r_match) for theta in directions)
    dt = np.array([grid.dt for grid in grids])
    _read_only([source, points, weights, offsets, dt, *(arr for c in chords for arr in c)])
    mass_error = max(offset_estimate([g.sums(g.weights)], floor=0.0)[1][0] for g in grids)
    return _Lookups(source, points, weights, offsets, dt, chords, mass_error)


def _jittered_lookups(domain: Domain, directions, grid: ChordGrid, key, lookups: _Lookups,
                      idx: np.ndarray, r_match: float):
    """The jittered probes of the probes idx (those of idx[k] in rows 2k
    and 2k + 1), and their `exit_chords` along each direction as arrays
    (t, alpha, beta, found) with one column per direction (NaN chords
    where a jittered probe is not finite).

    Both are kept in `_Lookups.jittered`, a mask of the probes looked up
    and one row per probe, and looked up only for the probes that no
    report has looked up yet: each source direction's jittered probes in
    one `_jittered_probes` call, then the finite ones along each direction
    in one batch.  The fresh rows join a copy of the latest entry that
    grid keeps under key (of lookups, once the grid has left the cache),
    so no report's rows are lost.  idx must be sorted."""
    entry = lookups.jittered
    rows = idx if entry is None else idx[~entry[0][idx]]
    if rows.size:
        source = lookups.source[rows]
        points = np.concatenate([
            _jittered_probes(domain, directions[j], lookups.points[mine],
                             lookups.offsets[mine], lookups.dt[j])
            for j in np.unique(source) for mine in [rows[source == j]]])
        ok = np.all(np.isfinite(points), axis=1)
        found = np.zeros((points.shape[0], len(directions)), dtype=bool)
        t, a, b = (np.full(found.shape, np.nan) for _ in range(3))
        if np.any(ok):
            for j, theta in enumerate(directions):
                t[ok, j], a[ok, j], b[ok, j], found[ok, j] = exit_chords(
                    domain, theta, points[ok], r_match)
        fresh = [arr.reshape(rows.size, 2, -1) for arr in (points, t, a, b, found)]

        def merge(latest):
            latest = lookups if latest is None else latest
            old, n = latest.jittered, latest.source.size
            entry = ((np.zeros(n, dtype=bool),
                      *(np.zeros((n,) + arr.shape[1:], dtype=arr.dtype) for arr in fresh))
                     if old is None else tuple(arr.copy() for arr in old))
            entry[0][rows] = True
            for kept, arr in zip(entry[1:], fresh):
                kept[rows] = arr
            _read_only(entry)
            return latest._replace(jittered=entry)

        entry = kept_entry(grid, key, merge).jittered
    jittered, *chords = (arr[idx].reshape(2 * idx.size, -1) for arr in entry[1:])
    return jittered, chords


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

    Reports on the same domain, direction table, resolution and probe
    count share their exit-chord lookups: the probes, their exit chords,
    the mass error of the default tolerance, and the jittered probes and
    their exit chords depend on no field or Gauss order, so they are kept
    in one entry with the cached grid of the table's first direction and
    computed once.  Jittered probes are looked up only for the probes that
    disagree, and only for those that no earlier report has looked up.
    Reports on other direction tables share none of it, not even the
    lookups of a grid they both use.

    The exit traces at the probes (and at the jittered probes) along every
    direction come from one `chord_means` call in its run form, one run of
    chords per direction: one field evaluation, one gradient and one
    reduction for all of them, in batches of at most `_SPREAD_NODES`
    nodes.  A trace is the float that a call on its direction alone gives.
    """
    check_tolerance(tolerance)
    spec = spec or QuadratureSpec()
    directions = list(directions)
    if len(directions) < 2:
        raise ValidationError("need at least two directions")
    check_integer("probes_per_direction", probes_per_direction, 1)
    r_match = match_radius(domain)

    grid = chord_grid(domain, directions[0], spec.n_offsets)
    key = (tuple(theta.vector.tobytes() for theta in directions), probes_per_direction, r_match)
    lookups = kept_entry(grid, key)
    if lookups is None:
        fresh = _lookups(domain, directions, spec.n_offsets, probes_per_direction, r_match)
        lookups = kept_entry(grid, key, lambda latest: fresh if latest is None else latest)
    probes, weights = lookups.points, lookups.weights

    values, shared, spreads = _spreads(fld, directions, probes, spec.gauss_order,
                                       lookups.chords)
    if not np.any(shared):
        raise InsufficientOverlap(
            "no probed boundary point was reachable from two directions"
        )

    if tolerance is None:
        # Ten times the largest offset-rule error of a direction's measure
        # mass, a crude but configuration-independent scale for quadrature
        # noise.
        tolerance = 10.0 * max(lookups.mass_error, 1e-12)

    bad = shared & (spreads > tolerance)

    persistent = bad.copy()
    n_transient = 0
    bad_idx = np.nonzero(bad)[0]
    if bad_idx.size:
        jittered, jchords = _jittered_lookups(domain, directions, grid, key, lookups, bad_idx,
                                              r_match)
        ok = np.all(np.isfinite(jittered), axis=1)
        jspread = np.zeros(jittered.shape[0])
        if np.any(ok):
            # one gather per array, then a column per direction
            jspread[ok] = _spreads(fld, directions, jittered[ok], spec.gauss_order,
                                   list(zip(*(arr[ok].T for arr in jchords))))[2]
        transient = ~((jspread[0::2] > tolerance) & (jspread[1::2] > tolerance))
        persistent[bad_idx[transient]] = False
        n_transient = int(np.count_nonzero(transient))

    probed_mass = float(np.sum(weights[shared]))
    disagreement = (
        float(np.sum(weights[persistent]) / probed_mass) if probed_mass else 0.0
    )

    # largest spread first; equal spreads in probe order
    order = np.argsort(-spreads, kind="stable")
    pool = persistent if np.any(persistent) else shared
    labels = [",".join(f"{c:+.6f}" for c in theta.vector.tolist()) for theta in directions]
    witnesses = []
    for i in order:
        if len(witnesses) >= 8:
            break
        if not pool[i]:
            continue
        witnesses.append(ConsistencyWitness(
            point=probes[i].copy(),
            values={labels[j]: float(values[i, j])
                    for j in np.nonzero(np.isfinite(values[i]))[0]},
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
