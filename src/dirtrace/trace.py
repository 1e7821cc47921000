"""Directional traces at chord exit points.

Along a single chord ]alpha, beta[ the trace at the exit endpoint is the
chord average of u + (s - alpha) du/dtheta, and the trace at the entry
endpoint is the chord average of u - (beta - s) du/dtheta.  For u smooth
up to the boundary both averages collapse to the boundary values; for u
merely square integrable with a square integrable chord derivative they
are the canonical representatives, and one set of Gauss nodes per chord
evaluates both at once.  A trace field (`TraceField`) is a
`measure.DirectionalMeasure` with the exit and entry traces on its atoms.

Omnidirectional consistency asks whether traces taken along different
directions agree where the directions share boundary points.  Shared
points are found by recomputing chords (never by accidental coincidence
of atoms): a probe point from one direction's atoms is reachable in
another direction exactly when the slice through it has a chord exiting
there.  A finite direction family can only ever refute agreement, so a
clean report says "not refuted", not "proved" (in 1-D, +1 and -1 are
every direction, and a report on both decides).  A report's field-free
lookups are kept with a cached grid (`quadrature.kept_entry`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import quadrature
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
from .measure import DirectionalMeasure
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
    if not all(np.isfinite(g).all() for g in means[:traces]):
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
class TraceField(DirectionalMeasure):
    """Exit traces (`values`) and entry traces (`opposite_values`) of one
    field on the atoms of one directional measure."""

    values: np.ndarray
    opposite_values: np.ndarray
    gauss_order: int

    _value_columns = (("trace", "values"), ("opposite_trace", "opposite_values"))

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
    return TraceField._on_grid(grid, spec.n_offsets, values=gplus, opposite_values=gminus,
                               gauss_order=spec.gauss_order), norm_sq


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
        margin = quadrature._PASS_FACTOR * self.error
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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["witnesses"] = [{"point": list(map(float, w.point)),
                             "values": {k: float(v) for k, v in w.values.items()},
                             "spread": float(w.spread)} for w in self.witnesses]
        return out


# Gauss nodes per `chord_means` call of `_spreads`: consecutive directions
# share a call until it would hold more nodes than this, and a direction
# with more runs alone.  Larger calls fault tens of MB of transient arrays
# in again on every call: warm bicone `bump` reports at 32 directions,
# 1,024 offsets and 160 probes took 104-135 ms with no cap, 71-98 ms with
# this one (2-core host).  Every report of the consistency_warm benchmark
# fits in one call.
_SPREAD_NODES = 2**15


def _spreads(fld, directions, order: int, table):
    """Traces at the points of an `_exit_table` along every direction, as
    (values, shared, spreads): values (points, directions) is NaN where a
    direction does not reach a point (the slice through it has no chord
    exiting there), shared marks the points two or more directions reach,
    and spreads holds max - min of their values there (0 elsewhere).  The
    exit traces of consecutive directions come from one `chord_means`
    call per batch of at most `_SPREAD_NODES` nodes (or one direction).
    Raises DivergentChordIntegral, with no numpy warning on the way, where
    a trace is not finite."""
    found = table[3]
    values = np.full((found.shape[1], len(directions)), np.nan)
    batches, nodes = [], 0
    for j, row in enumerate(found):
        idx = np.nonzero(row)[0]
        if not idx.size:
            continue
        if not batches or nodes + idx.size * order > _SPREAD_NODES:
            batches.append([])
            nodes = 0
        batches[-1].append((j, idx))
        nodes += idx.size * order
    for batch in batches:
        # a row view, then a gather: 3x faster than arr[j, idx] (numpy 2.4)
        t, a, b = (np.concatenate([arr[j][idx] for j, idx in batch]) for arr in table[:3])
        gplus = _finite_means(
            1, chord_means, [(directions[j], idx.size) for j, idx in batch], t, a, b - a, order,
            lambda pts, s, rows, runs: _trace_terms(fld, runs, pts, s, a[rows], None))[0]
        start = 0
        for j, idx in batch:
            values[idx, j] = gplus[start:start + idx.size]
            start += idx.size
    shared = np.isfinite(values).sum(axis=1) >= 2
    spreads = np.zeros(found.shape[1])
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


_DECIDED = ("one dimension: +1 and -1 are every direction and every atom is probed, "
            "so the verdict is decided at this tolerance, not merely not refuted")

# Largest share of the probed mass that may disagree in an "in" verdict.
_MASS_TOLERANCE = 1e-6


class _Lookups(NamedTuple):
    """What consistency reports read from their chord grids alone, whatever
    the field: each probe's source direction (its index in the table),
    exit point, atom weight and offset, each direction's grid dt, the
    probes' `_exit_table`, the largest null-rule error of a direction's
    measure mass, and, probe by probe as reports need them, the exit
    chords of the probes' jittered probes (`_jittered_lookups`; None
    before the first).  One per report configuration (direction table,
    probe count and matching radius), kept with the grid of the table's
    first direction (`kept_entry`); shared, so read-only and replaced,
    never written in place."""

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


def _exit_table(domain: Domain, directions, points: np.ndarray, r_match: float):
    """`exit_chords` of the points along every direction, as read-only
    arrays (t, alpha, beta, found) of shape (directions, points), one row
    per direction, from one batch per direction over the finite points: a
    point that is not finite is found along no direction (NaN chords)."""
    ok = np.all(np.isfinite(points), axis=1)
    finite = points[ok]
    found = np.zeros((len(directions), points.shape[0]), dtype=bool)
    table = (*(np.full(found.shape, np.nan) for _ in range(3)), found)
    for j, theta in enumerate(directions):
        for arr, col in zip(table, exit_chords(domain, theta, finite, r_match)):
            arr[j, ok] = col
    _read_only(table)
    return table


def _lookups(domain: Domain, directions, n_offsets: int, probes_per_direction: int,
             r_match: float) -> _Lookups:
    """The `_Lookups` of a report: the probes (every stride-th atom of each
    direction's measure, every atom in 1-D) and their `_exit_table`."""
    grids = [chord_grid(domain, theta, n_offsets) for theta in directions]
    parts = []
    for j, grid in enumerate(grids):
        if grid.n_chords:
            stride = 1 if domain.dim == 1 else max(1, grid.n_chords // probes_per_direction)
            t = grid.t[::stride]
            parts.append((np.full(t.size, j), grid.endpoint_plus[::stride],
                          grid.weights[::stride], t))
    if not parts:
        raise InsufficientOverlap("no boundary atoms to probe")
    source, points, weights, offsets = (np.concatenate(arrs) for arrs in zip(*parts))
    dt = np.array([grid.dt for grid in grids])
    _read_only([source, points, weights, offsets, dt])
    mass_error = max(offset_estimate([g.sums(g.weights)], floor=0.0)[1][0] for g in grids)
    return _Lookups(source, points, weights, offsets, dt,
                    _exit_table(domain, directions, points, r_match), mass_error)


def _jittered_lookups(domain: Domain, directions, grid: ChordGrid, key, lookups: _Lookups,
                      idx: np.ndarray, r_match: float):
    """The `_exit_table` of the jittered probes of the probes idx (those of
    idx[k] in columns 2k and 2k + 1).

    It is kept in `_Lookups.jittered` as a mask of the probes looked up
    and arrays (t, alpha, beta, found) of shape (directions, probes, 2),
    and looked up only for the probes that no report has looked up yet:
    each source direction's jittered probes in one `_jittered_probes`
    call, then all of them in one `_exit_table`.  The fresh columns join a
    copy of the latest entry that grid keeps under key (of lookups, once
    the grid has left the cache), so no report's columns are lost.  idx
    must be sorted."""
    entry = lookups.jittered
    rows = idx if entry is None else idx[~entry[0][idx]]
    if rows.size:
        source = lookups.source[rows]
        points = np.concatenate([
            _jittered_probes(domain, directions[j], lookups.points[mine],
                             lookups.offsets[mine], lookups.dt[j])
            for j in np.unique(source) for mine in [rows[source == j]]])
        fresh = [arr.reshape(len(directions), rows.size, 2)
                 for arr in _exit_table(domain, directions, points, r_match)]

        def merge(latest):
            latest = lookups if latest is None else latest
            old, n = latest.jittered, latest.source.size
            entry = ((np.zeros(n, dtype=bool),
                      *(np.zeros((len(directions), n, 2), dtype=arr.dtype) for arr in fresh))
                     if old is None else tuple(arr.copy() for arr in old))
            entry[0][rows] = True
            for kept, arr in zip(entry[1:], fresh):
                kept[:, rows] = arr
            _read_only(entry)
            return latest._replace(jittered=entry)

        entry = kept_entry(grid, key, merge).jittered
    # np.take gathers along the middle axis 10x faster than arr[:, idx] (numpy 2.4)
    return tuple(np.take(arr, idx, axis=1).reshape(len(directions), -1) for arr in entry[1:])


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
    the mass error of the default tolerance and the exit chords of the
    jittered probes depend on no field or Gauss order, so they are kept
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
    key = (tuple(theta.key() for theta in directions), probes_per_direction, r_match)
    lookups = kept_entry(grid, key)
    if lookups is None:
        fresh = _lookups(domain, directions, spec.n_offsets, probes_per_direction, r_match)
        lookups = kept_entry(grid, key, lambda latest: fresh if latest is None else latest)
    probes, weights = lookups.points, lookups.weights

    values, shared, spreads = _spreads(fld, directions, spec.gauss_order, lookups.chords)
    decided = domain.dim == 1 and len({theta.vector[0] > 0 for theta in directions}) == 2
    if not np.any(shared) and not decided:
        raise InsufficientOverlap("no probed boundary point was reachable from two directions")

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
        jittered = _jittered_lookups(domain, directions, grid, key, lookups, bad_idx, r_match)
        jspread = _spreads(fld, directions, spec.gauss_order, jittered)[2]
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
    witnesses = [ConsistencyWitness(
        point=probes[i].copy(),
        values={labels[j]: float(values[i, j]) for j in np.nonzero(np.isfinite(values[i]))[0]},
        spread=float(spreads[i]),
    ) for i in order[pool[order]][:8]]

    return ConsistencyReport(
        verdict="out" if disagreement > _MASS_TOLERANCE else "in",
        tolerance=float(tolerance),
        max_spread=float(np.max(spreads[shared], initial=0.0)),
        disagreement_mass=disagreement,
        probed_mass=probed_mass,
        n_probes=int(probes.shape[0]),
        n_shared=int(np.count_nonzero(shared)),
        transient_conflations=n_transient,
        witnesses=witnesses,
        note=_DECIDED if decided else ConsistencyReport.note,
    )
