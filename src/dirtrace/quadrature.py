"""Chord quadrature for volume and boundary integrals.

Both integral kinds start from the same object: the chord grid of a
domain for a direction, a midpoint grid of hyperplane offsets with every
chord of every sampled line.  The one volume rule applies Gauss-Legendre
nodes along each chord (or each panel of it) and the midpoint rule across
offsets, and `volume_integrals` evaluates any number of integrands on one
node set per rule; boundary integrals weight the exit endpoint of each
chord by chord length times offset step, which is exactly the atom weight
of the directional boundary measure.

Every error estimate comes from `offset_estimate`, which reads the one
chord grid and the one node set of its result.  The offset rule is a
midpoint rule on the section integral F(t), and each result carries its
per-offset row sums R_i (`ChordGrid.row_sums`, cell width included).  The
null rule (1/8) sum |R_{i-1} - 2 R_i + R_{i+1}|, over the cells of each
breakpoint segment whose both neighbours lie in it (Berntsen & Espelid,
ACM TOMS 17, 1991), vanishes on rows affine within a segment and is
about 3 times the midpoint error on smooth rows; a kink inside a cell or
a square-root tangency shows in the second differences next to it.  A
float floor is added, so an error of zero is never reported.  The floor
is `_FLOOR_EPS` (32 eps) times (magnitude + 1) per value in
`volume_integral`, `boundary_integral`, `trace_norm_sq`,
`lebesgue_comparison`, `integration_by_parts` and `paired_identity`;
`trace_inequalities` and `reflection_check` add 1e-12 (1 + magnitude)
once to their summed errors, and the default tolerance of
`consistency_report` floors its largest mass error at 1e-12.  Divergence
checks (`_check_settled`) compare a value with the nested midpoint rules
at n/3 and n/9, read from the same rows.  Offsets whose slice carried the
thin-feature flag are excluded from all sums and surface as a flag count
in every result.

Every Gauss rule on chords is `chord_means`, in one call form: runs of
chords, each along its own direction.  Its value for a chord depends only
on that chord, not on the batch or block it is computed in; sums over
chords are one np.sum, and row sums one np.bincount, in a fixed order, so
values and error bars are bit-identical from run to run.  The 1-D line is
a grid of one offset, 0, of width 1, and `oned` reads its +1 grid.

The rules over a cached grid's own chords (`grid_means`: the volume rule
without panels, the traces, the trace pass of the Lebesgue comparisons
and both sides of integration by parts) read the grid's Gauss nodes, s
and the points, from a read-only set kept with the grid per Gauss order,
built on first use by `chord_means` itself, so every float is the one a
fresh build gives.  A grid keeps a set only when it fits one block of
_BLOCK nodes, and all cached grids together keep at most _BLOCK nodes
(6 MiB in 2-D), the first sets to arrive.  A grid keeps its node sets and
its callers' entries (`kept_entry`) in one store, freed when it leaves the
cache, which keys it by the bits of its direction: a cached grid's
direction is the caller's, the signs of its zeros included.  Derived
chords (panels, depth means, exit chords of probes, stage intervals)
build their nodes block by block on every call.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import _gauss
from .errors import UnresolvedSingularity, ValidationError, check_integer
from .geometry import (
    Direction,
    Domain,
    _feet,
    chord_table,
    hyperplane_range,
    points_along,
)

_GAUSS_ORDERS = (4, 8, 16)

# Gauss nodes per block of `chord_means` (32,768 chords at order 8, 16,384
# at order 16), and the most nodes that all cached grids keep together
# (`grid_means`; 2**18 (d + 1) floats, 6 MiB in 2-D).  No float depends on
# it.  Small blocks cost refaults: glibc malloc trims each call's transient
# arrays (above twice its largest freed mmap chunk) and faults them in
# again.  A warm_reductions pass (seed 1) made about 2,500 minor faults
# with blocks of 2**17 nodes, and 0-8 with 3 * 2**16 or 2**18, as with the
# 32,768-chord blocks before (2-core host).
_BLOCK = 2**18

# Keep this many chord grids alive; grids are rebuilt transparently.
_CACHE_LIMIT = 160

# Multiplier on the magnitude-scaled float floor added to error reports.
_FLOOR_EPS = 32.0 * np.finfo(float).eps

# A report passes when its residual is within this many error bars (every
# gate reads it when it is called).
_PASS_FACTOR = 3.0

# A value that differs from its nested n/3 rule (or that rule from the n/9
# rule) by this much relative to itself, and by more than the scale, is
# treated as non-convergent.
_DIVERGENCE_RATIO = 0.4
_DIVERGENCE_SCALE = 1e3


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs shared by every integral routine."""

    n_offsets: int = 4096
    gauss_order: int = 8

    def __post_init__(self) -> None:
        check_integer("n_offsets", self.n_offsets, 2, 2**22)
        _check_order(self.gauss_order)


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
    """Midpoint offsets, cell widths and cells per segment, never straddling
    a length kink.

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
        return (lo + (np.arange(n_offsets) + 0.5) * dt, np.full(n_offsets, dt),
                np.array([n_offsets]))
    edges = np.concatenate([[lo], cuts, [hi]])
    seg = np.diff(edges)
    counts = np.maximum(1, np.rint(n_offsets * seg / span).astype(np.int64))
    h = np.repeat(seg / counts, counts)
    k = np.arange(h.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(edges[:-1], counts) + (k + 0.5) * h, h, counts


def _check_order(order) -> None:
    check_integer("gauss_order", order, min(_GAUSS_ORDERS), max(_GAUSS_ORDERS))
    if order not in _GAUSS_ORDERS:
        raise ValidationError(f"gauss_order must be one of {_GAUSS_ORDERS}, got {order!r}")


def chord_reduce(vals, w) -> np.ndarray:
    """Per-chord sums sum_j vals[i, j] w[j] of node values vals, (n, q) or
    flat; einsum sums each C-contiguous row alike in any batch, BLAS does not."""
    vals = np.asarray(vals, dtype=float, order="C").reshape(-1, w.size)
    return np.einsum("ij,j->i", vals, w)


def chord_means(runs, t, alpha, length, order: int, node_arrays):
    """Gauss means (`chord_reduce`, weights summing to 1) of each node array
    that `node_arrays(points, s, rows, runs)` yields on the chords ]alpha,
    alpha + length[ at offsets t, a block of at most _BLOCK nodes (one
    chord at least) at a time: rows slices a block, points (m, q, d) are
    coordinate-major (see `points_along`) and s (m, q) = alpha + ((x + 1)
    / 2) * length live only while node_arrays keeps them.

    runs is a sequence of runs (Direction, count) of consecutive chords,
    each along its own direction, so that one call covers the chords of
    one direction or of many (the exit traces of a consistency report,
    say).  Each run's nodes are built with its own direction's components,
    float for float as a call on that run alone builds them, and
    node_arrays gets the block's runs as (Direction, slice of its rows)
    pairs, empty runs left out."""
    _check_order(order)
    x, w = _gauss.nodes(order)
    half, w = (x + 1.0) * 0.5, 0.5 * w
    dim = runs[0][0].dim
    step = max(1, _BLOCK // order)
    blocks = []
    # an empty grid still makes one (empty) block, so every mean is an array
    for lo in range(0, max(length.size, 1), step):
        rows = slice(lo, lo + step)
        s = np.multiply.outer(length[rows], half)
        s += alpha[rows, None]
        points = np.empty((dim,) + s.shape)
        pieces, start = [], 0
        for direction, count in runs:
            a, b = max(start, lo) - lo, min(start + count, lo + s.shape[0]) - lo
            start += count
            if a < b:
                piece = slice(a, b)
                points_along(_feet(t[lo + a:lo + b], direction.perp_vector), s[piece],
                             direction.vector, out=points[:, piece])
                pieces.append((direction, piece))
        points = points.transpose(1, 2, 0)
        arrays = node_arrays(points, s, rows, pieces)
        del s, points
        blocks.append([chord_reduce(v, w) for v in arrays])
    return [np.concatenate(sums) for sums in zip(*blocks)]


class ChordGrid:
    """All chords of a domain for one direction at one offset resolution.

    Arrays are parallel over chords, in offset-major order.  `dt` is the
    nominal offset step (1 in dimension one, where the single line through
    the origin carries everything); cell widths can vary around kinks.
    """

    def __init__(self, domain: Domain, theta: Direction, n_offsets: int) -> None:
        self.theta = theta
        lo, hi = hyperplane_range(domain, theta)
        # n_offsets per axis of the offset hyperplane: one in 1D, the origin
        n = n_offsets ** (domain.dim - 1)
        dt = (hi - lo) / n
        ts, widths, counts = _offset_cells(domain, theta, lo, hi, n)
        rows, alpha, beta, flags = chord_table(domain, theta, ts)
        keep = ~flags[rows]

        self.offset_index = rows[keep]
        self.alpha = alpha[keep]
        self.beta = beta[keep]
        self.offsets = ts
        self.offset_widths = widths
        self.segment_counts = counts
        self.dt = float(dt)
        self.flagged_offsets = int(np.count_nonzero(flags))
        self.lengths = self.beta - self.alpha
        for arr in (self.offsets, self.offset_widths, self.segment_counts,
                    self.offset_index, self.alpha, self.beta, self.lengths):
            arr.setflags(write=False)
        # what the grid keeps while it is cached, None outside the cache:
        # Gauss order -> read-only (s, points) of its own chords
        # (`grid_means`), and a tuple -> a caller's entry (`kept_entry`)
        self._kept = None

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
    def endpoint_plus(self) -> np.ndarray:
        """Exit endpoint of each chord, (n, d)."""
        return points_along(_feet(self.t, self.theta.perp_vector), self.beta, self.theta.vector)

    @property
    def endpoint_minus(self) -> np.ndarray:
        """Entry endpoint of each chord, (n, d)."""
        return points_along(_feet(self.t, self.theta.perp_vector), self.alpha, self.theta.vector)

    @property
    def n_chords(self) -> int:
        return self.alpha.shape[0]

    def row_sums(self, terms, chords=None):
        """Per-offset sums of per-chord terms (with `chords`, of terms that
        belong to those chords, panels say), and the cells per breakpoint
        segment: the rows that `offset_estimate` reads."""
        index = self.offset_index if chords is None else self.offset_index[chords]
        return (np.bincount(index, weights=terms, minlength=self.offsets.size),
                self.segment_counts)

    def sums(self, terms, chords=None):
        """(value, scale, rows) of per-chord terms, as `offset_estimate`
        takes them: their sum, the sum of their magnitudes, `row_sums`."""
        return (float(np.sum(terms)), float(np.sum(np.abs(terms))),
                self.row_sums(terms, chords))


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
        # a grid that another thread cached meanwhile is the one kept
        cached = _cache.setdefault(key, grid)
        if cached is grid:
            grid._kept = {}
            while len(_cache) > _CACHE_LIMIT:  # all it keeps goes with it
                _cache.popitem(last=False)[1]._kept = None
    return cached


def clear_cache() -> None:
    with _cache_lock:
        for grid in _cache.values():
            grid._kept = None
        _cache.clear()


def _kept_nodes() -> int:
    """Gauss nodes in the node sets of all cached grids (under _cache_lock)."""
    return sum(value[0].size for grid in _cache.values()
               for key, value in grid._kept.items() if key in _GAUSS_ORDERS)


def kept_entry(grid: ChordGrid, key: tuple, update=None):
    """The entry that a cached grid keeps under key, None if none; with
    update, first replace it by update(entry), quick and not writing into
    the shared entry it gets, under the cache lock and so on the latest
    entry (kept only while the grid is cached)."""
    with _cache_lock:
        kept = grid._kept
        entry = None if kept is None else kept.get(key)
        if update is not None:
            entry = update(entry)
            if kept is not None:
                kept[key] = entry
        return entry


def _own_nodes(grid: ChordGrid, order: int):
    """(s, points) of every chord of a cached grid along its direction at a
    Gauss order, read-only, as `chord_means` builds them in one block, and
    kept with the grid while the kept sets of all grids stay within _BLOCK
    nodes (the first sets to arrive are kept); None when the grid is not
    cached, its nodes do not fit one block or the budget is spent."""
    nodes = grid.n_chords * order
    with _cache_lock:
        kept = grid._kept
        if kept is None or nodes > _BLOCK:
            return None
        if order in kept:
            return kept[order]
        if _kept_nodes() + nodes > _BLOCK:
            return None
    built = []
    chord_means([(grid.theta, grid.n_chords)], grid.t, grid.alpha, grid.lengths, order,
                lambda points, s, rows, runs: built.append((s, points)) or ())
    (s, points), = built
    s.setflags(write=False)
    points.setflags(write=False)
    with _cache_lock:
        kept = grid._kept
        if kept is None:  # the grid left the cache meanwhile
            return s, points
        # another thread may have kept a set meanwhile, or spent the budget
        if order not in kept and _kept_nodes() + nodes <= _BLOCK:
            kept[order] = s, points
        return kept.get(order, (s, points))


def grid_means(grid: ChordGrid, order: int, node_arrays):
    """`chord_means` of node_arrays on every chord of the grid along its
    direction, float for float, from the node set that the grid keeps at
    the order (`_own_nodes`); the node set is read-only, so node_arrays
    must not write into it."""
    _check_order(order)
    n = grid.n_chords
    nodes = _own_nodes(grid, order)
    if nodes is None:
        return chord_means([(grid.theta, n)], grid.t, grid.alpha, grid.lengths, order,
                           node_arrays)
    s, points = nodes
    w = 0.5 * _gauss.nodes(order)[1]
    runs = [(grid.theta, slice(0, n))] if n else []
    return [chord_reduce(v, w) for v in node_arrays(points, s, slice(0, n), runs)]


def _as_eval(f):
    return f.eval_many if hasattr(f, "eval_many") else f


def _rule_terms(means, length, row_dt):
    """Per-chord terms of the volume rule from per-chord Gauss means."""
    terms = means * length * row_dt
    if not np.all(np.isfinite(terms)):
        raise UnresolvedSingularity("integrand not finite on a chord quadrature node")
    return terms


def _panels(grid: ChordGrid, panel: float):
    """The grid's chords cut into panels of at most `panel` arc length, as
    (chord of each panel, t, alpha, length, row_dt) of the panels.

    Composite rule: chords much longer than the integrand's feature scale
    are cut into panels so the per-chord Gauss error cannot hide below the
    offset error estimate."""
    m = np.maximum(1, np.ceil(grid.lengths / panel).astype(np.int64))
    ci = np.repeat(np.arange(grid.n_chords), m)
    pj = np.arange(ci.size) - np.repeat(np.cumsum(m) - m, m)
    length = grid.lengths[ci] / m[ci]
    return ci, grid.t[ci], grid.alpha[ci] + pj * length, length, grid.chord_dt[ci]


def _rule_sums(grid, integrands, order: int, panels=None):
    """`ChordGrid.sums` of the chord rule at the Gauss order, one per array
    that `integrands(points)` yields, all from one set of nodes on the
    grid's chords, or on their `_panels`."""

    def node_arrays(pts, s, rows, runs):
        del s  # no arc offsets (a built set is freed before the integrands run)
        yield from integrands(pts.reshape(-1, pts.shape[-1]))

    if panels is None:
        ci, length, row_dt = None, grid.lengths, grid.chord_dt
        means = grid_means(grid, order, node_arrays)
    else:
        ci, t, alpha, length, row_dt = panels
        means = chord_means([(grid.theta, t.size)], t, alpha, length, order, node_arrays)
    return [grid.sums(_rule_terms(v, length, row_dt), ci) for v in means]


@functools.lru_cache(maxsize=_CACHE_LIMIT)
def _segment_plan(counts: bytes):
    """The part of `offset_estimate` fixed by the cell counts of the
    segments (int64 bytes), as (interior, triples, ninefold).

    Second difference j belongs to cell j + 1.  `interior` marks those
    whose cell has both neighbours in its segment; `triples` indexes those
    at the middle cells of the n/3 rule; `ninefold` weighs the rows into
    the fine rule minus the n/9 rule.  Both coarse rules group each
    segment's cells by threes (nines) from its start, and the cells left
    at its end keep their fine rows.
    """
    counts = np.frombuffer(counts, dtype=np.int64)
    segment = np.repeat(np.arange(counts.size), counts)
    interior = segment[:-2] == segment[2:]

    def groups(k):  # the first cell of each group of k
        g = counts // k
        return (np.repeat(np.cumsum(counts) - counts, g)
                + k * (np.arange(g.sum()) - np.repeat(np.cumsum(g) - g, g)))

    nines = groups(9)
    ninefold = np.zeros(segment.size)
    ninefold[(nines[:, None] + np.arange(9)).ravel()] = 1.0
    ninefold[nines + 4] = -8.0
    plan = interior, groups(3), ninefold
    for arr in plan:  # shared by every caller
        arr.setflags(write=False)
    return plan


def offset_estimate(sums, floor: float = _FLOOR_EPS):
    """(values, errors, coarse) of offset-rule results given as `ChordGrid.sums`
    triples (value, scale, rows).  Each error is the null rule
    (1/8) sum |R_{i-1} - 2 R_i + R_{i+1}| over the cells i with both
    neighbours in their breakpoint segment, plus floor * (scale + 1), as a
    plain float; each coarse pair holds the nested midpoint rules at n/3
    and n/9, for `_check_settled`."""
    values, errors, coarse = [], [], []
    for value, scale, (rows, counts) in sums:
        interior, triples, ninefold = _segment_plan(
            np.asarray(counts, dtype=np.int64).tobytes())
        second = rows[:-2] - 2.0 * rows[1:-1] + rows[2:]
        values.append(value)
        errors.append(float(0.125 * np.sum(np.abs(second[interior]))
                            + floor * (scale + 1.0)))
        coarse.append((value - float(np.sum(second[triples])),
                       value - float(np.sum(rows * ninefold))))
    return values, errors, coarse


def _check_settled(value: float, coarse, error=UnresolvedSingularity,
                   what: str = "integral fails to settle") -> None:
    """Raise error unless value and its n/3 rule, and the n/3 and the n/9
    rules (`offset_estimate`'s coarse pair), agree level by level."""
    for fine, rough in zip((value, coarse[0]), coarse):
        if abs(fine - rough) > max(_DIVERGENCE_RATIO * abs(fine), _DIVERGENCE_SCALE):
            raise error(f"{what} under refinement: {fine!r} vs {rough!r}")


def volume_integrals(domain: Domain, integrands, spec: QuadratureSpec | None = None,
                     direction: Direction | None = None,
                     panel: float | None = None) -> list[IntegralResult]:
    """Integral over the domain, sliced into chords along `direction`, of each
    array that `integrands(points)` yields (best one at a time, from a
    generator); every rule builds its nodes once for all of them.

    `panel` caps the arc length covered by one Gauss rule; when set, each
    error estimate also includes the difference against the other order's
    rule on the same grid, so that integrands far below the chord scale are
    reported honestly.
    """
    spec = spec or QuadratureSpec()
    theta = direction or Direction(np.eye(domain.dim)[0])  # the first axis
    grid = chord_grid(domain, theta, spec.n_offsets)
    # both rules read one split into panels
    panels = None if panel is None else _panels(grid, panel)
    values, errors, coarse = offset_estimate(
        _rule_sums(grid, integrands, spec.gauss_order, panels))
    if panel is not None:
        alt = 4 if spec.gauss_order != 4 else 8
        alt_values = [v for v, _, _ in _rule_sums(grid, integrands, alt, panels)]
        errors = [e + abs(v - a) for e, v, a in zip(errors, values, alt_values)]
    for v, c in zip(values, coarse):
        _check_settled(v, c)
    flags = grid.flagged_offsets
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

    grid = chord_grid(domain, theta, spec.n_offsets)
    vals = np.asarray(ge(grid.endpoint_plus), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise UnresolvedSingularity("boundary integrand not finite at an atom")
    (value,), (error,), _ = offset_estimate([grid.sums(grid.weights * vals)])
    return IntegralResult(value, error, grid.flagged_offsets, spec.n_offsets,
                          spec.gauss_order, method="boundary_atoms")


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
