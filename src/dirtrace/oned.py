"""One-dimensional trace calculus on finite interval unions.

In dimension one the directional boundary is just interval endpoints,
and the only obstruction to approximating a function by globally
continuous ones is a mismatch of one-sided traces at isolated boundary
points, the endpoints shared by two intervals.  This module decides that
membership question and, when it passes, builds the continuous
approximant: truncate, keep the longest intervals until the leftover
length is below 2**-n, and bridge across everything unselected with
staircases that stay constant on unselected intervals.

A function here is one field restricted to one `IntervalUnion`.  Every
integral is the chord pipeline's along +1 at Gauss order 16: the +1
chord grid holds each interval as one chord, in order, its exit and
entry traces (`trace.chord_trace_values`) are the one-sided traces at
the right and the left end, and the H1 norm and the Sobolev distance of
an approximant are volume rules on that grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quadrature, trace
from .errors import NotInH1tr, ValidationError, check_integer, check_tolerance
from .fractal import Staircase, build_staircase
from .geometry import Direction, IntervalUnion

# Every integral runs along +1 (one Direction, kept: building one costs
# about 50 us) at order 16, on the grid of `trace`'s default --ny.
_PLUS = Direction([1.0])
_SPEC = quadrature.QuadratureSpec(gauss_order=16)
# Interior points per interval at which `PiecewiseH1.max_abs` samples |u|.
_MAX_ABS_SAMPLES = 64


class PiecewiseH1:
    """A field restricted to a finite union of open intervals."""

    def __init__(self, field, domain: IntervalUnion) -> None:
        self.field = field
        self.domain = domain

    @classmethod
    def from_field(cls, fld, intervals) -> "PiecewiseH1":
        return cls(fld, IntervalUnion(np.asarray(intervals, dtype=float).reshape(-1, 2)))

    @property
    def _grid(self) -> quadrature.ChordGrid:
        """The +1 chord grid: chord i is interval i."""
        return quadrature.chord_grid(self.domain, _PLUS, _SPEC.n_offsets)

    @cached_property
    def _traces(self):
        return tuple(trace.chord_trace_values(self.field, self._grid, _SPEC.gauss_order)[::-1])

    def traces(self):
        """(at a, at b): the canonical one-sided values of every interval
        ]a, b[ at its left and its right endpoint, the entry and exit
        traces of its chord along +1 (computed once)."""
        return self._traces

    def _at(self, x, values) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        inside = self.domain.contains_many(x)
        out = np.full(x.shape, np.nan)
        out[inside] = values(x[inside][:, None])
        return out

    def eval_many(self, x) -> np.ndarray:
        return self._at(x, self.field.eval_many)

    def deriv_many(self, x) -> np.ndarray:
        return self._at(x, lambda p: np.asarray(self.field.grad_many(p))[:, 0])

    def h1_norm_sq(self) -> float:
        """Integral of u^2 + u'^2, the volume rule along +1."""
        return quadrature.volume_integrals(
            self.domain, quadrature._theta_integrands(self.field, _PLUS), _SPEC, _PLUS)[0].value

    def max_abs(self) -> float:
        """Largest |u| at _MAX_ABS_SAMPLES interior points per interval
        (intervals where u is NaN somewhere are passed over)."""
        a, b = self.domain.intervals.T
        t = np.linspace(a, b, _MAX_ABS_SAMPLES + 2, axis=1)[:, 1:-1]
        values = np.asarray(self.field.eval_many(t.reshape(-1, 1)), float).reshape(t.shape)
        peaks = np.max(np.abs(values), axis=1)
        return float(np.fmax.reduce(peaks, initial=0.0))


def _shared_ends(arr: np.ndarray) -> np.ndarray:
    """Whether the right end of each row of sorted intervals but the last
    is the left end of the next."""
    scale = max(float(arr[-1, 1] - arr[0, 0]), 1.0)
    return np.abs(arr[1:, 0] - arr[:-1, 1]) <= 1e-12 * scale


def isolated_points(intervals) -> np.ndarray:
    """Endpoints shared by two adjacent intervals."""
    arr = np.asarray(intervals, dtype=float).reshape(-1, 2)
    arr = arr[np.argsort(arr[:, 0], kind="stable")]
    return arr[:-1, 1][_shared_ends(arr)]


@dataclass(frozen=True)
class MembershipWitness:
    point: float
    left: float
    right: float

    @property
    def jump(self) -> float:
        return abs(self.left - self.right)


@dataclass(frozen=True)
class MembershipReport:
    verdict: str
    tolerance: float
    isolated: np.ndarray
    witnesses: list

    @property
    def max_jump(self) -> float:
        return max((w.jump for w in self.witnesses), default=0.0)


def membership_report(u: PiecewiseH1, tolerance: float | None = None) -> MembershipReport:
    """Do one-sided traces agree at every isolated boundary point?"""
    check_tolerance(tolerance)
    arr = u.domain.intervals
    if tolerance is None:
        tolerance = 1e-8 * max(u.domain.diameter, 1.0)
    shared = _shared_ends(arr)
    at_a, at_b = u.traces()
    # the value from the left of each shared point, then from its right
    left, right = at_b[:-1][shared], at_a[1:][shared]
    isolated = arr[:-1, 1][shared]
    bad = np.abs(left - right) > tolerance
    witnesses = [MembershipWitness(*w) for w in
                 zip(isolated[bad].tolist(), left[bad].tolist(), right[bad].tolist())]
    return MembershipReport(
        verdict="out" if witnesses else "in",
        tolerance=float(tolerance),
        isolated=isolated,
        witnesses=witnesses,
    )


@dataclass(frozen=True)
class BridgeComponent:
    lo: float
    hi: float
    left_value: float
    right_value: float
    stair: Staircase

    def __call__(self, x) -> np.ndarray:
        """The bridge at x: left_value + (right_value - left_value) * stair(x)."""
        return self.left_value + (self.right_value - self.left_value) * self.stair(x)

    def slope(self, x) -> np.ndarray:
        """The bridge's derivative at x."""
        bp = self.stair.breakpoints
        idx = np.clip(np.searchsorted(bp[:, 0], x, side="right") - 1, 0, len(bp) - 2)
        dt = bp[idx + 1, 0] - bp[idx, 0]
        dv = bp[idx + 1, 1] - bp[idx, 1]
        step = self.right_value - self.left_value
        return step * np.where(dt > 0.0, dv / np.maximum(dt, 1e-300), 0.0)


@dataclass(frozen=True)
class ApproximationResult:
    """A continuous approximant with its Sobolev distance to the input."""

    n: int
    truncation: float
    distance: float
    selected: np.ndarray
    unselected_length: float
    window: tuple[float, float]
    components: list

    def eval_many(self, x, u: PiecewiseH1) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        out = np.clip(u.eval_many(x), -self.truncation, self.truncation)
        for comp in self.components:
            sel = (x >= comp.lo) & (x <= comp.hi)
            if np.any(sel):
                out[sel] = comp(x[sel])
        return out


def check_truncation(truncation) -> None:
    """Reject a truncation that is not finite and positive; None stands
    for the default 1 + max |u|."""
    if truncation is not None and not (math.isfinite(truncation) and truncation > 0.0):
        raise ValidationError(f"truncation must be finite and positive, got {truncation!r}")


def check_n(n) -> None:
    """Reject a tail exponent n that is not an integer in [0, 1074]: 2**-1074
    is the last nonzero threshold, so every larger n gives one approximant."""
    check_integer("n", n, 0, 1074)


def continuous_approximation(u: PiecewiseH1, n: int,
                             truncation: float | None = None) -> ApproximationResult:
    """Continuous H1 approximant at tail threshold 2**-n.

    Raises NotInH1tr when the membership check refutes approximability.
    Intervals are kept longest first until the unselected length drops
    to 2**-n; staircase bridges span everything else, constant on each
    unselected interval (so only the input's own derivative mass and the
    truncation gap contribute there).
    """
    check_n(n)
    check_truncation(truncation)
    report = membership_report(u)
    if report.verdict == "out":
        w = report.witnesses[0]
        raise NotInH1tr(f"one-sided traces disagree at {w.point}: {w.left} vs {w.right}")
    if truncation is None:
        truncation = 1.0 + u.max_abs()
    M = float(truncation)

    intervals = u.domain.intervals
    starts, ends = intervals.T
    lengths = ends - starts
    # Longest first while the remainder, the total less the lengths taken
    # so far subtracted one at a time, exceeds 2**-n.
    order = np.argsort(-lengths, kind="stable")
    remaining = np.cumsum(np.concatenate([[np.sum(lengths)], -lengths[order]]))
    selected_mask = np.zeros(lengths.size, dtype=bool)
    selected_mask[order[:np.count_nonzero(remaining[:-1] > 2.0 ** (-n))]] = True
    sel_idx = np.nonzero(selected_mask)[0]
    unsel = np.nonzero(~selected_mask)[0]

    # Maximal closed windows between consecutive selected intervals, with
    # the selected neighbour on each side (-1 at the ends of the union).
    lo = np.concatenate([starts[:1], ends[sel_idx]])
    hi = np.concatenate([starts[sel_idx], ends[-1:]])
    left_nb = np.concatenate([[-1], sel_idx])
    right_nb = np.concatenate([sel_idx, [-1]])
    keep = hi > lo
    lo, hi, left_nb, right_nb = lo[keep], hi[keep], left_nb[keep], right_nb[keep]
    # Each unselected interval is bridged by the first window reaching it:
    # window k owns unsel[owned[k]:owned[k + 1]].
    owner = np.searchsorted(hi + 1e-12, ends[unsel], side="left")
    owned = np.searchsorted(owner, np.arange(lo.size + 1), side="left")

    at_a, at_b = u.traces()
    from_left, from_right = np.clip(at_b, -M, M), np.clip(at_a, -M, M)
    bridged = []
    for k, (a, b, i, j) in enumerate(zip(lo.tolist(), hi.tolist(),
                                         left_nb.tolist(), right_nb.tolist())):
        # a side without a selected neighbour takes the other side's value,
        # and both are 0 when nothing is selected
        left_val = float(from_left[i]) if i >= 0 else None
        right_val = float(from_right[j]) if j >= 0 else left_val
        if left_val is None:
            left_val = right_val = 0.0 if right_val is None else right_val
        rows = unsel[owned[k]:owned[k + 1]]
        inner = intervals[rows]
        # Enough rounds to consume every gap (worst case one per round).
        stair = build_staircase(inner, a, b, min(len(inner) + 1, 48),
                                margin=1e-9 * (b - a))
        bridged.append((BridgeComponent(a, b, left_val, right_val, stair), rows))

    # Sobolev distance: exact zero on selected intervals when the truncation
    # is inactive there; everything else integrates numerically.
    def node_arrays(pts, s, rows, runs):
        flat = pts.reshape(-1, 1)
        uu = np.asarray(u.field.eval_many(flat), dtype=float).reshape(s.shape)
        du = np.asarray(u.field.grad_many(flat))[:, 0].reshape(s.shape)
        vv, dv = np.clip(uu, -M, M), np.where(np.abs(uu) < M, du, 0.0)
        for comp, chords in bridged:
            mine = chords[(chords >= rows.start) & (chords < rows.stop)] - rows.start
            vv[mine], dv[mine] = comp(s[mine]), comp.slope(s[mine])
        yield (vv - uu) ** 2 + (dv - du) ** 2

    grid = u._grid
    means, = quadrature.grid_means(grid, _SPEC.gauss_order, node_arrays)
    dist_sq = float(np.sum(quadrature._rule_terms(means, grid.lengths, grid.chord_dt)))

    return ApproximationResult(
        n=n,
        truncation=M,
        distance=float(np.sqrt(dist_sq)),
        selected=sel_idx,
        unselected_length=float(np.sum(lengths[~selected_mask])),
        window=(float(starts[0]), float(ends[-1])),
        components=[comp for comp, _ in bridged],
    )
