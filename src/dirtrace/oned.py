"""One-dimensional trace calculus on finite interval unions.

In dimension one the directional boundary is just interval endpoints,
and the only obstruction to approximating a function by globally
continuous ones is a mismatch of one-sided traces at isolated boundary
points, the endpoints shared by two intervals.  This module decides that
membership question and, when it passes, builds the continuous
approximant: truncate, keep the longest intervals until the leftover
length is below 2**-n, and bridge across everything unselected with
staircases that stay constant on unselected intervals.

A function here is one field restricted to one `IntervalUnion`.  One
16-point Gauss rule per interval, laid out as an (intervals, 16) array,
serves every interval at once: one field evaluation gives both one-sided
traces of every interval, the H1 norm and the Sobolev distance of an
approximant.  Per-interval sums run along the rows (`np.sum(..., axis=1)`,
whose rounding does not depend on how many rows there are), and sums
over intervals accumulate in interval order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _gauss
from .errors import NotInH1tr
from .fractal import Staircase, build_staircase
from .geometry import IntervalUnion

_ORDER = 16
# Interior points per interval at which `PiecewiseH1.max_abs` samples |u|.
_MAX_ABS_SAMPLES = 64


def _in_order(terms: np.ndarray) -> float:
    """Sum of terms added one after the other, as a running total would."""
    return float(np.cumsum(terms)[-1])


class PiecewiseH1:
    """A field restricted to a finite union of open intervals."""

    def __init__(self, field, domain: IntervalUnion) -> None:
        self.field = field
        self.domain = domain

    @classmethod
    def from_field(cls, fld, intervals) -> "PiecewiseH1":
        return cls(fld, IntervalUnion(np.asarray(intervals, dtype=float).reshape(-1, 2)))

    def _values(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.field.eval_many(t.reshape(-1, 1)), float).reshape(t.shape)

    @cached_property
    def _rule(self):
        """Gauss nodes t, weights w, values u and derivatives du, each
        (intervals, 16)."""
        a, b = self.domain.intervals.T
        x, w = _gauss.nodes(_ORDER)
        t = a[:, None] + (x + 1.0) * 0.5 * (b - a)[:, None]
        du = np.asarray(self.field.grad_many(t.reshape(-1, 1)))[:, 0].reshape(t.shape)
        return t, w * (0.5 * (b - a))[:, None], self._values(t), du

    def traces(self):
        """(at a, at b): the canonical one-sided values of every interval
        ]a, b[ at its left and its right endpoint."""
        t, w, u, du = self._rule
        a, b = self.domain.intervals.T
        ell = b - a
        left = np.sum(w * (u - (b[:, None] - t) * du), axis=1) / ell
        right = np.sum(w * (u + (t - a[:, None]) * du), axis=1) / ell
        return left, right

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
        _, w, u, du = self._rule
        return _in_order(np.sum(w * (u ** 2 + du ** 2), axis=1))

    def max_abs(self) -> float:
        """Largest |u| at _MAX_ABS_SAMPLES interior points per interval
        (intervals where u is NaN somewhere are passed over)."""
        a, b = self.domain.intervals.T
        t = np.linspace(a, b, _MAX_ABS_SAMPLES + 2, axis=1)[:, 1:-1]
        peaks = np.max(np.abs(self._values(t)), axis=1)
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
                frac = comp.stair(x[sel])
                out[sel] = comp.left_value + (comp.right_value - comp.left_value) * frac
        return out


def _stair_slope(stair: Staircase, x: np.ndarray) -> np.ndarray:
    bp = stair.breakpoints
    idx = np.clip(np.searchsorted(bp[:, 0], x, side="right") - 1, 0, len(bp) - 2)
    dt = bp[idx + 1, 0] - bp[idx, 0]
    dv = bp[idx + 1, 1] - bp[idx, 1]
    return np.where(dt > 0.0, dv / np.maximum(dt, 1e-300), 0.0)


def continuous_approximation(u: PiecewiseH1, n: int,
                             truncation: float | None = None) -> ApproximationResult:
    """Continuous H1 approximant at tail threshold 2**-n.

    Raises NotInH1tr when the membership check refutes approximability.
    Intervals are kept longest first until the unselected length drops
    to 2**-n; staircase bridges span everything else, constant on each
    unselected interval (so only the input's own derivative mass and the
    truncation gap contribute there).
    """
    report = membership_report(u)
    if report.verdict == "out":
        w = report.witnesses[0]
        raise NotInH1tr(
            f"one-sided traces disagree at {w.point}: {w.left} vs {w.right}"
        )
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
    # The unselected intervals inside each window are those in first:last;
    # each unselected interval is bridged by the first window reaching it.
    first = np.searchsorted(starts, lo - 1e-14, side="left")
    last = np.searchsorted(ends, hi + 1e-14, side="right")
    owner = np.searchsorted(hi + 1e-12, ends[unsel], side="left")
    owned = np.searchsorted(owner, np.arange(lo.size + 1), side="left")

    at_a, at_b = u.traces()
    from_left, from_right = np.clip(at_b, -M, M), np.clip(at_a, -M, M)
    t, w, uu, du = u._rule
    # Sobolev distance: exact zero on selected intervals when the truncation
    # is inactive there; everything else integrates numerically.
    vv = np.clip(uu, -M, M)
    dv = np.where(np.abs(uu) < M, du, 0.0)
    components = []
    for k, (a, b, i, j) in enumerate(zip(lo.tolist(), hi.tolist(),
                                         left_nb.tolist(), right_nb.tolist())):
        # a side without a selected neighbour takes the other side's value,
        # and both are 0 when nothing is selected
        left_val = float(from_left[i]) if i >= 0 else None
        right_val = float(from_right[j]) if j >= 0 else left_val
        if left_val is None:
            left_val = right_val = 0.0 if right_val is None else right_val
        inner = intervals[first[k]:last[k]][~selected_mask[first[k]:last[k]]]
        # Enough rounds to consume every gap (worst case one per round).
        stair = build_staircase(inner, a, b, min(len(inner) + 1, 48),
                                margin=1e-9 * (b - a))
        components.append(BridgeComponent(a, b, left_val, right_val, stair))
        rows = unsel[owned[k]:owned[k + 1]]
        step = right_val - left_val
        vv[rows] = left_val + step * stair(t[rows])
        dv[rows] = step * _stair_slope(stair, t[rows])
    dist_sq = _in_order(np.sum(w * ((vv - uu) ** 2 + (dv - du) ** 2), axis=1))

    return ApproximationResult(
        n=n,
        truncation=M,
        distance=float(np.sqrt(dist_sq)),
        selected=sel_idx,
        unselected_length=float(np.sum(lengths[~selected_mask])),
        window=(float(starts[0]), float(ends[-1])),
        components=components,
    )
