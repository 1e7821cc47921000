"""Piece-at-a-time 1D membership and approximation: an oracle for `oned`.

This is the original module: one `Piece` with its own callables per
interval, one Gauss rule and one field evaluation per interval and side,
and a scan over every interval for each bridge window.  The package
evaluates all intervals at once; both must give bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dirtrace import _gauss
from dirtrace.errors import NotInH1tr, ValidationError
from dirtrace.fractal import Staircase, build_staircase
from dirtrace.geometry import IntervalUnion

_ORDER = 16


@dataclass(frozen=True)
class Piece:
    """One interval with a smooth function and its derivative on it."""

    a: float
    b: float
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]


class PiecewiseH1:
    """A function given piecewise on a finite union of open intervals."""

    def __init__(self, pieces) -> None:
        pieces = sorted(pieces, key=lambda p: p.a)
        if not pieces:
            raise ValidationError("need at least one piece")
        for p in pieces:
            if not (p.a < p.b):
                raise ValidationError("each piece needs a < b")
        for left, right in zip(pieces[:-1], pieces[1:]):
            if right.a < left.b:
                raise ValidationError("pieces overlap")
        self.pieces = list(pieces)
        self._starts = np.array([p.a for p in pieces])
        self._ends = np.array([p.b for p in pieces])

    @classmethod
    def from_field(cls, fld, intervals) -> "PiecewiseH1":
        arr = np.asarray(intervals, dtype=float).reshape(-1, 2)

        def f(t, _fld=fld):
            return np.asarray(_fld.eval_many(np.asarray(t, float)[:, None]), float)

        def df(t, _fld=fld):
            return np.asarray(_fld.grad_many(np.asarray(t, float)[:, None]))[:, 0]

        return cls([Piece(float(a), float(b), f, df) for a, b in arr])

    @property
    def domain(self) -> IntervalUnion:
        return IntervalUnion(np.column_stack([self._starts, self._ends]))

    def _locate(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._starts, x, side="right") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        inside = (x > self._starts[idx]) & (x < self._ends[idx])
        return np.where(inside, idx, -1)

    def eval_many(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        idx = self._locate(x)
        out = np.full(x.shape, np.nan)
        for i, piece in enumerate(self.pieces):
            sel = idx == i
            if np.any(sel):
                out[sel] = piece.f(x[sel])
        return out

    def deriv_many(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        idx = self._locate(x)
        out = np.full(x.shape, np.nan)
        for i, piece in enumerate(self.pieces):
            sel = idx == i
            if np.any(sel):
                out[sel] = piece.df(x[sel])
        return out

    def piece_nodes(self, i: int):
        piece = self.pieces[i]
        x, w = _gauss.nodes(_ORDER)
        t = piece.a + (x + 1.0) * 0.5 * (piece.b - piece.a)
        scale = 0.5 * (piece.b - piece.a)
        return t, w * scale

    def piece_trace(self, i: int, side: int) -> float:
        """Canonical one-sided value at an endpoint of piece i.

        side +1 gives the value at b (exit along the positive direction),
        side -1 the value at a.
        """
        piece = self.pieces[i]
        t, w = self.piece_nodes(i)
        ell = piece.b - piece.a
        u = piece.f(t)
        du = piece.df(t)
        if side > 0:
            vals = u + (t - piece.a) * du
        else:
            vals = u - (piece.b - t) * du
        return float(np.sum(w * vals) / ell)

    def h1_norm_sq(self) -> float:
        total = 0.0
        for i, piece in enumerate(self.pieces):
            t, w = self.piece_nodes(i)
            total += float(np.sum(w * (piece.f(t) ** 2 + piece.df(t) ** 2)))
        return total

    def max_abs(self, samples: int = 64) -> float:
        worst = 0.0
        for piece in self.pieces:
            t = np.linspace(piece.a, piece.b, samples + 2)[1:-1]
            worst = max(worst, float(np.max(np.abs(piece.f(t)))))
        return worst


def isolated_points(intervals) -> np.ndarray:
    """Endpoints shared by two adjacent intervals."""
    arr = np.asarray(intervals, dtype=float).reshape(-1, 2)
    order = np.argsort(arr[:, 0], kind="stable")
    arr = arr[order]
    scale = max(float(arr[-1, 1] - arr[0, 0]), 1.0)
    shared = np.abs(arr[1:, 0] - arr[:-1, 1]) <= 1e-12 * scale
    return arr[:-1, 1][shared]


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
    intervals = np.column_stack([u._starts, u._ends])
    scale = max(float(u._ends[-1] - u._starts[0]), 1.0)
    if tolerance is None:
        tolerance = 1e-8 * scale
    witnesses = []
    isolated = []
    for i in range(len(u.pieces) - 1):
        if abs(u.pieces[i + 1].a - u.pieces[i].b) > 1e-12 * scale:
            continue
        z = u.pieces[i].b
        isolated.append(z)
        left = u.piece_trace(i, +1)
        right = u.piece_trace(i + 1, -1)
        if abs(left - right) > tolerance:
            witnesses.append(MembershipWitness(z, left, right))
    return MembershipReport(
        verdict="out" if witnesses else "in",
        tolerance=float(tolerance),
        isolated=np.asarray(isolated),
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

    lengths = u._ends - u._starts
    order = np.argsort(-lengths, kind="stable")
    target = 2.0 ** (-n)
    remaining = float(np.sum(lengths))
    selected_mask = np.zeros(len(u.pieces), dtype=bool)
    for idx in order:
        if remaining <= target:
            break
        selected_mask[idx] = True
        remaining -= float(lengths[idx])

    alpha = float(u._starts[0])
    beta = float(u._ends[-1])

    # Maximal closed windows between consecutive selected intervals.
    sel_idx = np.nonzero(selected_mask)[0]
    edges = [(float(u._starts[i]), float(u._ends[i]), int(i)) for i in sel_idx]
    windows = []
    prev_end = alpha
    prev_piece = None
    for a, b, i in edges:
        if a > prev_end:
            windows.append((prev_end, a, prev_piece, i))
        prev_end = b
        prev_piece = i
    if prev_end < beta:
        windows.append((prev_end, beta, prev_piece, None))
    if not edges:
        windows = [(alpha, beta, None, None)]

    components = []
    for lo, hi, left_piece, right_piece in windows:
        if hi - lo <= 0.0:
            continue
        inner = [
            (float(u._starts[k]), float(u._ends[k]))
            for k in range(len(u.pieces))
            if not selected_mask[k] and u._starts[k] >= lo - 1e-14 and u._ends[k] <= hi + 1e-14
        ]
        left_val = (
            float(np.clip(u.piece_trace(left_piece, +1), -M, M))
            if left_piece is not None else None
        )
        right_val = (
            float(np.clip(u.piece_trace(right_piece, -1), -M, M))
            if right_piece is not None else None
        )
        if left_val is None and right_val is None:
            left_val = right_val = 0.0
        elif left_val is None:
            left_val = right_val
        elif right_val is None:
            right_val = left_val
        # Enough rounds to consume every gap (worst case one per round).
        p_need = min(len(inner) + 1, 48)
        margin = 1e-9 * (hi - lo)
        stair = build_staircase(np.asarray(inner).reshape(-1, 2), lo, hi,
                                p_need, margin=margin)
        components.append(BridgeComponent(lo, hi, left_val, right_val, stair))

    # Sobolev distance: exact zero on selected pieces when the truncation
    # is inactive there; everything else integrates numerically.
    dist_sq = 0.0
    comp_by_span = components
    for k, piece in enumerate(u.pieces):
        t, w = u.piece_nodes(k)
        uu = piece.f(t)
        du = piece.df(t)
        if selected_mask[k]:
            vv = np.clip(uu, -M, M)
            dv = np.where(np.abs(uu) < M, du, 0.0)
        else:
            comp = next(c for c in comp_by_span if c.lo - 1e-12 <= piece.a and piece.b <= c.hi + 1e-12)
            frac = comp.stair(t)
            vv = comp.left_value + (comp.right_value - comp.left_value) * frac
            dv = (comp.right_value - comp.left_value) * _stair_slope(comp.stair, t)
        dist_sq += float(np.sum(w * ((vv - uu) ** 2 + (dv - du) ** 2)))

    return ApproximationResult(
        n=n,
        truncation=M,
        distance=float(np.sqrt(dist_sq)),
        selected=sel_idx,
        unselected_length=float(np.sum(lengths[~selected_mask])),
        window=(alpha, beta),
        components=components,
    )
