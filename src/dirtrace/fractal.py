"""Cantor gap tables, devil staircases, and the named example domains.

Two services live here.  First, thin public wrappers around the Cantor
machinery: gap enumeration in binary-heap order, exact distance to the
set, surviving intervals per level.  Second, the recursive staircase
construction: given finitely many disjoint gaps inside a window, build
the continuous nondecreasing function that climbs from 0 to 1, is affine
on the parts of the window the recursion keeps, and is constant on every
prescribed gap.  The staircase is what bridges function values across
boundary gaps in the one-dimensional approximation scheme.

The recursion keeps a family of (segment, mass) pairs.  A segment that
still contains gaps is split at its longest one (ties resolved toward
the gap listed first), each half inheriting half the mass.  After p
rounds only segments carrying mass 2**-p can still move, so successive
staircases differ by at most 2**-(p+1) in the sup norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _cantor, geometry
from ._cantor import MAX_LEVEL, _check_level
from .errors import OverlappingGaps, UnknownName, ValidationError

# Each staircase round can only halve segment masses; beyond this the
# masses fall under double precision resolution.
MAX_STAIRCASE_DEPTH = 48


def cantor_gaps(ratio: float, level: int, scheme: str = "third") -> np.ndarray:
    """Gap intervals (c_m, d_m) removed up to depth `level`.

    Row i holds gap index m = i + 1 in binary-heap order: gap 1 is the
    first removed, gaps 2m and 2m + 1 are the left and right children of
    gap m.  Shape (2**(level+1) - 1, 2).
    """
    _check_level(level)
    return _cantor.gap_table(ratio, level, scheme)[:, :2].copy()


def cantor_gap_rows(ratio: float, level: int, scheme: str = "third") -> np.ndarray:
    """Gaps as rows (m, c_m, d_m, depth), ready for tabular export."""
    _check_level(level)
    table = _cantor.gap_table(ratio, level, scheme)
    m = np.arange(1, table.shape[0] + 1, dtype=float)
    return np.column_stack([m, table])


def cantor_distance(x, ratio: float = 1.0 / 3.0, scheme: str = "third"):
    """Distance from x (scalar or array) to the ratio-`ratio` Cantor set."""
    arr = np.asarray(x, dtype=float)
    out = _cantor.distance_many(np.atleast_1d(arr), ratio, scheme)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def cantor_intervals(level: int, ratio: float = 1.0 / 3.0, scheme: str = "third"):
    """Surviving closed intervals (a, b) after `level` removal rounds."""
    _check_level(level)
    return _cantor.level_intervals(level, ratio, scheme)


@dataclass(frozen=True)
class Staircase:
    """Piecewise affine nondecreasing function on [alpha, beta].

    `breakpoints` has rows (t, value) with strictly increasing t; the
    function is the linear interpolant, 0 at alpha and 1 at beta.
    """

    breakpoints: np.ndarray
    p_max: int
    alpha: float
    beta: float

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = np.interp(arr, self.breakpoints[:, 0], self.breakpoints[:, 1])
        return float(out) if arr.ndim == 0 else out

    @property
    def segment_count(self) -> int:
        values = self.breakpoints[:, 1]
        return int(np.count_nonzero(np.diff(values) > 0.0))

    def to_rows(self) -> np.ndarray:
        return self.breakpoints.copy()


def _prepare_gaps(gaps, alpha: float, beta: float, margin: float):
    """Clip, separate and validate gap intervals for the recursion.

    Returns (a, b, orig) sorted by left endpoint.  The construction needs

    the closed gaps pairwise disjoint and strictly inside ]alpha, beta[.
    A positive margin enforces that clearance by shrinking offending gaps
    (never enlarging them); gaps shrunk to nothing are dropped.
    """
    arr = np.asarray(gaps, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("gap endpoints must be finite")
    if arr.size and not np.all(arr[:, 0] < arr[:, 1]):
        raise ValidationError("each gap needs a < b")
    if not (np.isfinite(alpha) and np.isfinite(beta) and alpha < beta):
        raise ValidationError(f"window needs alpha < beta, got [{alpha}, {beta}]")
    if margin < 0.0 or margin >= (beta - alpha) / 2.0:
        raise ValidationError("margin must lie in [0, (beta - alpha) / 2[")

    # Drop gaps entirely outside the window, clip the rest to it.
    keep = (arr[:, 1] > alpha) & (arr[:, 0] < beta)
    arr = arr[keep]
    orig = np.nonzero(keep)[0]
    a = np.maximum(arr[:, 0], alpha)
    b = np.minimum(arr[:, 1], beta)

    order = np.argsort(a, kind="stable")
    a, b, orig = a[order], b[order], orig[order]

    if np.any(b[:-1] > a[1:]):
        raise OverlappingGaps("gap intervals intersect")

    if margin > 0.0:
        a = np.maximum(a, alpha + margin)
        b = np.minimum(b, beta - margin)
        # Pull touching or nearly touching neighbours apart symmetrically.
        for i in range(len(a) - 1):
            if a[i + 1] - b[i] < margin:
                mid = 0.5 * (b[i] + a[i + 1])
                b[i] = min(b[i], mid - 0.5 * margin)
                a[i + 1] = max(a[i + 1], mid + 0.5 * margin)
        keep = a < b
        a, b, orig = a[keep], b[keep], orig[keep]

    if np.any(a <= alpha) or np.any(b >= beta):
        raise ValidationError(
            "gaps must be strictly inside the window; pass margin > 0 "
            "to shrink boundary-touching gaps"
        )
    if np.any(b[:-1] >= a[1:]):
        raise OverlappingGaps(
            "gap closures touch; pass margin > 0 to separate them"
        )
    return a, b, orig


def _breakpoints(c, d, m) -> np.ndarray:
    """Rows (t, value) for gap-separated segments [c, d] of masses 2**-m: (c,
    value before) and (d, value after); sums of dyadic masses are exact."""
    after = np.cumsum(2.0 ** -m)
    before = np.concatenate([[0.0], after[:-1]])
    out = np.column_stack([np.column_stack([c, d]).ravel(),
                           np.column_stack([before, after]).ravel()])
    out.setflags(write=False)
    return out


def _rounds(gaps, alpha: float, beta: float, p_max: int, margin: float):
    """Segments [c, d] with masses 2**-m of rounds 0 .. p_max, in window order,
    stopping once no segment contains a gap (later rounds repeat the last)."""
    if not isinstance(p_max, (int, np.integer)) or not (0 <= p_max <= MAX_STAIRCASE_DEPTH):
        raise ValidationError(
            f"p_max must be an integer in [0, {MAX_STAIRCASE_DEPTH}], got {p_max!r}"
        )
    a, b, orig = _prepare_gaps(gaps, alpha, beta, margin)
    # Split preference of each gap: longest first, ties to the smallest
    # original index; the sentinel lets a reduceat range end at len(a).
    order = np.lexsort((orig, -(b - a)))
    rank = np.append(np.argsort(order), order.size)

    c, d, m = np.array([alpha], dtype=float), np.array([beta], dtype=float), np.zeros(1, int)
    yield c, d, m
    for _ in range(p_max):
        # Gaps lo .. hi-1 lie inside their segment.
        lo = np.searchsorted(a, c, side="left")
        hi = np.searchsorted(b, d, side="right")
        split = hi > lo
        if not np.any(split):
            return
        bounds = np.column_stack([lo[split], hi[split]]).ravel()
        pick = order[np.minimum.reduceat(rank, bounds)[::2]]
        reps = 1 + split
        left = (np.cumsum(reps) - reps)[split]
        c, d, m = np.repeat(c, reps), np.repeat(d, reps), np.repeat(m, reps)
        d[left] = a[pick]
        c[left + 1] = b[pick]
        m += np.repeat(split, reps)
        yield c, d, m


def staircase_levels(gaps, alpha: float, beta: float, p_max: int,
                     margin: float = 0.0) -> list[Staircase]:
    """Staircases for every round p = 0 .. p_max.

    Round p + 1 refines round p by splitting, in each segment that still
    contains whole gaps, at the longest contained gap (ties go to the gap
    listed first in `gaps`).  Masses are dyadic, so the 0 and 1 endpoint
    values are exact.
    """
    out = [Staircase(_breakpoints(*seg), p, alpha, beta)
           for p, seg in enumerate(_rounds(gaps, alpha, beta, p_max, margin))]
    out += [Staircase(out[-1].breakpoints, q, alpha, beta)
            for q in range(len(out), p_max + 1)]
    return out


def build_staircase(gaps, alpha: float = 0.0, beta: float = 1.0,
                    p_max: int = 10, margin: float = 0.0) -> Staircase:
    """`staircase_levels(...)[-1]`, building only that round's breakpoints."""
    *_, last = _rounds(gaps, alpha, beta, p_max, margin)
    return Staircase(_breakpoints(*last), p_max, alpha, beta)


def sup_difference(first: Staircase, second: Staircase) -> float:
    """Exact sup norm of the difference of two piecewise affine staircases."""
    ts = np.union1d(first.breakpoints[:, 0], second.breakpoints[:, 0])
    return float(np.max(np.abs(first(ts) - second(ts))))


def _cantor_complement(ratio: float = 0.25, level: int = 12, scheme: str = "rho"):
    return geometry.IntervalUnion(cantor_gaps(ratio, level, scheme))


# name -> (constructor, whether it takes the ratio/level/scheme overrides);
# the constructors' defaults are the catalogue's.
_CATALOGUE = {
    "square": (partial(geometry.Polygon, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]), False),
    "triangle": (partial(geometry.Polygon, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]), False),
    "omega_C": (geometry.ConeUnionCantor, True),
    "bicone": (geometry.Bicone, True),
    "cusp": (geometry.Cusp, False),
    # the disk of radius 2 around (1/2, 0) with the Cantor slit removed
    "disk_minus_cantor": (geometry.DiskMinusCantor, True),
    "cantor_comb": (geometry.CantorComb, True),
    "cantor_complement": (_cantor_complement, True),
    "crack_interval": (partial(geometry.IntervalUnion, [(0.0, 1.0), (1.0, 2.0)]), False),
    "crack_square": (partial(geometry.SlitRectangle, 0.0, 1.0, -1.0, 1.0, 0.5, 0.0, 1.0), False),
}
DOMAIN_NAMES = tuple(_CATALOGUE)
_BY_KEY = {name.lower(): entry for name, entry in _CATALOGUE.items()}
_BY_KEY["cone_union_cantor"] = _CATALOGUE["omega_C"]


def named_domain(name: str, **params) -> geometry.Domain:
    """Construct one of the catalogued example domains by name.

    Cantor-based kinds accept ratio, level and scheme overrides; the
    remaining kinds take no parameters.
    """
    entry = _BY_KEY.get(str(name).strip().lower())
    if entry is None:
        raise UnknownName(
            f"unknown domain {name!r}; known names: {', '.join(DOMAIN_NAMES)}"
        )
    make, cantor = entry
    unknown = set(params) - ({"ratio", "level", "scheme"} if cantor else set())
    if unknown:
        raise ValidationError(f"unexpected parameters: {sorted(unknown)}")
    return make(**params)
