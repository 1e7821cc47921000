"""Cantor set primitives: gap recursion, surviving intervals, exact distance.

Two construction schemes over [0, 1] are supported.  Both remove one open
gap from the middle of every surviving interval, level by level:

* ``third``: the removed gap is the exact middle third of the interval.
* ``rho``: the gap removed from a depth-k interval is centred and has
  length ratio**(k+1), which for ratio = 1/3 reproduces ``third`` up to
  rounding.

Gaps are indexed m = 1, 2, 3, ... in binary-tree order: the gap of the
root interval is m = 1, and the gaps of the two children of interval m
are 2m and 2m+1.  Depth(m) = floor(log2 m).

Distances come from a descent through the construction.  Its first levels
are one search in a sorted gap table of some level (a domain passes its
own), so every point leaves the table with the floats the level-by-level
descent computes, and goes on splitting below it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidRatio, check_integer

# Recursive descent stops refining once the bracketing interval is this
# short; points that deep are reported as lying on the set.  Each level
# shrinks an interval at most 3x, so no interval of depth <= MAX_LEVEL + 1
# is shorter than 3**-25 (about 1.2e-12): the floor never fires inside a
# gap table, and the handover from a table to the descent is exact.
DESCENT_FLOOR = 1e-15

_MAX_DEPTH = 80

# Gap tables beyond this level exceed float feature resolution anyway.
MAX_LEVEL = 24


def _check_ratio(ratio: float) -> None:
    if not (0.0 < ratio <= 1.0 / 3.0):
        raise InvalidRatio(f"ratio must lie in ]0, 1/3], got {ratio!r}")


def _check_level(level: int) -> None:
    check_integer("level", level, 0, MAX_LEVEL)


def _split(a: np.ndarray, b: np.ndarray, depth: int, ratio: float, scheme: str):
    """Gap endpoints (c, d) removed from depth-`depth` intervals [a, b]."""
    if scheme == "third":
        c = (2.0 * a + b) / 3.0
        d = (a + 2.0 * b) / 3.0
    else:
        half_gap = 0.5 * ratio ** (depth + 1)
        mid = 0.5 * (a + b)
        c = mid - half_gap
        d = mid + half_gap
    return c, d


def _check_scheme(ratio: float, scheme: str) -> None:
    if scheme not in ("third", "rho"):
        raise InvalidRatio(f"unknown scheme {scheme!r}")
    if scheme == "third" and abs(ratio - 1.0 / 3.0) > 1e-12:
        raise InvalidRatio("scheme 'third' requires ratio 1/3")


def gap_table(ratio: float, level: int, scheme: str = "third") -> np.ndarray:
    """All gaps removed up to depth `level`, as rows (c, d, depth).

    Row i holds gap index m = i + 1; rows are in binary-tree order, so the
    2**k gaps of depth k occupy rows 2**k - 1 ... 2**(k+1) - 2.
    """
    _check_ratio(ratio)
    _check_scheme(ratio, scheme)
    _check_level(level)
    a = np.array([0.0])
    b = np.array([1.0])
    out = np.empty((2 ** (level + 1) - 1, 3))
    row = 0
    for depth in range(level + 1):
        c, d = _split(a, b, depth, ratio, scheme)
        n = a.size
        out[row : row + n, 0] = c
        out[row : row + n, 1] = d
        out[row : row + n, 2] = depth
        row += n
        nxt_a = np.empty(2 * n)
        nxt_b = np.empty(2 * n)
        nxt_a[0::2] = a
        nxt_b[0::2] = c
        nxt_a[1::2] = d
        nxt_b[1::2] = b
        a, b = nxt_a, nxt_b
    return out


def sorted_gaps(ratio: float, level: int, scheme: str = "third") -> np.ndarray:
    """The gaps of gap_table(ratio, level, scheme) as rows (c, d), left to right."""
    gaps = gap_table(ratio, level, scheme)
    return gaps[np.argsort(gaps[:, 0], kind="stable"), :2]


def _between(gaps: np.ndarray):
    """Closed intervals (lo, hi) of [0, 1] between sorted gaps (c, d)."""
    return np.concatenate(([0.0], gaps[:, 1])), np.append(gaps[:, 0], 1.0)


def level_intervals(level: int, ratio: float = 1.0 / 3.0, scheme: str = "third"):
    """Surviving closed intervals (a_m, b_m) after `level` removal rounds,
    left to right: the complement in [0, 1] of the gaps of depth < level."""
    _check_ratio(ratio)
    _check_scheme(ratio, scheme)
    _check_level(level)
    if level == 0:
        return np.array([0.0]), np.array([1.0])
    return _between(sorted_gaps(ratio, level - 1, scheme))


def gap_search(x: np.ndarray, gaps: np.ndarray):
    """Search the sorted gaps (c, d) for each x: the count k of gaps with
    c < x, and how far x lies inside the last of them, min(x - c, d - x),
    which is positive exactly where x lies in that gap."""
    c, d = gaps[:, 0], gaps[:, 1]
    k = np.searchsorted(c, x)
    j = np.maximum(k - 1, 0)
    return k, np.minimum(x - c[j], d[j] - x)


def distance_many(x: np.ndarray, gaps: np.ndarray, ratio: float, scheme: str) -> np.ndarray:
    """Exact distance from each point to the Cantor set, by recursive descent.

    `gaps` is sorted_gaps(ratio, level, scheme) at any level.  One search
    in it stands in for the descent's first level + 1 levels: a point
    inside one of its gaps is done.  Any other point starts at depth
    level + 1 from its surviving interval between two gaps, whose ends are
    the floats the level-by-level descent computes (x = c goes left, x = d
    goes right).  From there each point follows its own branch of the
    construction until it falls in a gap (distance to the nearer gap
    endpoint) or the bracket drops below DESCENT_FLOOR (distance 0, also
    for NaN).
    """
    _check_ratio(ratio)
    _check_scheme(ratio, scheme)
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    dist = np.zeros(flat.shape)
    below = flat < 0.0
    above = flat > 1.0
    dist[below] = -flat[below]
    dist[above] = flat[above] - 1.0
    idx = np.nonzero(~(below | above))[0]
    xa = flat[idx]
    # x lies in gap k - 1 or in the interval [lo[k], hi[k]] after it.  Where
    # rounding gives c == d (tiny ratios), x = c goes left here and right
    # in the descent: either way distance 0.
    k, inset = gap_search(xa, gaps)
    in_gap = inset > 0.0
    dist[idx[in_gap]] = inset[in_gap]
    idx, xa, k = idx[~in_gap], xa[~in_gap], k[~in_gap]
    lo, hi = _between(gaps)
    a = lo[k]
    b = hi[k]
    # a table of level L holds 2**(L + 1) - 1 gaps
    for depth in range(gaps.shape[0].bit_length(), _MAX_DEPTH):
        if idx.size == 0:
            break
        c, d = _split(a, b, depth, ratio, scheme)
        in_gap = (xa > c) & (xa < d)
        if np.any(in_gap):
            dist[idx[in_gap]] = np.minimum(xa[in_gap] - c[in_gap], d[in_gap] - xa[in_gap])
            keep = ~in_gap
            idx, xa, a, b, c, d = idx[keep], xa[keep], a[keep], b[keep], c[keep], d[keep]
        right = xa >= d
        a = np.where(right, d, a)
        b = np.where(right, b, c)
        done = (b - a) < DESCENT_FLOOR
        if np.any(done):
            keep = ~done
            idx, xa, a, b = idx[keep], xa[keep], a[keep], b[keep]
    return dist.reshape(x.shape)


def distance(x: float, ratio: float = 1.0 / 3.0, scheme: str = "third") -> float:
    return float(distance_many(np.array([x]), sorted_gaps(ratio, 0, scheme), ratio, scheme)[0])


def total_gap_length(ratio: float) -> float:
    """Total length of the gaps of every depth (rho scheme): the sum of
    2**k ratio**(k + 1), ratio / (1 - 2 ratio), or 1 at ratio 1/3."""
    _check_ratio(ratio)
    if abs(ratio - 1.0 / 3.0) < 1e-15:
        return 1.0
    return ratio / (1.0 - 2.0 * ratio)
