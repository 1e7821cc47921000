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
are one sorted search in a table of the gaps of depth <= 12, built with
gap_table once per (ratio, scheme) and cached read-only, so every point
starts from the floats the level-by-level descent computes.

The same table holds two edge thresholds per depth-12 surviving interval.
From an interval, the descent of a point at its right edge goes right at
every split down to the floor: the largest gap end d on that path is the
right threshold, and a point at or beyond it goes right at each of those
splits, so its distance is 0.  The left threshold bounds the always-left
path the same way (x <= c and x < d at every split).  Both paths are the
descent's own floats, so the thresholds are exact, not a tolerance: a
point at or past one of them skips a descent whose answer is known, and
the distances stay bit-identical.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidRatio, ValidationError

# Recursive descent stops refining once the bracketing interval is this
# short; points that deep are reported as lying on the set.
DESCENT_FLOOR = 1e-15

_MAX_DEPTH = 80

# Gaps of depth <= _SEED_LEVEL (8,191 of them) seed every descent.  Each
# level shrinks an interval at most 3x, so no depth-13 interval is shorter
# than 3**-13 >> DESCENT_FLOOR and the floor never fires before the seed.
_SEED_LEVEL = 12

# Gap tables beyond this level exceed float feature resolution anyway.
MAX_LEVEL = 24


def _check_ratio(ratio: float) -> None:
    if not (0.0 < ratio <= 1.0 / 3.0):
        raise InvalidRatio(f"ratio must lie in ]0, 1/3], got {ratio!r}")


def _check_level(level: int) -> None:
    if not isinstance(level, (int, np.integer)) or not (0 <= level <= MAX_LEVEL):
        raise ValidationError(
            f"level must be an integer in [0, {MAX_LEVEL}], got {level!r}"
        )


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
    left to right: the complement in [0, 1] of the gaps of depth < level.

    Up to level _SEED_LEVEL + 1 these are read-only strided views of the
    cached seed intervals: every k-th interval starts after a gap of depth
    < level (k = 2**(_SEED_LEVEL + 1 - level)), and the gaps of a depth are
    the same floats in every table, so no table is built or sorted again.
    """
    _check_ratio(ratio)
    _check_scheme(ratio, scheme)
    _check_level(level)
    if level <= _SEED_LEVEL + 1:
        lo, hi = _seed(ratio, scheme)[:2]
        k = 2 ** (_SEED_LEVEL + 1 - level)
        return lo[::k], hi[k - 1::k]
    return _between(sorted_gaps(ratio, level - 1, scheme))


def _edge_thresholds(lo: np.ndarray, hi: np.ndarray, ratio: float, scheme: str):
    """Thresholds (left, right) of the descent from each interval [lo, hi]:
    points x <= left go left, and points x >= right go right, at every
    split from depth _SEED_LEVEL + 1 until the bracket drops below
    DESCENT_FLOOR, as distance_many splits them."""
    left = np.full(lo.shape, np.inf)
    right = np.full(lo.shape, -np.inf)
    for go_right in (False, True):
        k, a, b = np.arange(lo.size), lo, hi
        for depth in range(_SEED_LEVEL + 1, _MAX_DEPTH):
            if k.size == 0:
                break
            c, d = _split(a, b, depth, ratio, scheme)
            if go_right:
                right[k] = np.maximum(right[k], d)
                a = d
            else:
                # x goes left where x <= c and x < d
                left[k] = np.minimum(left[k], np.minimum(c, np.nextafter(d, -np.inf)))
                b = c
            live = ~((b - a) < DESCENT_FLOOR)
            k, a, b = k[live], a[live], b[live]
    return left, right


# Distinct (ratio, scheme) tables kept at once; the catalogue uses two.
# Each holds four float arrays of 2**_SEED_LEVEL entries (256 KB).
_SEED_CACHE = 8


@functools.lru_cache(maxsize=_SEED_CACHE)
def _seed(ratio: float, scheme: str):
    """Surviving intervals [lo[k], hi[k]] between the sorted gaps (c, d) of
    depth <= _SEED_LEVEL (hi[k] = c[k] and lo[k + 1] = d[k]), with their
    edge thresholds (left[k], right[k]) from _edge_thresholds."""
    lo, hi = _between(sorted_gaps(ratio, _SEED_LEVEL, scheme))
    left, right = _edge_thresholds(lo, hi, ratio, scheme)
    for arr in (lo, hi, left, right):
        arr.flags.writeable = False
    return lo, hi, left, right


def distance_many(x: np.ndarray, ratio: float = 1.0 / 3.0, scheme: str = "third") -> np.ndarray:
    """Exact distance from each point to the Cantor set, by recursive descent.

    One search in the cached sorted gaps of depth <= _SEED_LEVEL stands in
    for the first levels: a point inside one of them is done.  So is a
    point of a surviving interval at or past one of its edge thresholds,
    with distance 0: it would go the same way at every split down to the
    floor, and the thresholds are the floats of those splits (see the
    module docstring).  Any other point starts at depth _SEED_LEVEL + 1
    from its surviving interval, whose ends are the floats the
    level-by-level descent computes (x = c goes left, x = d goes right).
    From there each point follows its own branch of the
    construction until it falls in a gap (distance to the nearer gap
    endpoint) or the bracket drops below DESCENT_FLOOR (distance 0).
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
    lo, hi, left, right = _seed(ratio, scheme)
    # k gaps have c < x: x lies in gap k - 1, (hi[k - 1], lo[k]), or in the
    # interval after it.  Where rounding gives c == d (tiny ratios), x = c
    # goes left here and right in the descent: either way distance 0.
    k = np.searchsorted(hi[:-1], xa)
    in_gap = xa < lo[k]
    if np.any(in_gap):
        g = np.minimum(xa[in_gap] - hi[k[in_gap] - 1], lo[k[in_gap]] - xa[in_gap])
        dist[idx[in_gap]] = g
    # past an edge threshold the distance is 0; so it is for NaN, which
    # fails both tests here and reaches the floor in the descent
    deep = ~in_gap & (xa > left[k]) & (xa < right[k])
    idx, xa, k = idx[deep], xa[deep], k[deep]
    a = lo[k]
    b = hi[k]
    for depth in range(_SEED_LEVEL + 1, _MAX_DEPTH):
        if idx.size == 0:
            break
        c, d = _split(a, b, depth, ratio, scheme)
        in_gap = (xa > c) & (xa < d)
        if np.any(in_gap):
            g = np.minimum(xa[in_gap] - c[in_gap], d[in_gap] - xa[in_gap])
            dist[idx[in_gap]] = g
        keep = ~in_gap
        idx = idx[keep]
        xa = xa[keep]
        a = a[keep]
        b = b[keep]
        c = c[keep]
        d = d[keep]
        right = xa >= d
        a = np.where(right, d, a)
        b = np.where(right, b, c)
        done = (b - a) < DESCENT_FLOOR
        if np.any(done):
            idx = idx[~done]
            xa = xa[~done]
            a = a[~done]
            b = b[~done]
    return dist.reshape(x.shape)


def distance(x: float, ratio: float = 1.0 / 3.0, scheme: str = "third") -> float:
    return float(distance_many(np.array([x]), ratio, scheme)[0])


def removed_length(ratio: float, level: int) -> float:
    """Total length of all gaps up to depth `level` (rho scheme)."""
    _check_ratio(ratio)
    return float(sum((2.0**k) * ratio ** (k + 1) for k in range(level + 1)))


def total_gap_length(ratio: float) -> float:
    """Limit of removed_length: ratio / (1 - 2 ratio), or 1 at ratio 1/3."""
    _check_ratio(ratio)
    if abs(ratio - 1.0 / 3.0) < 1e-15:
        return 1.0
    return ratio / (1.0 - 2.0 * ratio)


def max_useful_level(ratio: float, feature: float) -> int:
    """Smallest level whose gaps are all shorter than `feature`."""
    _check_ratio(ratio)
    level = 0
    while ratio ** (level + 1) >= feature and level < _MAX_DEPTH:
        level += 1
    return level
