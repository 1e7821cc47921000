"""Cantor gap tables, devil staircases, and the named example domains.

Three services live here.  First, the Cantor gap table in binary-heap
order.  Second, the recursive staircase construction: given finitely many
disjoint gaps inside a window, build the continuous nondecreasing function
that climbs from 0 to 1, is affine on the parts of the window the
recursion keeps, and is constant on every prescribed gap.  The staircase
is what bridges function values across boundary gaps in the
one-dimensional approximation scheme.  Third, the catalogue of named
example domains.

The recursion keeps a family of (segment, mass) pairs.  A segment that
still contains gaps is split at its longest one (ties resolved toward
the gap listed first), each half inheriting half the mass.  After p
rounds only segments carrying mass 2**-p can still move, so successive
staircases differ by at most 2**-(p+1) in the sup norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import _cantor, geometry
from ._cantor import MAX_LEVEL
from .errors import OverlappingGaps, UnknownName, ValidationError, check_integer

# Each staircase round can only halve segment masses; beyond this the
# masses fall under double precision resolution.
MAX_STAIRCASE_DEPTH = 48


def cantor_gaps(ratio: float, level: int, scheme: str = "third") -> np.ndarray:
    """Gap intervals (c_m, d_m) removed up to depth `level`.

    Row i holds gap index m = i + 1 in binary-heap order: gap 1 is the
    first removed, gaps 2m and 2m + 1 are the left and right children of
    gap m.  Shape (2**(level+1) - 1, 2).
    """
    return _cantor.gap_table(ratio, level, scheme)[:, :2].copy()


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
    check_integer("p_max", p_max, 0, MAX_STAIRCASE_DEPTH)
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
_BY_KEY = {name.lower(): name for name in _CATALOGUE}
_BY_KEY["cone_union_cantor"] = "omega_C"
# Distinct (entry, parameters) pairs kept built; a closed_form_sweep pass
# of the benchmark uses 5.
_INTERNED = 16
# Deepest gap table kept, the catalogue's default: 8,191 rows.  A table has
# 2**(level + 1) - 1 rows, so 16 kept at MAX_LEVEL would hold 8.6 GB.
_KEPT_LEVEL = 12


@lru_cache(maxsize=_INTERNED)
def _interned(name: str, params: tuple) -> geometry.Domain:
    return _CATALOGUE[name][0](**{key: value for key, _, value in params})


def named_domain(name: str, **params) -> geometry.Domain:
    """Return one of the catalogued example domains, by name.

    Cantor-based kinds accept ratio, level and scheme overrides; the
    remaining kinds take no parameters.  A catalogue domain is shared and
    read-only: equal names (in any case, aliases included) and equal
    parameters of equal types return the same instance, built once and
    kept in a bounded least-recently-used table, and every array it holds
    is read-only.  Levels above the catalogue's default 12 are built on
    every call, so their large gap tables go with the caller's domain.
    Constructing the class directly gives a private instance.  Parameters
    that fail validation raise on every call; nothing failed is kept.
    """
    key = _BY_KEY.get(str(name).strip().lower())
    if key is None:
        raise UnknownName(
            f"unknown domain {name!r}; known names: {', '.join(DOMAIN_NAMES)}"
        )
    make, cantor = _CATALOGUE[key]
    unknown = set(params) - ({"ratio", "level", "scheme"} if cantor else set())
    if unknown:
        raise ValidationError(f"unexpected parameters: {sorted(unknown)}")
    # typed: level=8.0 equals level=8 but must still be rejected
    typed = tuple(sorted((k, type(v), v) for k, v in params.items()))
    try:
        hash(typed)
    except TypeError:  # an unhashable value: built as before, never kept
        return make(**params)
    level = params.get("level", 0)
    if isinstance(level, (int, np.integer)) and level > _KEPT_LEVEL:
        return make(**params)  # a deeper table is freed with its domain
    return _interned(key, typed)
