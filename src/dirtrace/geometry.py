"""Domains, directions and ray-exit geometry.

The central object is the chord decomposition: for a unit direction theta
and an offset y on the hyperplane through the origin orthogonal to theta,
the open set {s : y + s theta in Omega} splits into countably many maximal
open intervals ]alpha, beta[.  Each interval is a chord.  Exit distances,
boundary measures and traces are all read off chords, so every domain kind
below only has to answer two questions: is a point inside, and what are
the chords of a given line.

Chords travel as one flat table for a whole batch of offsets: parallel
arrays (rows, alpha, beta), where rows[i] indexes the offset whose line
carries chord i, sorted by (row, alpha).  Every stage below works on the
whole table with array operations on the row boundaries.

Points on lines, the foot t * perp plus s * theta, come from one builder
everywhere in the package: `points_along(_feet(t, perp), s, theta.vector)`
(midpoints, exits, Gauss nodes and probes alike), perp being
`Direction.perp_vector`: zeros(1) in 1D, where the offset hyperplane is
the origin and a grid holds the one line once, at offset 0 of width 1.  It
stores the points coordinate-major, one contiguous block per coordinate
behind the usual (..., d) view, so a field reading p[:, k] reads
contiguous memory; each coordinate is still s * theta_k + foot_k, so the
floats do not depend on the layout.

Every kind computes the chords of every direction of its dimension with
one closed form, `line_slices`: interval unions (the intervals, negated
and reversed along -1), polygons (strictly convex ones clip each line
against their edge half-planes, other polygons pair the edge crossings
into inside cells by membership), and five kinds that share one cut,
`_band_minus`: an open band of each line minus closed removed intervals.
Those are a slit point or range (the slit rectangle and the slit disk),
Cantor points and the triangles over the gaps (the cone unions, whose
vertical lines start at membership's distance to the Cantor set), the
teeth between the gaps (the Cantor comb), and the sets +-x >= y**3
between closed-form cubic roots (the cusp).  The cusp and the comb read
an axis line's chords off the moving coordinate x as s = (x - base) / v,
v = +-1, which is exact.  Endpoints are exact up to rounding.
Chords shorter than EPS_EXACT are dropped, and a slice is flagged when two
crossings sit closer than RESOLUTION_FACTOR times that length (a thin
feature at the limit of resolution); intervals, exact input, are neither.

Membership owns the rounding: every kind's `contains_many` counts the
points within `Domain._rounding` of its boundary (2**12 ulps of the
largest coordinate, one rule for all kinds) as boundary, and so outside
the open domain.  A closed-form endpoint lies on the boundary up to a few
ulps, so it fails membership where it is computed: both endpoints of
every chord of `chord_table` (and so of every grid and every
`exit_chords` lookup) lie outside, and no endpoint is tested or moved.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _cantor
from .errors import (
    NotDirectionalBoundary,
    PointOutsideDomain,
    UnknownName,
    ValidationError,
    check_integer,
)

# Shortest closed-form chord kept.  Closed-form endpoints are exact to
# rounding, so only machine-noise lengths are meaningless; near-degenerate
# chords (a cusp tip) carry real measure and must survive.
EPS_EXACT = 1e-13
# Two crossings closer than this multiple of EPS_EXACT raise the per-slice
# resolution flag.
RESOLUTION_FACTOR = 4.0


def _cross(a, b) -> float:
    return a[0] * b[1] - a[1] * b[0]


def _read_only(arr: np.ndarray) -> np.ndarray:
    """`arr`, set read-only: `fractal.named_domain` shares each catalogue
    domain, and so its arrays, with every caller."""
    arr.setflags(write=False)
    return arr


def _no_chords():
    return np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)


def _at_least(g0, slope: float, k):
    """Closed range {s : g0 + s * slope >= k} of each line, as (lo, hi)
    with infinite ends; empty where lo > hi."""
    if slope == 0.0:
        lo = np.where(g0 >= k, -np.inf, np.inf)
        return lo, -lo
    bound = (k - g0) / slope
    inf = np.full(bound.shape, np.inf)
    return (bound, inf) if slope > 0.0 else (-inf, bound)


def _band_minus(band_lo, band_hi, rows, r_lo, r_hi):
    """Flat chord table of the open bands ]band_lo[i], band_hi[i][, one per
    line i, minus the closed intervals [r_lo[k], r_hi[k]] of lines rows[k]:
    the nonempty open pieces between them, sorted by (row, lo).

    The removed intervals of a line must be disjoint once clipped to its
    band; a zero-length one removes a single point.
    """
    n = band_lo.size
    r_lo, r_hi = np.maximum(r_lo, band_lo[rows]), np.minimum(r_hi, band_hi[rows])
    cut = r_lo <= r_hi
    rows, r_lo, r_hi = rows[cut], r_lo[cut], r_hi[cut]
    # a piece starts at the band's entry or after a removed interval,
    # and ends where the next removed interval starts
    rows = np.concatenate((np.arange(n), rows))
    nxt = np.concatenate((np.full(n, -np.inf), r_lo))
    start = np.concatenate((band_lo, r_hi))
    order = np.lexsort((nxt, rows))
    rows, nxt, start = rows[order], nxt[order], start[order]
    end = band_hi[rows]
    end[:-1] = np.where(rows[1:] == rows[:-1], nxt[1:], end[:-1])
    keep = end > start
    return rows[keep], start[keep], end[keep]


def _along(rows, lo, hi, base, v: float):
    """The chords ]lo, hi[ of the moving coordinate on axis lines rows
    (sorted by row and lo), base[i] that coordinate of line i's foot and
    v = +-1 the direction's component along it, in the line parameter
    s = (x - base) / v: exact, and reversed line by line along -1."""
    lo, hi = (lo - base[rows]) / v, (hi - base[rows]) / v
    if v > 0.0:
        return rows, lo, hi
    order = np.lexsort((-np.arange(rows.size), rows))
    return rows[order], hi[order], lo[order]


def _runs(first, count):
    """Row i repeated count[i] times, each with one of the indices
    first[i], ..., first[i] + count[i] - 1, as (rows, indices)."""
    rows = np.repeat(np.arange(count.size), count)
    return rows, np.arange(rows.size) + (first - np.cumsum(count) + count)[rows]


def _row_starts(rows, n: int) -> np.ndarray:
    """Index of the first chord of each of n rows in a row-sorted table, and
    the end of the table as entry n."""
    return np.searchsorted(rows, np.arange(n + 1))


def points_along(base: np.ndarray, s: np.ndarray, vec: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Points base + s * vec, with one line foot per row of base (n, d), or
    one row for all lines, and s (n,) or (n, q) the parameters along each
    line; shape s.shape + (d,).

    The points are computed coordinate by coordinate into a (d,) + s.shape
    buffer (out, when given), which is returned as an s.shape + (d,) view:
    coordinate k, out[..., k], is one contiguous block, and
    out.reshape(-1, d) stays a view.  Each element is s * vec[k] +
    base[:, k], rounded as a row-major buffer would round it; only the
    memory layout differs.
    """
    lead = (-1,) + (1,) * (s.ndim - 1)
    if out is None:
        out = np.empty((base.shape[1],) + s.shape)
    for k in range(base.shape[1]):
        np.multiply(s, vec[k], out=out[k])
        out[k] += base[:, k].reshape(lead)
    # (d, n) -> (n, d), (d, n, q) -> (n, q, d)
    return out.T if s.ndim == 1 else out.transpose(1, 2, 0)


def _feet(t: np.ndarray, perp: np.ndarray) -> np.ndarray:
    """Foot t * perp of the line at each offset t, (n, d), one coordinate
    at a time."""
    out = np.empty((t.size, perp.size))
    for k in range(perp.size):
        np.multiply(t, perp[k], out=out[:, k])
    return out


class Direction:
    """A unit vector in R^1 or R^2."""

    __slots__ = ("vector",)

    def __init__(self, components) -> None:
        v = np.asarray(components, dtype=float).copy()
        if v.ndim != 1 or v.size not in (1, 2):
            raise ValidationError("direction must be a 1D or 2D vector")
        if not np.isfinite(v).all():
            raise ValidationError(f"direction components must be finite, got {v.tolist()}")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(v))
        if norm == 0.0 or norm == math.inf:
            # the squares underflowed or overflowed: rescale by the largest
            # component first (no norm that came out finite and nonzero
            # takes this path, so those directions keep their bits)
            scale = float(np.max(np.abs(v)))
            if scale == 0.0:
                raise ValidationError("zero direction")
            v = v / scale
            norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-12:
            v = v / norm
        # Snap near-axis components so axis directions stay exactly on axis.
        snapped = np.round(v)
        if np.max(np.abs(v - snapped)) < 1e-15:
            v = snapped
        v.setflags(write=False)
        self.vector = v

    @classmethod
    def from_angle(cls, angle: float) -> "Direction":
        """The direction (cos angle, sin angle), bit for bit what the
        constructor makes of it, in scalar math: its norm is 1 to within a
        few ulp, so the constructor never divides, and its snap keeps
        np.round's signed zeros."""
        if not math.isfinite(angle):
            raise ValidationError(f"direction angle must be finite, got {angle}")
        c, s = math.cos(angle), math.sin(angle)
        if abs(c - round(c)) < 1e-15 and abs(s - round(s)) < 1e-15:
            c, s = math.copysign(float(round(c)), c), math.copysign(float(round(s)), s)
        self = cls.__new__(cls)
        self.vector = np.array([c, s])
        self.vector.setflags(write=False)
        return self

    @property
    def dim(self) -> int:
        return self.vector.size

    @property
    def angle(self) -> float:
        if self.dim != 2:
            raise ValidationError("angle is only defined in 2D")
        return math.atan2(self.vector[1], self.vector[0])

    def __neg__(self) -> "Direction":
        return Direction(-self.vector)

    @property
    def perp_vector(self) -> np.ndarray:
        """Canonical unit normal spanning the offset hyperplane; zeros(1)
        in 1D, where the hyperplane is the origin and the one line's foot.

        The sign convention makes theta and -theta share the same normal,
        so the two opposite directions see identical offset grids.
        """
        p = np.zeros(1) if self.dim == 1 else np.array([-self.vector[1], self.vector[0]])
        if p[0] < 0.0 or (p[0] == 0.0 and p[-1] < 0.0):
            p = -p
        p.setflags(write=False)
        return p

    def key(self) -> tuple:
        return tuple(float(c) for c in self.vector)

    def __repr__(self) -> str:
        comps = ", ".join(f"{c:+.12g}" for c in self.vector)
        return f"Direction([{comps}])"

    def __eq__(self, other) -> bool:
        return isinstance(other, Direction) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


def direction_table(count: int, start_angle: float = 0.0) -> list[Direction]:
    """`count` equally spaced planar directions starting at `start_angle`."""
    check_integer("direction count", count, 1)
    return [
        Direction.from_angle(start_angle + 2.0 * math.pi * k / count)
        for k in range(count)
    ]


@dataclass(frozen=True)
class Chord:
    """One maximal open segment ]alpha, beta[ of a line inside a domain."""

    direction: Direction
    base: np.ndarray  # point on the offset hyperplane
    alpha: float
    beta: float
    flagged: bool = False

    @property
    def length(self) -> float:
        return self.beta - self.alpha

    @property
    def endpoint_plus(self) -> np.ndarray:
        return self.base + self.beta * self.direction.vector

    @property
    def endpoint_minus(self) -> np.ndarray:
        return self.base + self.alpha * self.direction.vector


class Domain:
    """Base class: membership plus chord decompositions."""

    kind: str = ""
    dim: int = 2

    # -- mandatory interface -------------------------------------------------
    @property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError

    # -- optional closed forms ----------------------------------------------
    def line_slices(self, theta: Direction, ts: np.ndarray):
        """Closed-form chords of the lines at offsets ts along theta, as a
        flat table (rows, alpha, beta) sorted by (row, alpha); None for a
        kind without them.  Each kind answers every direction of its
        dimension with one closed form (vertical lines of a cone union take
        membership's distance to the Cantor set)."""
        return None

    def offset_breakpoints(self, theta: Direction):
        """Offsets where the chord length function has kinks, or None.

        Offset grids never place a cell across one of these, which keeps
        the midpoint rule exact when chord length is piecewise affine.
        """
        return None

    # -- shared helpers -------------------------------------------------------
    def contains(self, x) -> bool:
        pt = np.asarray(x, dtype=float).reshape(1, -1)
        return bool(self.contains_many(pt)[0])

    @property
    def diameter(self) -> float:
        lo, hi = self.bbox
        return float(np.linalg.norm(hi - lo))

    @property
    def volume(self) -> float | None:
        """Exact Lebesgue measure when known in closed form."""
        return None

    @functools.cached_property
    def _rounding(self) -> float:
        """Rounding allowance of a computed point: 2**12 ulps of the largest
        bounding-box coordinate plus the box diagonal (at least 1).
        `contains_many` counts points this close to the boundary as
        boundary, so every closed-form chord endpoint fails membership
        where it is computed."""
        lo, hi = self.bbox
        return 2.0**-40 * (max(float(np.abs(lo).max()), float(np.abs(hi).max()))
                           + max(float(np.linalg.norm(hi - lo)), 1.0))

    def cache_key(self) -> tuple:
        return (self.kind, tuple(sorted(self.params().items(), key=lambda kv: kv[0])))

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params()}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.params()})"


# ---------------------------------------------------------------------------
# 1D interval unions


class IntervalUnion(Domain):
    kind = "interval_union"
    dim = 1

    def __init__(self, intervals) -> None:
        arr = np.asarray(intervals, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
            raise ValidationError("intervals must be a non-empty (n, 2) array")
        order = np.argsort(arr[:, 0], kind="stable")
        arr = arr[order]
        if np.any(arr[:, 1] <= arr[:, 0]):
            raise ValidationError("each interval needs a < b")
        if np.any(arr[1:, 0] < arr[:-1, 1]):
            raise ValidationError("intervals overlap")
        arr.setflags(write=False)
        self.intervals = arr

    @property
    def bbox(self):
        return (
            np.array([self.intervals[0, 0]]),
            np.array([self.intervals[-1, 1]]),
        )

    @property
    def diameter(self) -> float:
        return float(self.intervals[-1, 1] - self.intervals[0, 0])

    @property
    def volume(self) -> float:
        return float(np.sum(self.intervals[:, 1] - self.intervals[:, 0]))

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        x = np.asarray(pts, dtype=float).reshape(-1)
        idx = np.searchsorted(self.intervals[:, 0], x, side="right") - 1
        ok = idx >= 0
        safe = np.clip(idx, 0, len(self.intervals) - 1)
        inside = (x > self.intervals[safe, 0]) & (x < self.intervals[safe, 1])
        return ok & inside

    def params(self) -> dict:
        return {"intervals": tuple(map(tuple, self.intervals.tolist()))}

    def line_slices(self, theta: Direction, ts: np.ndarray):
        # every offset's line is the one line: the intervals as given along
        # +1, negated and reversed along -1
        seg = self.intervals if theta.vector[0] > 0 else -self.intervals[::-1, ::-1]
        return (np.repeat(np.arange(ts.size), len(seg)), np.tile(seg[:, 0], ts.size),
                np.tile(seg[:, 1], ts.size))


# ---------------------------------------------------------------------------
# Polygons


class Polygon(Domain):
    kind = "polygon"

    def __init__(self, vertices) -> None:
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValidationError("polygon needs at least 3 planar vertices")
        if _edges_meet(v):
            raise ValidationError("polygon edges intersect: the vertex list is not simple")
        v.setflags(write=False)
        self.vertices = v
        lo = v.min(axis=0)
        hi = v.max(axis=0)
        self._lo, self._hi = lo, hi
        self._scale = float(np.linalg.norm(hi - lo))
        self._edge_from = v
        self._edge_to = np.roll(v, -1, axis=0)
        d = v[:, None, :] - v[None, :, :]
        self._diameter = float(np.sqrt((d * d).sum(axis=2)).max())
        edges = self._edge_to - self._edge_from
        self._orientation = _convex_orientation(edges)
        # Per edge, the membership band of `contains_many`, which holds the
        # rounding of a computed point in cross-product units, and a margin
        # that adds that rounding once more, with a safety factor.
        reach = np.abs(edges).max(axis=1)
        self._bands = (1e-12 * max(self._scale, 1.0) * np.maximum(reach, 1.0)
                       + self._rounding * reach)
        self._margins = 4.0 * (self._bands + self._rounding * reach)
        for arr in (lo, hi, self._edge_to, self._bands, self._margins):
            _read_only(arr)

    @property
    def bbox(self):
        return self._lo.copy(), self._hi.copy()

    @property
    def diameter(self) -> float:
        return self._diameter

    @property
    def volume(self) -> float:
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        return float(abs(np.sum(x * yn - xn * y)) / 2.0)

    def params(self) -> dict:
        return {"vertices": tuple(map(tuple, self.vertices.tolist()))}

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(len(pts), dtype=bool)
        boundary = np.zeros(len(pts), dtype=bool)
        tol = 1e-12 * max(self._scale, 1.0) + self._rounding
        for A, B, band in zip(self._edge_from, self._edge_to, self._bands):
            ex, ey = B[0] - A[0], B[1] - A[1]
            # on-edge points count as outside (the domain is open)
            crossval = ex * (y - A[1]) - ey * (x - A[0])
            seg_lo_x, seg_hi_x = min(A[0], B[0]) - tol, max(A[0], B[0]) + tol
            seg_lo_y, seg_hi_y = min(A[1], B[1]) - tol, max(A[1], B[1]) + tol
            near = (
                (np.abs(crossval) <= band)
                & (x >= seg_lo_x)
                & (x <= seg_hi_x)
                & (y >= seg_lo_y)
                & (y <= seg_hi_y)
            )
            boundary |= near
            cond = (A[1] > y) != (B[1] > y)
            if not np.any(cond):
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = A[0] + (y - A[1]) * ex / ey
            inside ^= cond & (x < xint)
        return inside & ~boundary

    def offset_breakpoints(self, theta: Direction):
        # chord length is affine between vertex projections
        return np.asarray(self.vertices, dtype=float) @ theta.perp_vector

    def line_slices(self, theta: Direction, ts: np.ndarray):
        if self._orientation:
            return self._clipped_slices(theta, ts)
        return self._crossing_slices(theta, ts)

    def _crossing_slices(self, theta: Direction, ts: np.ndarray):
        """Chords of any simple polygon: the crossings with every edge,
        paired into inside cells by one batched membership test at the
        cells' midpoints; a run of adjacent inside cells is one chord.

        A crossing counts when its edge parameter u lies in [0, 1] up to
        1e-12 plus the rounding of u, which grows with the distance of the
        polygon from the origin.  One within rounding of the previous
        crossing on its line is dropped (a line through a vertex crosses
        two edges there).
        """
        tv = theta.vector
        p = theta.perp_vector
        ts = np.asarray(ts, dtype=float)
        cpt = _cross(p, tv)
        rows, svals = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
        for A, B in zip(self._edge_from, self._edge_to):
            E = B - A
            denom = _cross(E, tv)
            if abs(denom) <= 1e-14 * max(self._scale, 1.0):
                continue
            u = (ts * cpt - _cross(A, tv)) / denom
            slack = 1e-12 + self._rounding / abs(denom)
            valid = np.nonzero((u >= -slack) & (u <= 1.0 + slack))[0]
            rows.append(valid)
            svals.append(float(A @ tv) + u[valid] * float(E @ tv))
        rows, svals = np.concatenate(rows), np.concatenate(svals)
        tol = 1e-12 * max(self._diameter, 1.0)
        order = np.lexsort((svals, rows))
        rows, svals = rows[order], svals[order]
        keep = np.ones(rows.size, dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (np.diff(svals) > tol)
        rows, svals = rows[keep], svals[keep]
        cell = rows[1:] == rows[:-1]
        if not np.any(cell):
            return _no_chords()
        rows, lo, hi = rows[:-1][cell], svals[:-1][cell], svals[1:][cell]
        mids = 0.5 * (lo + hi)
        inside = self.contains_many(points_along(_feet(ts, p)[rows], mids, tv))
        # neighbouring cells of one line share their endpoint, so a run of
        # inside cells is one chord from the run's first lo to its last hi
        linked = inside[1:] & inside[:-1] & (rows[1:] == rows[:-1])
        start = inside.copy()
        start[1:] &= ~linked
        end = inside.copy()
        end[:-1] &= ~linked
        return rows[start], lo[start], hi[end]

    def _clipped_slices(self, theta: Direction, ts: np.ndarray):
        """Chords of a strictly convex polygon by half-plane clipping
        (Cyrus-Beck): one chord per line, from the last edge line it enters
        through to the first it leaves through.

        Each crossing is the one `_crossing_slices` computes, on the whole
        edge line, and a chord is kept when it is longer than that path's
        de-duplication distance.  An edge parallel to the line empties the
        lines outside it or within its membership band.  The midpoint of a
        chord lies at least (hi - lo) min|E x theta| / 2 inside every other
        edge line, in the cross-product units of `contains_many`; only the
        chords whose bound does not clear the largest membership band plus
        the rounding of both computations, with a safety factor, have their
        midpoint tested, as the crossing path tests every cell.
        """
        tv = theta.vector
        p = theta.perp_vector
        ts = np.asarray(ts, dtype=float)
        scale = max(self._scale, 1.0)
        empty = np.zeros(ts.size, dtype=bool)
        test = np.zeros(ts.size, dtype=bool)
        crossed = []
        for A, B, band, margin in zip(self._edge_from, self._edge_to, self._bands, self._margins):
            E = B - A
            denom = _cross(E, tv)
            if abs(denom) <= 1e-14 * scale:
                # the line's foot, tested as `contains_many` tests a point
                inner = self._orientation * (E[0] * (ts * p[1] - A[1]) - E[1] * (ts * p[0] - A[0]))
                empty |= inner <= band
                test |= inner <= band + margin
            else:
                crossed.append((float(A @ tv), _cross(A, tv), denom, float(E @ tv)))
        a_dot, a_cross, denom, e_dot = (np.array(col)[:, None] for col in zip(*crossed))
        s = a_dot + (ts * _cross(p, tv) - a_cross) / denom * e_dot
        enters = self._orientation * denom[:, 0] > 0.0
        lo = s[enters].max(axis=0, initial=-np.inf)
        hi = s[~enters].min(axis=0, initial=np.inf)
        keep = ~empty
        keep[keep] = hi[keep] - lo[keep] > 1e-12 * max(self._diameter, 1.0)
        rows = np.nonzero(keep)[0]
        lo, hi = lo[rows], hi[rows]
        slope = float(np.abs(denom).min())
        test = test[rows] | ((hi - lo) * (0.5 * slope) <= self._margins.max())
        if np.any(test):
            at = np.nonzero(test)[0]
            mids = 0.5 * (lo[at] + hi[at])
            inside = self.contains_many(points_along(_feet(ts[rows[at]], p), mids, tv))
            keep = np.ones(rows.size, dtype=bool)
            keep[at[~inside]] = False
            rows, lo, hi = rows[keep], lo[keep], hi[keep]
        return rows, lo, hi


def _convex_orientation(edges) -> int:
    """+1 or -1 when every turn between consecutive edges has that sign
    (the polygon is strictly convex, counter-clockwise or clockwise), else 0."""
    turns = np.sign(_cross(edges.T, np.roll(edges, -1, axis=0).T))
    return int(turns[0]) if np.all(turns == turns[0]) else 0


def _edges_meet(v) -> bool:
    """Whether two non-adjacent edges of the closed polygon v share a point
    (an all-pairs test, fine at polygon sizes)."""
    i, j = np.triu_indices(len(v), k=2)
    i, j = i[(i > 0) | (j < len(v) - 1)], j[(i > 0) | (j < len(v) - 1)]
    a, b = v, np.roll(v, -1, axis=0)
    ends = ((a[i], b[i], a[j]), (a[i], b[i], b[j]), (a[j], b[j], a[i]), (a[j], b[j], b[i]))
    sides = [np.sign(_cross((q - p).T, (r - p).T)) for p, q, r in ends]
    meet = (sides[0] * sides[1] < 0) & (sides[2] * sides[3] < 0)
    for d, (p, q, r) in zip(sides, ends):
        # an endpoint on the line of the other edge, within its extent
        meet |= (d == 0) & np.all((np.minimum(p, q) <= r) & (r <= np.maximum(p, q)), axis=1)
    return bool(np.any(meet))


# ---------------------------------------------------------------------------
# Cubic cusp


class Cusp(Domain):
    """{(x, y): 0 < y < 1, |x| < y**3}: an inward cusp at the origin."""

    kind = "cusp"

    @property
    def bbox(self):
        return np.array([-1.0, 0.0]), np.array([1.0, 1.0])

    @property
    def diameter(self) -> float:
        return 2.0

    @property
    def volume(self) -> float:
        return 0.5

    def params(self) -> dict:
        return {}

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        x, y = pts[:, 0], pts[:, 1]
        b = self._rounding
        return (y < 1.0 - b) & (np.abs(x) < y * y * y - b)

    def line_slices(self, theta: Direction, ts: np.ndarray):
        """The band b**(1/3) < y < 1 of each line (b the rounding; below it
        membership is empty) minus the closed sets sign * x >= y**3, which
        are disjoint for y > 0: with x = x0 + m y on the line, y <= r1 and
        r2 <= y <= r3 for the real roots of y**3 - sign (m y + x0).  A root
        maps to s through y on steep lines and through x = sign y**3 on
        flat ones, where its error moves s less.  Axis lines take the
        section |x| < y**3 or y > |x|**(1/3) directly."""
        vx, vy = theta.vector
        p = theta.perp_vector
        ts = np.asarray(ts, dtype=float)
        bx, by = ts * p[0], ts * p[1]
        # Powers go through Python's float pow: numpy's power rounds
        # differently in the last bit.
        if vy == 0.0:
            rows = np.nonzero((by > 0.0) & (by < 1.0))[0]
            w = np.array([y**3 for y in by[rows].tolist()])
            return _along(rows, -w, w, bx, vx)
        if vx == 0.0:
            rows = np.nonzero((bx > -1.0) & (bx < 1.0))[0]
            lo = np.array([abs(x) ** (1.0 / 3.0) for x in bx[rows].tolist()])
            keep = lo < 1.0
            return _along(rows[keep], lo[keep], np.ones(np.count_nonzero(keep)), by, vy)
        m = vx / vy
        ends = []
        for sign in (1.0, -1.0):
            roots = _cubic_roots(-sign * m, sign * (m * by - bx))
            s1, s2, s3 = ((sign * r * r * r - bx) / vx if abs(vx) > abs(vy) else (r - by) / vy
                          for r in roots)
            ends += [(np.full(ts.size, -np.inf / vy), s1), (s2, s3)]
        band = ((self._rounding ** (1.0 / 3.0) - by) / vy, (1.0 - by) / vy)
        rows = np.tile(np.arange(ts.size), len(ends))
        return _band_minus(np.minimum(*band), np.maximum(*band), rows,
                           np.concatenate([np.minimum(*e) for e in ends]),
                           np.concatenate([np.maximum(*e) for e in ends]))


def _cubic_roots(p: float, q: np.ndarray):
    """Real roots of y**3 + p y + q = 0 for one p != 0 and each q, in
    closed form: (r1, r2, r3) in increasing order where all three are real
    (Viete's trigonometric form), else Cardano's one root r1 and NaN.
    Cardano's cube roots u, v never cancel: u + v where they share a sign,
    else -q / (u**2 - u v + v**2)."""
    d = (0.5 * q) ** 2 + (p / 3.0) ** 3
    r1, r2, r3 = (np.full(q.size, np.nan) for _ in range(3))
    one = d > 0.0
    u = np.cbrt(-0.5 * q[one] - np.copysign(np.sqrt(d[one]), q[one]))
    v = (-p / 3.0) / u
    r1[one] = u + v if p < 0.0 else -q[one] / (u * u + p / 3.0 + v * v)
    if not np.all(one):
        r = math.sqrt(-p / 3.0)
        phi = np.arccos(np.clip(-q[~one] / (2.0 * r**3), -1.0, 1.0)) / 3.0
        for root, turn in ((r1, 2.0), (r2, -2.0), (r3, 0.0)):
            root[~one] = 2.0 * r * np.cos(phi + turn * math.pi / 3.0)
    return r1, r2, r3


# ---------------------------------------------------------------------------
# Cantor cone union, bicone, comb


class _CantorKind(Domain):
    """A domain built on the Cantor set of ratio `ratio` and `scheme`, whose
    chords see the gaps removed up to depth `level`; its distances to the
    set search the same table and descend below it."""

    def __init__(self, ratio: float = 1.0 / 3.0, level: int = 12, scheme: str = "third"):
        _cantor._check_level(level)
        self.ratio = float(ratio)
        self.level = int(level)
        self.scheme = str(scheme)
        self._gaps_sorted = _read_only(_cantor.sorted_gaps(self.ratio, self.level, self.scheme))

    def params(self) -> dict:
        return {"ratio": self.ratio, "level": self.level, "scheme": self.scheme}

    def _dist(self, x: np.ndarray) -> np.ndarray:
        return _cantor.distance_many(x, self._gaps_sorted, self.ratio, self.scheme)


class ConeUnionCantor(_CantorKind):
    """Union of open cones {|x - a| < y < 1} over Cantor apex points a."""

    kind = "cone_union_cantor"

    @property
    def bbox(self):
        return np.array([-1.0, 0.0]), np.array([2.0, 1.0])

    @property
    def diameter(self) -> float:
        return 3.0

    @property
    def volume(self) -> float:
        r2 = self.ratio * self.ratio
        return 2.0 - r2 / (4.0 * (1.0 - 2.0 * r2))

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        x, y = pts[:, 0], pts[:, 1]
        b = self._rounding
        band = (y > b) & (y < 1.0 - b)
        out = np.zeros(len(pts), dtype=bool)
        if np.any(band):
            out[band] = self._dist(x[band]) < y[band] - b
        return out

    def line_slices(self, theta: Direction, ts: np.ndarray):
        p = theta.perp_vector
        ts = np.asarray(ts, dtype=float)
        return self._line_chords(ts * p[0], ts * p[1], *theta.vector)

    def _line_chords(self, bx, by, vx: float, vy: float):
        """Flat chord table of the lines (bx, by) + s (vx, vy).

        In the band 0 < y < 1 the complement is the closed wedges x + y <= 0
        and x - y >= 1 and the triangles {y >= 0, x - y >= c, x + y <= d}
        over the gaps (c, d) up to `level`, each an s-interval of a line.
        A gap's triangle lies in the triangle over every surviving interval
        around it, so the gap tree is walked only below triangles a line meets.
        A vertical line is inside from membership's distance to the Cantor
        set, which descends below `level`, up to y = 1.
        """
        if vx == 0.0:
            d = self._dist(bx)
            rows = np.nonzero(d < 1.0)[0]
            return _along(rows, d[rows], np.ones(rows.size), by, vy)
        n = bx.size
        u0, w0 = bx - by, bx + by
        du, dw = vx - vy, vx + vy
        # y >= 0 bounds both the band and every triangle, so the axis
        # crossing is one computed number per line
        y_lo, y_hi = _at_least(by, vy, 0.0)
        if vy == 0.0:
            # the closed ranges would keep a horizontal line on y = 0 or
            # y = 1 whole: it has no chords
            out = (by <= 0.0) | (by >= 1.0)
            y_lo[out], y_hi[out] = np.inf, -np.inf
        top_lo, top_hi = _at_least(-by, -vy, -1.0)
        band_lo, band_hi = np.maximum(y_lo, top_lo), np.minimum(y_hi, top_hi)

        def triangle(line, c, d):
            lo_c, hi_c = _at_least(u0[line], du, c)
            lo_d, hi_d = _at_least(-w0[line], -dw, -d)
            return (np.maximum(np.maximum(y_lo[line], lo_c), lo_d),
                    np.minimum(np.minimum(y_hi[line], hi_c), hi_d))

        all_lines = np.arange(n)
        removed = [(all_lines, *_at_least(-w0, -dw, 0.0)),
                   (all_lines, *_at_least(u0, du, 1.0))]
        line, a, b = all_lines, np.zeros(n), np.ones(n)
        for depth in range(self.level + 1):
            lo, hi = triangle(line, a, b)
            meets = lo <= hi
            line, a, b = line[meets], a[meets], b[meets]
            c, d = _cantor._split(a, b, depth, self.ratio, self.scheme)
            lo, hi = triangle(line, c, d)
            hit = lo <= hi
            removed.append((line[hit], lo[hit], hi[hit]))
            line = np.concatenate((line, line))
            a, b = np.concatenate((a, d)), np.concatenate((c, b))
        # clipped to the band the removed intervals are disjoint
        return _band_minus(band_lo, band_hi, *(np.concatenate(col) for col in zip(*removed)))


class Bicone(Domain):
    """Cone union together with its mirror image across the x-axis; its
    Cantor parameters are those of the cone union `upper`."""

    kind = "bicone"

    def __init__(self, ratio: float = 1.0 / 3.0, level: int = 12, scheme: str = "third"):
        self.upper = ConeUnionCantor(ratio, level, scheme)

    @property
    def bbox(self):
        return np.array([-1.0, -1.0]), np.array([2.0, 1.0])

    @property
    def volume(self) -> float:
        return 2.0 * self.upper.volume

    def params(self) -> dict:
        return self.upper.params()

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        mirrored = pts.copy(order="K")
        mirrored[:, 1] = np.abs(mirrored[:, 1])
        # the cone union's rounding band holds the axis
        return self.upper.contains_many(mirrored)

    def line_slices(self, theta: Direction, ts: np.ndarray):
        """Cone chords of the line, and for y < 0 those of its mirror image
        (base and direction y -> -y), whose point at s mirrors the line's.

        Both halves end at the same computed axis crossing, so pieces that
        meet there abut with a zero gap: two chords, as membership counts
        the crossing, within rounding of the axis, as boundary.
        """
        tv = theta.vector
        p = theta.perp_vector
        ts = np.asarray(ts, dtype=float)
        bx, by = ts * p[0], ts * p[1]
        halves = (self.upper._line_chords(bx, by, tv[0], tv[1]),
                  self.upper._line_chords(bx, -by, tv[0], -tv[1]))
        rows, lo, hi = (np.concatenate(col) for col in zip(*halves))
        order = np.lexsort((lo, rows))
        return rows[order], lo[order], hi[order]


class CantorComb(_CantorKind):
    """The open rectangle ]0, 1[ x ]-1, 1[ minus the closed Cantor teeth
    {y >= 0, x between two gaps}: full lower half, gap columns above."""

    kind = "cantor_comb"

    def __init__(self, ratio: float = 0.25, level: int = 12, scheme: str = "rho"):
        super().__init__(ratio, level, scheme)

    @property
    def bbox(self):
        return np.array([0.0, -1.0]), np.array([1.0, 1.0])

    @property
    def volume(self) -> float:
        return 1.0 + _cantor.total_gap_length(self.ratio)

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        x, y = pts[:, 0], pts[:, 1]
        b = self._rounding
        inx = (x > b) & (x < 1.0 - b) & (y > b - 1.0) & (y < 1.0 - b)
        # the teeth are the closed columns y >= 0 between the gaps
        return inx & ((y < -b) | (_cantor.gap_search(x, self._gaps_sorted)[1] > b))

    def line_slices(self, theta: Direction, ts: np.ndarray):
        """The rectangle's chord of each line minus the closed teeth
        {y >= 0, x between two gaps} that the line meets.

        The teeth that the part y >= 0 of a line can meet are one run of
        the table, found by two searches and widened by one tooth on each
        side; a tooth the line misses is cut empty.  The tooth that holds
        the computed axis crossing, as membership finds it, is widened to
        the crossing, so a line through a gap end still splits there; a
        line through the tooth's corner at the axis splits there too, into
        two chords that abut at the crossing.

        A horizontal line is the rectangle's chord below the axis and the
        gaps from y = 0 up; a vertical one runs from y = -1 to the tooth
        it meets at y = 0, or to y = 1 in a gap column.
        """
        vx, vy = theta.vector
        p = theta.perp_vector
        ts = np.asarray(ts, dtype=float)
        bx, by = ts * p[0], ts * p[1]
        if vy == 0.0:
            below = np.nonzero((by > -1.0) & (by < 0.0))[0]
            above = np.nonzero((by >= 0.0) & (by < 1.0))[0]
            c, d = self._gaps_sorted.T
            rows = np.concatenate((below, np.repeat(above, c.size)))
            lo = np.concatenate((np.zeros(below.size), np.tile(c, above.size)))
            hi = np.concatenate((np.ones(below.size), np.tile(d, above.size)))
            order = np.argsort(rows, kind="stable")
            return _along(rows[order], lo[order], hi[order], bx, vx)
        if vx == 0.0:
            rows = np.nonzero((bx > 0.0) & (bx < 1.0))[0]
            column = _cantor.gap_search(bx[rows], self._gaps_sorted)[1] > self._rounding
            return _along(rows, np.full(rows.size, -1.0), np.where(column, 1.0, 0.0), by, vy)
        x0, x1 = (0.0 - bx) / vx, (1.0 - bx) / vx
        y0, y1 = (-1.0 - by) / vy, (1.0 - by) / vy
        band_lo = np.maximum(np.minimum(x0, x1), np.minimum(y0, y1))
        band_hi = np.minimum(np.maximum(x0, x1), np.maximum(y0, y1))
        up_lo, up_hi = _at_least(by, vy, 0.0)
        s0 = up_lo if vy > 0.0 else up_hi
        # the x-range of each line's part y >= 0 in the band
        xa = bx + np.maximum(up_lo, band_lo) * vx
        xb = bx + np.minimum(up_hi, band_hi) * vx
        tooth_lo, tooth_hi = _cantor._between(self._gaps_sorted)
        # the teeth that reach into that range, and one more on each side
        first = np.maximum(np.searchsorted(tooth_hi, np.minimum(xa, xb)) - 1, 0)
        last = np.minimum(np.searchsorted(tooth_lo, np.maximum(xa, xb), side="right"),
                          tooth_lo.size - 1)
        rows, k = _runs(first, np.maximum(last - first + 1, 0))
        near, far = (tooth_lo, tooth_hi) if vx > 0.0 else (tooth_hi, tooth_lo)
        lo = np.maximum((near[k] - bx[rows]) / vx, up_lo[rows])
        hi = np.minimum((far[k] - bx[rows]) / vx, up_hi[rows])
        crossing, inset = _cantor.gap_search(bx + s0 * vx, self._gaps_sorted)
        held = (k == crossing[rows]) & (inset[rows] <= 0.0)
        lo[held] = np.minimum(lo[held], s0[rows[held]])
        hi[held] = np.maximum(hi[held], s0[rows[held]])
        # a line that leaves that tooth within the band membership counts
        # as the axis runs through its corner: the tooth cuts the crossing
        corner = held & ((hi - lo) * abs(vy) <= self._rounding)
        lo[corner] = hi[corner] = s0[rows[corner]]
        return _band_minus(band_lo, band_hi, rows, lo, hi)


# ---------------------------------------------------------------------------
# Disk with a Cantor slit removed


class DiskMinusCantor(_CantorKind):
    """Open disk around (1/2, 0) of radius 2 minus the Cantor set on the axis."""

    kind = "disk_minus_cantor"

    CENTER = _read_only(np.array([0.5, 0.0]))
    RADIUS = 2.0

    @property
    def bbox(self):
        c, r = self.CENTER, self.RADIUS
        return c - r, c + r

    @property
    def diameter(self) -> float:
        return 2.0 * self.RADIUS

    @property
    def volume(self) -> float:
        return math.pi * self.RADIUS**2

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        b = self._rounding
        dx = pts[:, 0] - self.CENTER[0]
        dy = pts[:, 1] - self.CENTER[1]
        inside = dx * dx + dy * dy < (self.RADIUS - b) ** 2
        # the slit: points within b of a Cantor point on the axis
        near = inside & (np.abs(pts[:, 1]) <= b)
        if np.any(near):
            inside[near] = self._dist(pts[near, 0]) > b
        return inside

    def line_slices(self, theta: Direction, ts: np.ndarray):
        tv = theta.vector
        p = theta.perp_vector
        ts = np.asarray(ts, dtype=float)
        bx, by = ts * p[0] - self.CENTER[0], ts * p[1] - self.CENTER[1]
        # elementwise, so that a line's chords do not depend on its batch
        b = bx * tv[0] + by * tv[1]
        c = (bx * bx + by * by) - self.RADIUS**2
        disc = b * b - c
        rows = np.nonzero(disc > 0.0)[0]
        root = np.sqrt(disc[rows])
        lo, hi = -b[rows] - root, -b[rows] + root
        # every retained Cantor point the open disk chord crosses splits it
        t = ts[rows]
        if tv[1] != 0.0:
            split = (0.0 - t * p[1]) / tv[1]
            x0 = t * p[0] + split * tv[0]
            on = np.nonzero((x0 >= 0.0) & (x0 <= 1.0))[0]
            on = on[self._dist(x0[on]) == 0.0]
            cuts = split[on]
        else:
            # A horizontal line meets the slit only when it sits exactly
            # on the axis, and then every retained point splits it.
            ends = np.unique(np.concatenate(([0.0], self._gaps_sorted.ravel(), [1.0])))
            axis = np.nonzero(t * p[1] == 0.0)[0]
            s = (ends[None, :] - t[axis, None] * p[0]) / tv[0]
            inner = (lo[axis, None] < s) & (s < hi[axis, None])
            on = np.broadcast_to(axis[:, None], s.shape)[inner]
            cuts = s[inner]
        sub, lo, hi = _band_minus(lo, hi, on, cuts, cuts)
        return rows[sub], lo, hi


# ---------------------------------------------------------------------------
# Rectangle with an interior slit


class SlitRectangle(Domain):
    """Open axis-aligned rectangle minus a closed vertical segment."""

    kind = "slit_rectangle"

    def __init__(self, x0, x1, y0, y1, slit_x, slit_y0, slit_y1) -> None:
        if not (x0 < slit_x < x1 and y0 <= slit_y0 < slit_y1 <= y1):
            raise ValidationError("slit must sit inside the rectangle")
        self.x0, self.x1, self.y0, self.y1 = map(float, (x0, x1, y0, y1))
        self.slit_x = float(slit_x)
        self.slit_y0, self.slit_y1 = float(slit_y0), float(slit_y1)
        # Points within rounding of the slit's x count as on it: no rounded
        # point of an oblique line lands on the slit exactly, and the
        # closed-form crossing must fail membership where it is computed.
        self._slit_band = 4.0 * float(np.spacing(max(abs(self.slit_x), 1.0)))
        self._rect = Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])

    @property
    def bbox(self):
        return np.array([self.x0, self.y0]), np.array([self.x1, self.y1])

    @property
    def diameter(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0)

    @property
    def volume(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def params(self) -> dict:
        return {
            "x0": self.x0,
            "x1": self.x1,
            "y0": self.y0,
            "y1": self.y1,
            "slit_x": self.slit_x,
            "slit_y0": self.slit_y0,
            "slit_y1": self.slit_y1,
        }

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        x, y = pts[:, 0], pts[:, 1]
        on_slit = ((np.abs(x - self.slit_x) <= self._slit_band)
                   & (y >= self.slit_y0) & (y <= self.slit_y1))
        return self._rect.contains_many(pts) & ~on_slit

    def offset_breakpoints(self, theta: Direction):
        # the rectangle's kinks and the offsets of the two slit ends
        ends = np.array([(self.slit_x, self.slit_y0), (self.slit_x, self.slit_y1)])
        return np.concatenate((self._rect.offset_breakpoints(theta), ends @ theta.perp_vector))

    def line_slices(self, theta: Direction, ts: np.ndarray):
        tv = theta.vector
        p = theta.perp_vector
        rows, lo, hi = self._rect.line_slices(theta, ts)
        t = np.asarray(ts, dtype=float)[rows]
        if tv[0] != 0.0:
            # the slit removes one point of the line
            s_star = (self.slit_x - t * p[0]) / tv[0]
            y_star = t * p[1] + s_star * tv[1]
            on = np.nonzero((self.slit_y0 <= y_star) & (y_star <= self.slit_y1))[0]
            cut_lo = cut_hi = s_star[on]
        else:
            # vertical line: the closed slit range when on it (within the
            # band that membership counts as the slit)
            sgn = tv[1]
            on = np.nonzero(np.abs(t * p[0] - self.slit_x) <= self._slit_band)[0]
            cut_lo = np.full(on.size, min(self.slit_y0 * sgn, self.slit_y1 * sgn))
            cut_hi = np.full(on.size, max(self.slit_y0 * sgn, self.slit_y1 * sgn))
        sub, lo, hi = _band_minus(lo, hi, on, cut_lo, cut_hi)
        return rows[sub], lo, hi


# ---------------------------------------------------------------------------
# Chord computation


def _check_dim(domain: Domain, theta: Direction) -> None:
    if theta.dim != domain.dim:
        raise ValidationError(f"a {theta.dim}D direction on a {domain.dim}D domain")


def hyperplane_range(domain: Domain, theta: Direction) -> tuple[float, float]:
    """Projection of the bounding box onto the offset hyperplane; in 1D,
    where it is the origin, the unit cell (-0.5, 0.5): one offset, 0."""
    _check_dim(domain, theta)
    if domain.dim == 1:
        return (-0.5, 0.5)
    p = theta.perp_vector
    lo, hi = domain.bbox
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
    proj = corners @ p
    return float(proj.min()), float(proj.max())


def _trim(ts, rows, alpha, beta):
    """Drop short chords and compute the per-slice flags."""
    # Exact endpoints only have rounding noise, so chords are kept all the
    # way down to machine scale.
    short, limit = EPS_EXACT, RESOLUTION_FACTOR * EPS_EXACT
    lengths = beta - alpha
    gaps = alpha[1:] - beta[:-1]
    # A gap of exactly zero is a slit: two maximal intervals that share an
    # excluded endpoint.  Only positive gaps below the resolution are
    # unresolved features.
    thin = lengths < limit
    thin[1:] |= (rows[1:] == rows[:-1]) & (gaps > 0.0) & (gaps < limit)
    flags = np.zeros(ts.size, dtype=bool)
    flags[rows[thin]] = True
    keep = lengths > short
    return rows[keep], alpha[keep], beta[keep], flags


def chord_table(domain: Domain, theta: Direction, ts):
    """Chords of a batch of hyperplane offsets as one flat table.

    Returns (rows, alpha, beta, flags): chord i is the open interval
    ]alpha[i], beta[i][ of the line at offset ts[rows[i]], sorted by
    (row, alpha); flags[j] is True when the slice of offset j hit the
    resolution limit and should be skipped by quadrature.  Both endpoints
    of every chord fail membership as computed: they lie on the boundary,
    within the rounding band that `contains_many` counts as boundary.
    """
    _check_dim(domain, theta)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    raw = domain.line_slices(theta, ts)
    if raw is None:
        raise ValidationError(f"no closed-form chords for kind {domain.kind!r} along {theta!r}")
    if domain.dim == 1:
        # exact input, where one flagged line would be the whole measure
        return (*raw, np.zeros(ts.size, dtype=bool))
    return _trim(ts, *raw)


def slice_lines(domain: Domain, theta: Direction, ts) -> tuple[list[np.ndarray], np.ndarray]:
    """Chord intervals for a batch of hyperplane offsets.

    Returns (intervals, flags): intervals[i] is a (k_i, 2) array of open
    (alpha, beta) pairs for offset ts[i]; flags[i] is True when the slice
    hit the resolution limit and should be skipped by quadrature.  This
    splits `chord_table` by offset.
    """
    rows, alpha, beta, flags = chord_table(domain, theta, ts)
    table = np.column_stack((alpha, beta))
    starts = _row_starts(rows, flags.size)
    return [table[a:b] for a, b in zip(starts[:-1], starts[1:])], flags


def chords(domain: Domain, theta: Direction, y) -> list[Chord]:
    """Ordered maximal open segments of the line through y along theta."""
    _check_dim(domain, theta)
    p = theta.perp_vector
    t = float(np.asarray(y, dtype=float).reshape(domain.dim) @ p)
    intervals, flags = slice_lines(domain, theta, np.array([t]))
    return [Chord(theta, t * p, float(a), float(b), bool(flags[0])) for a, b in intervals[0]]


def exit_distance(domain: Domain, x, theta: Direction) -> float:
    """Distance travelled from x along theta before leaving the domain."""
    x = np.asarray(x, dtype=float).reshape(-1)
    lines = chords(domain, theta, x)  # rejects a direction of another dimension first
    if not domain.contains(x):
        raise PointOutsideDomain(f"{x.tolist()} is not inside the domain")
    s = float(x @ theta.vector)
    for ch in lines:
        if ch.alpha <= s <= ch.beta:
            return ch.beta - s
    raise PointOutsideDomain(
        f"no chord through {x.tolist()} along {theta!r}; tangential ray?"
    )


def exit_point(domain: Domain, x, theta: Direction) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    return x + exit_distance(domain, x, theta) * theta.vector


def exit_chords(domain: Domain, theta: Direction, points, r_match: float,
                offsets=None):
    """The chord exiting at each point, for a batch of points.

    Point i is looked up on the line at offsets[i] (by default the line
    through the point).  Its chord is the unflagged chord of that line
    whose exit endpoint lies nearest to the point, the first of equals.
    Returns (t, alpha, beta, found): the offsets, the chords (NaN where
    none is found) and whether that exit is within r_match of the point.
    """
    _check_dim(domain, theta)
    points = np.asarray(points, dtype=float).reshape(-1, theta.dim)
    n = points.shape[0]
    perp = theta.perp_vector
    if offsets is None:
        # one coordinate at a time: a matrix-vector product rounds
        # differently by batch size, and a point must get the same offset
        # in every batch
        offsets = points[:, 0] * perp[0]
        for k in range(1, theta.dim):
            offsets += points[:, k] * perp[k]
    offsets = np.asarray(offsets, dtype=float)

    rows, alpha, beta, flags = chord_table(domain, theta, offsets)
    usable = ~flags[rows]
    rows, alpha, beta = rows[usable], alpha[usable], beta[usable]
    # |exit - point| summed coordinate by coordinate, the floats of
    # np.linalg.norm(..., axis=1) without a reduction over the short axis
    diff = points_along(_feet(offsets, perp)[rows], beta, theta.vector) - points[rows]
    sq = diff[:, 0] * diff[:, 0]
    for k in range(1, theta.dim):
        sq += diff[:, k] * diff[:, k]
    dist = np.sqrt(sq)
    order = np.lexsort((dist, rows))
    starts = _row_starts(rows, n)
    lines = np.nonzero(starts[:-1] < starts[1:])[0]
    best = order[starts[lines]]
    ok = dist[best] <= r_match
    lines, best = lines[ok], best[ok]
    found = np.zeros(n, dtype=bool)
    found[lines] = True
    a, b = np.full(n, np.nan), np.full(n, np.nan)
    a[lines], b[lines] = alpha[best], beta[best]
    return offsets, a, b, found


def match_radius(domain: Domain) -> float:
    """Default distance within which a point counts as a chord's exit:
    1e-6 of the diameter (of 1 for smaller domains)."""
    return 1e-6 * max(domain.diameter, 1.0)


def _exit_chord(domain: Domain, theta: Direction, z, r_match: float | None = None):
    """The chord exiting at the one point z, as arrays (t, alpha, beta) of
    one entry each.

    z must lie on the exit set of theta up to r_match (default
    `match_radius`); otherwise NotDirectionalBoundary is raised.
    """
    if r_match is None:
        r_match = match_radius(domain)
    t, alpha, beta, found = exit_chords(domain, theta, z, r_match)
    if not found[0]:
        raise NotDirectionalBoundary(
            f"{np.ravel(z).tolist()} is not an exit point for {theta!r}"
        )
    return t, alpha, beta


def opposite_endpoint(
    domain: Domain, z, theta: Direction, r_match: float | None = None
) -> tuple[np.ndarray, float]:
    """Other endpoint of the chord exiting at z, and the chord's length
    (see `_exit_chord` for r_match)."""
    t, alpha, beta = _exit_chord(domain, theta, z, r_match)
    return t[0] * theta.perp_vector + alpha[0] * theta.vector, float(beta[0] - alpha[0])


# ---------------------------------------------------------------------------
# Construction helpers and serialization

_KINDS = {
    "interval_union": IntervalUnion,
    "polygon": Polygon,
    "cusp": Cusp,
    "cone_union_cantor": ConeUnionCantor,
    "bicone": Bicone,
    "cantor_comb": CantorComb,
    "disk_minus_cantor": DiskMinusCantor,
    "slit_rectangle": SlitRectangle,
}


def domain_from_json(payload: dict) -> Domain:
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ValidationError("domain JSON needs a 'kind' entry")
    kind = payload["kind"]
    extra = set(payload) - {"kind", "params"}
    if extra:
        raise ValidationError(f"unknown domain keys: {sorted(extra)}")
    cls = _KINDS.get(kind)
    if cls is None:
        raise UnknownName(f"unknown domain kind {kind!r}")
    try:
        return cls(**payload.get("params", {}))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad parameters for kind {kind!r}: {exc}") from exc
