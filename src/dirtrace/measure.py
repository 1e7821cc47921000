"""Directional boundary measures as weighted exit-point atoms.

The boundary measure of a domain for a direction is the pushforward of
volume under the exit map: mass accumulates where chords leave the
domain.  On a chord grid that is a purely discrete object, one atom per
chord, sitting at the exit endpoint and weighing chord length times
offset step.  Total mass therefore reproduces the volume, and reflecting
the direction moves every atom to the entry endpoint of the same chord
without changing its weight.

For polygons the measure has a density against arc length: opposite
chord length times the positive part of the direction-normal inner
product.  `polygon_density_report` integrates that density edge by edge
in closed form (the chord length is piecewise affine along an edge, with
kinks only where an endpoint passes a vertex) and compares against the
atom masses, which is the sharpest exactness check the package has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _gauss
from .errors import NotDirectionalBoundary, ValidationError
from .geometry import Direction, Domain, Polygon, exit_chords, match_radius
from .quadrature import (IntegralResult, QuadratureSpec, _as_eval, boundary_integral,
                         chord_grid, offset_estimate)


@dataclass(frozen=True)
class DirectionalMeasure:
    """Atoms of one directional boundary measure.

    Parallel arrays over atoms: `points` are exit endpoints, `opposite`
    the entry endpoints of the same chords, `lengths` the chord lengths,
    `weights` the masses.
    """

    theta: Direction
    points: np.ndarray
    weights: np.ndarray
    lengths: np.ndarray
    opposite: np.ndarray
    offsets: np.ndarray
    dt: float
    n_offsets: int
    flagged_offsets: int

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def restrict_mass(self, predicate) -> float:
        mask = np.asarray(predicate(self.points), dtype=bool)
        return float(np.sum(self.weights[mask]))

    def to_rows(self) -> np.ndarray:
        return np.column_stack([
            self.offsets,
            self.points,
            self.weights,
            self.lengths,
            self.opposite,
        ])

    def row_header(self) -> list[str]:
        d = self.points.shape[1]
        names = ["offset"]
        names += [f"z{i+1}" for i in range(d)]
        names += ["weight", "length"]
        names += [f"zhat{i+1}" for i in range(d)]
        return names


def measure_atoms(domain: Domain, theta: Direction,
                  spec: QuadratureSpec | None = None) -> DirectionalMeasure:
    spec = spec or QuadratureSpec()
    grid = chord_grid(domain, theta, spec.n_offsets)
    return DirectionalMeasure(
        theta=theta,
        points=grid.endpoint_plus,
        weights=grid.weights,
        lengths=grid.lengths,
        opposite=grid.endpoint_minus,
        offsets=grid.t,
        dt=grid.dt,
        n_offsets=spec.n_offsets,
        flagged_offsets=grid.flagged_offsets,
    )


def total_mass_result(domain: Domain, theta: Direction,
                      spec: QuadratureSpec | None = None) -> IntegralResult:
    """Total measure mass with its offset-rule error estimate."""
    return boundary_integral(domain, theta, lambda pts: np.ones(pts.shape[0]), spec)


def _edge_normals(vertices: np.ndarray):
    """Outward unit normal per edge, for either vertex orientation."""
    rolled = np.roll(vertices, -1, axis=0)
    edges = rolled - vertices
    area2 = float(np.sum(vertices[:, 0] * rolled[:, 1] - rolled[:, 0] * vertices[:, 1]))
    orient = 1.0 if area2 > 0.0 else -1.0
    normals = np.column_stack([edges[:, 1], -edges[:, 0]]) * orient
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return edges, normals


@dataclass(frozen=True)
class PolygonDensityReport:
    theta: Direction
    edge_closed_form: np.ndarray
    edge_atoms: np.ndarray
    total_closed_form: float
    total_atoms: float
    volume: float

    @property
    def max_edge_difference(self) -> float:
        return float(np.max(np.abs(self.edge_closed_form - self.edge_atoms)))


def polygon_density_report(poly: Polygon, theta: Direction,
                           spec: QuadratureSpec | None = None) -> PolygonDensityReport:
    """Per-edge measure mass: closed-form density integral vs atom sums."""
    if poly.dim != 2:
        raise ValidationError("density report needs a planar polygon")
    spec = spec or QuadratureSpec()
    verts = np.asarray(poly.vertices, dtype=float)
    edges, normals = _edge_normals(verts)
    n_edges = verts.shape[0]
    r_match = match_radius(poly)
    gx, gw = _gauss.nodes(8)

    perp = theta.perp_vector
    closed = np.zeros(n_edges)
    for i in range(n_edges):
        proj = float(theta.vector @ normals[i])
        if proj <= 1e-14:
            continue
        a = verts[i]
        elen = float(np.linalg.norm(edges[i]))
        t_a = float(a @ perp)
        t_b = float((a + edges[i]) @ perp)
        span = t_b - t_a
        # Chord length along the edge is piecewise affine; kinks can only
        # happen where some vertex projects into the edge's offset range.
        taus = [0.0, 1.0]
        for v in verts:
            tau = (float(v @ perp) - t_a) / span
            if 1e-12 < tau < 1.0 - 1e-12:
                taus.append(tau)
        taus = sorted(taus)
        pieces = [(t0, t1) for t0, t1 in zip(taus[:-1], taus[1:]) if t1 - t0 >= 1e-13]
        mids = np.concatenate([t0 + (gx + 1.0) * 0.5 * (t1 - t0) for t0, t1 in pieces])
        pts = a[None, :] + mids[:, None] * edges[i][None, :]
        _, alpha, beta, found = exit_chords(poly, theta, pts, r_match)
        if not np.all(found):
            raise NotDirectionalBoundary(
                f"no chord in direction {theta.vector} exits at {pts[~found][0]}"
            )
        ells = (beta - alpha).reshape(len(pieces), gx.size)
        acc = 0.0
        for (t0, t1), piece_ells in zip(pieces, ells):
            acc += (t1 - t0) * 0.5 * float(gw @ piece_ells)
        closed[i] = acc * elen * proj

    mu = measure_atoms(poly, theta, spec)
    atom_masses = np.zeros(n_edges)
    if mu.n_atoms:
        # Assign each atom to its nearest edge segment.
        d2 = np.empty((mu.n_atoms, n_edges))
        for i in range(n_edges):
            rel = mu.points - verts[i][None, :]
            denom = float(edges[i] @ edges[i])
            tau = np.clip((rel @ edges[i]) / denom, 0.0, 1.0)
            foot = verts[i][None, :] + tau[:, None] * edges[i][None, :]
            d2[:, i] = np.sum((mu.points - foot) ** 2, axis=1)
        nearest = np.argmin(d2, axis=1)
        for i in range(n_edges):
            atom_masses[i] = float(np.sum(mu.weights[nearest == i]))

    return PolygonDensityReport(
        theta=theta,
        edge_closed_form=closed,
        edge_atoms=atom_masses,
        total_closed_form=float(np.sum(closed)),
        total_atoms=float(np.sum(atom_masses)),
        volume=float(poly.volume or 0.0),
    )


@dataclass(frozen=True)
class ReflectionCheck:
    reflected_mass: float
    pulled_back_mass: float
    error: float

    @property
    def difference(self) -> float:
        return abs(self.reflected_mass - self.pulled_back_mass)


def reflection_check(domain: Domain, theta: Direction, predicate,
                     spec: QuadratureSpec | None = None) -> ReflectionCheck:
    """Compare the reflected measure of a set with its exit-map pullback.

    The mass the reversed direction gives to a set must equal the mass
    the forward direction gives to chords whose entry endpoint lies in
    the set.
    """
    spec = spec or QuadratureSpec()

    def restricted(grid, points):
        # the mass of the atoms at points in the set, as restrict_mass sums it
        chords = np.flatnonzero(np.asarray(predicate(points), dtype=bool))
        return grid.sums(grid.weights[chords], chords)

    forward = chord_grid(domain, theta, spec.n_offsets)
    backward = chord_grid(domain, -theta, spec.n_offsets)
    (lhs, rhs), errors, _ = offset_estimate(
        [restricted(backward, backward.endpoint_plus),
         restricted(forward, forward.endpoint_minus)], floor=0.0)
    err = sum(errors) + 1e-12 * (1.0 + abs(lhs) + abs(rhs))
    return ReflectionCheck(lhs, rhs, err)


def random_region_predicates(domain: Domain, count: int, seed: int = 0) -> list:
    """Deterministic mix of half-plane and box indicator predicates."""
    rng = np.random.default_rng(seed)
    lo, hi = domain.bbox
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    preds = []
    for k in range(count):
        anchor = rng.uniform(lo, hi)
        if domain.dim == 1:
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            preds.append(_half_space(np.array([sign]), float(sign * anchor[0])))
        elif k % 2 == 0:
            angle = rng.uniform(0.0, 2.0 * np.pi)
            normal = np.array([np.cos(angle), np.sin(angle)])
            preds.append(_half_space(normal, float(normal @ anchor)))
        else:
            other = rng.uniform(lo, hi)
            preds.append(_box(np.minimum(anchor, other), np.maximum(anchor, other)))
    return preds


def _half_space(normal: np.ndarray, level: float):
    def pred(pts):
        return np.asarray(pts, dtype=float) @ normal <= level

    return pred


def _box(lo: np.ndarray, hi: np.ndarray):
    def pred(pts):
        arr = np.asarray(pts, dtype=float)
        return np.all((arr >= lo) & (arr <= hi), axis=1)

    return pred


def family_sup_norm(g, domain: Domain, directions,
                    spec: QuadratureSpec | None = None):
    """Largest boundary L2 norm of g over a family of directions.

    Returns (sup, per_direction) where per_direction pairs each
    direction with its norm.
    """
    spec = spec or QuadratureSpec()
    ge = _as_eval(g)

    def squared(pts):
        return np.asarray(ge(pts), dtype=float) ** 2

    per = []
    for theta in directions:
        res = boundary_integral(domain, theta, squared, spec)
        per.append((theta, float(np.sqrt(max(res.value, 0.0)))))
    sup = max(v for _, v in per) if per else 0.0
    return sup, per
