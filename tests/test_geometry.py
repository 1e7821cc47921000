"""Directions, domains, chord decompositions and exit maps."""

import numpy as np
import pytest

from dirtrace import _cantor, fractal, geometry, quadrature
from dirtrace.errors import (
    NotDirectionalBoundary,
    PointOutsideDomain,
    UnknownName,
    ValidationError,
)
from dirtrace.geometry import (
    Bicone,
    CantorComb,
    Cusp,
    Direction,
    IntervalUnion,
    Polygon,
    chords,
    direction_table,
    domain_from_json,
    exit_distance,
    exit_point,
    opposite_endpoint,
    slice_lines,
)
from scan_oracle import EPS_SCAN, scan_slices

E1 = Direction([1.0, 0.0])
E2 = Direction([0.0, 1.0])


def unit_square() -> Polygon:
    return Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


# --- directions ------------------------------------------------------------


def test_direction_normalized_and_perp():
    d = Direction([3.0, 4.0])
    assert np.isclose(np.linalg.norm(d.vector), 1.0)
    assert abs(float(d.vector @ d.perp_vector)) < 1e-15
    assert np.isclose(np.linalg.norm(d.perp_vector), 1.0)


def test_direction_table_spacing():
    table = direction_table(16)
    assert len(table) == 16
    angles = np.array([d.angle for d in table])
    gaps = np.diff(angles) % (2.0 * np.pi)
    np.testing.assert_allclose(gaps, 2.0 * np.pi / 16.0, atol=1e-12)
    np.testing.assert_allclose(table[0].vector, [1.0, 0.0], atol=1e-15)


def test_direction_negation_and_axis():
    assert np.allclose((-E1).vector, [-1.0, 0.0])
    assert E1.is_axis() and E2.is_axis()
    assert not Direction.from_angle(0.3).is_axis()
    assert geometry.axis_direction(1, -1) == Direction([0.0, -1.0])


# --- membership ------------------------------------------------------------


def test_square_membership():
    sq = unit_square()
    inside = np.array([[0.5, 0.5], [1e-9, 1e-9], [0.999999, 0.5]])
    outside = np.array([[1.5, 0.5], [-1e-6, 0.5], [0.5, 1.0 + 1e-6]])
    assert np.all(sq.contains_many(inside))
    assert not np.any(sq.contains_many(outside))
    assert sq.volume == pytest.approx(1.0)
    assert sq.diameter == pytest.approx(np.sqrt(2.0))


def test_cusp_membership():
    cusp = Cusp()
    assert cusp.contains((0.0, 0.5))
    assert cusp.contains((0.124, 0.5))  # |x| < y^3 = 0.125
    assert not cusp.contains((0.126, 0.5))
    assert not cusp.contains((0.0, 0.0))
    assert cusp.volume == pytest.approx(0.5)


def test_interval_union_membership():
    dom = IntervalUnion([(0.0, 1.0), (1.0, 2.0)])
    pts = np.array([[0.5], [1.0], [1.5], [2.5]])
    np.testing.assert_array_equal(dom.contains_many(pts), [True, False, True, False])
    assert dom.volume == pytest.approx(2.0)


# --- exit geometry ----------------------------------------------------------


def test_exit_distance_golden():
    sq = unit_square()
    assert exit_distance(sq, (0.25, 0.5), E1) == pytest.approx(0.75, abs=1e-12)
    assert exit_distance(sq, (0.25, 0.5), E2) == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(exit_point(sq, (0.25, 0.5), E1), [1.0, 0.5], atol=1e-12)


def test_exit_requires_interior_point():
    with pytest.raises(PointOutsideDomain):
        exit_distance(unit_square(), (2.0, 0.5), E1)


def test_opposite_endpoint_roundtrip():
    sq = unit_square()
    z = np.array([1.0, 0.5])
    other, length = opposite_endpoint(sq, z, E1)
    np.testing.assert_allclose(other, [0.0, 0.5], atol=1e-9)
    assert length == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(NotDirectionalBoundary):
        opposite_endpoint(sq, (0.5, 0.5), E1)


# --- chord decompositions ---------------------------------------------------


def test_square_axis_slices():
    sq = unit_square()
    ts = np.linspace(0.05, 0.95, 7)
    intervals, flags = slice_lines(sq, E1, ts)
    assert not np.any(flags)
    for segs in intervals:
        np.testing.assert_allclose(segs, [[0.0, 1.0]], atol=1e-12)


def test_chord_lengths_sum_to_volume():
    # midpoint offsets aligned with no kinks: fine grid total ~ area
    sq = unit_square()
    theta = Direction.from_angle(0.37)
    lo = hi = None
    lo, hi = geometry.hyperplane_range(sq, theta)
    n = 4001
    dt = (hi - lo) / n
    ts = lo + (np.arange(n) + 0.5) * dt
    intervals, _ = slice_lines(sq, theta, ts)
    total = sum(float(np.sum(seg[:, 1] - seg[:, 0])) for seg in intervals) * dt
    assert total == pytest.approx(1.0, abs=2e-4)


def test_scan_agrees_with_closed_form():
    sq = unit_square()
    theta = Direction.from_angle(1.1)
    lo, hi = geometry.hyperplane_range(sq, theta)
    ts = lo + (hi - lo) * np.linspace(0.08, 0.92, 9)
    closed, _ = slice_lines(sq, theta, ts)
    rows, alpha, beta = scan_slices(sq, theta, ts)
    scanned = [np.column_stack((alpha, beta))[rows == i] for i in range(ts.size)]
    for a, b in zip(closed, scanned):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, atol=2.0 * EPS_SCAN)


def test_chord_endpoints_bracket_the_domain():
    sq = unit_square()
    theta = Direction.from_angle(0.7)
    lo, hi = geometry.hyperplane_range(sq, theta)
    ts = lo + (hi - lo) * np.linspace(0.1, 0.9, 5)
    intervals, _ = slice_lines(sq, theta, ts)
    p = theta.perp_vector
    for t, segs in zip(ts, intervals):
        for a, b in segs:
            inner = t * p + np.array([a + 1e-7, b - 1e-7])[:, None] * theta.vector
            outer = t * p + np.array([a - 1e-7, b + 1e-7])[:, None] * theta.vector
            assert np.all(sq.contains_many(inner))
            assert not np.any(sq.contains_many(outer))


def test_chords_through_point():
    ch = chords(unit_square(), E1, (0.25, 0.5))
    assert len(ch) == 1
    assert ch[0].alpha == pytest.approx(0.0, abs=1e-12)
    assert ch[0].beta == pytest.approx(1.0, abs=1e-12)
    assert ch[0].length == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(ch[0].endpoint_plus, [1.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(ch[0].endpoint_minus, [0.0, 0.5], atol=1e-12)


def test_bicone_vertical_slices():
    # inside iff dist(x, C) < |y| < 1: over the central gap the chords
    # start at |y| = 1/6, over a set point they pinch to a zero gap at 0
    dom = Bicone(level=10)
    t_mid = float(np.array([0.5, 0.0]) @ E2.perp_vector)
    t_set = float(np.array([0.0, 0.0]) @ E2.perp_vector)
    intervals, _ = slice_lines(dom, E2, np.array([t_mid, t_set]))
    mid, pinched = intervals
    np.testing.assert_allclose(mid, [[-1.0, -1.0 / 6.0], [1.0 / 6.0, 1.0]], atol=1e-9)
    np.testing.assert_allclose(pinched, [[-1.0, 0.0], [0.0, 1.0]], atol=1e-9)


def test_bicone_oblique_chords_split_at_the_axis():
    # any chord that crosses y = 0 at a point off the set must be
    # split there; surviving chords never straddle an excluded crossing
    dom = Bicone(level=10)
    theta = Direction.from_angle(np.pi / 4.0)
    tv, p = theta.vector, theta.perp_vector
    ts = np.array([-0.5 / np.sqrt(2.0), 0.31, -0.11])
    intervals, _ = slice_lines(dom, theta, ts)
    for t, segs in zip(ts, intervals):
        s_star = -(t * p[1]) / tv[1]
        crossing = t * p + s_star * tv
        if dom.contains(crossing):
            continue
        inside = (segs[:, 0] + 1e-6 < s_star) & (s_star < segs[:, 1] - 1e-6)
        assert not np.any(inside)


def test_comb_oblique_slices_stay_inside():
    dom = CantorComb(level=8)
    theta = Direction.from_angle(0.9)
    lo, hi = geometry.hyperplane_range(dom, theta)
    ts = lo + (hi - lo) * np.linspace(0.2, 0.8, 7)
    intervals, _ = slice_lines(dom, theta, ts)
    p = theta.perp_vector
    for t, segs in zip(ts, intervals):
        for a, b in segs:
            mids = t * p + (0.5 * (a + b)) * theta.vector
            assert dom.contains(mids)


def test_slit_chords_split_with_zero_gap():
    dom = fractal.named_domain("crack_square")
    t = float(np.array([0.0, 0.5]) @ E1.perp_vector)
    intervals, flags = slice_lines(dom, E1, np.array([t]))
    segs = intervals[0]
    # the slit removes one point, not an interval: two abutting chords
    assert segs.shape[0] == 2
    assert segs[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert segs[1, 0] == pytest.approx(0.5, abs=1e-12)
    assert not flags[0]


def test_tiny_closed_form_chords_survive():
    # cusp chords along e1 near the tip have length 2 t^3; exact slicing
    # keeps them far below any scanning resolution
    cusp = Cusp()
    ts = np.array([1e-4, 1e-3])
    intervals, flags = slice_lines(cusp, E1, ts)
    for t, segs in zip(ts, intervals):
        assert segs.shape[0] == 1
        assert segs[0, 1] - segs[0, 0] == pytest.approx(2.0 * t**3, rel=1e-9)
    assert not np.any(flags)


def test_polygon_offset_breakpoints_are_vertex_projections():
    sq = unit_square()
    theta = Direction.from_angle(np.pi / 4.0)
    cuts = sq.offset_breakpoints(theta)
    expect = np.asarray(sq.vertices) @ theta.perp_vector
    np.testing.assert_allclose(np.sort(cuts), np.sort(expect), atol=1e-15)
    assert Cusp().offset_breakpoints(theta) is None


# --- serialization ----------------------------------------------------------


@pytest.mark.parametrize("name", ["square", "cusp", "bicone", "omega_C",
                                  "cantor_comb", "crack_square", "crack_interval"])
def test_json_roundtrip(name):
    dom = fractal.named_domain(name)
    clone = domain_from_json(dom.to_json())
    assert clone.kind == dom.kind
    assert clone.cache_key() == dom.cache_key()


def test_json_unknown_kind():
    with pytest.raises(UnknownName):
        domain_from_json({"kind": "dodecahedron"})


# --- exit-chord lookup -------------------------------------------------------


@pytest.mark.parametrize("name", ["square", "triangle", "crack_square",
                                  "disk_minus_cantor", "omega_C", "bicone"])
@pytest.mark.parametrize("angle", [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi])
def test_exit_chords_round_trip_on_axis_grids(name, angle):
    # on axis lines the offset of an exit point comes out exactly, so the
    # lookup re-slices the very line of the chord and must return it
    dom = fractal.named_domain(name)
    theta = Direction.from_angle(angle)
    grid = quadrature.chord_grid(dom, theta, 64)
    t, alpha, beta, found = geometry.exit_chords(
        dom, theta, grid.endpoint_plus, 1e-6 * dom.diameter)
    assert grid.n_chords > 0 and np.all(found)
    np.testing.assert_array_equal(t, grid.t)
    np.testing.assert_array_equal(alpha, grid.alpha)
    np.testing.assert_array_equal(beta, grid.beta)


def test_exit_chords_round_trip_with_explicit_offsets():
    dom = fractal.named_domain("cantor_comb", level=4)
    theta = Direction.from_angle(0.9)
    grid = quadrature.chord_grid(dom, theta, 64)
    _, alpha, beta, found = geometry.exit_chords(
        dom, theta, grid.endpoint_plus, 1e-6 * dom.diameter, offsets=grid.t)
    assert np.all(found)
    np.testing.assert_array_equal(alpha, grid.alpha)
    np.testing.assert_array_equal(beta, grid.beta)


def test_exit_chords_interior_point_is_not_found():
    sq = unit_square()
    _, alpha, beta, found = geometry.exit_chords(
        sq, E1, np.array([[0.5, 0.5], [1.0, 0.5]]), 1e-6)
    assert found.tolist() == [False, True]
    assert np.isnan(alpha[0]) and np.isnan(beta[0])
    assert (alpha[1], beta[1]) == pytest.approx((0.0, 1.0), abs=1e-12)


@pytest.mark.parametrize("name, theta, point", [
    ("square", Direction.from_angle(0.25 * np.pi), (0.0, 0.0)),
    ("triangle", Direction.from_angle(-np.pi / 3.0), (0.0, 1.0)),
])
def test_line_through_polygon_vertices_has_one_chord(name, theta, point):
    # both edges at a vertex report the crossing; it must count once
    dom = fractal.named_domain(name)
    t = float(np.asarray(point) @ theta.perp_vector)
    intervals, flags = slice_lines(dom, theta, np.array([t]))
    assert intervals[0].shape == (1, 2) and not flags[0]
    lo, hi = intervals[0][0]
    mid = t * theta.perp_vector + 0.5 * (lo + hi) * theta.vector
    assert dom.contains(mid)


@pytest.mark.parametrize("name, angle", [
    (name, angle)
    for name in ("square", "triangle", "crack_square", "disk_minus_cantor",
                 "omega_C", "bicone", "cusp", "cantor_comb")
    for angle in (0.0, 0.5 * np.pi, np.pi, -0.5 * np.pi, 0.9)
])
def test_batched_slicing_matches_one_line_at_a_time(name, angle):
    dom = fractal.named_domain(name, level=6) if name == "cantor_comb" else (
        fractal.named_domain(name))
    theta = Direction.from_angle(angle)
    lo, hi = geometry.hyperplane_range(dom, theta)
    ts = np.concatenate([lo + (hi - lo) * np.linspace(0.0, 1.0, 13), [0.0, 0.5]])
    batch, flags = slice_lines(dom, theta, ts)
    assert len(batch) == ts.size
    for t, segs, flag in zip(ts, batch, flags):
        one, one_flags = slice_lines(dom, theta, [t])
        np.testing.assert_array_equal(segs, one[0])
        assert flag == one_flags[0]


# --- closed forms against the scan oracle ------------------------------------

# The exact diagonal keeps x - y (and on the bicone's mirror image x + y)
# constant along every line.
ORACLE_DIRECTIONS = [Direction.from_angle(angle) for angle in
                     (0.3, 0.25 * np.pi, 0.8, 0.75 * np.pi, 1.2, 2.9, 0.8 + np.pi)]
ORACLE_DIRECTIONS.append(Direction([1.0, 1.0]))


def _vector_id(theta):
    return ",".join(repr(float(c)) for c in theta.vector)


@pytest.mark.parametrize("name", ["omega_C", "bicone", "cusp"])
@pytest.mark.parametrize("theta", ORACLE_DIRECTIONS, ids=_vector_id)
def test_oblique_closed_forms_agree_with_the_scan(name, theta):
    dom = fractal.named_domain(name)
    p, tv = theta.perp_vector, theta.vector
    lo, hi = geometry.hyperplane_range(dom, theta)
    ts = lo + (hi - lo) * (np.arange(64) + 0.5) / 64
    rows, alpha, beta, flags = geometry.chord_table(dom, theta, ts)
    assert rows.size and not np.any(flags)

    def points(s):
        return ts[rows, None] * p[None, :] + s[:, None] * tv[None, :]

    assert np.all(dom.contains_many(points(0.5 * (alpha + beta))))
    assert not np.any(dom.contains_many(points(alpha)))
    assert not np.any(dom.contains_many(points(beta)))

    s_rows, s_alpha, s_beta = scan_slices(dom, theta, ts)
    count = np.bincount(rows, minlength=ts.size)
    s_count = np.bincount(s_rows, minlength=ts.size)
    assert np.all(count >= s_count)
    same = np.nonzero(count == s_count)[0]
    assert same.size >= ts.size // 2
    mine, theirs = np.isin(rows, same), np.isin(s_rows, same)
    np.testing.assert_allclose(alpha[mine], s_alpha[theirs], atol=2.0 * EPS_SCAN)
    np.testing.assert_allclose(beta[mine], s_beta[theirs], atol=2.0 * EPS_SCAN)


@pytest.mark.parametrize("theta", ORACLE_DIRECTIONS, ids=_vector_id)
def test_bicone_pieces_abut_exactly_at_the_axis(theta):
    # Lines through Cantor points that end no gap, and through gaps deeper
    # than the level: both halves reach the axis there, and the piece above
    # and the piece below share the computed crossing exactly.
    dom = Bicone()
    p, tv = theta.perp_vector, theta.vector
    a, b = _cantor.level_intervals(dom.level + 2)
    deep = 0.5 * (b[0::2] + a[1::2])[:4]
    ts = np.concatenate(([0.0, 0.1, 0.25, 0.75], deep)) * p[0]
    intervals, flags = slice_lines(dom, theta, ts)
    assert not np.any(flags)
    pairs = 0
    for t, segs in zip(ts, intervals):
        s_star = -(t * p[1]) / tv[1]
        for left, right in zip(segs[:-1], segs[1:]):
            if abs(left[1] - s_star) <= 1e-9 and abs(right[0] - s_star) <= 1e-9:
                assert left[1] == right[0]
                pairs += 1
    assert pairs >= 4


def test_kind_without_closed_forms_is_rejected():
    class Disk(geometry.Domain):
        kind = "disk"
        dim = 2
        bbox = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))

        def contains_many(self, pts):
            return np.sum(np.asarray(pts) ** 2, axis=1) < 1.0

    with pytest.raises(ValidationError):
        slice_lines(Disk(), Direction.from_angle(0.3), np.array([0.0]))


# --- polygons ----------------------------------------------------------------

BOWTIE = [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]


def test_self_intersecting_polygon_is_rejected():
    with pytest.raises(ValidationError):
        Polygon(BOWTIE)
    with pytest.raises(ValidationError):
        domain_from_json({"kind": "polygon", "params": {"vertices": BOWTIE}})
    # a vertex touching a non-adjacent edge is not simple either
    with pytest.raises(ValidationError):
        Polygon([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (1.0, 0.0), (0.0, 2.0)])
    Polygon([(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 0.5), (0.0, 1.0)])
