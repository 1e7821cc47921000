"""Directions, domains, chord decompositions and exit maps."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dirtrace import _cantor, fractal, geometry, measure, quadrature
from dirtrace.errors import (
    NotDirectionalBoundary,
    PointOutsideDomain,
    UnknownName,
    ValidationError,
)
from dirtrace.geometry import (
    Bicone,
    CantorComb,
    ConeUnionCantor,
    Cusp,
    Direction,
    IntervalUnion,
    Polygon,
    SlitRectangle,
    chords,
    direction_table,
    domain_from_json,
    exit_distance,
    exit_point,
    opposite_endpoint,
    points_along,
    slice_lines,
)
import cantor_chord_oracle
from scan_oracle import EPS_SCAN, scan_slices

E1 = Direction([1.0, 0.0])
E2 = Direction([0.0, 1.0])

DIRECTIONS = st.one_of(st.sampled_from([0.0, 0.5 * np.pi, np.pi, -0.5 * np.pi]),
                       st.floats(-np.pi, np.pi)).map(Direction.from_angle)
CLIP_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def unit_square() -> Polygon:
    return Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


# --- directions ------------------------------------------------------------


def test_direction_normalized_and_perp():
    d = Direction([3.0, 4.0])
    assert np.isclose(np.linalg.norm(d.vector), 1.0)
    assert abs(float(d.vector @ d.perp_vector)) < 1e-15
    assert np.isclose(np.linalg.norm(d.perp_vector), 1.0)


@pytest.mark.parametrize("components", [[np.nan, 0.0], [0.0, np.inf], [-np.inf], [np.nan]])
def test_direction_rejects_non_finite_components(components):
    # abs(nan - 1) > 1e-12 is False, so a NaN once passed as a unit vector
    with pytest.raises(ValidationError, match="finite"):
        Direction(components)


@pytest.mark.parametrize("components, unit", [
    ([1e200, 1e200], [1.0, 1.0]),
    ([1e308, 1e308], [1.0, 1.0]),
    ([3e-170, 4e-170], [3.0, 4.0]),
    ([5e-324, -5e-324], [1.0, -1.0]),
])
def test_direction_of_huge_or_tiny_components(components, unit):
    # squaring them overflows to an infinite norm (once a zero vector,
    # accepted) or underflows to a zero one (once "zero direction")
    np.testing.assert_array_equal(Direction(components).vector, Direction(unit).vector)


def test_direction_rejects_the_zero_vector():
    with pytest.raises(ValidationError, match="zero direction"):
        Direction([0.0, -0.0])


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
def test_direction_rejects_a_non_finite_angle(angle):
    with pytest.raises(ValidationError, match="finite"):
        Direction.from_angle(angle)


def test_direction_table_spacing():
    table = direction_table(16)
    assert len(table) == 16
    angles = np.array([d.angle for d in table])
    gaps = np.diff(angles) % (2.0 * np.pi)
    np.testing.assert_allclose(gaps, 2.0 * np.pi / 16.0, atol=1e-12)
    np.testing.assert_allclose(table[0].vector, [1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("count", [2.5, True, np.float64(4.0), "4", 0, -3])
def test_direction_table_rejects_bad_counts(count):
    with pytest.raises(ValidationError):
        direction_table(count)


def test_direction_negation_and_axis():
    assert np.allclose((-E1).vector, [-1.0, 0.0])


@pytest.mark.parametrize("vector", [[0.0, -1.0], [-1.0, 0.0], [0.0, 1.0]])
def test_zero_sign_variants_are_equal_with_other_keys(vector):
    # caches key a direction by its bits: the two signs of a zero give
    # equal directions with one hash, and two keys
    theta = Direction(vector)
    flipped = Direction(np.where(theta.vector == 0.0, -0.0, theta.vector))
    assert np.signbit(flipped.vector).tolist() != np.signbit(theta.vector).tolist()
    assert theta == flipped and hash(theta) == hash(flipped) and len({theta, flipped}) == 1
    assert theta.key() != flipped.key()
    assert theta.key() == Direction(vector).key() == theta.vector.tobytes()


# --- membership ------------------------------------------------------------


def test_square_membership():
    sq = unit_square()
    inside = np.array([[0.5, 0.5], [1e-9, 1e-9], [0.999999, 0.5]])
    outside = np.array([[1.5, 0.5], [-1e-6, 0.5], [0.5, 1.0 + 1e-6]])
    assert np.all(sq.contains_many(inside))
    assert not np.any(sq.contains_many(outside))
    assert sq.volume == pytest.approx(1.0)
    assert sq.diameter == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("vertices", [
    [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    # a random star-shaped polygon: sorted angles keep it simple
    [(r * np.cos(a), r * np.sin(a)) for r, a in zip(
        np.random.default_rng(7).uniform(0.5, 2.0, 11),
        np.sort(np.random.default_rng(8).uniform(0.0, 2.0 * np.pi, 11)))],
])
def test_polygon_diameter_is_the_largest_vertex_distance(vertices):
    v = np.asarray(vertices)
    pairwise = max(float(np.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)) for a in v for b in v)
    assert Polygon(vertices).diameter == pairwise


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


@pytest.mark.parametrize("name", fractal.DOMAIN_NAMES)
def test_json_roundtrip(name):
    dom = fractal.named_domain(name)
    clone = domain_from_json(dom.to_json())
    assert clone.kind == dom.kind
    assert clone.cache_key() == dom.cache_key()
    assert clone.params() == dom.params()
    # built apart, not through the grid cache, which keys on cache_key
    theta = Direction.from_angle(0.3) if dom.dim == 2 else Direction([1.0])
    grid, twin = (quadrature.ChordGrid(d, theta, 64) for d in (dom, clone))
    for attr in ("offsets", "offset_widths", "offset_index", "alpha", "beta"):
        np.testing.assert_array_equal(getattr(twin, attr), getattr(grid, attr))


def _refuse_gap_tables(*args):
    raise RuntimeError("a rejected parameter set reached the gap table")


# Parameter sets each kind must reject, beside an unknown key.
_BAD_PARAMS = {
    "interval_union": [{}, {"intervals": "x"}],
    "polygon": [{}, {"vertices": "x"}],
    "cusp": [{"ratio": 0.25}],
    "cone_union_cantor": [{"level": "x"}, {"level": 25}, {"ratio": "x"}],
    "bicone": [{"level": "x"}, {"level": 25}, {"ratio": "x"}],
    "cantor_comb": [{"level": "x"}, {"level": 25}, {"ratio": "x"}],
    "disk_minus_cantor": [{"level": "x"}, {"level": -1}, {"ratio": None}],
    "slit_rectangle": [{"x0": 0.0, "x1": 1.0},
                       dict(x0=0.0, x1=1.0, y0=-1.0, y1=1.0, slit_x=0.5, slit_y0=0.0, slit_y1="x")],
}


@pytest.mark.parametrize("kind", sorted(geometry._KINDS))
def test_json_rejects_bad_parameters(kind, monkeypatch):
    good = next(d for d in map(fractal.named_domain, fractal.DOMAIN_NAMES)
                if d.kind == kind).params()
    # every rejection must come before a gap table is built
    monkeypatch.setattr(_cantor, "sorted_gaps", _refuse_gap_tables)
    for params in _BAD_PARAMS[kind] + [dict(good, extra=1)]:
        with pytest.raises(ValidationError):
            domain_from_json({"kind": kind, "params": params})


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


PLANAR_NAMES = [n for n in fractal.DOMAIN_NAMES if fractal.named_domain(n).dim == 2]
LOOKUP_ANGLES = [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, 0.3, 2.4, 4.2]
L_SHAPE = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)]
# every planar kind, near the origin and far from it, where the rounding of
# a computed point (and so the membership band) grows with the coordinates;
# the L-shaped polygon is not convex, so its chords pair edge crossings
ENDPOINT_DOMAINS = PLANAR_NAMES + ["far_square", "far_crack_square", "l_shape", "far_l_shape",
                                   "cantor_comb_8"]


def _planar_domain(name):
    if name == "far_square":
        return Polygon([(1000.0, 0.0), (1001.0, 0.0), (1001.0, 1.0), (1000.0, 1.0)])
    if name == "far_crack_square":
        return SlitRectangle(1e6, 1e6 + 1.0, -1.0, 1.0, 1e6 + 0.5, 0.0, 1.0)
    if name == "l_shape":
        return Polygon(L_SHAPE)
    if name == "far_l_shape":
        return Polygon(np.asarray(L_SHAPE) + 1e5)
    if name == "cantor_comb":
        # a level-12 comb line above the axis carries 4,096 chords
        return fractal.named_domain(name, level=6)
    if name == "cantor_comb_8":
        return fractal.named_domain("cantor_comb", level=8)
    return fractal.named_domain(name)


@pytest.mark.parametrize("name", PLANAR_NAMES + ["far_square"])
@pytest.mark.parametrize("angle", LOOKUP_ANGLES)
def test_exit_chords_find_exits_and_miss_inner_and_far_points(name, angle):
    dom = _planar_domain(name)
    theta = Direction.from_angle(angle)
    grid = quadrature.chord_grid(dom, theta, 64)
    r_match = 1e-6 * max(dom.diameter, 1.0)
    # about 200 chords
    pick = slice(None, None, max(1, grid.n_chords // 200))
    t, alpha, beta = grid.t[pick], grid.alpha[pick], grid.beta[pick]
    plus, minus = grid.endpoint_plus[pick], grid.endpoint_minus[pick]
    # looked up on its own line, an exit point finds its own chord
    _, a, b, found = geometry.exit_chords(dom, theta, plus, r_match, offsets=t)
    assert np.all(found)
    np.testing.assert_array_equal(a, alpha)
    np.testing.assert_array_equal(b, beta)
    # on the line through the point, whose offset rounds differently
    _, _, b, found = geometry.exit_chords(dom, theta, plus, r_match)
    assert np.all(found)
    np.testing.assert_allclose(b, beta, rtol=0.0, atol=r_match)
    # a chord's midpoint lies half its length from every exit of its line
    inner = 0.5 * (plus + minus)
    _, a, b, found = geometry.exit_chords(dom, theta, inner, r_match, offsets=t)
    long = beta - alpha > 4.0 * r_match
    assert np.any(long) and not np.any(found[long])
    assert np.all(np.isnan(a[~found])) and np.all(np.isnan(b[~found]))
    # far ahead, every exit is too far; with no radius the last one is nearest
    far = plus + 10.0 * max(dom.diameter, 1.0) * theta.vector
    assert not np.any(geometry.exit_chords(dom, theta, far, r_match, offsets=t)[3])
    _, _, b, found = geometry.exit_chords(dom, theta, far, np.inf, offsets=t)
    assert np.all(found)
    last = np.searchsorted(grid.offset_index, grid.offset_index, side="right") - 1
    np.testing.assert_array_equal(b, grid.beta[last[pick]])
    # on shifted lines and with no radius, every line with an unflagged
    # chord finds one
    ts = (t[:, None] + [-grid.dt / 3.0, grid.dt / 3.0]).ravel()
    rows, _, _, flags = geometry.chord_table(dom, theta, ts)
    carries = np.zeros(ts.size, dtype=bool)
    carries[rows[~flags[rows]]] = True
    found = geometry.exit_chords(dom, theta, np.repeat(plus, 2, axis=0), np.inf, offsets=ts)[3]
    np.testing.assert_array_equal(found, carries)


def test_exit_chords_leave_a_flagged_line_unfound():
    # at height 5e-5 the cusp is 2.5e-13 wide: the chord is kept and its
    # line flagged
    dom = Cusp()
    rows, _, beta, flags = geometry.chord_table(dom, E1, [5e-5])
    assert flags[0] and rows.size == 1
    _, _, _, found = geometry.exit_chords(dom, E1, np.array([[beta[0], 5e-5]]), np.inf)
    assert not found[0]


@pytest.mark.parametrize("theta, point", [(E1, (0.75, 0.5)), (-E1, (0.25, 0.5))])
def test_exit_chords_midway_between_two_exits_of_a_slit_line(theta, point):
    # the line y = 1/2 crosses the slit: its two chords exit 1/4 either
    # side of the point, and the first of equals is the one returned
    dom = fractal.named_domain("crack_square")
    pts = np.array([point])
    first = (0.0, 0.5) if theta == E1 else (-1.0, -0.5)
    for r_match in (0.2, 0.25, 0.3, np.inf):
        _, alpha, beta, found = geometry.exit_chords(dom, theta, pts, r_match)
        assert found[0] == (r_match >= 0.25)
        if found[0]:
            assert (alpha[0], beta[0]) == first


def _inside_endpoints(dom, theta, t, s):
    """The points t p + s theta that pass membership."""
    pts = t[:, None] * theta.perp_vector + s[:, None] * theta.vector
    return pts[dom.contains_many(pts)]


@pytest.mark.parametrize("name", ENDPOINT_DOMAINS)
@pytest.mark.parametrize("angle", LOOKUP_ANGLES)
def test_every_returned_endpoint_fails_membership(name, angle):
    dom = _planar_domain(name)
    theta = Direction.from_angle(angle)
    lo, hi = geometry.hyperplane_range(dom, theta)
    ts = np.linspace(lo, hi, 67)[1:-1]
    rows, alpha, beta, _ = geometry.chord_table(dom, theta, ts)
    assert rows.size > 0
    inside = [_inside_endpoints(dom, theta, ts[rows], s) for s in (alpha, beta)]
    grid = quadrature.chord_grid(dom, theta, 64)
    plus = grid.endpoint_plus[::max(1, grid.n_chords // 200)]
    for pts in (plus, plus + 1e-9 * theta.vector):
        t, a, b, found = geometry.exit_chords(dom, theta, pts, 1e-6 * max(dom.diameter, 1.0))
        assert np.any(found)
        inside += [_inside_endpoints(dom, theta, t[found], s) for s in (a[found], b[found])]
    assert np.concatenate(inside).size == 0


@pytest.mark.parametrize("name", ENDPOINT_DOMAINS)
@settings(CLIP_SETTINGS, max_examples=20)
@given(theta=DIRECTIONS, n_offsets=st.sampled_from([64, 256, 1024]))
def test_chord_table_endpoints_fail_membership(name, theta, n_offsets):
    dom = _planar_domain(name)
    if name == "cantor_comb_8":
        n_offsets = 1024
    ts, _, _ = quadrature._offset_cells(dom, theta, *geometry.hyperplane_range(dom, theta),
                                     n_offsets)
    rows, alpha, beta, _ = geometry.chord_table(dom, theta, ts)
    assert rows.size > 0
    feet = geometry._feet(ts[rows], theta.perp_vector)
    for s in (alpha, beta):
        assert not np.any(dom.contains_many(points_along(feet, s, theta.vector)))


def _count_membership(monkeypatch):
    """The number of points of every membership call of every kind."""
    calls = []
    for cls in set(geometry._KINDS.values()):
        def counted(self, pts, _inner=cls.contains_many):
            calls.append(len(pts))
            return _inner(self, pts)
        monkeypatch.setattr(cls, "contains_many", counted)
    return calls


@pytest.mark.parametrize("name", ["square", "triangle", "crack_square", "omega_C", "bicone",
                                  "disk_minus_cantor", "cantor_comb", "cusp", "l_shape"])
def test_chord_tables_make_no_membership_call(name, monkeypatch):
    # no catalogued kind tests a point; a polygon that is not convex pairs
    # its crossings by testing the cells between them, one call per table
    dom = _planar_domain(name)
    calls = _count_membership(monkeypatch)
    for angle in LOOKUP_ANGLES + [0.35, 0.9]:
        theta = Direction.from_angle(angle)
        ts, _, _ = quadrature._offset_cells(dom, theta, *geometry.hyperplane_range(dom, theta), 256)
        before = len(calls)
        rows, _, _, _ = geometry.chord_table(dom, theta, ts)
        assert rows.size > 0
        assert len(calls) - before == (1 if name == "l_shape" else 0)


def test_oblique_slit_crossings_fail_membership():
    # no rounded point of an oblique line lands on the slit exactly; the
    # slit's membership band catches the computed crossing
    dom = fractal.named_domain("crack_square")
    theta = Direction.from_angle(0.3)
    grid = quadrature.chord_grid(dom, theta, 1024)
    for s in (grid.alpha, grid.beta):
        assert _inside_endpoints(dom, theta, grid.t, s).size == 0


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


@pytest.mark.blas_threads
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


# the scan resolves the level-4 comb's gaps, at least 9.8e-4 wide; +-e1
# checks the horizontal sections of the cone unions
ORACLE_CASES = ([(name, theta) for name in ("omega_C", "bicone", "cusp", "cantor_comb")
                 for theta in ORACLE_DIRECTIONS]
                + [(name, theta) for name in ("omega_C", "bicone") for theta in (E1, -E1)])


@pytest.mark.parametrize("name, theta", ORACLE_CASES,
                         ids=[f"{_vector_id(theta)}-{name}" for name, theta in ORACLE_CASES])
def test_oblique_closed_forms_agree_with_the_scan(name, theta):
    dom = fractal.named_domain(name, level=4) if name == "cantor_comb" else (
        fractal.named_domain(name))
    p, tv = theta.perp_vector, theta.vector
    lo, hi = geometry.hyperplane_range(dom, theta)
    ts = lo + (hi - lo) * (np.arange(64) + 0.5) / 64
    rows, alpha, beta, flags = geometry.chord_table(dom, theta, ts)
    # at 3pi/4 one of the comb's 64 lines touches the top corner of a gap
    # column, a true tangency; the line through a tooth corner at the axis
    # (offset 27 at pi/4 and along [1, 1]) splits there and is not flagged
    tangent = name == "cantor_comb" and tv[0] < 0.0 < tv[1] and abs(tv[0] + tv[1]) <= 1e-15
    assert rows.size and np.count_nonzero(flags) == (1 if tangent else 0)

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


# --- the shared band cut against the earlier Cantor chord algorithms ---------


def _assert_same_bits(got, want):
    """Chord tables equal bit for bit, signs of zero included."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        if a.dtype == float:
            a, b = a.view(np.int64), b.view(np.int64)
        np.testing.assert_array_equal(a, b)


def _without_corner_slivers(theta, ts, table):
    """The chord table (rows, lo, hi) less its chords shorter than EPS_EXACT
    with an end at the line's axis crossing, and the lines that had one."""
    rows, lo, hi = table
    s0 = ((0.0 - ts * theta.perp_vector[1]) / theta.vector[1])[rows]
    sliver = (hi - lo < geometry.EPS_EXACT) & ((lo == s0) | (hi == s0))
    return (rows[~sliver], lo[~sliver], hi[~sliver]), np.unique(rows[sliver])


def _split_at_tooth_corners(dom, theta, ts, table):
    """The chord table (rows, lo, hi) with each chord end that lies within
    the membership band of the line's axis crossing, beside a chord that
    ends at the crossing, moved onto the crossing; and the lines moved."""
    rows, lo, hi = (col.copy() for col in table)
    s0 = ((0.0 - ts * theta.perp_vector[1]) / theta.vector[1])[rows]
    band = dom._rounding / abs(theta.vector[1])
    same = rows[1:] == rows[:-1]
    after = np.append(False, same & (hi[:-1] == s0[1:]) & (lo[1:] != s0[1:])
                      & (np.abs(lo[1:] - s0[1:]) <= band))
    before = np.append(same & (lo[1:] == s0[:-1]) & (hi[:-1] != s0[:-1])
                       & (np.abs(hi[:-1] - s0[:-1]) <= band), False)
    lo[after], hi[before] = s0[after], s0[before]
    return (rows, lo, hi), np.unique(rows[after | before])


def test_comb_cut_matches_the_earlier_column_join():
    # bit for bit on oblique grids of levels 0-8 (1,024 offsets up to level
    # 6, 256 throughout), except where the join kept a few-ulp sliver of a
    # gap column beside the tooth that holds the axis crossing (and so
    # flagged the line): the cut removes it with the tooth, as membership
    # does; and where a line runs through a tooth's corner at the axis
    # (the join left a few-ulp gap before the gap column and flagged the
    # line): the cut splits it at the crossing into two abutting chords
    slivers, corners = set(), set()
    for level in range(9):
        dom = fractal.named_domain("cantor_comb", level=level)
        for angle in (0.35, 0.25 * np.pi, 0.9, 0.75 * np.pi, 2.6, -0.4):
            theta = Direction.from_angle(angle)
            for n in (256, 1024) if level <= 6 else (256,):
                ts, _, _ = quadrature._offset_cells(
                    dom, theta, *geometry.hyperplane_range(dom, theta), n)
                want, lines = _without_corner_slivers(
                    theta, ts, cantor_chord_oracle.comb_line_slices(dom, theta, ts))
                want, split = _split_at_tooth_corners(dom, theta, ts, want)
                got = dom.line_slices(theta, ts)
                _assert_same_bits(got, want)
                assert not np.any(geometry._trim(ts, *got)[3][split])
                slivers |= {(angle, n, int(i)) for i in lines}
                corners |= {(level, angle, n, int(i)) for i in split}
    assert slivers == {(0.25 * np.pi, 1024, 664), (0.75 * np.pi, 256, 95)}
    assert corners == ({(level, 0.25 * np.pi, 256, i)
                        for level in range(3, 9) for i in (95, 141, 167)}
                       | {(level, 0.25 * np.pi, 1024, i)
                          for level in range(4, 7) for i in (359, 421, 463, 589, 647)})


@pytest.mark.parametrize("angle", [0.25 * np.pi, 0.75 * np.pi])
def test_comb_lines_through_a_gap_end_split_there(angle):
    # offset 664 of the level-6 comb's 1,024 crosses the axis at a gap end,
    # which membership counts with the tooth beside it
    dom = fractal.named_domain("cantor_comb", level=6)
    theta = Direction.from_angle(angle)
    p, tv = theta.perp_vector, theta.vector
    ts, _, _ = quadrature._offset_cells(dom, theta, *geometry.hyperplane_range(dom, theta), 1024)
    t = ts[664:665]
    s0 = (0.0 - t[0] * p[1]) / tv[1]
    crossing = t[0] * p + s0 * tv
    assert t[0] * p[0] + s0 * tv[0] == 0.94677734375
    assert _cantor.gap_search(np.array([0.94677734375]), dom._gaps_sorted)[1][0] == 0.0
    assert not dom.contains(crossing)
    rows, alpha, beta, flags = geometry.chord_table(dom, theta, t)
    assert not flags[0]
    first = np.nonzero(beta == s0)[0]
    assert first.size == 1
    if angle > 0.5 * np.pi:
        # the lower chord and the gap column abut at the crossing
        assert alpha[first[0] + 1] == s0
    else:
        # the join's chords, less its one-ulp column sliver at the tooth
        # corner, for which it flagged the line
        *want, join_flags = geometry._trim(t, *cantor_chord_oracle.comb_line_slices(dom, theta, t))
        assert join_flags[0]
        _assert_same_bits((rows, alpha, beta), want)


def _assert_same_but_apex_splits(dom, theta, ts, got, want):
    """Chord tables (rows, alpha, beta, flags) equal bit for bit once each
    run of abutting chords is joined in both, where every point at which
    two chords of `got` abut fails membership."""
    def joined(rows, alpha, beta):
        abut = (rows[1:] == rows[:-1]) & (alpha[1:] == beta[:-1])
        start, end = np.insert(~abut, 0, True), np.append(~abut, True)
        return (rows[start], alpha[start], beta[end]), rows[1:][abut], alpha[1:][abut]

    (table, rows, s), (want_table, _, _) = joined(*got[:3]), joined(*want[:3])
    _assert_same_bits((*table, got[3]), (*want_table, want[3]))
    feet = geometry._feet(ts[rows], theta.perp_vector)
    assert not np.any(dom.contains_many(points_along(feet, s, theta.vector)))


@pytest.mark.parametrize("ratio, scheme", [(1.0 / 3.0, "third"), (1.0 / 3.0, "rho"),
                                           (0.25, "rho")])
def test_cone_sections_match_the_earlier_apex_slices(ratio, scheme):
    # horizontal chords of omega_C and the bicone at levels 0-12, in both
    # senses, against the sections of `apex_slices`: bit for bit on a grid,
    # and at the heights h where a gap is exactly 2h long (which the grids
    # of ratio 0.25 hold) equal but for splits at the triangles' apexes
    for level in range(13):
        cone = ConeUnionCantor(ratio, level, scheme)
        lengths = np.diff(cone._gaps_sorted, axis=1).ravel()
        half = 0.5 * np.unique(lengths[lengths > 1e-3])
        for dom in (cone, Bicone(ratio, level, scheme)):
            for theta in (E1, -E1):
                grid, _, _ = quadrature._offset_cells(
                    dom, theta, *geometry.hyperplane_range(dom, theta), 1024)
                for ts in (grid, np.concatenate((half, -half))):
                    got = geometry.chord_table(dom, theta, ts)
                    want = geometry._trim(ts, *cantor_chord_oracle.axis_slices(dom, theta, ts))
                    if ratio == 0.25 or ts is not grid:
                        _assert_same_but_apex_splits(dom, theta, ts, got, want)
                    else:
                        _assert_same_bits(got, want)


def test_axis_chords_match_the_earlier_axis_closed_forms():
    # the cusp, the cone union, the bicone and the comb along +-E1 and
    # +-E2 (the zero component of -E1 is -0.0, of the angle pi +0.0)
    # against the sections of the moving coordinate, negated and reversed
    # along a negative direction: bit for bit, signs of zero included,
    # but for the cone unions' splits at apexes at ratio 0.25
    directions = (E1, -E1, Direction.from_angle(np.pi), E2, -E2,
                  Direction.from_angle(-0.5 * np.pi))
    special = np.array([0.0, -0.0, 1.0, -1.0, 1e-4, 1.22e-4, -1e-4, -1.22e-4])
    domains = [Cusp()] + [kind(ratio, level, scheme)
                          for ratio, scheme in ((1.0 / 3.0, "third"), (1.0 / 3.0, "rho"),
                                                (0.25, "rho"))
                          for level in (0, 3, 8, 12)
                          for kind in (ConeUnionCantor, Bicone, CantorComb)]
    for i, (dom, theta) in enumerate(itertools.product(domains, directions)):
        # 64 to 4,096 offsets in turn; a comb's horizontal lines carry one
        # chord per gap
        n = 64 if isinstance(dom, CantorComb) and theta.vector[1] == 0.0 else 4 ** (3 + i % 4)
        grid, _, _ = quadrature._offset_cells(
            dom, theta, *geometry.hyperplane_range(dom, theta), n)
        ts = np.concatenate((grid, special))
        got = geometry.chord_table(dom, theta, ts)
        want = geometry._trim(ts, *cantor_chord_oracle.axis_slices(dom, theta, ts))
        if dom.params().get("ratio") == 0.25 and not isinstance(dom, CantorComb):
            _assert_same_but_apex_splits(dom, theta, ts, got, want)
        else:
            _assert_same_bits(got, want)


def _cubic_cases():
    """Seeded (p, q) pairs of y**3 + p y + q, and pairs whose discriminant
    (q/2)**2 + (p/3)**3 lies within 1e-12 of 0 (a near-double root)."""
    rng = np.random.default_rng(20)
    p = np.concatenate((rng.uniform(-3.0, 3.0, 16), -(10.0 ** rng.uniform(-3.0, 2.5, 8)),
                        10.0 ** rng.uniform(-3.0, 2.5, 8)))
    cases = [(pi, qi, False) for pi in p for qi in rng.uniform(-2.0, 2.0, 6)]
    for pi in p[p < 0.0]:
        r = np.sqrt(-pi / 3.0)
        for rel in (0.0, 1e-15, -1e-15, 1e-13, -1e-13):
            qi = float(np.copysign(2.0 * r**3 * (1.0 + rel), rng.uniform(-1.0, 1.0)))
            if abs((0.5 * qi) ** 2 + (pi / 3.0) ** 3) <= 1e-12:
                cases.append((pi, qi, True))
    return cases


@pytest.mark.blas_threads
def test_cubic_roots_match_mpmath():
    # each real root against mpmath's at 40 digits: within a few rounding
    # errors of the cubic's terms over its slope there (the root's
    # condition); where the roots are O(1), within 1e-15 of a root more
    # than 1e-6 from the others, and within 1e-7 of a near-double one
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    eps = np.finfo(float).eps
    apart = double = 0
    for p, q, near in _cubic_cases():
        roots = mpmath.polyroots([1, 0, p, q], extraprec=60)
        # a near-double pair may be complex by less than the float floor
        exact = sorted(float(r.real) for r in roots if near or abs(r.imag) <= 1e-30)
        got = [r for r in (float(r[0]) for r in geometry._cubic_roots(p, np.array([q])))
               if not np.isnan(r)]
        if len(got) < len(exact):
            # the pair came out complex: only the simple root is returned
            exact = [max(exact, key=lambda e: sorted(abs(e - o) for o in exact)[1])]
        assert got == sorted(got) and len(got) == len(exact)
        rho = max(abs(r) for r in exact)
        for mine, ref in zip(got, exact):
            err = abs(mine - ref)
            sep = sorted(abs(ref - o) for o in exact)[1] if len(exact) > 1 else np.inf
            assert err * abs(3.0 * ref * ref + p) <= 4.0 * eps * (rho**3 + abs(p) * rho + abs(q))
            if rho <= 2.0 and sep > 1e-6:
                assert err <= 1e-15
                apart += 1
            if sep <= 1e-6:
                assert err <= 1e-7
                double += 1
    assert apart > 150 and double > 20


@settings(CLIP_SETTINGS, max_examples=300)
@given(y_star=st.floats(0.005, 0.995), branch=st.sampled_from([1.0, -1.0]),
       shift=st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9]),
       tip=st.one_of(st.none(), st.floats(-12.0, 0.4)))
def test_cusp_chords_on_tangent_and_tip_lines(y_star, branch, shift, tip):
    # x = x0 + m y tangent to x = branch y**3 at y_star (m = 3 branch
    # y_star**2, x0 = -2 branch y_star**3), moved by shift, or through the
    # tip with m = branch 10**tip: endpoints fail membership, midpoints
    # pass it, and every chord lies in the band b**(1/3) <= y <= 1
    dom = Cusp()
    m, x0 = 3.0 * branch * y_star**2, -2.0 * branch * y_star**3 + shift
    if tip is not None:
        m, x0 = branch * 10.0**tip, 0.0
    theta = Direction([m, 1.0])
    t = x0 * theta.perp_vector[0]
    rows, alpha, beta, _ = geometry.chord_table(dom, theta, [t])
    # a tip line is inside where |m|**(1/2) < y < 1, so nowhere when |m| >= 1
    assert rows.size > 0 or abs(m) > 0.9
    feet = geometry._feet(np.full(rows.size, t), theta.perp_vector)
    for s in (alpha, beta):
        assert not np.any(dom.contains_many(points_along(feet, s, theta.vector)))
        y = t * theta.perp_vector[1] + s * theta.vector[1]
        assert np.all((y >= dom._rounding ** (1.0 / 3.0) * (1.0 - 1e-12)) & (y <= 1.0 + 1e-15))
    assert np.all(dom.contains_many(points_along(feet, 0.5 * (alpha + beta), theta.vector)))


@pytest.mark.parametrize("angle", [1e-4, 1e-5, 1e-6, np.pi - 1e-4])
def test_flat_cusp_lines_end_outside(angle):
    # on a nearly horizontal line a root's error in y moves the endpoint
    # by m = cot(angle) times as much in x, past the rounding band; mapped
    # through x = +-y**3 it does not
    dom, theta = Cusp(), Direction.from_angle(angle)
    ts, _, _ = quadrature._offset_cells(dom, theta, *geometry.hyperplane_range(dom, theta), 4096)
    rows, alpha, beta, _ = geometry.chord_table(dom, theta, ts)
    assert rows.size > 4000
    feet = geometry._feet(ts[rows], theta.perp_vector)
    for s in (alpha, beta):
        assert not np.any(dom.contains_many(points_along(feet, s, theta.vector)))


@pytest.mark.parametrize("theta", ORACLE_DIRECTIONS, ids=_vector_id)
def test_bicone_pieces_abut_exactly_at_the_axis(theta):
    # Lines through Cantor points that end no gap, and through gaps deeper
    # than the level: both halves reach the axis there, and the piece above
    # and the piece below share the computed crossing exactly.
    dom = Bicone()
    p, tv = theta.perp_vector, theta.vector
    a, b = _cantor.level_intervals(dom.upper.level + 2)
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


# --- convex polygons: clipping against the crossing path ----------------------

NOTCHED = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 0.5), (0.0, 1.0)]
COLLINEAR = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]


def test_convexity_is_recorded_for_strictly_convex_polygons_only():
    for name in ("square", "triangle"):
        assert fractal.named_domain(name)._orientation == 1
    assert fractal.named_domain("crack_square")._rect._orientation == 1
    assert Polygon(unit_square().vertices[::-1])._orientation == -1
    assert Polygon(NOTCHED)._orientation == 0
    assert Polygon(COLLINEAR)._orientation == 0


def test_non_convex_polygons_keep_the_crossing_path():
    theta = Direction.from_angle(0.35)
    ts = np.linspace(-0.5, 2.5, 41)
    for vertices in (NOTCHED, COLLINEAR):
        dom = Polygon(vertices)
        for got, want in zip(dom.line_slices(theta, ts), dom._crossing_slices(theta, ts)):
            np.testing.assert_array_equal(got, want)


def _crossing_twin(dom: Polygon) -> Polygon:
    """The same polygon, sliced by the crossing path."""
    twin = Polygon(dom.vertices)
    twin._orientation = 0
    return twin


@st.composite
def convex_polygons(draw, log_scale=(0.0, 3.0), shift_scales=100.0):
    """Strictly convex polygons: vertices on an ellipse at jittered angles
    (each at least 0.2 of its share of the turn from the next), scaled by
    10**log_scale (1 to 1e3 by default), shifted by up to shift_scales
    scales (at most 1e4), in either turning sense."""
    n = draw(st.integers(3, 8))
    jitter = draw(st.lists(st.floats(0.0, 0.8), min_size=n, max_size=n))
    start = draw(st.floats(0.0, 2.0 * np.pi))
    angles = start + 2.0 * np.pi * (np.arange(n) + np.array(jitter)) / n
    axes = np.array([draw(st.floats(0.3, 1.0)), draw(st.floats(0.3, 1.0))])
    scale = 10.0 ** draw(st.floats(*log_scale))
    shift = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(2)]) * min(1e4, shift_scales * scale)
    v = np.column_stack((np.cos(angles), np.sin(angles))) * axes * scale + shift
    dom = Polygon(v[::-1] if draw(st.booleans()) else v)
    assume(dom._orientation != 0)
    return dom


@CLIP_SETTINGS
@given(convex_polygons(), DIRECTIONS)
def test_clipped_chords_equal_the_crossing_path_on_grid_offsets(dom, theta):
    lo, hi = geometry.hyperplane_range(dom, theta)
    ts, _, _ = quadrature._offset_cells(dom, theta, lo, hi, 256)
    # Vertex projections that differ by rounding make a cell of rounding
    # width whose line runs through a vertex; the grazing test covers it.
    cuts = dom.offset_breakpoints(theta)
    ts = ts[np.abs(ts[:, None] - cuts[None, :]).min(axis=1) > 1e-9 * dom._scale]
    got = geometry.chord_table(dom, theta, ts)
    want = geometry.chord_table(_crossing_twin(dom), theta, ts)
    assert got[0].size > 0
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def _grazing_offsets(dom: Polygon, theta: Direction, step: float) -> np.ndarray:
    """Offsets k step, |k| <= 3, or one ulp away from a vertex projection."""
    cuts = dom.offset_breakpoints(theta)
    return np.concatenate([(cuts[:, None] + np.arange(-3, 4) * step).ravel(),
                           np.nextafter(cuts, np.inf), np.nextafter(cuts, -np.inf)])


@CLIP_SETTINGS
@given(convex_polygons(), DIRECTIONS)
def test_clipped_chords_match_the_crossing_path_at_grazing_offsets(dom, theta):
    scale = max(dom._scale, 1.0)
    ts = _grazing_offsets(dom, theta, 1e-13 * scale)
    rows, lo, hi = dom.line_slices(theta, ts)
    x_rows, x_lo, x_hi = dom._crossing_slices(theta, ts)
    np.testing.assert_array_equal(rows, x_rows)
    np.testing.assert_allclose(lo, x_lo, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(hi, x_hi, rtol=0.0, atol=1e-12 * scale)
    mids = points_along(geometry._feet(ts[rows], theta.perp_vector), 0.5 * (lo + hi),
                        theta.vector)
    assert np.all(dom.contains_many(mids))


@st.composite
def far_convex_polygons(draw):
    """Strictly convex polygons of size 0.01 to 1, moved 1e4 away from the
    origin, where the rounding of an edge parameter exceeds 1e-12."""
    v = draw(convex_polygons((-2.0, 0.0), 0.0)).vertices
    phi = draw(st.floats(0.0, 2.0 * np.pi))
    dom = Polygon(v + 1e4 * np.array([np.cos(phi), np.sin(phi)]))
    assume(dom._orientation != 0)
    return dom


@CLIP_SETTINGS
@given(far_convex_polygons(), st.lists(st.floats(-np.pi, np.pi), min_size=4, max_size=4))
def test_crossing_path_keeps_every_clipped_chord_far_from_the_origin(dom, angles):
    for theta in map(Direction.from_angle, angles):
        ts = _grazing_offsets(dom, theta, 1e-13 * dom._scale)
        np.testing.assert_array_equal(dom._crossing_slices(theta, ts)[0],
                                      dom.line_slices(theta, ts)[0])


# --- the 1-D line -----------------------------------------------------------


@pytest.mark.parametrize("n_offsets", [2, 64, 4096])
def test_interval_union_chords_are_its_intervals(n_offsets):
    # along +1 the intervals as given, along -1 negated and reversed, never
    # trimmed or flagged (not even below EPS_EXACT), on one line at offset
    # 0 of width 1 at any offset count
    dom = IntervalUnion([(0.0, 1e-14), (0.5, 1.0)])
    assert 1e-14 < geometry.EPS_EXACT
    want = {1.0: [(0.0, 1e-14), (0.5, 1.0)], -1.0: [(-1.0, -0.5), (-1e-14, -0.0)]}
    for sign, intervals in want.items():
        theta = Direction([sign])
        assert theta.perp_vector.tolist() == [0.0] and not np.signbit(theta.perp_vector[0])
        grid = quadrature.chord_grid(dom, theta, n_offsets)
        assert grid.offsets.tolist() == [0.0] and grid.offset_widths.tolist() == [1.0]
        assert grid.dt == 1.0 and grid.segment_counts.tolist() == [1]
        assert grid.flagged_offsets == 0 and grid.offset_index.tolist() == [0, 0]
        assert list(zip(grid.alpha.tolist(), grid.beta.tolist())) == intervals
        lines, flags = slice_lines(dom, theta, [0.0, 0.25])
        assert [row.tolist() for row in lines] == [[list(c) for c in intervals]] * 2
        assert not flags.any()
        assert [(c.alpha, c.beta) for c in chords(dom, theta, [0.7])] == intervals
    assert exit_distance(dom, [0.7], Direction([-1.0])) == pytest.approx(0.2, abs=1e-15)
    assert exit_distance(dom, [0.7], Direction([1.0])) == pytest.approx(0.3, abs=1e-15)


@pytest.mark.parametrize("name, theta", [("crack_interval", E1), ("square", Direction([-1.0]))],
                         ids=["planar_direction_on_interval", "line_direction_on_square"])
def test_directions_of_another_dimension_are_rejected(name, theta):
    dom = fractal.named_domain(name)
    point = np.full(dom.dim, 0.5)
    assert dom.contains(point)
    calls = {
        "chord_grid": lambda: quadrature.chord_grid(dom, theta, 16),
        "measure_atoms": lambda: measure.measure_atoms(dom, theta,
                                                       quadrature.QuadratureSpec(n_offsets=16)),
        "hyperplane_range": lambda: geometry.hyperplane_range(dom, theta),
        "slice_lines": lambda: slice_lines(dom, theta, [0.0]),
        "exit_chords": lambda: geometry.exit_chords(dom, theta, point[None], 1.0),
        "chords": lambda: chords(dom, theta, point),
        "exit_distance": lambda: exit_distance(dom, point, theta),
    }
    for call in calls.values():
        with pytest.raises(ValidationError, match="direction on a"):
            call()
