"""Gap tables, distances and level bookkeeping of the Cantor helpers."""

import math

import numpy as np
import pytest

import cantor_oracle
from dirtrace import _cantor, fractal, geometry
from dirtrace.errors import InvalidRatio, ValidationError


def test_gap_table_first_levels():
    table = _cantor.gap_table(1.0 / 3.0, 1)
    # heap order: root gap first, then its two children
    assert table.shape == (3, 3)
    np.testing.assert_allclose(table[0, :2], [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)
    np.testing.assert_allclose(table[1, :2], [1.0 / 9.0, 2.0 / 9.0], atol=1e-15)
    np.testing.assert_allclose(table[2, :2], [7.0 / 9.0, 8.0 / 9.0], atol=1e-15)
    np.testing.assert_array_equal(table[:, 2], [0.0, 1.0, 1.0])


def test_gap_count_matches_table():
    for level in range(5):
        table = _cantor.gap_table(1.0 / 3.0, level)
        assert table.shape[0] == 2 ** (level + 1) - 1


def test_depth_column_is_heap_depth():
    # gap m (1-based heap index) lies at depth floor(log2 m)
    table = _cantor.gap_table(0.25, 4, scheme="rho")
    m = np.arange(1, table.shape[0] + 1)
    assert np.array_equal(table[:, 2], [int(k).bit_length() - 1 for k in m])


@pytest.mark.parametrize("ratio,scheme", [(1.0 / 3.0, "third"), (0.25, "rho"), (0.1, "rho")])
def test_removed_length_matches_gap_sum(ratio, scheme):
    for level in (0, 1, 3, 6):
        table = _cantor.gap_table(ratio, level, scheme)
        total = float(np.sum(table[:, 1] - table[:, 0]))
        assert abs(total - _cantor.removed_length(ratio, level)) < 1e-12


def test_gaps_disjoint_and_inside_unit():
    table = _cantor.gap_table(0.25, 8, scheme="rho")
    order = np.argsort(table[:, 0])
    c, d = table[order, 0], table[order, 1]
    assert np.all(d > c)
    assert c[0] > 0.0 and d[-1] < 1.0
    assert np.all(c[1:] >= d[:-1])


def test_distance_golden_values():
    assert _cantor.distance(0.0) == 0.0
    assert _cantor.distance(1.0) == 0.0
    assert _cantor.distance(1.0 / 3.0) == pytest.approx(0.0, abs=1e-15)
    # middle of the first gap: nearest set points are 1/3 and 2/3
    assert _cantor.distance(0.5) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert _cantor.distance(0.4) == pytest.approx(0.4 - 1.0 / 3.0, abs=1e-12)


def test_distance_many_matches_scalar():
    xs = np.linspace(-0.2, 1.2, 113)
    many = _cantor.distance_many(xs)
    for x, v in zip(xs, many):
        assert _cantor.distance(float(x)) == pytest.approx(float(v), abs=1e-14)


def test_distance_outside_unit_interval():
    assert _cantor.distance(-0.5) == pytest.approx(0.5, abs=1e-15)
    assert _cantor.distance(1.25) == pytest.approx(0.25, abs=1e-15)


def test_scheme_equivalence_at_one_third():
    a = _cantor.gap_table(1.0 / 3.0, 5, "third")
    b = _cantor.gap_table(1.0 / 3.0, 5, "rho")
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_level_intervals_structure():
    starts, ends = _cantor.level_intervals(1)
    np.testing.assert_allclose(starts, [0.0, 2.0 / 3.0], atol=1e-15)
    np.testing.assert_allclose(ends, [1.0 / 3.0, 1.0], atol=1e-15)
    starts, ends = _cantor.level_intervals(6, 0.25, "rho")
    assert starts.size == 64
    # surviving length after L rounds plus removed length is the unit interval
    survived = float(np.sum(ends - starts))
    assert abs(survived + _cantor.removed_length(0.25, 5) - 1.0) < 1e-12


@pytest.mark.parametrize("ratio, scheme", [(1.0 / 3.0, "third"), (0.25, "rho"), (0.1, "rho"),
                                           (1.0 / 3.0, "rho"), (0.3, "rho")])
def test_level_intervals_equal_the_interleave_oracle(ratio, scheme, monkeypatch):
    seed_levels = range(_cantor._SEED_LEVEL + 2)
    want = [cantor_oracle.level_intervals(level, ratio, scheme) for level in range(16)]
    _cantor._seed(ratio, scheme)
    with monkeypatch.context() as m:
        # seed levels are views of the cached intervals, never re-sorted
        m.setattr(_cantor, "sorted_gaps", _refuse_sorting)
        got = [_cantor.level_intervals(level, ratio, scheme) for level in seed_levels]
    got += [_cantor.level_intervals(level, ratio, scheme) for level in range(len(got), 16)]
    for level, (pair, expect) in enumerate(zip(got, want)):
        for g, w in zip(pair, expect):
            assert g.tobytes() == w.tobytes()
            assert g.flags.writeable == (level not in seed_levels)


def _refuse_sorting(*args):
    raise RuntimeError("a seed level rebuilt its gap table")


def test_level_tables_reject_levels_out_of_range():
    for level in (-1, _cantor.MAX_LEVEL + 1):
        with pytest.raises(ValidationError):
            _cantor.level_intervals(level)
        with pytest.raises(ValidationError):
            _cantor.gap_table(1.0 / 3.0, level)


def test_total_gap_length():
    assert _cantor.total_gap_length(0.25) == pytest.approx(0.5, abs=1e-15)
    assert _cantor.total_gap_length(1.0 / 3.0) == pytest.approx(1.0, abs=1e-12)


def test_interval_length_shrinks_geometrically():
    # L_k = (L_{k-1} - ratio**k) / 2 from L_0 = 1, in closed form; 3**-k at
    # ratio 1/3
    for ratio, scheme in ((0.25, "rho"), (1.0 / 3.0, "third")):
        for level in range(5):
            expect = 2.0 ** -level * (1.0 - ratio * ((2.0 * ratio) ** level - 1.0)
                                      / (2.0 * ratio - 1.0))
            starts, ends = _cantor.level_intervals(level, ratio, scheme)
            np.testing.assert_allclose(ends - starts, expect, atol=1e-14)
    assert expect == pytest.approx(3.0 ** -4, abs=1e-15)


def test_ratio_validation():
    with pytest.raises(InvalidRatio):
        _cantor.gap_table(0.5, 2, "rho")
    with pytest.raises(InvalidRatio):
        _cantor.gap_table(0.0, 2, "rho")
    with pytest.raises(InvalidRatio):
        _cantor.gap_table(0.25, 2, "third")
    with pytest.raises(InvalidRatio):
        _cantor.gap_table(1.0 / 3.0, 2, "nope")


def _ulp_neighbours(x, count):
    """The `count` floats below and above each of x."""
    out = []
    for toward in (-np.inf, np.inf):
        y = x
        for _ in range(count):
            y = np.nextafter(y, toward)
            out.append(y)
    return out


def _oracle_points(ratio, scheme):
    """Uniform draws, gap ends at depths 3-20 with their neighbouring floats,
    the ends of the depth-14 surviving intervals, the ends of the depth-12
    (seed) intervals with the floats 1-4 ulps and 1e-16 to 2e-15 away, the
    edge thresholds with their neighbouring floats, and special values."""
    rng = np.random.default_rng(7)
    # every gap at depths 3-12, where the sorted table hands over to the descent
    ends = [_cantor.gap_table(ratio, 12, scheme)[7:, :2].ravel()]
    # gaps at depths 13-20 along random branches, split as the descent splits
    a, b = np.zeros(256), np.ones(256)
    for depth in range(21):
        c, d = _cantor._split(a, b, depth, ratio, scheme)
        if depth >= 13:
            ends.append(np.concatenate((c, d)))
        right = rng.random(a.size) < 0.5
        a, b = np.where(right, d, a), np.where(right, b, c)
    ends = np.concatenate(ends)
    lo, hi = _cantor.level_intervals(14, ratio, scheme)
    # the edge thresholds lie within 2e-15 of their seed interval's ends,
    # so these shifts cross each of them from both sides
    lo12, hi12, left, right = _cantor._seed(ratio, scheme)
    edges = np.concatenate((lo12, hi12))
    shifts = [edges + h for h in (1e-16, 5e-16, 1e-15, 2e-15, -1e-16, -5e-16, -1e-15, -2e-15)]
    thresholds = np.concatenate((left, right))
    return np.concatenate((
        rng.uniform(-0.2, 1.2, 4000),
        ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
        lo[::7], hi[::7],
        edges, *_ulp_neighbours(edges, 4), *shifts,
        thresholds, *_ulp_neighbours(thresholds, 1),
        [0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, 5e-324],
    ))


RATIO_SCHEMES = [
    (1.0 / 3.0, "third"), (1.0 / 3.0, "rho"), (0.3, "rho"),
    (0.25, "rho"), (0.1, "rho"), (1e-3, "rho"),
]


@pytest.mark.parametrize("ratio,scheme", RATIO_SCHEMES)
def test_distance_many_is_bit_identical_to_the_level_by_level_descent(ratio, scheme):
    x = _oracle_points(ratio, scheme)
    got = _cantor.distance_many(x, ratio, scheme)
    want = cantor_oracle.distance_many(x, ratio, scheme)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("ratio,scheme", RATIO_SCHEMES)
def test_edge_thresholds_lie_next_to_their_seed_interval_ends(ratio, scheme):
    lo, hi, left, right = _cantor._seed(ratio, scheme)
    assert np.all((lo <= left) & (left < right) & (right <= hi))
    # so the shifts of _oracle_points cross every threshold
    assert np.all((left - lo < 2e-15) & (hi - right < 2e-15))


def test_the_table_cache_keeps_a_bounded_number_of_ratios():
    for ratio in np.linspace(0.01, 0.3, 20):
        _cantor.distance_many(np.array([0.5]), float(ratio), "rho")
    assert _cantor._seed.cache_info().currsize <= _cantor._SEED_CACHE


def _offsets(domain, theta, n):
    lo, hi = geometry.hyperplane_range(domain, theta)
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


@pytest.mark.parametrize("name, params", [
    ("cantor_comb", {"level": 8}), ("cantor_comb", {}), ("omega_C", {}),
    ("bicone", {}), ("disk_minus_cantor", {}),
])
def test_chord_tables_match_those_of_the_level_by_level_descent(name, params, monkeypatch):
    domain = fractal.named_domain(name, **params)
    thetas = [geometry.Direction.from_angle(a) for a in (0.0, 0.35, 1.3, math.pi / 2)]
    got = [geometry.chord_table(domain, th, _offsets(domain, th, 64)) for th in thetas]
    monkeypatch.setattr(_cantor, "distance_many", cantor_oracle.distance_many)
    for th, table in zip(thetas, got):
        want = geometry.chord_table(domain, th, _offsets(domain, th, 64))
        for g, w in zip(table, want):
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("level", [8, 12])
def test_comb_chord_endpoints_skip_the_descent(level, monkeypatch):
    # every endpoint of an axis comb table is a seed interval end, up to
    # the nudge, so the edge thresholds settle it without one split
    domain = fractal.named_domain("cantor_comb", level=level)
    theta = geometry.Direction.from_angle(0.0)
    _cantor._seed(domain.ratio, domain.scheme)
    calls = []
    split = _cantor._split

    def counted(*args):
        calls.append(args[2])
        return split(*args)

    monkeypatch.setattr(_cantor, "_split", counted)
    rows, _, _, _ = geometry.chord_table(domain, theta, _offsets(domain, theta, 64))
    assert rows.size > 0
    assert calls == []
