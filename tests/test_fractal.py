"""Staircase constructions and the named domain catalogue."""

import numpy as np
import pytest

import staircase_oracle
from dirtrace import fractal, geometry
from dirtrace.errors import InvalidRatio, OverlappingGaps, UnknownName, ValidationError


def test_single_gap_staircase():
    # one gap ]0.4, 0.6[: after the first refinement the function ramps at
    # slope 1.25 outside the gap and is flat at 1/2 across it
    levels = fractal.staircase_levels(np.array([[0.4, 0.6]]), 0.0, 1.0, 3)
    f = levels[-1]
    assert f(0.0) == 0.0
    assert f(1.0) == 1.0
    assert f(0.4) == pytest.approx(0.5, abs=1e-12)
    assert f(0.5) == pytest.approx(0.5, abs=1e-12)
    assert f(0.6) == pytest.approx(0.5, abs=1e-12)
    assert f(0.2) == pytest.approx(0.25, abs=1e-12)
    assert f(0.8) == pytest.approx(0.75, abs=1e-12)


def test_staircase_level_zero_is_a_ramp():
    levels = fractal.staircase_levels(np.array([[0.4, 0.6]]), 0.0, 1.0, 1)
    ts = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(levels[0](ts), ts, atol=1e-12)


def test_refinement_sup_bounds():
    gaps = fractal.cantor_gaps(1.0 / 3.0, 10)
    levels = fractal.staircase_levels(gaps, 0.0, 1.0, 9)
    for p in range(len(levels) - 1):
        sup = fractal.sup_difference(levels[p], levels[p + 1])
        assert sup <= 2.0 ** (-1 - p) + 1e-15


def test_devil_staircase_values():
    f = fractal.build_staircase(fractal.cantor_gaps(1.0 / 3.0, 10))
    assert f(0.5) == pytest.approx(0.5, abs=1e-12)
    # constant across the first removed gap
    assert f(0.35) == f(0.65) == pytest.approx(0.5, abs=1e-12)
    xs = np.linspace(0.0, 1.0, 100_001)
    vals = f(xs)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] == 0.0 and vals[-1] == 1.0


def test_staircase_respects_window():
    gaps = np.array([[0.45, 0.55]])
    f = fractal.build_staircase(gaps, alpha=0.25, beta=0.75)
    assert f(0.2) == 0.0
    assert f(0.25) == 0.0
    assert f(0.75) == 1.0
    assert f(0.9) == 1.0
    assert f(0.5) == pytest.approx(0.5, abs=1e-12)


def test_staircase_rows_roundtrip():
    f = fractal.build_staircase(fractal.cantor_gaps(1.0 / 3.0, 4))
    rows = f.to_rows()
    assert rows.ndim == 2 and rows.shape[1] == 2
    # rising segments only: flats across gaps do not count
    assert f.segment_count == np.count_nonzero(np.diff(rows[:, 1]) > 0.0)
    np.testing.assert_allclose(f(rows[:, 0]), rows[:, 1], atol=1e-12)


def _assert_matches_oracle(gaps, alpha, beta, p_max, margin=0.0):
    levels = fractal.staircase_levels(gaps, alpha, beta, p_max, margin=margin)
    expected = staircase_oracle.staircase_levels(gaps, alpha, beta, p_max, margin=margin)
    assert len(levels) == len(expected) == p_max + 1
    for got, (breakpoints, p) in zip(levels, expected):
        assert got.p_max == p
        assert got.breakpoints.dtype == breakpoints.dtype
        assert got.breakpoints.shape == breakpoints.shape
        assert got.breakpoints.tobytes() == breakpoints.tobytes()
    # build_staircase builds only the last round, and equals it
    last = fractal.build_staircase(gaps, alpha, beta, p_max, margin=margin)
    assert last.p_max == levels[-1].p_max == p_max
    assert (last.alpha, last.beta) == (levels[-1].alpha, levels[-1].beta)
    assert last.breakpoints.dtype == levels[-1].breakpoints.dtype
    assert last.breakpoints.shape == levels[-1].breakpoints.shape
    assert last.breakpoints.tobytes() == levels[-1].breakpoints.tobytes()


@pytest.mark.parametrize("level", range(13))
def test_staircase_matches_oracle_on_middle_thirds(level):
    _assert_matches_oracle(fractal.cantor_gaps(1.0 / 3.0, level), 0.0, 1.0, 12)


def test_staircase_matches_oracle_on_rho_gaps_and_windows():
    _assert_matches_oracle(fractal.cantor_gaps(0.25, 8, "rho"), 0.0, 1.0, 12)
    # a window wider than the gaps, with integer end points
    _assert_matches_oracle(fractal.cantor_gaps(1.0 / 3.0, 6), -0.5, 1.5, 14)
    _assert_matches_oracle(fractal.cantor_gaps(1.0 / 3.0, 5), -1, 2, 8)
    # no gaps at all: every round is the ramp
    _assert_matches_oracle(np.zeros((0, 2)), 0.0, 1.0, 4)


@pytest.mark.parametrize("margin", [1e-3, 0.01, 0.2, 0.45])
def test_staircase_matches_oracle_with_margin(margin):
    # 0.45 shrinks every gap of [0, 1] to nothing; 0.2 keeps only the first
    _assert_matches_oracle(fractal.cantor_gaps(1.0 / 3.0, 6), 0, 1, 10, margin)
    _assert_matches_oracle(np.array([[0.0, 0.3], [0.3, 0.5], [0.9, 1.0]]),
                           0.0, 1.0, 6, margin)


def test_staircase_matches_oracle_on_tied_gaps_in_shuffled_order():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        # dyadic end points, so equal lengths are exactly equal
        starts = np.sort(rng.choice(np.arange(1, 120), n, replace=False)) * 4.0
        lengths = rng.choice([1.0, 2.0], n)
        gaps = np.column_stack([starts, starts + lengths]) / 512.0
        _assert_matches_oracle(gaps[rng.permutation(n)], 0.0, 1.0,
                               int(rng.integers(0, 12)))


def test_staircase_matches_oracle_past_exhaustion():
    # three gaps are used up after two rounds; later rounds repeat the last
    gaps = np.array([[0.1, 0.2], [0.45, 0.55], [0.8, 0.9]])
    _assert_matches_oracle(gaps, 0.0, 1.0, 20)
    levels = fractal.staircase_levels(gaps, 0.0, 1.0, 20)
    assert [s.p_max for s in levels] == list(range(21))
    assert levels[-1].breakpoints.tobytes() == levels[3].breakpoints.tobytes()


def test_overlapping_gaps_rejected():
    with pytest.raises(OverlappingGaps):
        fractal.build_staircase(np.array([[0.2, 0.5], [0.4, 0.7]]))


def test_gaps_crossing_the_window_edge_rejected():
    with pytest.raises(ValidationError):
        fractal.build_staircase(np.array([[0.1, 0.3]]), alpha=0.2, beta=0.9)


def test_margin_shrinks_boundary_touching_gaps():
    f = fractal.build_staircase(np.array([[0.1, 0.3]]), alpha=0.2, beta=0.9,
                                margin=0.01)
    assert f(0.2) == 0.0
    assert f(0.9) == 1.0


def test_cantor_gap_rows_layout():
    rows = fractal.cantor_gap_rows(0.25, 2, scheme="rho")
    assert rows.shape == (7, 4)
    np.testing.assert_array_equal(rows[:, 0], np.arange(1, 8))
    np.testing.assert_allclose(rows[0, 1:3], [0.375, 0.625], atol=1e-15)
    assert rows[0, 3] == 0.0


def test_cantor_gaps_requires_matching_scheme():
    with pytest.raises(InvalidRatio):
        fractal.cantor_gaps(0.25, 3)  # "third" scheme needs ratio 1/3
    with pytest.raises(InvalidRatio):
        fractal.cantor_gaps(0.45, 3, scheme="rho")
    with pytest.raises(ValidationError):
        fractal.cantor_gaps(1.0 / 3.0, fractal.MAX_LEVEL + 1)


@pytest.mark.parametrize("name", fractal.DOMAIN_NAMES)
def test_named_domain_catalogue(name):
    dom = fractal.named_domain(name)
    assert dom.dim in (1, 2)
    lo, hi = dom.bbox
    assert np.all(np.asarray(hi) > np.asarray(lo))
    assert dom.diameter > 0.0


def test_square_minus_cantor_alias_is_gone():
    # the name described a disk; the disk is "disk_minus_cantor"
    assert "square_minus_cantor" not in fractal.DOMAIN_NAMES
    with pytest.raises(UnknownName):
        fractal.named_domain("square_minus_cantor")
    with pytest.raises(UnknownName):
        geometry.domain_from_json({"kind": "square_minus_cantor", "params": {}})


def test_named_domain_parameter_handling():
    dom = fractal.named_domain("cantor_complement", ratio=0.25, level=6, scheme="rho")
    assert dom.dim == 1
    assert np.asarray(dom.intervals).shape == (127, 2)
    with pytest.raises(UnknownName):
        fractal.named_domain("pentagon")
    with pytest.raises(ValidationError):
        fractal.named_domain("square", ratio=0.25)
