"""One-dimensional membership checks and continuous approximation."""

import numpy as np
import pytest

import oned_oracle
from dirtrace import fractal, oned, quadrature, trace
from dirtrace.errors import NotInH1tr, ValidationError
from dirtrace.fields import get_field
from dirtrace.geometry import Direction


def crack_domain():
    return fractal.named_domain("crack_interval")


def cantor_domain(level: int = 6):
    return fractal.named_domain("cantor_complement", level=level)


def test_isolated_points():
    pts = oned.isolated_points([(0.0, 1.0), (1.0, 2.0), (3.0, 4.0)])
    np.testing.assert_allclose(pts, [1.0], atol=1e-12)
    assert oned.isolated_points([(0.0, 1.0), (2.0, 3.0)]).size == 0


def test_piecewise_field_evaluation():
    dom = crack_domain()
    u = oned.PiecewiseH1.from_field(get_field("crack_1d"), dom.intervals)
    x = np.array([0.5, 1.5])
    np.testing.assert_allclose(u.eval_many(x), [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(u.deriv_many(x), [1.0, 1.0], atol=1e-6)
    assert u.h1_norm_sq() > 0.0


def test_crack_field_is_refuted_with_witness():
    dom = crack_domain()
    u = oned.PiecewiseH1.from_field(get_field("crack_1d"), dom.intervals)
    rep = oned.membership_report(u)
    assert rep.verdict == "out"
    w = rep.witnesses[0]
    assert w.point == pytest.approx(1.0, abs=1e-12)
    assert w.left == pytest.approx(1.0, abs=1e-8)
    assert w.right == pytest.approx(0.0, abs=1e-8)
    assert rep.max_jump == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(NotInH1tr):
        oned.continuous_approximation(u, 4)


def test_matching_traces_pass_membership():
    # x restricted to both sides of the shared endpoint is continuous
    dom = crack_domain()
    u = oned.PiecewiseH1.from_field(get_field("x1"), dom.intervals)
    rep = oned.membership_report(u)
    assert rep.verdict == "in"
    assert not rep.witnesses


@pytest.mark.parametrize("tolerance", [float("nan"), float("-inf"), -1e-8])
def test_membership_rejects_a_bad_tolerance(tolerance):
    # with a NaN tolerance no jump would count, and the crack would be "in"
    u = oned.PiecewiseH1.from_field(get_field("crack_1d"), crack_domain().intervals)
    with pytest.raises(ValidationError, match="tolerance"):
        oned.membership_report(u, tolerance)
    assert oned.membership_report(u, 0.0).verdict == "out"


def test_approximation_distances_decrease():
    dom = cantor_domain(6)
    for name in ("x1", "sin1"):
        u = oned.PiecewiseH1.from_field(get_field(name), dom.intervals)
        results = [oned.continuous_approximation(u, n) for n in (4, 6, 8, 10)]
        dists = [r.distance for r in results]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        for r in results:
            assert r.unselected_length <= 2.0 ** (-r.n) + 1e-12


def test_approximant_is_continuous_across_bridges():
    dom = cantor_domain(5)
    u = oned.PiecewiseH1.from_field(get_field("sin1"), dom.intervals)
    res = oned.continuous_approximation(u, 6)
    for comp in res.components:
        left = res.eval_many(np.array([comp.lo]), u)[0]
        right = res.eval_many(np.array([comp.hi]), u)[0]
        assert left == pytest.approx(comp.left_value, abs=1e-9)
        assert right == pytest.approx(comp.right_value, abs=1e-9)


@pytest.mark.parametrize("truncation", [-1.0, 0.0, float("nan"), float("inf")])
def test_truncation_must_be_finite_and_positive(truncation):
    u = oned.PiecewiseH1.from_field(get_field("x1"), cantor_domain(4).intervals)
    with pytest.raises(ValidationError, match="truncation must be finite and positive"):
        oned.continuous_approximation(u, 4, truncation)


@pytest.mark.parametrize("n", [-1, 2.5, True, np.float64(4.0), 1075])
@pytest.mark.parametrize("domain, field", [(cantor_domain(4), "x1"),
                                           (crack_domain(), "crack_1d")])
def test_tail_exponent_must_be_an_integer_in_range(domain, field, n):
    # checked before the membership, so a refuted field rejects it too
    u = oned.PiecewiseH1.from_field(get_field(field), domain.intervals)
    with pytest.raises(ValidationError, match=r"n must be an integer in \[0, 1074\]"):
        oned.continuous_approximation(u, n)


@pytest.mark.parametrize("n", [0, 1074])
def test_tail_exponent_range_ends_are_accepted(n):
    # 2**-1074 is the last nonzero threshold
    u = oned.PiecewiseH1.from_field(get_field("x1"), cantor_domain(4).intervals)
    res = oned.continuous_approximation(u, n)
    assert res.n == n and np.isfinite(res.distance)


def test_truncation_caps_the_approximant():
    dom = cantor_domain(4)
    iv = np.asarray(dom.intervals)
    u = oned.PiecewiseH1.from_field(get_field("x1"), dom.intervals)
    res = oned.continuous_approximation(u, 5, truncation=0.25)
    # defined on the convex hull of the pieces: domain plus bridges
    xs = np.linspace(iv.min() + 1e-9, iv.max() - 1e-9, 257)
    vals = res.eval_many(xs, u)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) <= 0.25 + 1e-12


def test_distance_does_not_depend_on_the_block(monkeypatch):
    # the distance applies each bridge to the chords of its block
    u = oned.PiecewiseH1.from_field(get_field("sin1"), cantor_domain(5).intervals)
    want = [oned.continuous_approximation(u, n).distance for n in (2, 4, 6)]
    monkeypatch.setattr(quadrature, "_BLOCK", 64)  # four chords of 16 nodes a block
    assert [oned.continuous_approximation(u, n).distance for n in (2, 4, 6)] == want


def test_piecewise_rejects_overlapping_and_empty_intervals():
    fld = get_field("x1")
    with pytest.raises(ValidationError):
        oned.PiecewiseH1.from_field(fld, [(0.0, 1.0), (0.5, 2.0)])
    with pytest.raises(ValidationError):
        oned.PiecewiseH1.from_field(fld, [])
    with pytest.raises(ValidationError):
        oned.PiecewiseH1.from_field(fld, [(1.0, 1.0)])


# (intervals, field) pairs checked against the piece-at-a-time oracle: the
# crack in and out of H1_tr, a union with two shared endpoints, and Cantor
# complements at levels 3 to 8, each field at two levels.
_ORACLE_CASES = [
    ("crack_interval", None, "crack_1d"),
    ("crack_interval", None, "x1"),
    ("shared", None, "sin1"),
    *[("cantor_complement", level, field)
      for level, field in zip(range(3, 9), ["x1", "sin1", "one"] * 2)],
]


def _intervals(name, level):
    if name == "shared":
        return [(0.0, 0.5), (0.5, 1.25), (1.5, 2.0), (2.0, 3.0)]
    params = {} if level is None else {"level": level}
    return fractal.named_domain(name, **params).intervals


def _oracle_pair(name, level, field):
    intervals = _intervals(name, level)
    fld = get_field(field)
    return (oned.PiecewiseH1.from_field(fld, intervals),
            oned_oracle.PiecewiseH1.from_field(fld, intervals), np.asarray(intervals))


def _samples(intervals):
    # interior points, every endpoint and points outside the union
    lo, hi = intervals.min(), intervals.max()
    return np.concatenate([np.linspace(lo - 0.5, hi + 0.5, 1001), intervals.ravel()])


# `oned` reads the chord pipeline along +1 at Gauss order 16, which
# averages each chord with einsum where the oracle sums w (b - a) / 2 and
# divides by the length: the floats that depend on a Gauss sum (traces,
# the H1 norm, jumps, bridge values, distances) may differ from the
# oracle's by a few ulp, and by at most this much.
_ULPS = 8 * np.finfo(float).eps


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=_ULPS, atol=_ULPS, equal_nan=True)


def _assert_same_approximation(got, want, x, u, v):
    assert (got.n, got.truncation, got.unselected_length, got.window) == \
        (want.n, want.truncation, want.unselected_length, want.window)
    _close(got.distance, want.distance)
    assert got.selected.dtype == want.selected.dtype
    assert np.array_equal(got.selected, want.selected)
    assert len(got.components) == len(want.components)
    for c, d in zip(got.components, want.components):
        assert (c.lo, c.hi) == (d.lo, d.hi)
        _close([c.left_value, c.right_value], [d.left_value, d.right_value])
        assert (c.stair.p_max, c.stair.alpha, c.stair.beta) == (d.stair.p_max, d.stair.alpha,
                                                                d.stair.beta)
        assert np.array_equal(c.stair.breakpoints, d.stair.breakpoints)
    _close(got.eval_many(x, u), want.eval_many(x, v))


@pytest.mark.parametrize("name, level, field", _ORACLE_CASES)
def test_matches_the_piece_at_a_time_oracle(name, level, field):
    u, v, intervals = _oracle_pair(name, level, field)
    x = _samples(intervals)
    assert np.array_equal(u.eval_many(x), v.eval_many(x), equal_nan=True)
    assert np.array_equal(u.deriv_many(x), v.deriv_many(x), equal_nan=True)
    assert u.max_abs() == v.max_abs()
    # traces and the H1 norm are the chord pipeline's along +1, bit for bit
    plus, spec = Direction([1.0]), quadrature.QuadratureSpec(gauss_order=16)
    tf = trace.trace_field(u.field, u.domain, plus, spec)
    at_a, at_b = u.traces()
    assert at_a.tolist() == tf.opposite_values.tolist()
    assert at_b.tolist() == tf.values.tolist()
    fld = u.field
    assert u.h1_norm_sq() == quadrature.volume_integral(
        u.domain, lambda p: fld.eval_many(p) ** 2 + fld.grad_many(p)[:, 0] ** 2,
        spec, plus).value
    _close(at_a, [v.piece_trace(i, -1) for i in range(len(v.pieces))])
    _close(at_b, [v.piece_trace(i, +1) for i in range(len(v.pieces))])
    _close(u.h1_norm_sq(), v.h1_norm_sq())

    got, want = oned.membership_report(u), oned_oracle.membership_report(v)
    assert (got.verdict, got.tolerance) == (want.verdict, want.tolerance)
    _close(got.max_jump, want.max_jump)
    assert np.array_equal(got.isolated, want.isolated)
    assert np.array_equal(got.isolated, oned.isolated_points(intervals))
    assert [w.point for w in got.witnesses] == [w.point for w in want.witnesses]
    _close([(w.left, w.right) for w in got.witnesses],
           [(w.left, w.right) for w in want.witnesses])
    # each witness holds the traces on either side of its shared point
    sides = set(zip(at_b[:-1].tolist(), at_a[1:].tolist()))
    assert all((w.left, w.right) in sides for w in got.witnesses)
    assert all(type(w.point) is type(w.left) is type(w.right) is float
               for w in got.witnesses)

    for n in range(1, 11):
        # the default cap (1 + max |u|) at even n, an active cap at odd n
        truncation = 0.25 if n % 2 else None
        if want.verdict == "out":
            with pytest.raises(NotInH1tr) as refused:
                oned.continuous_approximation(u, n, truncation)
            with pytest.raises(NotInH1tr):
                oned_oracle.continuous_approximation(v, n, truncation)
            w = got.witnesses[0]
            assert str(refused.value) == \
                f"one-sided traces disagree at {w.point}: {w.left} vs {w.right}"
            continue
        _assert_same_approximation(oned.continuous_approximation(u, n, truncation),
                                   oned_oracle.continuous_approximation(v, n, truncation),
                                   x, u, v)


@pytest.mark.parametrize("order", [8, 16])
@pytest.mark.parametrize("field", ["one", "x1", "sin1", "crack_1d"])
@pytest.mark.parametrize("name, level", [("crack_interval", None), ("shared", None),
                                         *[("cantor_complement", level)
                                           for level in range(9)]])
def test_membership_agrees_with_two_direction_consistency(name, level, field, order):
    # +1 and -1 are every direction of the line, so the consistency report
    # decides membership too, at each Gauss order
    u = oned.PiecewiseH1.from_field(get_field(field), _intervals(name, level))
    rep = trace.consistency_report(u.field, u.domain, [Direction([1.0]), Direction([-1.0])],
                                   quadrature.QuadratureSpec(gauss_order=order))
    assert rep.verdict == oned.membership_report(u).verdict
