"""Directional traces, Lebesgue comparisons and cross-direction agreement."""

import dataclasses
import sys
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dirtrace import calculus, cli, fields, fractal, geometry, measure, quadrature, trace
from dirtrace.errors import (DivergentChordIntegral, NotDirectionalBoundary, UnresolvedSingularity,
                            ValidationError)
from dirtrace.fields import get_field
from dirtrace.geometry import Cusp, Direction, Polygon, direction_table, match_radius
from dirtrace.quadrature import QuadratureSpec, norm_theta

E1 = Direction([1.0, 0.0])
SPEC = QuadratureSpec(n_offsets=512, gauss_order=8)


def unit_square() -> Polygon:
    return Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def test_directional_trace_recovers_boundary_values():
    sq = unit_square()
    fld = get_field("x1x2")
    assert trace.directional_trace(fld, sq, E1, (1.0, 0.5)) == pytest.approx(
        0.5, abs=1e-12)
    assert trace.directional_trace(fld, sq, E1, (1.0, 0.25)) == pytest.approx(
        0.25, abs=1e-12)
    assert trace.directional_trace(fld, sq, Direction([0.0, 1.0]),
                                   (0.3, 1.0)) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(NotDirectionalBoundary):
        trace.directional_trace(fld, sq, E1, (0.5, 0.5))


def test_trace_field_on_square():
    sq = unit_square()
    tf = trace.trace_field(get_field("x1x2"), sq, E1, SPEC)
    # exit values x1 x2 at x1 = 1 reduce to the offset coordinate
    np.testing.assert_allclose(tf.values, tf.points[:, 1], atol=1e-12)
    np.testing.assert_allclose(tf.opposite_values, 0.0, atol=1e-12)
    assert tf.norm_sq() == pytest.approx(1.0 / 3.0, abs=1e-6)
    rows = tf.to_rows()
    assert rows.shape == (tf.n_atoms, len(tf.row_header()))


def test_trace_norm_against_interior_line():
    # the trace along e1 of x1 + x2 on the square is 1 + x2
    res = trace.trace_norm_sq(get_field("x1px2"), unit_square(), E1, SPEC)
    exact = 1.0 + 1.0 + 1.0 / 3.0  # integral of (1 + y)^2 over [0, 1]
    assert res.value == pytest.approx(exact, abs=1e-6)
    assert abs(res.value - exact) <= 3.0 * res.error + 1e-9


def test_cusp_trace_norm_coarse():
    # u = x2^(-3/4) against mu along e1: the squared norm approaches
    # the integral of y^(-3/2) 2 y^3 over [0, 1], i.e. 0.8
    res = trace.trace_norm_sq(get_field("cusp_pow"), Cusp(), E1,
                              QuadratureSpec(n_offsets=2048, gauss_order=8))
    assert res.value == pytest.approx(0.8, abs=1e-2)


def test_lebesgue_average_clamps_to_chord():
    sq = unit_square()
    fld = get_field("x1x2")
    # eps longer than the chord: plain average over the whole chord
    full = trace.lebesgue_average(fld, sq, E1, (1.0, 0.5), eps=5.0)
    assert full == pytest.approx(0.25, abs=1e-12)
    shallow = trace.lebesgue_average(fld, sq, E1, (1.0, 0.5), eps=1e-6)
    assert shallow == pytest.approx(0.5, abs=1e-5)
    with pytest.raises(ValidationError):
        trace.lebesgue_average(fld, sq, E1, (1.0, 0.5), eps=0.0)


@pytest.mark.parametrize("eps", [-1.0, 0.0, float("nan"), float("inf")])
def test_lebesgue_depth_outside_the_theory_is_rejected(eps):
    sq = unit_square()
    fld = get_field("x1")
    with pytest.raises(ValidationError):
        trace.lebesgue_average(fld, sq, E1, (1.0, 0.5), eps=eps)
    with pytest.raises(ValidationError):
        trace.lebesgue_comparison(fld, sq, E1, eps, SPEC)


def test_lebesgue_comparison_bound_and_decay():
    sq = unit_square()
    fld = get_field("x1x2")
    checks = [trace.lebesgue_comparison(fld, sq, E1, eps, SPEC)
              for eps in (0.1, 0.01, 0.001)]
    for c in checks:
        assert c.deviation_sq <= c.bound + 3.0 * c.error
    devs = [c.deviation_sq for c in checks]
    assert devs[0] > devs[1] > devs[2]


@pytest.mark.parametrize("name", ["square", "triangle", "crack_square", "disk_minus_cantor"])
@pytest.mark.parametrize("angle", [0.0, 0.7])
def test_lebesgue_comparisons_equal_the_per_depth_calls(name, angle):
    dom = fractal.named_domain(name)
    theta = Direction.from_angle(angle)
    fld = get_field("x1x2")
    spec = QuadratureSpec(n_offsets=128, gauss_order=8)
    depths = (0.1, 0.01, 0.001)
    together = trace.lebesgue_comparisons(fld, dom, theta, depths, spec)
    one_by_one = [trace.lebesgue_comparison(fld, dom, theta, eps, spec) for eps in depths]
    assert [repr(c) for c in together] == [repr(c) for c in one_by_one]


def test_lebesgue_comparisons_check_every_depth_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("a grid was built before the depths were checked")

    monkeypatch.setattr(trace, "chord_grid", refuse)
    with pytest.raises(ValidationError):
        trace.lebesgue_comparisons(get_field("x1"), unit_square(), E1, [0.1, -1.0], SPEC)


def test_trace_inequalities_hold_for_smooth_fields():
    sq = unit_square()
    for name in ("x1", "sincos"):
        for theta in (E1, Direction.from_angle(0.9)):
            rep = trace.trace_inequalities(get_field(name), sq, theta, SPEC)
            assert rep.holds
            assert all(s >= 0.0 for s in rep.slacks)


def test_consistency_smooth_field_is_in():
    # oblique directions: each exit set covers two edges, so probes are
    # shared between directions
    rep = trace.consistency_report(get_field("sincos"), unit_square(),
                                   direction_table(4, start_angle=0.3), SPEC)
    assert rep.verdict == "in"
    assert rep.disagreement_mass == pytest.approx(0.0, abs=1e-9)


def test_consistency_jittered_pass_reduces_only_reached_rows():
    # jittered probes that no direction reaches leave all-NaN rows; the
    # spread is taken only over rows that two directions reached, so no
    # "All-NaN slice" RuntimeWarning (an error under the suite's filter)
    rep = trace.consistency_report(fields.parse_field("bump:r=0.1"),
                                   fractal.named_domain("omega_C"),
                                   direction_table(8, start_angle=0.1),
                                   QuadratureSpec(n_offsets=128))
    assert rep.transient_conflations > 0


def test_consistency_axis_exit_sets_never_overlap():
    # axis exit sets of the square meet only at corners, which carry no
    # chords: there is nothing to compare
    from dirtrace.errors import InsufficientOverlap

    with pytest.raises(InsufficientOverlap):
        trace.consistency_report(get_field("sincos"), unit_square(),
                                 direction_table(4), SPEC)


def test_consistency_slit_field_is_out():
    dom = fractal.named_domain("crack_square")
    rep = trace.consistency_report(get_field("crack_2d"), dom,
                                   direction_table(4),
                                   QuadratureSpec(n_offsets=256, gauss_order=8))
    assert rep.verdict == "out"
    assert rep.disagreement_mass > 0.1
    # witnesses sit on the slit and see the two one-sided values -y and y
    w = rep.witnesses[0]
    assert w.point[0] == pytest.approx(0.5, abs=1e-9)
    vals = sorted(w.values.values())
    assert vals[0] == pytest.approx(-w.point[1], abs=1e-9)
    assert vals[-1] == pytest.approx(w.point[1], abs=1e-9)


def test_consistency_witnesses_of_equal_spread_come_in_probe_order(monkeypatch):
    # spreads that tie at rounding level: the witnesses are the largest
    # spreads, equal ones in probe order, not in an order the sort picks
    seen = {}

    def spreads(fld, directions, points, order, chords):
        seen["probes"] = points
        n = points.shape[0]
        spread = np.where(np.arange(n) % 3 == 0, 2.2e-16, 4.4e-16)
        values = np.full((n, len(directions)), np.nan)
        values[:, 0], values[:, 1] = 0.0, spread
        return values, np.ones(n, dtype=bool), spread

    monkeypatch.setattr(trace, "_spreads", spreads)
    rep = trace.consistency_report(get_field("sincos"), unit_square(),
                                   direction_table(4, start_angle=0.3), SPEC, tolerance=1.0)
    assert rep.verdict == "in" and seen["probes"].shape[0] > 12
    np.testing.assert_array_equal([w.point for w in rep.witnesses],
                                  seen["probes"][[1, 2, 4, 5, 7, 8, 10, 11]])
    assert [w.spread for w in rep.witnesses] == [4.4e-16] * 8


def test_consistency_needs_two_directions():
    with pytest.raises(ValidationError):
        trace.consistency_report(get_field("x1"), unit_square(), [E1], SPEC)


@pytest.mark.parametrize("probes", [0, -3, 2.5, True, "40"])
def test_consistency_rejects_a_bad_probe_count(probes):
    with pytest.raises(ValidationError):
        trace.consistency_report(get_field("sincos"), unit_square(),
                                 direction_table(4, start_angle=0.3), SPEC,
                                 probes_per_direction=probes)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
def test_consistency_rejects_a_bad_tolerance_before_slicing(tolerance, monkeypatch):
    # a NaN tolerance fails every comparison, so it would certify any field
    def refuse(*args):
        raise RuntimeError("a rejected tolerance reached the chord grids")

    monkeypatch.setattr(trace, "chord_grid", refuse)
    with pytest.raises(ValidationError, match="tolerance"):
        trace.consistency_report(get_field("crack_2d"), fractal.named_domain("crack_square"),
                                 direction_table(4), SPEC, tolerance=tolerance)


def test_consistency_probes_every_atom_at_one_probe_per_atom():
    # as many probes as atoms: the stride is one and every atom is probed
    dom, directions = unit_square(), direction_table(4, start_angle=0.3)
    atoms = sum(quadrature.chord_grid(dom, theta, SPEC.n_offsets).n_chords
                for theta in directions)
    rep = trace.consistency_report(get_field("sincos"), dom, directions, SPEC,
                                   probes_per_direction=np.int64(10**6))
    assert rep.n_probes == atoms


def test_consistency_one_dimensional_crack():
    dom = fractal.named_domain("crack_interval")
    rep = trace.consistency_report(get_field("crack_1d"), dom,
                                   [Direction([1.0]), Direction([-1.0])], SPEC)
    assert rep.verdict == "out"
    report_json = rep.to_json()
    assert report_json["verdict"] == "out"
    assert report_json["witnesses"]


def _spreads_of(fld, dom, directions, probes, order):
    """`trace._spreads` of the probes, with their exit chords along each
    direction."""
    chords = [geometry.exit_chords(dom, theta, probes, match_radius(dom))
              for theta in directions]
    return trace._spreads(fld, directions, probes, order, chords)


@pytest.mark.parametrize("name, field", [("square", "sincos"),
                                         ("crack_square", "crack_2d"),
                                         ("omega_C", "x1x2")])
def test_batched_traces_match_directional_trace(name, field):
    # Probes are the exit atoms of all four axis directions, looked up
    # along each of them: some are reachable, some are not.  Axis lines
    # keep each probe's offset exact, whatever the batch it is computed in.
    dom = fractal.named_domain(name)
    fld = get_field(field)
    directions = direction_table(4)
    probes = np.concatenate([
        measure.measure_atoms(dom, theta, SPEC).points[::37] for theta in directions])
    values = _spreads_of(fld, dom, directions, probes, 16)[0]
    for theta, column in zip(directions, values.T):
        assert 0 < np.count_nonzero(np.isfinite(column)) < probes.shape[0]
        for z, value in zip(probes, column):
            if np.isfinite(value):
                assert trace.directional_trace(fld, dom, theta, z, order=16) == value
            else:
                with pytest.raises(NotDirectionalBoundary):
                    trace.directional_trace(fld, dom, theta, z, order=16)


@pytest.mark.parametrize("name", ["square", "disk_minus_cantor", "bicone"])
def test_batched_traces_match_directional_trace_on_oblique_probes(name):
    # Oblique offsets are computed one coordinate at a time, so a probe
    # gets the same trace in a batch as on its own.
    dom = fractal.named_domain(name)
    fld = get_field("x1x2")
    directions = direction_table(8)
    probes = np.concatenate([
        measure.measure_atoms(dom, theta, SPEC).points[::23] for theta in directions])
    values = _spreads_of(fld, dom, directions[1::2], probes, 8)[0]
    for theta, column in zip(directions[1::2], values.T):
        assert np.count_nonzero(np.isfinite(column)) > 0
        for z, value in zip(probes, column):
            if np.isfinite(value):
                assert trace.directional_trace(fld, dom, theta, z, order=8) == value


TWO_D_KINDS = [name for name in fractal.DOMAIN_NAMES
               if fractal.named_domain(name).dim == 2]


def _report_probes(dom, directions, n_offsets, probes_per_direction):
    """The probe points of `consistency_report`, one array per direction:
    the exit points of every stride-th atom of the direction's measure."""
    sets = []
    for theta in directions:
        grid = quadrature.chord_grid(dom, theta, n_offsets)
        stride = max(1, grid.n_chords // probes_per_direction)
        sets.append(grid.endpoint_plus[::stride])
    return sets


def _assert_same_chords(got, want):
    # equal floats (NaN where nothing is found) with equal signs of zero
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(np.signbit(g), np.signbit(w))


@pytest.mark.parametrize("count", [4, 8])
@pytest.mark.parametrize("name", TWO_D_KINDS)
def test_exit_chords_of_report_probes_do_not_depend_on_the_batch(name, count):
    # Reports keep each direction's lookups with its grid and look up only
    # the missing ones together, so a probe must get the same chord in any
    # batch: its own direction's, the reversed one, or alone.
    # the comb at its default level 12 has up to a million chords a grid
    dom = fractal.named_domain(name, level=6) if name == "cantor_comb" else (
        fractal.named_domain(name))
    directions = direction_table(count)
    r_match = match_radius(dom)
    sets = _report_probes(dom, directions, 256, 8)
    probes = np.concatenate(sets)
    cuts = np.cumsum([p.shape[0] for p in sets])[:-1]
    for theta in directions:
        whole = geometry.exit_chords(dom, theta, probes, r_match)
        assert np.any(whole[3])
        for points, part in zip(sets, zip(*(np.split(a, cuts) for a in whole))):
            _assert_same_chords(geometry.exit_chords(dom, theta, points, r_match), part)
        _assert_same_chords(geometry.exit_chords(dom, theta, probes[::-1], r_match),
                            [a[::-1] for a in whole])
        for i in range(0, probes.shape[0], 3):
            _assert_same_chords(geometry.exit_chords(dom, theta, probes[i], r_match),
                                [a[i:i + 1] for a in whole])


def test_consistency_report_reuses_its_grid_lookups(monkeypatch):
    # A second report on the same domain, directions, resolution and probe
    # count, with another field and Gauss order, looks up only the jittered
    # probes of its disagreeing points, and reports what a cold one does.
    # The first report's field is smooth, so no probe disagrees and the
    # jittered probes are new to the second (fresh grids: an earlier test
    # may have looked them up).
    dom, directions = fractal.named_domain("crack_square"), direction_table(4)
    spec = QuadratureSpec(n_offsets=256, gauss_order=8)
    quadrature.clear_cache()
    trace.consistency_report(get_field("x1x2"), dom, directions, spec)

    calls, jittered = _counted_lookups(monkeypatch)
    spec16 = QuadratureSpec(n_offsets=256, gauss_order=16)
    warm = trace.consistency_report(get_field("crack_2d"), dom, directions, spec16)
    assert warm.verdict == "out" and warm.transient_conflations < warm.n_probes
    # the jittered lines, then the jittered points along every direction
    shifted = {tuple(z) for z in np.concatenate(jittered) if np.all(np.isfinite(z))}
    lines = [points for points, offsets in calls if offsets is not None]
    others = [points for points, offsets in calls if offsets is None]
    assert len(lines) == len(jittered) and len(others) == len(directions)
    assert all({tuple(z) for z in points} <= shifted for points in others)

    monkeypatch.undo()
    quadrature.clear_cache()
    cold = trace.consistency_report(get_field("crack_2d"), dom, directions, spec16)
    # repr, not ==, so that a zero's sign counts
    assert repr(warm.to_json()) == repr(cold.to_json())


def test_consistency_lookups_keep_the_sign_of_a_zero_in_a_direction():
    # direction_table(8) holds (-0.0, -1.0), which equals (0.0, -1.0) but
    # has a grid of its own; their probes on y = 0 sit at y = -0.0 and y = 0.0
    dom, spec = fractal.named_domain("triangle"), QuadratureSpec(n_offsets=128)
    table = direction_table(8)
    assert any(np.signbit(theta.vector[theta.vector == 0.0]).any() for theta in table)
    flipped = [Direction(np.where(theta.vector == 0.0, 0.0, theta.vector)) for theta in table]
    quadrature.clear_cache()
    cold = trace.consistency_report(get_field("x1x2"), dom, flipped, spec)
    quadrature.clear_cache()
    trace.consistency_report(get_field("x1x2"), dom, table, spec)
    warm = trace.consistency_report(get_field("x1x2"), dom, flipped, spec)
    assert repr(warm.to_json()) == repr(cold.to_json())


def _kept_arrays(entry):
    """The arrays of an entry that a grid keeps, through nested tuples."""
    if isinstance(entry, tuple):
        return [arr for value in entry for arr in _kept_arrays(value)]
    return [entry] if isinstance(entry, np.ndarray) else []


def _kept_lookups():
    """(grid, entry) of every `_Lookups` that the cached grids keep."""
    with quadrature._cache_lock:
        return [(grid, entry) for grid in quadrature._cache.values()
                for key, entry in grid._kept.items() if isinstance(key, tuple)]


def test_consistency_lookups_are_freed_with_their_grid():
    dom, directions = unit_square(), direction_table(4, start_angle=0.3)
    quadrature.clear_cache()
    trace.consistency_report(get_field("sincos"), dom, directions, SPEC)
    # one entry, with the grid of the table's first direction: the probes,
    # their chords and the mass error; a smooth field disagrees nowhere,
    # so no jittered probe is kept
    (grid, entry), = _kept_lookups()
    assert grid is quadrature.chord_grid(dom, directions[0], SPEC.n_offsets)
    assert entry.jittered is None
    kept = [weakref.ref(arr) for arr in _kept_arrays(entry)]
    del entry
    quadrature.clear_cache()
    assert grid._kept is None and not _kept_lookups()
    assert all(ref() is None for ref in kept)

    trace.consistency_report(get_field("sincos"), dom, directions, SPEC)
    # a slit field disagrees on the probes of the two directions that cross
    # the slit: their jittered probes, and those probes' chords along each
    # of the four directions, join the report's one entry, with rows for
    # the disagreeing probes only
    crack, table = fractal.named_domain("crack_square"), direction_table(4)
    rep = trace.consistency_report(get_field("crack_2d"), crack, table, SPEC)
    entries = [entry for _, entry in _kept_lookups()]
    jittered = [entry.jittered for entry in entries if entry.jittered is not None]
    assert len(jittered) == 1 and len(entries) == 2
    probes = np.concatenate(_report_probes(crack, table, SPEC.n_offsets, 160))
    _, shared, spreads = _spreads_of(get_field("crack_2d"), crack, table, probes,
                                     SPEC.gauss_order)
    disagreeing = shared & (spreads > rep.tolerance)
    assert np.any(disagreeing) and not np.all(disagreeing)
    np.testing.assert_array_equal(jittered[0][0], disagreeing)
    kept = [weakref.ref(arr) for entry in entries for arr in _kept_arrays(entry)]
    # reports share them, so none is writable
    assert kept and not any(ref().flags.writeable for ref in kept)
    del entries, jittered
    # as many other grids as the cache keeps evict the report's grids
    for k in range(quadrature._CACHE_LIMIT):
        quadrature.chord_grid(dom, Direction.from_angle(1.0 + 1e-3 * k), 4)
    assert not _kept_lookups()
    assert all(ref() is None for ref in kept)


@pytest.mark.parametrize("evict", ["lru", "clear_cache"])
def test_a_grid_frees_its_node_sets_and_lookups_together(evict, monkeypatch):
    dom, directions = fractal.named_domain("crack_square"), direction_table(4)
    fld = get_field("crack_2d")
    quadrature.clear_cache()
    monkeypatch.setattr(quadrature, "_CACHE_LIMIT", len(directions))
    trace.consistency_report(fld, dom, directions, SPEC)
    grid = quadrature.chord_grid(dom, directions[0], SPEC.n_offsets)
    trace.chord_trace_values(fld, grid, SPEC.gauss_order)
    # one store: the report's lookups with its jittered rows, then the node
    # set of the Gauss order
    (_, lookups), (order, nodes) = grid._kept.items()
    assert order == SPEC.gauss_order and lookups.jittered is not None
    assert quadrature._kept_nodes() == grid.n_chords * order
    kept = [weakref.ref(arr) for arr in _kept_arrays(nodes) + _kept_arrays(lookups)]
    del nodes, lookups
    if evict == "lru":
        # the report's other grids are used after it, then one more grid
        for theta in directions[1:]:
            quadrature.chord_grid(dom, theta, SPEC.n_offsets)
        quadrature.chord_grid(dom, Direction.from_angle(1.0), SPEC.n_offsets)
        assert len(quadrature._cache) == len(directions)
    else:
        quadrature.clear_cache()
    # freed at once, with no garbage collection
    assert grid._kept is None and quadrature._kept_nodes() == 0
    assert all(ref() is None for ref in kept)
    quadrature.clear_cache()


def _counted_lookups(monkeypatch):
    """Record every `exit_chords` call of trace as (points, offsets) and
    every `_jittered_probes` result."""
    calls, jittered = [], []
    lookup, jitter = trace.exit_chords, trace._jittered_probes

    def counted_lookup(domain, theta, points, r_match, offsets=None):
        calls.append((np.array(points), offsets))
        return lookup(domain, theta, points, r_match, offsets)

    def kept_jitter(*args):
        jittered.append(jitter(*args))
        return jittered[-1]

    monkeypatch.setattr(trace, "exit_chords", counted_lookup)
    monkeypatch.setattr(trace, "_jittered_probes", kept_jitter)
    return calls, jittered


def _crack_report(gauss):
    return trace.consistency_report(get_field("crack_2d"), fractal.named_domain("crack_square"),
                                    direction_table(4),
                                    QuadratureSpec(n_offsets=256, gauss_order=gauss))


def test_first_consistency_report_makes_the_cold_lookups(monkeypatch):
    # On fresh grids a report looks up what it did before jittered probes
    # were kept: its probes along each direction, the two shifted lines of
    # each disagreeing probe (one batch per direction that has them), then
    # the finite jittered probes along each direction.
    dom, directions = fractal.named_domain("crack_square"), direction_table(4)
    quadrature.clear_cache()
    calls, jittered = _counted_lookups(monkeypatch)
    rep = _crack_report(8)
    monkeypatch.undo()
    probes = np.concatenate(_report_probes(dom, directions, 256, 160))
    _, shared, spreads = _spreads_of(get_field("crack_2d"), dom, directions, probes, 8)
    bad = shared & (spreads > rep.tolerance)
    finite = np.concatenate(jittered)
    finite = finite[np.all(np.isfinite(finite), axis=1)]
    # 896 probes, 128 disagreeing on each side of the slit, none of whose
    # jittered probes leaves the domain
    assert [(points.shape[0], offsets is not None) for points, offsets in calls] == (
        [(896, False)] * 4 + [(256, True)] * 2 + [(512, False)] * 4)
    for points, _ in calls[:4]:
        np.testing.assert_array_equal(points, probes)
    np.testing.assert_array_equal(np.concatenate([points for points, _ in calls[4:6]]),
                                  np.repeat(probes[bad], 2, axis=0))
    for points, _ in calls[6:]:
        np.testing.assert_array_equal(points, finite)


def test_consistency_report_on_the_same_disagreements_looks_up_nothing(monkeypatch):
    # The Gauss-16 report disagrees where the Gauss-8 one did: it reads the
    # probes, the jittered probes and all their chords from the grids.
    quadrature.clear_cache()
    _crack_report(8)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm report looked up a chord")

    for module, name in ((trace, "exit_chords"), (trace, "_jittered_probes"),
                         (geometry, "chord_table")):
        monkeypatch.setattr(module, name, refuse)
    warm = _crack_report(16)
    monkeypatch.undo()
    assert warm.verdict == "out"
    quadrature.clear_cache()
    assert repr(warm.to_json()) == repr(_crack_report(16).to_json())


def _jittered_rows():
    """Probes whose jittered probes are kept with the cached grids."""
    return sum(int(np.count_nonzero(entry.jittered[0])) for _, entry in _kept_lookups()
               if entry.jittered is not None)


def test_warm_consistency_reports_on_partly_shared_disagreements():
    # bump and crack_2d disagree on overlapping probe sets: whichever
    # report comes second looks up only the probes that are new to it, and
    # reports what it reports on fresh grids
    dom, directions = fractal.named_domain("bicone"), direction_table(8)
    spec = QuadratureSpec(n_offsets=1024)
    reports, rows = {}, {}
    for first, second in (("bump", "crack_2d"), ("crack_2d", "bump")):
        quadrature.clear_cache()
        reports[first, "cold"] = trace.consistency_report(get_field(first), dom, directions,
                                                          spec)
        rows[first] = _jittered_rows()
        reports[second, "warm"] = trace.consistency_report(get_field(second), dom,
                                                           directions, spec)
        rows[first, second] = _jittered_rows()
    for name in ("bump", "crack_2d"):
        assert repr(reports[name, "warm"].to_json()) == repr(reports[name, "cold"].to_json())
    # 341 and 495 disagreeing probes of 1,370, 285 of them in both
    assert (rows["bump"], rows["crack_2d"]) == (341, 495)
    assert rows["bump", "crack_2d"] == rows["crack_2d", "bump"] == 551


def test_consistency_reports_on_other_direction_tables_share_no_lookups():
    # direction_table(4) shares four grids with direction_table(8), among
    # them the one that keeps the first report's lookups; a report on it,
    # then one with another probe count, reports what it does on fresh grids
    dom, spec = fractal.named_domain("bicone"), QuadratureSpec(n_offsets=1024)
    assert {theta.key() for theta in direction_table(4)} <= {
        theta.key() for theta in direction_table(8)}
    runs = [(8, 160), (4, 160), (4, 40)]

    def report(count, probes):
        return repr(trace.consistency_report(get_field("crack_2d"), dom, direction_table(count),
                                             spec, probes_per_direction=probes).to_json())

    cold = []
    for run in runs:
        quadrature.clear_cache()
        cold.append(report(*run))
    quadrature.clear_cache()
    assert [report(*run) for run in runs] == cold


def test_concurrent_consistency_reports_match_cold_ones():
    # two reports fill the same grids' jittered lookups at once
    cold = []
    for gauss in (8, 16):
        quadrature.clear_cache()
        cold.append(repr(_crack_report(gauss).to_json()))
    quadrature.clear_cache()
    for theta in direction_table(4):
        quadrature.chord_grid(fractal.named_domain("crack_square"), theta, 256)
    with ThreadPoolExecutor(max_workers=2) as pool:
        warm = list(pool.map(lambda gauss: repr(_crack_report(gauss).to_json()), (8, 16)))
    assert warm == cold


def test_concurrent_reports_on_partly_shared_disagreements_keep_every_row():
    # four reports, more than the cores, fill different jittered rows of
    # one entry at once; each fill joins the latest entry, so no row is lost
    dom, directions = fractal.named_domain("bicone"), direction_table(8)
    spec, names = QuadratureSpec(n_offsets=1024), ["bump", "crack_2d"] * 2

    def report(name):
        return repr(trace.consistency_report(get_field(name), dom, directions, spec).to_json())

    cold = {}
    for name in names[:2]:
        quadrature.clear_cache()
        cold[name] = report(name)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            quadrature.clear_cache()
            for theta in directions:
                quadrature.chord_grid(dom, theta, spec.n_offsets)
            with ThreadPoolExecutor(max_workers=len(names)) as pool:
                warm = list(pool.map(report, names, timeout=120))
            assert warm == [cold[name] for name in names]
            # as after the two reports one after the other
            assert _jittered_rows() == 551
    finally:
        sys.setswitchinterval(interval)
        quadrature.clear_cache()


# cusp_pow is finite on the cusp (y > 0); on the bicone see
# test_consistency_reports_reject_traces_that_are_not_finite
CAP_CASES = [("bicone", "bump"), ("bicone", "sign_y"), ("square", "bump"),
             ("crack_square", "crack_2d"), ("cusp", "cusp_pow")]


@pytest.mark.parametrize("count", [4, 8, 32])
@pytest.mark.parametrize("name, field", CAP_CASES)
def test_consistency_reports_do_not_depend_on_the_batch_cap(name, field, count,
                                                            monkeypatch):
    # one direction per chord_means call, as one call per direction made
    # them, or every direction of a pass in one call: the same report
    dom, fld = fractal.named_domain(name), get_field(field)
    directions = direction_table(count, start_angle=0.1)
    spec = QuadratureSpec(n_offsets=256, gauss_order=8)
    chord_means, calls = trace.chord_means, []

    def counted(runs, *args):
        means = chord_means(runs, *args)
        calls.append((len(runs), bool(np.all(np.isfinite(means[0])))))
        return means

    monkeypatch.setattr(trace, "chord_means", counted)
    reports = []
    for cap in (1, 2**40):
        monkeypatch.setattr(trace, "_SPREAD_NODES", cap)
        calls.clear()
        reports.append(repr(trace.consistency_report(fld, dom, directions, spec,
                                                     probes_per_direction=40).to_json()))
        sizes = [size for size, _ in calls]
        if cap == 1:
            assert max(sizes) == 1
        else:
            # the probes' pass, and the jittered probes' when probes disagree
            assert len(sizes) <= 2 and sizes[0] > count // 2
        assert all(finite for _, finite in calls)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("cap", [1, 2**40])
def test_consistency_reports_reject_traces_that_are_not_finite(cap, monkeypatch):
    # cusp_pow is infinite on the bicone's lower half: whether one direction
    # or all of them share a chord_means call, the report fails as
    # chord_trace_values does, and with no numpy warning (the suite makes
    # warnings errors), rather than counting those probes as unreached
    monkeypatch.setattr(trace, "_SPREAD_NODES", cap)
    dom, fld = fractal.named_domain("bicone"), get_field("cusp_pow")
    with pytest.raises(DivergentChordIntegral, match="not finite"):
        trace.consistency_report(fld, dom, direction_table(8, start_angle=0.1),
                                 QuadratureSpec(n_offsets=256, gauss_order=8),
                                 probes_per_direction=40)


def _not_finite_calls():
    # cusp_pow is infinite on the bicone's lower half, where the chord of
    # the lowest exit point lies
    dom, spec = fractal.named_domain("bicone"), QuadratureSpec(n_offsets=256)
    fld, v = get_field("cusp_pow"), get_field("x1")
    grid = quadrature.chord_grid(dom, E1, spec.n_offsets)
    z = grid.endpoint_plus[np.argmin(grid.endpoint_plus[:, 1])]
    return {
        "chord_trace_values": lambda: trace.chord_trace_values(fld, grid, spec.gauss_order),
        "directional_trace": lambda: trace.directional_trace(fld, dom, E1, z),
        "trace_field": lambda: trace.trace_field(fld, dom, E1, spec),
        "trace_inequalities": lambda: trace.trace_inequalities(fld, dom, E1, spec),
        "lebesgue_comparisons": lambda: trace.lebesgue_comparisons(fld, dom, E1, [0.01, 0.1],
                                                                   spec),
        # returned inf: only the depth nodes were evaluated, with no check
        "lebesgue_average": lambda: trace.lebesgue_average(fld, dom, E1, z, 0.1),
        "integration_by_parts_u": lambda: calculus.integration_by_parts(fld, v, dom, E1, spec),
        "integration_by_parts_v": lambda: calculus.integration_by_parts(v, fld, dom, E1, spec),
        "paired_identity": lambda: calculus.paired_identity(fld, v, dom, E1, spec),
    }


@pytest.mark.parametrize("entry", sorted(_not_finite_calls()))
def test_traces_of_fields_that_are_not_finite_fail_quietly(entry):
    # DivergentChordIntegral, with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergentChordIntegral, match="not finite"):
            _not_finite_calls()[entry]()


def test_lebesgue_depth_pass_rejects_a_field_not_finite_at_its_nodes():
    # x1, but infinite in the last 0.001 of the square, which no Gauss node
    # of a whole chord reaches (order 8: the last lies 0.0199 from the end):
    # the exit traces are finite, and only the depth-0.001 means are not
    x1 = get_field("x1")
    fld = dataclasses.replace(x1, _eval=lambda pts: np.where(pts[:, 0] > 0.999, np.inf,
                                                             x1.eval_many(pts)))
    spec = QuadratureSpec(n_offsets=64, gauss_order=8)
    assert np.isfinite(trace.lebesgue_comparisons(fld, unit_square(), E1, [0.1], spec)[0]
                       .deviation_sq)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergentChordIntegral, match="not finite"):
            trace.lebesgue_comparisons(fld, unit_square(), E1, [0.1, 0.001], spec)


def _counted(fld, counts):
    def wrapper(fn):
        def inner(pts):
            counts.append(len(pts))
            return fn(pts)
        return inner
    return dataclasses.replace(fld, _eval=wrapper(fld._eval), _grad=wrapper(fld._grad))


def _separate_inequalities(fld, domain, theta, spec):
    # the report built from separate trace_field and norm_theta calls, each
    # evaluating the field on spec's grid, with the offset-rule errors of
    # their per-atom and per-chord terms
    grid = quadrature.chord_grid(domain, theta, spec.n_offsets)
    fine = trace.trace_field(fld, domain, theta, spec)
    nrm = norm_theta(fld, domain, theta, spec)
    (_, _, rows), = quadrature._rule_sums(grid, quadrature._theta_integrands(fld, theta),
                                          spec.gauss_order)
    sums = [grid.sums(terms) for terms in fine.norm_terms()] + [(nrm**2, 0.0, rows)]
    _, errors, _ = quadrature.offset_estimate(sums, floor=0.0)
    error = sum(errors) + 1e-12 * (1.0 + nrm**2)
    return trace.TraceInequalityReport(theta, fine.norm_sq(), fine.pair_sum_sq(),
                                       fine.diff_quotient_sq(), nrm**2,
                                       domain.diameter, error)


@pytest.mark.parametrize("name,field", [("square", "x1x2"), ("triangle", "sin1"),
                                        ("omega_C", "x1x2"), ("cusp", "x1px2")])
def test_trace_inequalities_reuse_the_trace_nodes(name, field):
    dom = fractal.named_domain(name)
    theta = Direction.from_angle(0.8)
    for spec in (SPEC, QuadratureSpec(n_offsets=256, gauss_order=16)):
        shared, separate = [], []
        got = trace.trace_inequalities(_counted(get_field(field), shared), dom, theta, spec)
        want = _separate_inequalities(_counted(get_field(field), separate), dom, theta, spec)
        assert repr(got) == repr(want)
        # u and its gradient once per node of spec's grid, where the
        # separate calls evaluate both once per call
        assert sum(shared) < sum(separate)


def test_trace_inequalities_raise_when_the_norm_does_not_settle():
    # u = 1/(y - 0.5) is finite at every node along e1 (no offset midpoint
    # hits 0.5), and so are its traces, but the integral of u^2 grows like n;
    # at 256 offsets only the n/3 - n/9 level of the check sees it
    def ev(p):
        return 1.0 / (p[:, 1] - 0.5)

    def gr(p):
        return np.column_stack([np.zeros(p.shape[0]), -1.0 / (p[:, 1] - 0.5) ** 2])

    pole = fields.ScalarField("pole", ev, gr, smooth=False)
    for n in (256, 384, 1024):
        with pytest.raises(UnresolvedSingularity, match="fails to settle"):
            trace.trace_inequalities(pole, unit_square(), E1, QuadratureSpec(n_offsets=n))


def test_cli_trace_evaluates_no_more_than_the_inequalities(tmp_path, monkeypatch, capsys):
    # the CLI writes the fine trace field the inequality pass built
    # instead of building it a second time
    dom = fractal.named_domain("omega_C")
    spec = QuadratureSpec(n_offsets=256, gauss_order=8)
    alone, via_cli = [], []
    trace.trace_inequalities(_counted(get_field("x1x2"), alone), dom,
                             Direction.from_angle(0.8), spec)
    parse = fields.parse_field
    monkeypatch.setattr(fields, "parse_field", lambda text: _counted(parse(text), via_cli))
    code = cli.main(["trace", "--domain", "omega_C", "--field", "x1x2", "--angle", "0.8",
                     "--ny", "256", "--gauss", "8", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert 0 < sum(via_cli) <= sum(alone)
