"""Directional boundary measures: atoms, densities, reflection."""

import numpy as np
import pytest

from dirtrace import fractal
from dirtrace.fields import get_field
from dirtrace.geometry import Direction, Polygon, direction_table
from dirtrace.measure import (
    family_sup_norm,
    measure_atoms,
    polygon_density_report,
    random_region_predicates,
    reflection_check,
    total_mass_result,
)
from dirtrace.quadrature import QuadratureSpec

E1 = Direction([1.0, 0.0])
SPEC = QuadratureSpec(n_offsets=512, gauss_order=8)


def unit_square() -> Polygon:
    return Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def test_square_axis_atoms():
    mu = measure_atoms(unit_square(), E1, SPEC)
    assert mu.n_atoms == 512
    # every chord exits through the x = 1 edge with unit length
    np.testing.assert_allclose(mu.points[:, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(mu.lengths, 1.0, atol=1e-12)
    np.testing.assert_allclose(mu.opposite[:, 0], 0.0, atol=1e-12)
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-14)


def test_total_mass_equals_volume_any_direction():
    sq = unit_square()
    for theta in direction_table(8, start_angle=0.2):
        res = total_mass_result(sq, theta, SPEC)
        assert res.value == pytest.approx(1.0, abs=1e-10)


def test_one_dimensional_atoms_are_exact():
    dom = fractal.named_domain("cantor_complement", ratio=0.25, level=12,
                               scheme="rho")
    iv = np.asarray(dom.intervals)
    mu = measure_atoms(dom, Direction([1.0]), SPEC)
    # atom per component, sitting exactly on the right endpoint, weighing
    # exactly the component length
    assert np.array_equal(np.sort(mu.points[:, 0]), np.sort(iv[:, 1]))
    assert np.array_equal(np.sort(mu.weights), np.sort(iv[:, 1] - iv[:, 0]))
    mu_rev = measure_atoms(dom, Direction([-1.0]), SPEC)
    assert np.array_equal(np.sort(mu_rev.points[:, 0]), np.sort(iv[:, 0]))
    assert mu.total_mass() == pytest.approx(0.5, abs=1e-3)


def test_restrict_mass():
    mu = measure_atoms(unit_square(), E1, SPEC)
    # exit points are (1, y): the lower half carries half the mass
    half = mu.restrict_mass(lambda p: p[:, 1] < 0.5)
    assert half == pytest.approx(0.5, abs=1e-3)


def test_polygon_density_axis_golden():
    rep = polygon_density_report(unit_square(), E1, SPEC)
    # all the exit mass lives on the edge x = 1, with chord length 1
    assert rep.total_closed_form == pytest.approx(1.0, abs=1e-12)
    assert rep.total_atoms == pytest.approx(1.0, abs=1e-12)
    assert rep.max_edge_difference < 1e-12
    assert np.max(rep.edge_closed_form) == pytest.approx(1.0, abs=1e-12)


def test_polygon_density_oblique():
    theta = Direction.from_angle(0.41)
    rep = polygon_density_report(unit_square(), theta, SPEC)
    assert rep.max_edge_difference < 1e-9
    assert rep.total_atoms == pytest.approx(rep.volume, abs=1e-10)


def test_polygon_density_triangle():
    tri = Polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    rep = polygon_density_report(tri, Direction.from_angle(2.0), SPEC)
    assert rep.max_edge_difference < 1e-9
    assert rep.total_atoms == pytest.approx(0.5, abs=1e-10)


def test_reflection_identity():
    sq = unit_square()
    theta = Direction.from_angle(0.77)
    for pred in random_region_predicates(sq, 5, seed=2):
        chk = reflection_check(sq, theta, pred, SPEC)
        assert chk.difference <= 2.0 * chk.error


def test_random_region_predicates_are_deterministic():
    sq = unit_square()
    a = random_region_predicates(sq, 6, seed=9)
    b = random_region_predicates(sq, 6, seed=9)
    assert len(a) == len(b) == 6
    pts = np.random.default_rng(0).uniform(0.0, 1.0, size=(50, 2))
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa(pts), pb(pts))


def test_family_sup_norm():
    sq = unit_square()
    fld = get_field("x2")
    sup, per = family_sup_norm(fld, sq, direction_table(4), SPEC)
    assert len(per) == 4
    assert sup == pytest.approx(max(v for _, v in per), abs=1e-15)
    # e2 exit set is the top edge where x2 = 1: that direction dominates
    single, _ = family_sup_norm(fld, sq, [Direction([0.0, 1.0])], SPEC)
    assert single == pytest.approx(1.0, abs=1e-9)
    assert sup >= single - 1e-12


def test_measure_rows_export():
    mu = measure_atoms(unit_square(), E1, SPEC)
    rows = mu.to_rows()
    header = mu.row_header()
    assert rows.shape == (mu.n_atoms, len(header))
