"""Acceptance suite: one test per shipped claim, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see every verdict line;
without -s the lines still appear in captured output for failures.
"""

import numpy as np
import pytest

from dirtrace import calculus, fractal, measure, oned, trace
from dirtrace.errors import NotInH1tr
from dirtrace.fields import get_field
from dirtrace.geometry import Direction, direction_table
from dirtrace.quadrature import QuadratureSpec, h1_norm
from dirtrace.trace import consistency_report, lebesgue_comparison, trace_field

E1 = Direction([1.0, 0.0])

# shared field/domain/direction matrix; chord grids are cached across tests
MATRIX_SPEC = QuadratureSpec(n_offsets=256, gauss_order=8)
SMOOTH_PAIRS = (
    ("x1", "x2"),
    ("one", "sincos"),
    ("x1", "x1x2"),
    ("x2", "sincos"),
    ("x1px2", "x1x2"),
    ("x1x2", "sincos"),
)
SMOOTH_FIELDS = ("one", "x1", "x2", "x1px2", "x1x2", "sincos")


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def domains():
    return {
        "square": fractal.named_domain("square"),
        "cusp": fractal.named_domain("cusp"),
        "cone_union": fractal.named_domain("omega_C"),
        "bicone": fractal.named_domain("bicone"),
    }


@pytest.fixture(scope="module")
def dirs16():
    return direction_table(16)


def test_01_integration_by_parts(domains, dirs16):
    golden = calculus.integration_by_parts(
        get_field("x1x2"), get_field("x1px2"), domains["square"], E1,
        QuadratureSpec(n_offsets=4096, gauss_order=8))
    golden_ok = (abs(golden.lhs - 5.0 / 6.0) <= 1e-6
                 and abs(golden.rhs - 5.0 / 6.0) <= 1e-6
                 and golden.residual <= 1e-6)

    worst = 0.0
    failures = 0
    for dom in domains.values():
        for theta in dirs16:
            for a, b in SMOOTH_PAIRS:
                rep = calculus.integration_by_parts(
                    get_field(a), get_field(b), dom, theta, MATRIX_SPEC)
                allowance = 3.0 * (rep.err_lhs + rep.err_rhs)
                worst = max(worst, rep.residual / max(allowance, 1e-300))
                if not rep.passes(3.0):
                    failures += 1
    ok = golden_ok and failures == 0
    _report(1, ok, "paired integration by parts: golden residual "
                   f"{golden.residual:.2e} at value {golden.lhs:.9f}, matrix "
                   f"worst residual/allowance {worst:.3f} with {failures} failures")


def test_02_boundary_density(dirs16, domains):
    worst_edge = 0.0
    worst_mass = 0.0
    spec = QuadratureSpec(n_offsets=1024, gauss_order=8)
    for theta in dirs16:
        rep = measure.polygon_density_report(domains["square"], theta, spec)
        worst_edge = max(worst_edge, rep.max_edge_difference)
        worst_mass = max(worst_mass, abs(rep.total_atoms - 1.0))
    ok = worst_edge <= 1e-6 and worst_mass <= 1e-10
    _report(2, ok, "per-edge boundary measure mass: worst edge difference "
                   f"{worst_edge:.2e} (<= 1e-6), worst |mass - area| "
                   f"{worst_mass:.2e} (<= 1e-10) over 16 directions")


def test_03_one_dimensional_atoms():
    dom = fractal.named_domain("cantor_complement", ratio=0.25, level=12,
                               scheme="rho")
    iv = np.asarray(dom.intervals)
    mu = measure.measure_atoms(dom, Direction([1.0]), MATRIX_SPEC)
    exact = (np.array_equal(np.sort(mu.points[:, 0]), np.sort(iv[:, 1]))
             and np.array_equal(np.sort(mu.weights), np.sort(iv[:, 1] - iv[:, 0])))
    mass = mu.total_mass()
    ok = exact and abs(mass - 0.5) <= 1e-3
    _report(3, ok, "gap-family atoms sit exactly on right endpoints with exact "
                   f"weights ({exact}), total mass {mass:.6f} within 1e-3 of 0.5")


def test_04_cusp_trace_norm_and_divergence_sentinel():
    spec = QuadratureSpec(n_offsets=4096, gauss_order=8)
    cusp = fractal.named_domain("cusp")
    fld = get_field("cusp_pow")
    res = trace.trace_norm_sq(fld, cusp, E1, spec)
    norm_ok = abs(res.value - 0.8) <= 1e-3

    tf = trace_field(fld, cusp, E1, spec)
    heights = tf.points[:, 1]
    density = tf.values**2 * tf.weights / tf.lengths
    sentinel = [float(np.sum(density[heights > d])) for d in (1e-2, 1e-3, 1e-4)]
    g1 = sentinel[1] / sentinel[0]
    g2 = sentinel[2] / sentinel[1]
    ok = norm_ok and g1 >= 3.0 and g2 >= 3.0
    _report(4, ok, f"cusp trace norm squared {res.value:.6f} within 1e-3 of 0.8; "
                   f"length-normalized tail grows x{g1:.2f} then x{g2:.2f} "
                   "per decade (>= 3)")


def test_05_trace_approximation_rate(domains):
    spec = QuadratureSpec(n_offsets=1024, gauss_order=8)
    checks = [lebesgue_comparison(get_field("x1x2"), domains["square"], E1,
                                  eps, spec)
              for eps in (0.1, 0.01, 0.001)]
    bounded = all(c.deviation_sq <= c.bound + 3.0 * c.error for c in checks)
    devs = [c.deviation_sq for c in checks]
    monotone = devs[0] > devs[1] > devs[2]
    ok = bounded and monotone
    _report(5, ok, "depth-averaged trace gap below eps * diam * directional "
                   f"norm at eps 0.1/0.01/0.001 ({bounded}), strictly "
                   f"decreasing ({monotone}): " + ", ".join(f"{d:.2e}" for d in devs))


def test_06_trace_inequalities(domains, dirs16):
    failures = 0
    total = 0
    min_slack = np.inf
    for dom in domains.values():
        for theta in dirs16:
            for name in SMOOTH_FIELDS:
                rep = trace.trace_inequalities(get_field(name), dom, theta,
                                               MATRIX_SPEC)
                total += 1
                min_slack = min(min_slack, min(rep.slacks))
                if not rep.holds:
                    failures += 1
    ok = failures == 0
    _report(6, ok, f"trace, pair-sum and difference-quotient bounds hold in "
                   f"{total - failures}/{total} matrix cases, smallest slack "
                   f"{min_slack:.3e}")


def test_07_stage_functional_convergence():
    spec = QuadratureSpec(n_offsets=1024, gauss_order=8)
    sq = fractal.named_domain("square")
    all_hold = True
    for name in ("one", "x1", "x1x2"):
        fld = get_field(name)
        seq = calculus.nu_sequence(fld, 12, h1_norm(fld, sq, spec))
        all_hold = all_hold and seq.bounds_hold
    ones = [calculus.nu_value(get_field("one"), n) for n in range(13)]
    exact_one = all(v == 1.0 for v in ones)
    ok = all_hold and exact_one
    _report(7, ok, "stage increments within 2^((1-n)/2) * h1 norm up to n=12 "
                   f"({all_hold}); stages of the constant equal 1 exactly "
                   f"({exact_one})")


def test_08_mirrored_cone_jump_and_consistency():
    fld = get_field("sign_y")
    gaps = [calculus.mirror_gap(fld, n) for n in range(9)]
    gap_ok = all(abs(g - 2.0) <= 1e-9 for g in gaps)

    dom = fractal.named_domain("bicone")
    spec = QuadratureSpec(n_offsets=1024, gauss_order=8)
    rep = consistency_report(fld, dom, direction_table(8), spec)
    cons_ok = rep.verdict == "in" and rep.disagreement_mass <= 1e-6
    ok = gap_ok and cons_ok
    _report(8, ok, f"mirror-stage gap equals 2 within 1e-9 for n=0..8 ({gap_ok}); "
                   f"omnidirectional verdict {rep.verdict!r} with disagreement "
                   f"mass {rep.disagreement_mass:.2e} (<= 1e-6)")


def test_09_crack_detection_witnesses():
    dom1 = fractal.named_domain("crack_interval")
    u = oned.PiecewiseH1.from_field(get_field("crack_1d"), dom1.intervals)
    rep1 = oned.membership_report(u)
    w = rep1.witnesses[0] if rep1.witnesses else None
    oned_ok = (rep1.verdict == "out" and w is not None
               and abs(w.point - 1.0) <= 1e-8
               and abs(w.left - 1.0) <= 1e-8 and abs(w.right - 0.0) <= 1e-8)

    dom2 = fractal.named_domain("crack_square")
    spec = QuadratureSpec(n_offsets=512, gauss_order=8)
    rep2 = consistency_report(get_field("crack_2d"), dom2, direction_table(4),
                              spec)
    slit_ok = rep2.verdict == "out" and bool(rep2.witnesses)
    worst = np.inf
    for wit in rep2.witnesses:
        if abs(wit.point[0] - 0.5) > 1e-6 or wit.point[1] <= 0.0:
            continue
        vals = sorted(wit.values.values())
        err = max(abs(vals[0] + wit.point[1]), abs(vals[-1] - wit.point[1]))
        worst = min(worst, err)
    slit_ok = slit_ok and worst <= 1e-8
    ok = oned_ok and slit_ok
    _report(9, ok, "one-sided traces refute the interval crack with witness "
                   f"(1, 1.0 vs 0.0) ({oned_ok}); slit witnesses match -y vs y "
                   f"within {worst:.1e} ({slit_ok})")


def test_10_staircase_bridges():
    gaps = fractal.cantor_gaps(1.0 / 3.0, 13)
    levels = fractal.staircase_levels(gaps, 0.0, 1.0, 13)
    sups = [fractal.sup_difference(levels[p], levels[p + 1]) for p in range(13)]
    sup_ok = all(s <= 2.0 ** (-1 - p) + 1e-15 for p, s in enumerate(sups))

    f = levels[-1]
    xs = np.linspace(0.0, 1.0, 100_001)
    vals = f(xs)
    endpoint_ok = f(0.0) == 0.0 and f(1.0) == 1.0
    monotone_ok = bool(np.all(np.diff(vals) >= 0.0))
    ok = sup_ok and endpoint_ok and monotone_ok
    _report(10, ok, f"staircase endpoints exact ({endpoint_ok}), monotone over "
                    f"1e5 samples ({monotone_ok}), refinement sups below "
                    f"2^(-1-p) for p<=12 ({sup_ok})")


def test_11_reflection_identity(domains):
    spec = QuadratureSpec(n_offsets=512, gauss_order=8)
    failures = 0
    total = 0
    for key in ("square", "cusp"):
        dom = domains[key]
        preds = measure.random_region_predicates(dom, 20, seed=5)
        for theta in direction_table(8):
            for pred in preds:
                chk = measure.reflection_check(dom, theta, pred, spec)
                total += 1
                if chk.difference > 2.0 * chk.error:
                    failures += 1
    ok = failures == 0
    _report(11, ok, "reversed-direction mass equals exit-map pullback within "
                    f"2x error in {total - failures}/{total} predicate "
                    "comparisons (20 predicates x 8 directions x 2 domains)")


def test_12_one_dimensional_approximation():
    dom = fractal.named_domain("cantor_complement", level=6)
    decreasing = True
    for name in ("x1", "sin1"):
        u = oned.PiecewiseH1.from_field(get_field(name), dom.intervals)
        dists = [oned.continuous_approximation(u, n).distance
                 for n in (4, 6, 8, 10)]
        decreasing = decreasing and all(a > b for a, b in zip(dists, dists[1:]))
    crack = oned.PiecewiseH1.from_field(
        get_field("crack_1d"),
        fractal.named_domain("crack_interval").intervals)
    try:
        oned.continuous_approximation(crack, 4)
        rejected = False
    except NotInH1tr:
        rejected = True
    ok = decreasing and rejected
    _report(12, ok, "approximation distance strictly decreases over n=4,6,8,10 "
                    f"for two smooth fields ({decreasing}); the jump field is "
                    f"rejected ({rejected})")


def test_13_paired_boundary_products(domains, dirs16):
    failures = 0
    total = 0
    worst = 0.0
    for dom in domains.values():
        for theta in dirs16:
            for a, b in SMOOTH_PAIRS:
                rep = calculus.paired_identity(get_field(a), get_field(b),
                                               dom, theta, MATRIX_SPEC)
                total += 1
                allowance = 3.0 * (rep.err_volume + rep.err_bracket)
                worst = max(worst, rep.residual / max(allowance, 1e-300))
                if not rep.passes(3.0):
                    failures += 1
    ok = failures == 0
    _report(13, ok, "exit/entry product difference matches the volume pairing "
                    f"in {total - failures}/{total} matrix cases, worst "
                    f"residual/allowance {worst:.3f}")


def test_14_variational_selection():
    dom = fractal.named_domain("bicone")
    tests = calculus.bump_tests(dom, 16)
    spec = QuadratureSpec(n_offsets=1024, gauss_order=8)
    u_height = get_field("x2")
    u_jump = get_field("sign_y")
    rep_h = calculus.variational_residual(u_height, dom, tests, spec)
    rep_j = calculus.variational_residual(u_jump, dom, tests, spec)

    pts = np.array([[0.05, 0.5], [0.9, 0.6], [0.5, -0.8]])
    differ = float(np.max(np.abs(u_height.eval_many(pts) - u_jump.eval_many(pts))))
    ok = rep_h.passes(3.0) and rep_j.passes(3.0) and differ > 0.1
    _report(14, ok, "both closed-form minimizers annihilate all 16 bump tests "
                    f"(max residuals {rep_h.max_residual:.2e}, "
                    f"{rep_j.max_residual:.2e}); the two solutions differ by "
                    f"{differ:.2f} in sup norm")
