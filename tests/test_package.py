"""The package namespace, served on first use, and what a command imports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dirtrace

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = "errors geometry fractal fields quadrature measure trace calculus oned".split()

# the names `from dirtrace import *` binds: the modules above and these
NAMES = set(MODULES) | set("""
    ApproximationResult Bicone CantorComb Chord ConeUnionCantor ConsistencyReport Cusp
    Direction DirectionalMeasure DirtraceError DiskMinusCantor DivergentChordIntegral
    Domain IbpReport InsufficientOverlap IntegralResult IntervalUnion InvalidRatio
    NonIntegrablePairing NotDirectionalBoundary NotInH1tr OverlappingGaps PiecewiseH1
    PointOutsideDomain Polygon QuadratureSpec ScalarField SlitRectangle Staircase TraceField
    UnknownName UnresolvedSingularity ValidationError boundary_integral build_staircase
    bump_tests cantor_gaps chords consistency_report continuous_approximation
    direction_table directional_trace domain_from_json exit_distance exit_point
    family_sup_norm field_names get_field h1_norm integration_by_parts isolated_points
    lebesgue_average lebesgue_comparison lebesgue_comparisons measure_atoms
    membership_report mirror_gap named_domain norm_theta nu_sequence nu_value
    opposite_endpoint paired_boundary_field paired_identity parse_field
    polygon_density_report reflection_check staircase_levels sup_difference trace_field
    trace_inequalities trace_norm_sq variational_residual volume_integral volume_integrals
""".split())

# modules that other commands run and measure never does
UNUSED_BY_MEASURE = {"dirtrace.trace", "dirtrace.calculus", "dirtrace.oned"}


def test_the_public_names_are_the_modules_objects():
    assert len(NAMES) == 84
    assert set(dirtrace.__all__) == NAMES and len(dirtrace.__all__) == 84
    for name in NAMES:
        module = dirtrace._EXPORTS[name]
        got = getattr(dirtrace, name)
        if name == module:
            assert got is importlib.import_module(f"dirtrace.{name}")
        else:
            assert got is getattr(importlib.import_module(f"dirtrace.{module}"), name), name
    bound = {}
    exec("from dirtrace import *", bound)
    assert set(bound) - {"__builtins__"} == NAMES
    assert NAMES <= set(dir(dirtrace))


@pytest.mark.parametrize("name", ["no_such_name", "_cache", "main"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(dirtrace, name)


# a fresh interpreter prints to stderr, as it exits, every module it loaded
_AT_EXIT = "import atexit, sys; atexit.register(lambda: print(*sys.modules, file=sys.stderr)); "


def _loaded(code, cwd) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", _AT_EXIT + code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return set(proc.stderr.split())


def _polynomial(modules) -> set:
    return {m for m in modules if m == "numpy.polynomial" or m.startswith("numpy.polynomial.")}


@pytest.fixture(scope="module")
def numpy_polynomial(tmp_path_factory) -> set:
    # numpy 1.x loads numpy.polynomial itself; the Gauss rules need none of it
    return _polynomial(_loaded("import numpy", tmp_path_factory.mktemp("numpy")))


@pytest.mark.parametrize("argv, unused", [
    (None, UNUSED_BY_MEASURE),
    (["measure", "--domain", "square", "--ny", "64"], UNUSED_BY_MEASURE),
    # a Gauss rule on every chord
    (["ibp", "--domain", "square", "--u", "x1", "--v", "x2", "--ny", "64"], {"dirtrace.oned"}),
])
def test_a_command_imports_only_what_it_runs(argv, unused, tmp_path, numpy_polynomial):
    # `import dirtrace.cli`, or what `python -m dirtrace <argv>` runs
    code = "import dirtrace.cli" if argv is None else (
        f"import runpy; sys.argv[1:] = {argv!r}; "
        "runpy.run_module('dirtrace', run_name='__main__', alter_sys=True)")
    loaded = _loaded(code, tmp_path)
    assert "dirtrace.cli" in loaded
    assert not loaded & unused
    assert _polynomial(loaded) <= numpy_polynomial
    if argv is not None:
        assert len(list(tmp_path.iterdir())) == (2 if argv[0] == "measure" else 1)
