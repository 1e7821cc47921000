"""Numerical toolkit for directional traces on rough open sets.

Chord-level geometry, directional boundary measures, trace evaluation,
chord-paired integration by parts, Cantor-boundary limit functionals,
and the one-dimensional membership and approximation theory, with a
command line front end.

The public names below load their module on first use (PEP 562), so
importing the package, or one module of it, compiles only the modules
that are used.
"""

import sys

__version__ = "0.1.0"

# module -> the public names it gives the package; each module is a public
# name too
_MODULES = {
    "errors": (
        "DirtraceError DivergentChordIntegral InsufficientOverlap InvalidRatio "
        "NonIntegrablePairing NotDirectionalBoundary NotInH1tr OverlappingGaps "
        "PointOutsideDomain UnknownName UnresolvedSingularity ValidationError"),
    "geometry": (
        "Bicone CantorComb Chord ConeUnionCantor Cusp Direction DiskMinusCantor Domain "
        "IntervalUnion Polygon SlitRectangle chords direction_table domain_from_json "
        "exit_distance exit_point opposite_endpoint"),
    "fractal": (
        "Staircase build_staircase cantor_gaps named_domain staircase_levels "
        "sup_difference"),
    "fields": "ScalarField field_names get_field parse_field",
    "quadrature": (
        "IntegralResult QuadratureSpec boundary_integral h1_norm norm_theta "
        "volume_integral volume_integrals"),
    "measure": (
        "DirectionalMeasure family_sup_norm measure_atoms polygon_density_report "
        "reflection_check"),
    "trace": (
        "ConsistencyReport TraceField consistency_report directional_trace "
        "lebesgue_average lebesgue_comparison lebesgue_comparisons trace_field "
        "trace_inequalities trace_norm_sq"),
    "calculus": (
        "IbpReport bump_tests integration_by_parts mirror_gap nu_sequence nu_value "
        "paired_boundary_field paired_identity variational_residual"),
    "oned": (
        "ApproximationResult PiecewiseH1 continuous_approximation isolated_points "
        "membership_report"),
}

# public name -> its module
_EXPORTS = {name: module for module, names in _MODULES.items()
            for name in (module, *names.split())}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which `python -X importtime` reports
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
