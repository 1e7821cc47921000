"""Numerical toolkit for directional traces on rough open sets.

Chord-level geometry, directional boundary measures, trace evaluation,
chord-paired integration by parts, Cantor-boundary limit functionals,
and the one-dimensional membership and approximation theory, with a
command line front end.
"""

__version__ = "0.1.0"

from .errors import (
    DirtraceError,
    DivergentChordIntegral,
    InsufficientOverlap,
    InvalidRatio,
    NonIntegrablePairing,
    NotDirectionalBoundary,
    NotInH1tr,
    OverlappingGaps,
    PointOutsideDomain,
    UnknownName,
    UnresolvedSingularity,
    ValidationError,
)
from .geometry import (
    Bicone,
    CantorComb,
    Chord,
    ConeUnionCantor,
    Cusp,
    Direction,
    DiskMinusCantor,
    Domain,
    IntervalUnion,
    Polygon,
    SlitRectangle,
    axis_direction,
    chords,
    direction_table,
    domain_from_json,
    exit_distance,
    exit_point,
    opposite_endpoint,
)
from .fractal import (
    Staircase,
    build_staircase,
    cantor_distance,
    cantor_gaps,
    cantor_intervals,
    named_domain,
    staircase_levels,
    sup_difference,
)
from .fields import ScalarField, field_names, get_field, parse_field
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    boundary_integral,
    h1_norm,
    norm_theta,
    volume_integral,
    volume_integrals,
)
from .measure import (
    DirectionalMeasure,
    family_sup_norm,
    measure_atoms,
    polygon_density_report,
    reflection_check,
)
from .trace import (
    ConsistencyReport,
    TraceField,
    consistency_report,
    directional_trace,
    lebesgue_average,
    lebesgue_comparison,
    lebesgue_comparisons,
    trace_field,
    trace_inequalities,
    trace_norm_sq,
)
from .calculus import (
    IbpReport,
    bump_tests,
    integration_by_parts,
    mirror_gap,
    nu_sequence,
    nu_value,
    paired_boundary_field,
    paired_identity,
    variational_residual,
)
from .oned import (
    ApproximationResult,
    PiecewiseH1,
    continuous_approximation,
    isolated_points,
    membership_report,
)
