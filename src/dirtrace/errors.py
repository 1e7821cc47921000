"""Exception types shared across the package, and the tolerance and
integer checks."""

import math
import numbers


class DirtraceError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DirtraceError):
    """Malformed construction parameters or inconsistent inputs."""


class PointOutsideDomain(DirtraceError):
    """An operation requiring an interior point was given an outside one."""


class NotDirectionalBoundary(DirtraceError):
    """The point is not an exit point of any chord for the direction."""


class InvalidRatio(DirtraceError):
    """Cantor ratio outside the admissible range ]0, 1/3]."""


class OverlappingGaps(DirtraceError):
    """Gap intervals handed to the staircase construction intersect."""


class UnknownName(DirtraceError):
    """Lookup of a named domain or field failed."""


class UnresolvedSingularity(DirtraceError):
    """An integrand is singular on too many chords to integrate reliably."""


class DivergentChordIntegral(DirtraceError):
    """A per-chord trace integral failed to produce a finite value."""


class NonIntegrablePairing(DirtraceError):
    """The paired boundary integrand diverges under refinement."""


class InsufficientOverlap(DirtraceError):
    """No boundary point was reachable from two or more directions."""


class NotInH1tr(DirtraceError):
    """Left and right traces disagree at an isolated boundary point."""


def check_tolerance(tolerance) -> None:
    """Reject a tolerance that is NaN (every comparison with it fails, so a
    gate would see no disagreement), infinite or negative; None stands for
    the caller's default."""
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValidationError(f"tolerance must be finite and non-negative, got {tolerance!r}")


def check_integer(name: str, value, lo: int, hi: int | None = None) -> None:
    """Reject a value that is not an integer in [lo, hi] (hi None: no upper
    end): a float, even a whole one, or a bool, which would pass as 0 or 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < lo or (hi is not None and value > hi)):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValidationError(f"{name} must be an integer {span}, got {value!r}")
