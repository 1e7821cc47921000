"""Command line front end.

Every subcommand writes its results as files under --out (default the
working directory) and prints the file names it wrote.  Outputs are
byte-identical across runs with the same configuration: file names and
row orders are deterministic, floats are serialized with repr, and each
file embeds the package version and a hash of the configuration that
produced it.

Exit codes: 0 on success, 2 for invalid configuration, 3 when a checked
invariant fails beyond tolerance (or a computation cannot be completed
reliably).  A --tolerance below the run's own reported error also exits 3:
a gate passes only when both the discrepancy and the error bar are within
the tolerance, so it never certifies more than the run can resolve.  Only
the subcommands with a gate (measure, ibp, consistency) take --tolerance;
the others reject it with exit 2.  A NaN, infinite or negative
--tolerance exits 2 too, before anything is computed.

`main` builds the parser of the one sub-command named first on the command
line, and falls back to the full parser for anything else (help, --version,
no arguments, an unknown command), so every message and exit code is the
full parser's.  Each parser is built once per process, at its first use,
and reused: it depends only on the command, argparse makes a new namespace
per parse and reads the terminal width only when it prints.

A one-shot command imports only what it runs: the package's exports load
on first use, this module imports at its top only what parsing needs
(`fractal` for the --domain help), and each `_cmd_*` handler imports the
modules it calls when it runs, so `measure` or `staircase` never loads
`trace`, `calculus` or `oned`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, fractal
from .errors import (
    DirtraceError,
    InvalidRatio,
    NotInH1tr,
    OverlappingGaps,
    UnknownName,
    ValidationError,
    check_tolerance,
)

_CONFIG_ERRORS = (ValidationError, UnknownName, InvalidRatio, OverlappingGaps)

# CSV rows formatted per write; larger chunks are faster (more repeated
# values share one repr) and raise peak memory.  Each chunk also keeps the
# sorted distinct bit patterns of the chunk before it with their texts, so a
# value repeated from one chunk to the next is formatted once, and at most
# two chunks' texts are held at a time.
_CSV_CHUNK_ROWS = 256


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _np_default(obj):
    # results dicts mix plain values with numpy scalars from the reports
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _report_path(args, config: dict, suffix: str) -> Path:
    """<out>/<command>_<config hash>.<suffix>, creating <out> if needed."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{args.command}_{_config_hash(config)}.{suffix}"


def _write_json(args, config: dict, results: dict) -> None:
    payload = {
        "version": __version__,
        "config": config,
        "config_hash": _config_hash(config),
        "results": results,
    }
    path = _report_path(args, config, "json")
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, default=_np_default) + "\n"
    )
    print(path)


def _write_csv(args, config: dict, header: list[str], rows) -> None:
    # a few rows at a time: a table of atoms can run to many megabytes as text.
    # repr runs once per distinct bit pattern of a chunk that the chunk before
    # did not hold (bits keep 0.0, -0.0 and NaN payloads apart); tables repeat
    # many values, so larger chunks repeat more.
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    path = _report_path(args, config, "csv")
    keys, texts = np.empty(0, np.uint64), np.empty(0, object)
    with path.open("w") as fh:
        fh.write(f"# dirtrace {__version__} config {_config_hash(config)}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, table.shape[0], _CSV_CHUNK_ROWS):
            values = table[start:start + _CSV_CHUNK_ROWS].ravel()
            bits, first, inverse = np.unique(values.view(np.uint64), return_index=True,
                                             return_inverse=True)
            at = np.searchsorted(keys, bits)
            held = at < keys.size
            held[held] = keys[at[held]] == bits[held]
            text = np.empty(bits.size, dtype=object)
            text[held] = texts[at[held]]
            text[~held] = [repr(v) for v in values[first[~held]].tolist()]
            keys, texts = bits, text
            cells = text[inverse.reshape(-1, len(header))].tolist()
            fh.write("".join(",".join(row) + "\n" for row in cells))
    print(path)


def _spec_from(args) -> QuadratureSpec:
    from .quadrature import QuadratureSpec

    return QuadratureSpec(n_offsets=args.ny, gauss_order=args.gauss)


def _domain_overrides(args) -> dict:
    """The --ratio, --level and --scheme values given on the command line."""
    return {key: getattr(args, key) for key in ("ratio", "level", "scheme")
            if getattr(args, key, None) is not None}


def _domain_from(args):
    return fractal.named_domain(args.domain, **_domain_overrides(args))


def _direction_from(args, dim: int) -> Direction:
    from .geometry import Direction, direction_table

    if getattr(args, "angle", None) is not None:
        if dim == 1:
            raise ValidationError("--angle is only meaningful in dimension two")
        return Direction.from_angle(args.angle)
    index = args.theta or 0
    if dim == 1:
        if index not in (0, 1):
            raise ValidationError("1d direction index must be 0 (+1) or 1 (-1)")
        return Direction([1.0] if index == 0 else [-1.0])
    table = direction_table(args.directions)
    if not (0 <= index < len(table)):
        raise ValidationError(
            f"direction index {index} outside table of {len(table)}"
        )
    return table[index]


def _common_config(args, **extra) -> dict:
    # domain overrides that were given join the config, so runs that differ
    # only in them write different reports
    cfg = {
        "command": args.command,
        "ny": args.ny,
        "gauss": args.gauss,
        "seed": args.seed,
        **_domain_overrides(args),
    }
    cfg.update(extra)
    return cfg


def _cmd_measure(args) -> int:
    from .measure import measure_atoms, total_mass_result

    domain = _domain_from(args)
    theta = _direction_from(args, domain.dim)
    spec = _spec_from(args)
    mu = measure_atoms(domain, theta, spec)
    res = total_mass_result(domain, theta, spec)
    config = _common_config(args, domain=args.domain,
                            theta=list(map(float, theta.vector)))
    _write_csv(args, config, mu.row_header(), mu.to_rows())

    results = {
        "total_mass": res.value,
        "error": res.error,
        "flags": res.flags,
        "n_atoms": mu.n_atoms,
    }
    code = 0
    if domain.volume is not None:
        tol = args.tolerance if args.tolerance is not None else 10.0 * res.error + 1e-9
        results["volume"] = domain.volume
        results["mass_matches_volume"] = (
            abs(res.value - domain.volume) <= tol and res.error <= tol
        )
        if not results["mass_matches_volume"]:
            code = 3
    _write_json(args, config, results)
    return code


def _cmd_trace(args) -> int:
    from . import fields, trace

    domain = _domain_from(args)
    theta = _direction_from(args, domain.dim)
    spec = _spec_from(args)
    fld = fields.parse_field(args.field)
    report, tf = trace._trace_inequalities(fld, domain, theta, spec)
    config = _common_config(args, domain=args.domain, field=args.field,
                            theta=list(map(float, theta.vector)))
    _write_csv(args, config, tf.row_header(), tf.to_rows())
    results = {
        "trace_norm_sq": report.trace_sq,
        "pair_sum_sq": report.pair_sum_sq,
        "diff_quotient_sq": report.diff_quotient_sq,
        "norm_theta_sq": report.norm_theta_sq,
        "bounds": {
            "trace": report.trace_bound,
            "pair_sum": report.pair_sum_bound,
            "diff_quotient": report.diff_quotient_bound,
        },
        "slacks": list(report.slacks),
        "error": report.error,
        "holds": report.holds,
    }
    _write_json(args, config, results)
    return 0 if report.holds else 3


def _cmd_ibp(args) -> int:
    from . import calculus, fields

    domain = _domain_from(args)
    theta = _direction_from(args, domain.dim)
    spec = _spec_from(args)
    u = fields.parse_field(args.u)
    v = fields.parse_field(args.v)
    report = calculus.integration_by_parts(u, v, domain, theta, spec)
    tol = args.tolerance
    if tol is None:
        tol = max(3.0 * (report.err_lhs + report.err_rhs), 1e-12)
    config = _common_config(args, domain=args.domain, u=args.u, v=args.v,
                            theta=list(map(float, theta.vector)))
    ok = report.residual <= tol and report.err_lhs + report.err_rhs <= tol
    results = report.to_json()
    results["tolerance"] = tol
    results["within_tolerance"] = ok
    _write_json(args, config, results)
    return 0 if ok else 3


def _cmd_lebesgue(args) -> int:
    from . import fields, trace

    domain = _domain_from(args)
    theta = _direction_from(args, domain.dim)
    spec = _spec_from(args)
    fld = fields.parse_field(args.field)
    checks = trace.lebesgue_comparisons(fld, domain, theta, args.eps, spec)
    config = _common_config(args, domain=args.domain, field=args.field,
                            theta=list(map(float, theta.vector)), eps=args.eps)
    ok = all(c.deviation_sq <= c.bound + 3.0 * c.error for c in checks)
    results = {
        "checks": [
            {
                "eps": c.eps,
                "deviation_sq": c.deviation_sq,
                "bound": c.bound,
                "error": c.error,
            }
            for c in checks
        ],
        "within_bound": ok,
    }
    _write_json(args, config, results)
    return 0 if ok else 3


def _cmd_nu(args) -> int:
    from . import calculus, fields
    from .geometry import Bicone, ConeUnionCantor
    from .quadrature import h1_norm

    domain = _domain_from(args)
    # the stages sit at heights 3**-n / 2 over the middle-thirds Cantor set:
    # they belong to the cone union of ratio 1/3 and the bicone built on it
    cones = domain.upper if isinstance(domain, Bicone) else domain
    if not (isinstance(cones, ConeUnionCantor) and cones.ratio == 1.0 / 3.0
            and cones.scheme == "third"):
        raise ValidationError("nu needs --domain omega_C or bicone, with --ratio 1/3 "
                              "and --scheme third (the middle-thirds stages)")
    spec = _spec_from(args)
    fld = fields.parse_field(args.field)
    levels = args.levels
    # stage n means over 2**n intervals: check the last stage before the first
    calculus.check_last_stage(levels, "--levels", 0)
    rows = []
    for n in range(levels + 1):
        y = 0.5 * 3.0 ** (-n)
        upper = calculus.nu_value(fld, n, spec.gauss_order)
        lower = calculus.nu_value(fld, n, spec.gauss_order, mirror=True)
        rows.append((n, y, upper, lower, upper - lower))
    h1 = h1_norm(fld, domain, spec)
    # the stage values of the rows, not computed again by nu_sequence
    seq = calculus._nu_sequence([r[2] for r in rows], h1) if levels >= 1 else None
    config = _common_config(args, domain=args.domain, field=args.field,
                            levels=levels)
    _write_csv(args, config, ["n", "y_n", "nu", "nu_mirror", "gap"], rows)
    results = {
        "h1_norm": h1,
        "values": [r[2] for r in rows],
        "gaps": [r[4] for r in rows],
    }
    code = 0
    if seq is not None:
        results["increments"] = list(map(float, seq.increments))
        results["increment_bounds"] = list(map(float, seq.increment_bounds))
        results["limit_estimate"] = seq.limit_estimate
        results["tail_bound"] = seq.tail_bound
        results["bounds_hold"] = seq.bounds_hold
        if fld.smooth and not seq.bounds_hold:
            code = 3
    _write_json(args, config, results)
    return code


def _cmd_staircase(args) -> int:
    gaps = fractal.cantor_gaps(args.ratio, args.level, args.scheme)
    levels = fractal.staircase_levels(gaps, args.alpha, args.beta, args.pmax,
                                      margin=args.margin)
    stair = levels[-1]
    sups = [fractal.sup_difference(levels[p], levels[p + 1])
            for p in range(len(levels) - 1)]
    bounds = [2.0 ** (-1 - p) for p in range(len(sups))]
    values = stair.breakpoints[:, 1]
    monotone = bool(np.all(np.diff(values) >= 0.0))
    endpoints_exact = values[0] == 0.0 and values[-1] == 1.0
    ok = monotone and endpoints_exact and all(
        s <= b + 1e-15 for s, b in zip(sups, bounds)
    )
    config = _common_config(args, pmax=args.pmax,
                            alpha=args.alpha, beta=args.beta,
                            margin=args.margin)
    _write_csv(args, config, ["t", "value"], stair.to_rows())
    _write_json(args, config, {
        "segments": stair.segment_count,
        "sup_steps": sups,
        "sup_bounds": bounds,
        "monotone": monotone,
        "endpoints_exact": endpoints_exact,
        "holds": ok,
    })
    return 0 if ok else 3


def _cmd_oned(args) -> int:
    from . import fields, oned

    # checked even where a refuted membership leaves it unused
    oned.check_truncation(args.truncation)
    domain = _domain_from(args)
    if domain.dim != 1:
        raise ValidationError("the oned command needs a one-dimensional domain")
    fld = fields.parse_field(args.field)
    u = oned.PiecewiseH1.from_field(fld, domain.intervals)
    report = oned.membership_report(u)
    results = {
        "verdict": report.verdict,
        "isolated_points": list(map(float, report.isolated)),
        "witnesses": [
            {"point": w.point, "left": w.left, "right": w.right}
            for w in report.witnesses
        ],
        "approximations": [],
    }
    if report.verdict == "in":
        for n in args.n:
            res = oned.continuous_approximation(u, n, args.truncation)
            results["approximations"].append({
                "n": n,
                "distance": res.distance,
                "unselected_length": res.unselected_length,
                "selected_count": int(res.selected.size),
                "truncation": res.truncation,
            })
    # a truncation joins the config only when given, as --level does
    given = {} if args.truncation is None else {"truncation": args.truncation}
    config = _common_config(args, domain=args.domain, field=args.field,
                            n=list(args.n), **given)
    _write_json(args, config, results)
    return 0


def _cmd_consistency(args) -> int:
    from . import fields, trace
    from .geometry import Direction, direction_table

    domain = _domain_from(args)
    spec = _spec_from(args)
    fld = fields.parse_field(args.field)
    if domain.dim == 1:
        directions = [Direction([1.0]), Direction([-1.0])]
    else:
        directions = direction_table(args.directions)
    report = trace.consistency_report(fld, domain, directions, spec,
                                      tolerance=args.tolerance)
    config = _common_config(args, domain=args.domain, field=args.field,
                            directions=args.directions)
    _write_json(args, config, report.to_json())
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--ny", type=int, default=4096, help="offset grid size")
    p.add_argument("--gauss", type=int, default=8, choices=(4, 8, 16))
    p.add_argument("--seed", type=int, default=0)


def _add_tolerance(p: argparse.ArgumentParser) -> None:
    # only the subcommands that gate on a tolerance take the flag
    p.add_argument("--tolerance", type=float, default=None)


def _add_domain(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--domain", required=required,
                   help=f"one of: {', '.join(fractal.DOMAIN_NAMES)}")
    p.add_argument("--ratio", type=float, default=None)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--scheme", default=None, choices=("third", "rho"))


def _add_direction(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=int, default=None,
                   help="index into the direction table")
    p.add_argument("--angle", type=float, default=None,
                   help="direction angle in radians (overrides --theta)")
    p.add_argument("--directions", type=int, default=16,
                   help="size of the direction table")


def _arg(*flags, **kw):
    return lambda p: p.add_argument(*flags, **kw)


_FIELD = _arg("--field", required=True)

# name -> (help, argument adders in help order, handler): the one list of
# sub-commands that both the full and the one-command parser are built from
_COMMANDS = {
    "measure": ("directional boundary measure atoms",
                (_add_domain, _add_direction, _add_common, _add_tolerance), _cmd_measure),
    "trace": ("trace field and trace inequalities",
              (_add_domain, _add_direction, _FIELD, _add_common), _cmd_trace),
    "ibp": ("chord-paired integration by parts",
            (_add_domain, _add_direction, _arg("--u", required=True),
             _arg("--v", required=True), _add_common, _add_tolerance), _cmd_ibp),
    "lebesgue": ("trace versus chord averages",
                 (_add_domain, _add_direction, _FIELD,
                  _arg("--eps", type=float, nargs="+", default=(0.1, 0.01, 0.001)),
                  _add_common), _cmd_lebesgue),
    "nu": ("Cantor-boundary stage functionals",
           (_add_domain, _FIELD, _arg("--levels", type=int, default=8), _add_common),
           _cmd_nu),
    "staircase": ("devil staircase construction",
                  (_arg("--ratio", type=float, default=1.0 / 3.0),
                   _arg("--level", type=int, default=10),
                   _arg("--scheme", default="third", choices=("third", "rho")),
                   _arg("--pmax", type=int, default=10),
                   _arg("--alpha", type=float, default=0.0),
                   _arg("--beta", type=float, default=1.0),
                   _arg("--margin", type=float, default=0.0), _add_common),
                  _cmd_staircase),
    "oned": ("1d membership and continuous approximation",
             (_add_domain, _FIELD, _arg("--n", type=int, nargs="+", default=(4, 6, 8, 10)),
              _arg("--truncation", type=float, default=None), _add_common), _cmd_oned),
    "consistency": ("cross-direction trace agreement",
                    (_add_domain, _FIELD, _arg("--directions", type=int, default=8),
                     _add_common, _add_tolerance), _cmd_consistency),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or with `command` one that knows only that sub-command."""
    parser = argparse.ArgumentParser(
        prog="dirtrace",
        description="directional boundary measures, traces and their calculus",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # the one-command parser still lists every command in the usage line
    # that its errors print; the full parser lists them itself
    metavar = "{" + ",".join(_COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if command else _COMMANDS:
        help_text, adders, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for add in adders:
            add(p)
        p.set_defaults(func=handler)
    return parser


# command (None for the full parser) -> its parser, built at first use
_PARSERS: dict = {}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known command needs only its own sub-parser; anything else (help,
    # --version, none, an unknown or abbreviated command) gets the full one
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command not in _PARSERS:
        _PARSERS[command] = build_parser(command)
    parser = _PARSERS[command]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help/--version
        return int(exc.code or 0)
    try:
        # before any computation, so a rejected tolerance writes no file
        check_tolerance(getattr(args, "tolerance", None))
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NotInH1tr as exc:
        print(f"membership refuted: {exc}", file=sys.stderr)
        return 3
    except DirtraceError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
