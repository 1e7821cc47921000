"""Running one benchmark task against the dirtrace package.

Import this module only after `src` is on `sys.path`: it imports dirtrace.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from dirtrace import calculus, cli, fractal, quadrature, trace
from dirtrace.geometry import Direction, direction_table
from dirtrace.quadrature import QuadratureSpec

# Table size the CLI uses for `--theta`.
THETA_TABLE = 16


def build_domain(spec: dict):
    params = {k: v for k, v in spec.items() if k != "name"}
    return fractal.named_domain(spec["name"], **params)


def domain_key(spec: dict) -> tuple:
    return tuple(sorted(spec.items()))


def grid_directions(grid: dict) -> list[Direction]:
    """The directions of one grid entry, built exactly as the CLI builds them."""
    if "angle" in grid:
        return [Direction.from_angle(grid["angle"])]
    if "theta" in grid:
        return [direction_table(THETA_TABLE)[grid["theta"]]]
    return direction_table(grid["table"])


def task_domains(tasks) -> dict:
    """Distinct domain specs of a task list, keyed by `domain_key`."""
    specs = {}
    for task in tasks:
        if "domain" in task:
            specs.setdefault(domain_key(task["domain"]), task["domain"])
    return specs


def run_cli(argv, out_dir: Path):
    """Run one CLI invocation in process; returns the exit code.

    The CLI prints the names of the files it writes; they are swallowed so
    that the benchmark's own output stays parseable.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv) + ["--out", str(out_dir)])


def collect_reports(out_dir: Path):
    """(parsed JSON report or None, bytes written, digest) and empties out_dir."""
    report, size, digest = None, 0, hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        size += len(data)
        digest.update(path.name.encode() + data)
        if path.suffix == ".json":
            report = json.loads(data)
        os.remove(path)
    return report, size, digest.hexdigest()


def call_api(task, domain, theta, field_of):
    """Make the task's one public call; `field_of` maps a name to a field.

    `theta` is the task's direction; a consistency report takes the whole
    direction table its task names.
    """
    spec = QuadratureSpec(n_offsets=task["ny"], gauss_order=task["gauss"])
    call = task["call"]
    if call == "integration_by_parts":
        return calculus.integration_by_parts(field_of(task["u"]), field_of(task["v"]),
                                             domain, theta, spec)
    if call == "paired_identity":
        return calculus.paired_identity(field_of(task["u"]), field_of(task["v"]),
                                        domain, theta, spec)
    f = field_of(task["field"])
    if call == "consistency_report":
        return trace.consistency_report(f, domain, grid_directions(task["direction"]), spec,
                                        probes_per_direction=task["probes"])
    if call == "trace_inequalities":
        return trace.trace_inequalities(f, domain, theta, spec)
    if call == "lebesgue_comparison":
        return trace.lebesgue_comparison(f, domain, theta, task["eps"], spec)
    if call == "volume_integral":
        return quadrature.volume_integral(domain, f, spec, theta, panel=task["panel"])
    if call == "h1_norm":
        return quadrature.h1_norm(f, domain, spec, theta)
    raise ValueError(f"unknown API call {call!r}")
