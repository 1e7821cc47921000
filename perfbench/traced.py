"""Traced replay: each task as the sequence of public calls it makes.

Spans are recorded here, in the benchmark, around calls into dirtrace;
nothing inside the package is patched.  A span holds its name, start,
end, parent span and task id, plus counters.  Counters come from wrappers
on objects the benchmark builds itself: a domain whose `contains_many`
counts membership calls and points, and fields whose evaluation callables
count points.  A count goes to the innermost open span.

Spans marked `replay` repeat work the task already does inside another
span (for instance slicing the offsets of a grid the task just built, to
time the slicing layer on its own).  They give per-layer times, and are
left out of the task's traced time, so that the traced time of a pass
minus the untraced time of a pass is the cost of tracing itself.
"""

from __future__ import annotations

import dataclasses
import json
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import oracle
import tasks as run_tasks
from workloads import cli_options
from dirtrace import calculus, fields, fractal, geometry, measure, oned, quadrature, trace
from dirtrace.quadrature import QuadratureSpec

# Probe density of `trace.consistency_report` when the task does not set
# one (its default, which the CLI uses), replayed here to time the
# exit-chord lookup per probe.
PROBES_PER_DIRECTION = 160

PER_LAYER = {
    "geometry.slice_lines.s": "s",
    "geometry.slice_lines.calls": "count",
    "geometry.offsets": "count",
    "geometry.chords": "count",
    "geometry.flagged_offsets": "count",
    "geometry.contains_many.calls": "count",
    "geometry.contains_many.points": "count",
    "geometry.contains_many.s": "s",
    "geometry.chords_per_point": "ratio",
    "quadrature.chord_grid.cold_s": "s",
    "quadrature.assembly.self_s": "s",
    "quadrature.coarse_share": "fraction",
    "quadrature.cache.hits": "count",
    "quadrature.cache.misses": "count",
    "quadrature.volume_integral.s": "s",
    "fields.eval.points": "count",
    "fields.eval.s": "s",
    "trace.chord_trace_values.s": "s",
    "calculus.integration_by_parts.s": "s",
    "calculus.nu_value.s": "s",
    "trace.consistency_report.s": "s",
    "trace.probes": "count",
    "trace.shared_ratio": "ratio",
    "trace.lookup_s_per_probe": "s",
    "measure.measure_atoms.s": "s",
    "measure.atoms": "count",
    "fractal.cantor_gaps.s": "s",
    "fractal.staircase_levels.s": "s",
    "oned.membership_report.s": "s",
    "cli.main.warm_s": "s",
    "cli.report_bytes": "bytes",
    "bench.traced_wall_s": "s",
}


class Tracer:
    """In-memory span recorder; `dump` writes the spans once, at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.task = None
        self._grids: dict = {}

    @contextmanager
    def span(self, name: str, replay: bool = False, **attrs):
        s = {"name": name, "task": self.task, "id": len(self.spans),
             "parent": self._stack[-1]["id"] if self._stack else None,
             "replay": replay, "attrs": attrs, "counts": defaultdict(float)}
        self.spans.append(s)
        self._stack.append(s)
        s["start"] = time.perf_counter()
        try:
            yield s
        finally:
            s["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, **amounts) -> None:
        if self._stack:
            counts = self._stack[-1]["counts"]
            for key, value in amounts.items():
                counts[key] += value

    def domain(self, spec: dict):
        """A fresh domain whose membership calls are counted."""
        dom = run_tasks.build_domain(spec)
        inner = dom.contains_many

        def contains_many(pts):
            t0 = time.perf_counter()
            out = inner(pts)
            self.count(member_calls=1, member_points=len(pts),
                       member_s=time.perf_counter() - t0)
            return out

        dom.contains_many = contains_many
        return dom

    def field(self, name: str):
        """A catalogue field whose value and gradient callables count points."""
        fld = fields.parse_field(name)

        def counted(fn):
            def wrapper(pts):
                t0 = time.perf_counter()
                out = fn(pts)
                self.count(eval_points=len(pts), eval_s=time.perf_counter() - t0)
                return out
            return wrapper

        return dataclasses.replace(fld, _eval=counted(fld._eval), _grad=counted(fld._grad))

    def grid(self, dom, theta, n_offsets: int, coarse: bool):
        """Request one chord grid; a miss also times its slicing on its own.

        A hit means chord_grid returned the very object it returned for the
        same key before.
        """
        key = (dom.cache_key(), theta.key(), int(n_offsets))
        with self.span("quadrature.chord_grid", coarse=coarse) as s:
            g = quadrature.chord_grid(dom, theta, n_offsets)
        ref = self._grids.get(key)
        s["attrs"]["hit"] = ref is not None and ref() is g
        self._grids[key] = weakref.ref(g)
        if not s["attrs"]["hit"]:
            with self.span("geometry.slice_lines", replay=True, grid=s["id"]) as r:
                rows, flags = geometry.slice_lines(dom, theta, g.offsets)
            r["attrs"].update(offsets=len(g.offsets), flagged=int(np.count_nonzero(flags)),
                              chords=int(sum(len(row) for row in rows)))
        return g

    def dump(self, path) -> None:
        path.write_text(json.dumps(
            [dict(s, counts=dict(s["counts"])) for s in self.spans]) + "\n")


def _task_grids(tr, task, dom):
    for g in task.get("grids", ()):
        for theta in run_tasks.grid_directions(g):
            tr.grid(dom, theta, g["ny"], coarse=g is not task["grids"][0])


def setup(tr, task_list, warm: bool) -> dict:
    """Traced set-up: build the domains and, when warm, every grid."""
    domains = {}
    for key, spec in run_tasks.task_domains(task_list).items():
        with tr.span("fractal.named_domain"):
            domains[key] = tr.domain(spec)
    if warm:
        for task in task_list:
            if "domain" in task:
                _task_grids(tr, task, domains[run_tasks.domain_key(task["domain"])])
    return domains


def _replay_grid_cli(tr, task, dom):
    """measure, ibp, trace or lebesgue: grids, then the layer calls, then the CLI."""
    opts = cli_options(task["argv"])
    _task_grids(tr, task, dom)
    theta = run_tasks.grid_directions(task["grids"][0])[0]
    spec = QuadratureSpec(n_offsets=int(opts.get("--ny", 4096)),
                          gauss_order=int(opts.get("--gauss", 8)))
    fine = quadrature.chord_grid(dom, theta, spec.n_offsets)
    command = task["command"]
    if command == "measure":
        with tr.span("measure.measure_atoms", replay=True) as s:
            mu = measure.measure_atoms(dom, theta, spec)
        s["attrs"]["atoms"] = mu.n_atoms
        return
    if command == "ibp":
        u, v = tr.field(opts["--u"]), tr.field(opts["--v"])
        with tr.span("calculus.integration_by_parts", replay=True):
            calculus.integration_by_parts(u, v, dom, theta, spec)
        fld = u
    else:
        fld = tr.field(opts["--field"])
    with tr.span("trace.chord_trace_values", replay=True):
        trace.chord_trace_values(fld, fine, spec.gauss_order)


def _replay_consistency(tr, task, dom):
    """A consistency report, CLI or API: the probe lookups, then the report."""
    if task["kind"] == "cli":
        opts = cli_options(task["argv"])
        field_name, ny, probes = opts["--field"], int(opts["--ny"]), PROBES_PER_DIRECTION
        gauss = int(opts.get("--gauss", 8))
    else:
        field_name, ny, probes, gauss = task["field"], task["ny"], task["probes"], task["gauss"]
    spec = QuadratureSpec(n_offsets=ny, gauss_order=gauss)
    directions = run_tasks.grid_directions(task["grids"][0])
    _task_grids(tr, task, dom)
    points = []
    for theta in directions:
        with tr.span("measure.measure_atoms", replay=True) as s:
            mu = measure.measure_atoms(dom, theta, spec)
        s["attrs"]["atoms"] = mu.n_atoms
        stride = max(1, mu.n_atoms // probes)
        points.append(mu.points[::stride])
    points = np.concatenate(points)
    for theta in directions:
        with tr.span("trace.probe_lookup", replay=True, lookups=len(points)):
            geometry.slice_lines(dom, theta, points @ theta.perp_vector)
    with tr.span("trace.consistency_report") as s:
        report = trace.consistency_report(tr.field(field_name), dom, directions, spec,
                                          probes_per_direction=probes)
    s["attrs"].update(probes=report.n_probes, shared=report.n_shared)
    if task["kind"] == "api":
        return oracle.check_api(task, report, directions[0].vector, dom.volume)
    # The CLI would only repeat the report, so it is judged as the CLI's.
    return oracle.check_cli(task, 0, {"results": report.to_json()})


def _replay_cli_extras(tr, task):
    """Layer calls of the nu, staircase and oned commands."""
    opts, command = cli_options(task["argv"]), task["command"]
    if command == "nu":
        fld = tr.field(opts["--field"])
        with tr.span("calculus.nu_value", replay=True):
            for n in range(int(opts["--levels"]) + 1):
                calculus.nu_value(fld, n)
                calculus.nu_value(fld, n, mirror=True)
    elif command == "staircase":
        ratio, level = float(opts["--ratio"]), int(opts["--level"])
        with tr.span("fractal.cantor_gaps", replay=True):
            gaps = fractal.cantor_gaps(ratio, level, "third")
        with tr.span("fractal.staircase_levels", replay=True):
            fractal.staircase_levels(gaps, 0.0, 1.0, int(opts["--pmax"]))
    elif command == "oned":
        dom = run_tasks.build_domain(task["domain"])
        u = oned.PiecewiseH1.from_field(tr.field(opts["--field"]), dom.intervals)
        with tr.span("oned.membership_report", replay=True):
            oned.membership_report(u)


def replay(tr, task, domains, out_dir):
    """Replay one task; returns its oracle verdict."""
    if task["kind"] == "api" and task["call"] == "consistency_report":
        return _replay_consistency(tr, task, domains[run_tasks.domain_key(task["domain"])])
    if task["kind"] == "api":
        dom = domains[run_tasks.domain_key(task["domain"])]
        theta = run_tasks.grid_directions(task["direction"])[0]
        _task_grids(tr, task, dom)
        with tr.span(task["call"]):
            result = run_tasks.call_api(task, dom, theta, tr.field)
        return oracle.check_api(task, result, theta.vector, dom.volume)
    command = task["command"]
    dom = tr.domain(task["domain"]) if "domain" in task else None
    if command == "consistency":
        return _replay_consistency(tr, task, dom)
    if command in ("measure", "ibp", "trace", "lebesgue"):
        _replay_grid_cli(tr, task, dom)
    else:
        if "grids" in task:
            _task_grids(tr, task, dom)
        _replay_cli_extras(tr, task)
    with tr.span("cli.main") as s:
        code = run_tasks.run_cli(task["argv"], out_dir)
    report, size, _ = run_tasks.collect_reports(out_dir)
    s["attrs"]["bytes"] = size
    return oracle.check_cli(task, code, report)


def per_layer(tr) -> dict:
    """Per-layer metrics over the set-up and one pass of the task list."""
    spans = tr.spans
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(dur(s) for s in named(name))

    def in_replay(s):
        while s is not None:
            if s["replay"]:
                return True
            s = by_id.get(s["parent"])
        return False

    real = [s for s in spans if not in_replay(s)]
    slices = named("geometry.slice_lines")
    grids = named("quadrature.chord_grid")
    cold = [g for g in grids if not g["attrs"]["hit"]]
    cold_s = sum(dur(g) for g in cold)
    slice_of = {s["attrs"]["grid"]: dur(s) for s in slices}
    sliced_points = sum(s["counts"]["member_points"] for s in slices)
    probes = named("trace.probe_lookup")
    lookups = sum(s["attrs"]["lookups"] for s in probes)
    reports = named("trace.consistency_report")
    n_probes = sum(s["attrs"]["probes"] for s in reports)
    atoms = named("measure.measure_atoms")
    tasks_spans = [s for s in spans if s["name"] == "task"]
    replay_children = defaultdict(float)
    for s in spans:
        if s["replay"] and s["parent"] is not None and by_id[s["parent"]]["name"] == "task":
            replay_children[s["parent"]] += dur(s)

    values = {
        "geometry.slice_lines.s": sum(dur(s) for s in slices),
        "geometry.slice_lines.calls": len(slices),
        "geometry.offsets": sum(s["attrs"]["offsets"] for s in slices),
        "geometry.chords": sum(s["attrs"]["chords"] for s in slices),
        "geometry.flagged_offsets": sum(s["attrs"]["flagged"] for s in slices),
        "geometry.contains_many.calls": sum(s["counts"]["member_calls"] for s in real),
        "geometry.contains_many.points": sum(s["counts"]["member_points"] for s in real),
        "geometry.contains_many.s": sum(s["counts"]["member_s"] for s in real),
        "geometry.chords_per_point": (sum(s["attrs"]["chords"] for s in slices) / sliced_points
                                      if sliced_points else 0.0),
        "quadrature.chord_grid.cold_s": cold_s,
        "quadrature.assembly.self_s": sum(dur(g) - slice_of.get(g["id"], 0.0) for g in cold),
        "quadrature.coarse_share": (sum(dur(g) for g in cold if g["attrs"]["coarse"]) / cold_s
                                    if cold_s else 0.0),
        "quadrature.cache.hits": len(grids) - len(cold),
        "quadrature.cache.misses": len(cold),
        "quadrature.volume_integral.s": total("volume_integral"),
        "fields.eval.points": sum(s["counts"]["eval_points"] for s in spans),
        "fields.eval.s": sum(s["counts"]["eval_s"] for s in spans),
        "trace.chord_trace_values.s": total("trace.chord_trace_values"),
        "calculus.integration_by_parts.s": (total("calculus.integration_by_parts")
                                            + total("integration_by_parts")),
        "calculus.nu_value.s": total("calculus.nu_value"),
        "trace.consistency_report.s": total("trace.consistency_report"),
        "trace.probes": n_probes,
        "trace.shared_ratio": (sum(s["attrs"]["shared"] for s in reports) / n_probes
                               if n_probes else 0.0),
        "trace.lookup_s_per_probe": sum(dur(s) for s in probes) / lookups if lookups else 0.0,
        "measure.measure_atoms.s": sum(dur(s) for s in atoms),
        "measure.atoms": sum(s["attrs"]["atoms"] for s in atoms),
        "fractal.cantor_gaps.s": total("fractal.cantor_gaps"),
        "fractal.staircase_levels.s": total("fractal.staircase_levels"),
        "oned.membership_report.s": total("oned.membership_report"),
        "cli.main.warm_s": total("cli.main"),
        "cli.report_bytes": sum(s["attrs"]["bytes"] for s in named("cli.main")),
        "bench.traced_wall_s": sum(dur(t) - replay_children[t["id"]] for t in tasks_spans
                                   if t["task"] != "setup"),
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
