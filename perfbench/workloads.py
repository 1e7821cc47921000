"""Seeded task lists for the four benchmark workloads.

A task is a plain dict.  CLI tasks carry the exact `argv` handed to
`dirtrace.cli.main`; API tasks name one public call and its inputs.  Every
task also lists the chord grids it reads (`grids`), so the warm workloads
can build them during set-up and the traced run can request them itself.

The seed draws the angles, the fields of the grid commands and API
calls, the Gauss orders of the consistency reports, the Lebesgue depths
and the task order.  It does not move the cost of a pass: every seed gets
the same (domain, command, offset count) slots; closed-form and warm-grid
angles are drawn in narrow windows around a fixed angle of their slot (or
that angle plus pi, the same lines), and axis slots keep their family;
on the fractal domains and the comb, where scan-and-bisect cost jumps
with the smallest change of angle, the angles are fixed and the seed
draws only the fields and the order.

Tasks marked `"timed": False` (the README examples of the cold and the
consistency workloads) take as long as a whole pass of the other tasks;
they run, and are judged, only in the traced run.
"""

from __future__ import annotations

import itertools
import math
import random

# Workloads BENCHMARK.json gates on.
WORKLOADS = ("closed_form_sweep", "consistency_warm", "warm_reductions")

# Workloads that run by name (and with --workload all) but are not gated:
# on a shared host the scaled times of oblique_fractal still spread by
# 10-18% between runs (README.md, "Steadiness").
UNGATED = ("oblique_fractal",)

# Workloads whose grid cache is cleared before every task.
COLD = ("oblique_fractal", "closed_form_sweep")

# Workloads whose angles are the same for every seed (see _FRACTAL_SLOTS);
# consistency_warm has direction tables, not angles.
FIXED_ANGLES = ("oblique_fractal", "consistency_warm")

# Half-widths of the angle windows: the warm grids, the closed-form sweep.
_WINDOW = 0.005
_SWEEP_WINDOW = 0.1

# Smooth catalogue fields; all but sincos are polynomials with exact
# integrals on the square and the triangle.
_IBP_FIELDS = ("x1", "x2", "x1x2", "x1px2", "sincos")
_POLY_FIELDS = ("one", "x1", "x2", "x1x2", "x1px2")

# The README's command examples, with the flags the parser takes.  The
# consistency example gets `--ny 1024`, the offset count of its workload.
README = {
    "ibp": ["ibp", "--domain", "square", "--u", "x1x2", "--v", "x1px2",
            "--ny", "4096"],
    "measure": ["measure", "--domain", "omega_C", "--angle", "0.35",
                "--ny", "1024"],
    "trace": ["trace", "--domain", "cusp", "--field", "cusp_pow",
              "--ny", "4096"],
    "lebesgue": ["lebesgue", "--domain", "square", "--field", "x1x2"],
    "nu": ["nu", "--domain", "omega_C", "--field", "sign_y", "--levels", "8"],
    "staircase": ["staircase", "--ratio", "0.3333333333333333", "--level",
                  "12", "--pmax", "12"],
    "oned": ["oned", "--domain", "crack_interval", "--field", "crack_1d"],
    "consistency": ["consistency", "--domain", "bicone", "--field", "sign_y",
                    "--directions", "8", "--ny", "1024"],
}

def _oblique(rng: random.Random, phi: float, window: float = _WINDOW) -> float:
    """An angle within `window` of phi, or of phi + pi.

    phi and phi + pi give the same lines traversed the other way, so the
    draw moves the inputs without moving the cost.  Mirrored angles
    (pi - phi) are not drawn: the triangle, the crack and the disk slice
    differently there.
    """
    a = phi + rng.uniform(-window, window)
    return rng.choice((a, a + math.pi))


def _domain_args(domain: dict) -> list[str]:
    args = ["--domain", domain["name"]]
    if "level" in domain:
        args += ["--level", str(domain["level"])]
    return args


def cli_options(argv: list[str]) -> dict:
    """The `--flag value` pairs of a CLI task's argv, after the subcommand."""
    return dict(zip(argv[1::2], argv[2::2]))


def _cli_task(argv: list[str]) -> dict:
    """A CLI task, with the domain, direction and grids its argv implies."""
    opts = cli_options(argv)
    task = {"kind": "cli", "command": argv[0], "argv": list(argv)}
    if "--domain" not in opts:
        return task
    domain = {"name": opts["--domain"]}
    if "--level" in opts:
        domain["level"] = int(opts["--level"])
    task["domain"] = domain
    ny = int(opts.get("--ny", 4096))
    if argv[0] == "consistency":
        task["directions"] = int(opts["--directions"])
        task["grids"] = [{"table": task["directions"], "ny": n}
                         for n in (ny, ny // 2)]
    elif argv[0] == "nu":
        task["grids"] = [{"theta": 0, "ny": n} for n in (ny, ny // 2)]
    elif argv[0] != "oned":
        if "--angle" in opts:
            where = {"angle": float(opts["--angle"])}
        else:
            where = {"theta": int(opts.get("--theta", 0))}
        task["grids"] = [dict(where, ny=n) for n in (ny, ny // 2)]
    return task


def _grid_command(rng, command, domain, direction, ny):
    argv = [command] + _domain_args(domain)
    if "angle" in direction:
        argv += ["--angle", repr(direction["angle"])]
    else:
        argv += ["--theta", str(direction["theta"])]
    argv += ["--ny", str(ny)]
    if command == "ibp":
        u, v = rng.sample(_IBP_FIELDS, 2)
        argv += ["--u", u, "--v", v]
    elif command in ("trace", "lebesgue"):
        argv += ["--field", rng.choice(_IBP_FIELDS)]
    return _cli_task(argv)


def _untimed(task: dict) -> dict:
    task["timed"] = False
    return task


# oblique_fractal slots of every fractal domain: (command, angle).
# Scan-and-bisect cost moves by up to 1.6x when the angle moves by
# 0.005 rad, and a command's own work differs from another's by a tenth
# of the task, so both are fixed; the seed draws the fields and the order.
_FRACTAL_SLOTS = (("measure", 0.30), ("measure", 0.55), ("ibp", 0.75),
                  ("trace", 1.20))


def _oblique_fractal(rng):
    tasks = [_untimed(_cli_task(README["measure"]))]
    for name in ("omega_C", "bicone", "cusp"):
        for command, phi in _FRACTAL_SLOTS:
            tasks.append(_grid_command(rng, command, {"name": name}, {"angle": phi}, 96))
    return tasks


# closed_form_sweep: per command, the centre of its oblique angle window
# and its axis (index 0 of the CLI's 16-direction table is horizontal,
# 4 vertical; the seed may add 8, the same axis reversed).
_SWEEP = {"measure": (0.35, 0), "ibp": (0.60, 4), "trace": (0.95, 0),
          "lebesgue": (1.20, 4)}


def _closed_form_sweep(rng):
    tasks = [_untimed(_cli_task(README[k])) for k in ("ibp", "lebesgue", "trace")]
    for name in ("square", "triangle", "crack_square", "disk_minus_cantor"):
        for command, (phi, axis) in _SWEEP.items():
            for direction in ({"theta": axis + rng.choice((0, 8))},
                              {"angle": _oblique(rng, phi, _SWEEP_WINDOW)}):
                tasks.append(_grid_command(rng, command, {"name": name},
                                           direction, 256))
    # The level-8 comb's cost moves fast with the angle (1.7-5.6 s per
    # 1024-offset measure), so its angle is fixed and its offsets few.
    comb = {"name": "cantor_comb", "level": 8}
    tasks.append(_grid_command(rng, "measure", comb, {"angle": 1.3}, 128))
    return tasks


# Probes per direction of the timed consistency reports, a quarter of the
# default (160, which the CLI uses): a report's cost is proportional to
# its probes, and at the default one pass of the workload takes 3-5 s.
_PROBES = 40


def _consistency_warm(rng):
    # The cost of a report depends on its domain, field and direction
    # count, so those are fixed; the seed draws the Gauss orders (the
    # crack_square reports run at both) and the order of the tasks.
    # The README example (bicone, 8 directions, 160 probes per direction)
    # takes 9-10 s, most of a run, so it runs only in the traced run.
    tasks = [_untimed(_cli_task(README["consistency"]))]
    # The square needs oblique directions: with the four axis directions
    # no probed boundary point is reached from two of them, and the
    # report fails.
    slots = [("square", 8, "sign_y", rng.choice((8, 16)))]
    slots += [("crack_square", 4, f, g) for f in ("sign_y", "x1x2", "crack_2d")
              for g in (8, 16)]
    slots += [(name, 4, f, rng.choice((8, 16)))
              for name in ("omega_C", "bicone") for f in ("sign_y", "x1x2")]
    for name, count, field, gauss in slots:
        table = {"table": count}
        tasks.append({"kind": "api", "call": "consistency_report",
                      "domain": {"name": name}, "direction": table, "ny": 1024,
                      "gauss": gauss, "field": field, "probes": _PROBES,
                      "grids": [dict(table, ny=n) for n in (1024, 512)]})
    return tasks


_API_CALLS = ("integration_by_parts", "trace_inequalities",
              "lebesgue_comparison", "volume_integral", "h1_norm",
              "paired_identity")


def _balanced(rng, choices, n):
    """n seeded draws from choices, each choice drawn equally often (to
    within one), so that the mix of inputs, and its cost, is the same for
    every seed."""
    pool = list(choices)
    rng.shuffle(pool)
    out = [pool[i % len(pool)] for i in range(n)]
    rng.shuffle(out)
    return out


def _warm_reductions(rng):
    tasks = [_cli_task(README[k]) for k in ("nu", "staircase", "oned")]
    slots = []
    for name, ny in (("square", 4096), ("triangle", 4096),
                     ("omega_C", 1024), ("cusp", 1024)):
        direction = {"angle": _oblique(rng, 0.8)}
        grids = [dict(direction, ny=n) for n in (ny, ny // 2)]
        slots += [{"kind": "api", "domain": {"name": name}, "direction": direction,
                   "ny": ny, "gauss": gauss, "grids": grids} for gauss in (8, 16)]
    polygon_slots = [s for s in slots if s["domain"]["name"] in ("square", "triangle")]
    for call in _API_CALLS:
        fields = iter(_balanced(rng, _POLY_FIELDS[1:], len(slots)))
        pairs = iter(_balanced(rng, itertools.permutations(_POLY_FIELDS[1:], 2), len(slots)))
        depths = iter(_balanced(rng, (0.1, 0.01, 0.001), len(slots)))
        # Off the polygons only the volume itself is known.
        volume_fields = iter(_balanced(rng, _POLY_FIELDS, len(polygon_slots)))
        for slot in slots:
            task = dict(slot, call=call)
            if call in ("integration_by_parts", "paired_identity"):
                task["u"], task["v"] = next(pairs)
            elif call == "volume_integral":
                task["field"] = next(volume_fields) if slot in polygon_slots else "one"
                task["panel"] = 0.1
            else:
                task["field"] = next(fields)
            if call == "lebesgue_comparison":
                task["eps"] = next(depths)
            tasks.append(task)
    return tasks


_PLANNERS = {
    "oblique_fractal": _oblique_fractal,
    "closed_form_sweep": _closed_form_sweep,
    "consistency_warm": _consistency_warm,
    "warm_reductions": _warm_reductions,
}


def plan(workload: str, seed: int) -> list[dict]:
    """The fixed task list of one workload for one seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    tasks = _PLANNERS[workload](rng)
    rng.shuffle(tasks)
    for i, task in enumerate(tasks):
        task["id"] = f"{workload}#{i:02d}"
    return tasks


def describe(task: dict) -> str:
    """One line naming the task, as a user would type or call it."""
    if task["kind"] == "cli":
        return "dirtrace " + " ".join(task["argv"])
    args = {k: v for k, v in task.items()
            if k not in ("kind", "call", "grids", "id")}
    return f"{task['call']}({args})"
