#!/usr/bin/env python3
"""dirtrace benchmark: four seeded workloads, timed end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload closed_form_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

`--trace 0` times the workload's task list and prints the end-to-end
metrics; `--trace 1` replays the same tasks as traced public calls and
prints the per-layer metrics.  `--workload all` runs every workload both
ways, each in a fresh child process, one at a time.  The last line of
output is one JSON object: correct, attempted, failed, metrics.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402  (numpy only once the kernel first runs)
import workloads  # noqa: E402  (stdlib only; dirtrace is imported later)

# Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 3

# The tail percentile is the highest one with at least this many task
# times beyond it.
TAIL_BEYOND = 10

SCRATCH = ROOT / ".perfbench"

# Thread-count variables the benchmark records; it runs single-threaded.
THREAD_VARS = ("DIRTRACE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _tail(times):
    """(percentile, value): the highest whole percentile, by nearest rank,
    with at least TAIL_BEYOND samples above it; (None, None) when too few."""
    xs = sorted(times)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return None, None


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def _provenance(args, tasks, np_version, threads_env) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tasks": len(tasks),
        "tasks_timed": sum(1 for t in tasks if t.get("timed", True)),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np_version, "git": _git_revision(),
        "threads_env_given": threads_env,
        "threads_env_used": {k: os.environ.get(k) for k in THREAD_VARS},
        "load": "closed loop, one client, tasks back to back",
    }


# Times `import dirtrace.cli` in a fresh interpreter, then the host-speed
# kernel (after the import, which brings numpy in): the import half of
# set-up, repeated in child processes because a process imports only once.
_IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import hostspeed; "
                 "t = time.perf_counter(); import dirtrace.cli; t = time.perf_counter() - t; "
                 "hostspeed.kernel(); print(t, sorted(hostspeed.seconds() for _ in range(3))[1])")


def _import_seconds() -> float:
    """Import time of dirtrace.cli at the reference speed."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True, check=True, timeout=120)
    return hostspeed.scale(*map(float, proc.stdout.split()))


def _setup(tasks_mod, quadrature, task_list, warm: bool):
    """Build every domain and, for warm workloads, every grid the tasks read.

    Returns the domains and the set-up time, each build scaled on its own
    to the reference host speed.
    """
    quadrature.clear_cache()
    meter = hostspeed.Meter()
    scaled = 0.0

    def build(fn, *args):
        nonlocal scaled
        t0 = time.perf_counter()
        out = fn(*args)
        scaled += meter.scaled(time.perf_counter() - t0)[0]
        return out

    domains = {key: build(tasks_mod.build_domain, spec)
               for key, spec in tasks_mod.task_domains(task_list).items()}
    if warm:
        grids = {}
        for task in task_list:
            if "grids" not in task:
                continue
            key = tasks_mod.domain_key(task["domain"])
            for g in task["grids"]:
                for theta in tasks_mod.grid_directions(g):
                    grids[(key, theta.key(), g["ny"])] = (domains[key], theta, g["ny"])
        for dom, theta, ny in grids.values():
            build(quadrature.chord_grid, dom, theta, ny)
    return domains, scaled


def _run_one(tasks_mod, oracle, fields, task, domains, out_dir):
    """(seconds, verdict, signature) of one untraced task."""
    cli = task["kind"] == "cli"
    if not cli:
        dom = domains[tasks_mod.domain_key(task["domain"])]
        theta = tasks_mod.grid_directions(task["direction"])[0]
    t0 = time.perf_counter()
    try:
        if cli:
            outcome = tasks_mod.run_cli(task["argv"], out_dir)
        else:
            outcome = tasks_mod.call_api(task, dom, theta, fields.parse_field)
    except Exception as exc:  # a task that raises is a failed task
        elapsed = time.perf_counter() - t0
        tasks_mod.collect_reports(out_dir)
        return elapsed, oracle.Verdict(failed=True, notes=[repr(exc)]), repr(exc)
    elapsed = time.perf_counter() - t0
    if cli:
        report, _, digest = tasks_mod.collect_reports(out_dir)
        return elapsed, oracle.check_cli(task, outcome, report), (outcome, digest)
    return elapsed, oracle.check_api(task, outcome, theta.vector, dom.volume), repr(outcome)


def _passes(args, task_list, run_task):
    """Run the task list back to back until the time is up (at least once).

    Another pass starts only if it is expected to end within --seconds.
    The host-speed kernel runs between tasks.  Returns per-pass lists of
    (task, seconds, verdict, signature, scaled seconds, kernel seconds).
    """
    passes = []
    start = time.perf_counter()
    meter = hostspeed.Meter()
    while True:
        t0 = time.perf_counter()
        rows = []
        for task in task_list:
            outcome = tuple(run_task(task))
            rows.append((task,) + outcome + meter.scaled(outcome[0]))
        passes.append(rows)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > args.seconds:
            return passes


def _summarise(passes):
    """Correctness totals and the offending tasks of a run."""
    execs = [e for p in passes for e in p]
    attempted = len(execs)
    failed = sum(1 for e in execs if e[2].failed)
    exact = [e for e in execs if e[2].exact]
    dishonest = sum(1 for e in exact if e[2].dishonest)
    first = {}
    nondeterministic = []
    for task, _, _, sig, *_ in execs:
        if task["id"] in first and first[task["id"]] != sig:
            nondeterministic.append(task["id"])
        first.setdefault(task["id"], sig)
    offenders = []
    for task, _, verdict, *_ in passes[0]:
        kinds = [k for k in ("failed", "wrong", "dishonest") if getattr(verdict, k)]
        if task["id"] in nondeterministic:
            kinds.append("nondeterministic")
        if kinds:
            offenders.append({"id": task["id"], "kinds": kinds,
                              "task": workloads.describe(task), "notes": verdict.notes})
    correct = (failed == 0 and not nondeterministic
               and not any(e[2].wrong for e in execs))
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "dishonest_frac": dishonest / len(exact) if exact else None,
        "exact_tasks": len(exact), "dishonest_tasks": dishonest,
        "offenders": offenders,
    }


def _timed(args, task_list, out_dir):
    """Set-up and timed passes over the timed tasks of the list."""
    import tasks as tasks_mod
    import oracle
    from dirtrace import fields, quadrature

    cold = args.workload in workloads.COLD
    task_list = [t for t in task_list if t.get("timed", True)]
    imports = [_import_seconds() for _ in range(SETUP_REPEATS)]
    setups, domains = [], None
    for _ in range(SETUP_REPEATS):
        domains, scaled = _setup(tasks_mod, quadrature, task_list, warm=not cold)
        setups.append(scaled)

    def run_task(task):
        if cold:
            quadrature.clear_cache()
        return _run_one(tasks_mod, oracle, fields, task, domains, out_dir)

    passes = _passes(args, task_list, run_task)
    # One time per task: its median over the passes, each execution scaled
    # to the reference host speed (hostspeed.py; README.md, "Steadiness").
    # One time per task keeps the task percentiles independent of how many
    # passes fit in --seconds.
    per_task = {task["id"]: statistics.median(p[i][4] for p in passes)
                for i, task in enumerate(task_list)}
    raw = {task["id"]: statistics.median(p[i][1] for p in passes)
           for i, task in enumerate(task_list)}
    times = list(per_task.values())
    pct, tail = _tail(times)
    summary = _summarise(passes)
    summary.update(passes=len(passes), first_pass_s=sum(e[1] for e in passes[0]),
                   unscaled_wall_s=sum(raw.values()),
                   kernel_median_s=statistics.median(e[5] for p in passes for e in p),
                   task_scaled_s=per_task, tail_percentile=pct,
                   import_samples_s=imports, setup_samples_s=setups)
    metrics = {
        "wall_s": (sum(times), "s"),
        "task_p50_s": (statistics.median(times), "s"),
        "task_tail_s": (tail, "s"),
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return summary, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _traced(args, task_list, out_dir):
    import oracle
    import traced

    tr = traced.Tracer()
    warm = args.workload not in workloads.COLD
    tr.task = "setup"
    with tr.span("task"):
        domains = traced.setup(tr, task_list, warm)
    from dirtrace import quadrature

    verdicts = []
    for task in task_list:
        if not warm:
            quadrature.clear_cache()
        tr.task = task["id"]
        # Untimed tasks stay out of bench.traced_wall_s, which is compared
        # with the untraced run's first pass.
        with tr.span("task" if task.get("timed", True) else "untimed_task"):
            try:
                verdict = traced.replay(tr, task, domains, out_dir)
            except Exception as exc:  # a task that raises is a failed task
                verdict = oracle.Verdict(failed=True, notes=[repr(exc)])
        verdicts.append((task, 0.0, verdict, None))
    tr.dump(SCRATCH / f"spans_{args.workload}_{args.seed}.json")
    summary = _summarise([verdicts])
    summary.update(passes=1, spans=len(tr.spans))
    return summary, traced.per_layer(tr)


def _run_all(args) -> int:
    """Every workload, timed and then traced, each in its own child process."""
    ok = True
    for name in workloads.WORKLOADS + workloads.UNGATED:
        lines = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            out = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not out:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                break
            print("\n".join(out[:-1]))
            if trace == 0:
                first_pass = json.loads(out[-2])["summary"]["first_pass_s"]
            else:
                traced_wall = json.loads(out[-1])["metrics"]["bench.traced_wall_s"]["value"]
            lines[trace] = json.loads(out[-1])
            ok = ok and lines[trace]["correct"]
            for metric, m in lines[trace]["metrics"].items():
                print(f"{name:18s} {metric:34s} {m['value']!r:>24} {m['unit']}")
        if len(lines) == 2:
            print(f"{name:18s} {'tracing overhead (first pass)':34s} "
                  f"{traced_wall - first_pass!r:>24} s")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + workloads.UNGATED + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dirtrace" / "__init__.py").is_file():
        return _fail(f"no dirtrace sources under {ROOT / 'src'}")
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        raw = os.environ.get(var)
        if raw is not None and not (raw.isdigit() and 1 <= int(raw) <= nproc):
            return _fail(f"{var}={raw}: more threads than nproc ({nproc}) or not a count")
    if args.workload == "all":
        return _run_all(args)
    # One thread everywhere: DIRTRACE_THREADS defaults to 1 already, and
    # numpy's BLAS would otherwise start one thread per core.
    threads_env = {k: os.environ.get(k) for k in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"

    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    task_list = workloads.plan(args.workload, args.seed)
    out_dir = SCRATCH / f"reports_{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            summary, metrics = _traced(args, task_list, out_dir)
        else:
            summary, metrics = _timed(args, task_list, out_dir)
    finally:
        for path in out_dir.iterdir():
            path.unlink()
        out_dir.rmdir()

    print(json.dumps({"provenance": _provenance(args, task_list, numpy.__version__, threads_env)}))
    for off in summary.pop("offenders"):
        print("offending task: " + json.dumps(off))
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
