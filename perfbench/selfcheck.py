#!/usr/bin/env python3
"""Smoke-size self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks that the same seed gives the same task list, that another seed
gives another task list and, where the workload draws angles, other
angles, that one short run of the cheapest workload prints
every metric BENCHMARK.json names (tracing off and on) and calls its
outputs correct, and that the benchmark refuses to run, printing no
result, where the dirtrace sources are missing.  Takes under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _angles(task_list):
    return sorted(t["grids"][0]["angle"] for t in task_list
                  if "angle" in t.get("grids", [{}])[0])


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, check=False, timeout=180)


def main() -> int:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {workloads.WORKLOADS}")

    for name in workloads.WORKLOADS + workloads.UNGATED:
        first, again = workloads.plan(name, 1), workloads.plan(name, 1)
        other = workloads.plan(name, 2)
        if first != again:
            problems.append(f"{name}: seed 1 gave two different task lists")
        if first == other:
            problems.append(f"{name}: seeds 1 and 2 gave the same task list")
        if name not in workloads.FIXED_ANGLES and _angles(first) == _angles(other):
            problems.append(f"{name}: seeds 1 and 2 drew the same angles")

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", "warm_reductions", "--seed", "1",
                    "--seconds", "1", "--trace", str(trace))
        if proc.returncode != 0:
            problems.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr[-400:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"trace {trace}: result keys {sorted(result)}")
        if result["correct"] is not True:
            problems.append(f"trace {trace}: outputs judged incorrect")
        for metric in spec[key]:
            got = result["metrics"].get(metric["name"])
            if got is None or got["unit"] != metric["unit"]:
                problems.append(f"trace {trace}: metric {metric['name']} missing or mis-unit")
        extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
        if extra:
            problems.append(f"trace {trace}: metrics not in BENCHMARK.json: {sorted(extra)}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(bare, "--workload", "closed_form_sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("ran without the dirtrace sources")

    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
