"""Correctness oracle for benchmark tasks.

Each finished task gets a verdict with four parts:

- `failed`: the task raised, exited with a code its own report does not
  explain, or wrote a missing or non-finite report.
- `exact`: the task has a value known in closed form (a domain volume, a
  polynomial integral over the square or triangle, or the two sides of an
  integration-by-parts identity).
- `dishonest`: for such a task, |value - exact| exceeds the error the
  program reported.  Known defects show here; nothing is filtered.
- `wrong`: the value is grossly off (more than `GROSS` relative to the
  exact value), or a smooth field was refuted by the consistency check.
  A wrong task makes the whole run incorrect; a dishonest one does not,
  because the seed program has dishonest error bars (ROADMAP item 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from workloads import cli_options

# Relative deviation from an exact value beyond which a result is wrong,
# not merely dishonest.  The worst deviation at the seed is the bicone
# with dropped flagged offsets, 3.3e-2 on a volume of 3.93.
GROSS = 0.1

# Polynomial catalogue fields as {(i, j): coefficient} of x1**i * x2**j.
POLY = {
    "one": {(0, 0): 1.0},
    "x1": {(1, 0): 1.0},
    "x2": {(0, 1): 1.0},
    "x1x2": {(1, 1): 1.0},
    "x1px2": {(1, 0): 1.0, (0, 1): 1.0},
}

# CLI report key that decides between exit codes 0 and 3.
_GATES = {"measure": "mass_matches_volume", "ibp": "within_tolerance",
          "trace": "holds", "lebesgue": "within_bound", "staircase": "holds"}

# Report entries that must be finite numbers, per CLI command.
_FINITE = {
    "measure": ("total_mass", "error"),
    "ibp": ("lhs", "rhs", "err_lhs", "err_rhs"),
    "trace": ("trace_norm_sq", "norm_theta_sq", "error"),
    "lebesgue": (),
    "nu": ("h1_norm", "tail_bound"),
    "staircase": ("segments",),
    "oned": (),
    "consistency": ("max_spread", "disagreement_mass", "tolerance"),
}


@dataclass
class Verdict:
    failed: bool = False
    exact: bool = False
    dishonest: bool = False
    wrong: bool = False
    notes: list = field(default_factory=list)


def _mul(p, q):
    out = {}
    for (i, j), a in p.items():
        for (k, m), b in q.items():
            out[(i + k, j + m)] = out.get((i + k, j + m), 0.0) + a * b
    return out


def _deriv(p, axis):
    out = {}
    for (i, j), c in p.items():
        power = (i, j)[axis]
        if power:
            key = (i - 1, j) if axis == 0 else (i, j - 1)
            out[key] = out.get(key, 0.0) + c * power
    return out


def _integral(p, polygon):
    """Integral over the unit square or the unit right triangle."""
    total = 0.0
    for (i, j), c in p.items():
        if polygon == "square":
            total += c / ((i + 1) * (j + 1))
        else:
            total += c * math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)
    return total


def _polygon(domain):
    return domain["name"] if domain["name"] in ("square", "triangle") else None


def ibp_exact(u, v, domain, theta):
    """Exact integral of u dv/dtheta + v du/dtheta, or None."""
    polygon = _polygon(domain)
    if polygon is None or u not in POLY or v not in POLY:
        return None
    uv = _mul(POLY[u], POLY[v])
    return sum(t * _integral(_deriv(uv, a), polygon) for a, t in enumerate(theta))


def volume_exact(f, domain, volume):
    polygon = _polygon(domain)
    if polygon is not None and f in POLY:
        return _integral(POLY[f], polygon)
    return volume if f == "one" else None


def h1_exact(f, domain):
    polygon = _polygon(domain)
    if polygon is None or f not in POLY:
        return None
    p = POLY[f]
    sq = _mul(p, p)
    for axis in (0, 1):
        d = _deriv(p, axis)
        for key, c in _mul(d, d).items():
            sq[key] = sq.get(key, 0.0) + c
    return math.sqrt(_integral(sq, polygon))


def _finite(*values) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in values)


def _compare(verdict, label, value, exact, error):
    """Book one exact comparison; error None means no error was reported."""
    verdict.exact = verdict.exact or error is not None
    diff = abs(value - exact)
    if error is not None and diff > error:
        verdict.dishonest = True
        verdict.notes.append(f"{label}: |{value!r} - {exact!r}| = {diff:.3e} "
                             f"> reported error {error:.3e}")
    if diff > GROSS * max(abs(exact), 1.0):
        verdict.wrong = True
        verdict.notes.append(f"{label}: {value!r} is far from exact {exact!r}")


def check_cli(task, code, report) -> Verdict:
    """Verdict for a CLI task from its exit code and JSON report."""
    v = Verdict()
    command = task["command"]
    if report is None:
        v.failed = True
        v.notes.append(f"exit {code}, no report written")
        return v
    res = report["results"]
    gate = _GATES.get(command)
    expected = 0 if gate is None or res.get(gate, True) else 3
    if code != expected:
        v.failed = True
        v.notes.append(f"exit {code}, report implies {expected}")
    if not _finite(*(res.get(k) for k in _FINITE[command])):
        v.failed = True
        v.notes.append("missing or non-finite report values")
        return v
    if command == "lebesgue" and not all(
            _finite(c["deviation_sq"], c["bound"], c["error"]) for c in res["checks"]):
        v.failed = True
        v.notes.append("non-finite lebesgue check")
        return v
    if command == "measure" and "volume" in res:
        _compare(v, "mass vs volume", res["total_mass"], res["volume"], res["error"])
    elif command == "ibp":
        _compare(v, "ibp lhs vs rhs", res["lhs"], res["rhs"],
                 res["err_lhs"] + res["err_rhs"])
        opts = cli_options(task["argv"])
        exact = ibp_exact(opts["--u"], opts["--v"], task["domain"], res["theta"])
        if exact is not None:
            _compare(v, "ibp lhs vs closed form", res["lhs"], exact, res["err_lhs"])
    elif command == "consistency":
        _smooth_not_refuted(v, cli_options(task["argv"])["--field"], res)
    return v


def _smooth_not_refuted(v, field_name, report):
    if field_name == "x1x2" and report["verdict"] != "in":
        v.wrong = True
        v.notes.append("smooth field x1x2 refuted by the consistency check")


def check_api(task, result, theta, volume) -> Verdict:
    """Verdict for an API task from its return value."""
    v = Verdict()
    call, domain = task["call"], task["domain"]
    if call in ("integration_by_parts", "paired_identity"):
        if call == "integration_by_parts":
            lhs, rhs, el, er = result.lhs, result.rhs, result.err_lhs, result.err_rhs
        else:
            lhs, rhs = result.volume_pairing, result.bracket
            el, er = result.err_volume, result.err_bracket
        if not _finite(lhs, rhs, el, er):
            v.failed = True
            v.notes.append("non-finite identity sides")
            return v
        _compare(v, f"{call} sides", lhs, rhs, el + er)
        exact = ibp_exact(task["u"], task["v"], domain, theta)
        if exact is not None:
            _compare(v, f"{call} volume side vs closed form", lhs, exact, el)
    elif call == "volume_integral":
        if not _finite(result.value, result.error):
            v.failed = True
            v.notes.append("non-finite integral")
            return v
        exact = volume_exact(task["field"], domain, volume)
        if exact is not None:
            _compare(v, "volume integral vs closed form", result.value, exact,
                     result.error)
    elif call == "h1_norm":
        if not _finite(result):
            v.failed = True
            v.notes.append("non-finite H1 norm")
            return v
        exact = h1_exact(task["field"], domain)
        if exact is not None:
            _compare(v, "H1 norm vs closed form", result, exact, None)
    elif call == "trace_inequalities":
        if not _finite(result.trace_sq, result.norm_theta_sq, result.error):
            v.failed = True
            v.notes.append("non-finite trace norms")
    elif call == "consistency_report":
        report = result.to_json()
        if not _finite(*(report[k] for k in _FINITE["consistency"])):
            v.failed = True
            v.notes.append("missing or non-finite report values")
            return v
        _smooth_not_refuted(v, task["field"], report)
    elif call == "lebesgue_comparison":
        if not _finite(result.deviation_sq, result.bound, result.error):
            v.failed = True
            v.notes.append("non-finite lebesgue check")
    return v
