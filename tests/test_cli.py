"""Command line driver: files, determinism, exit codes."""

import argparse
import json
import re
import shlex
import warnings
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from dirtrace import __version__, _cantor, calculus, cli, fields, fractal, quadrature
from dirtrace.cli import _COMMANDS, _CSV_CHUNK_ROWS, _config_hash, _write_csv, build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"

FAST = ["--ny", "256"]


def run(argv, tmp_path):
    return main(argv + ["--out", str(tmp_path)] + FAST)


def test_ibp_writes_passing_report(tmp_path):
    code = run(["ibp", "--domain", "square", "--u", "x1x2", "--v", "x1px2"],
               tmp_path)
    assert code == 0
    files = list(tmp_path.glob("ibp_*.json"))
    assert len(files) == 1
    payload = json.loads(files[0].read_text())
    assert payload["results"]["within_tolerance"] is True
    assert payload["results"]["lhs"] == pytest.approx(5.0 / 6.0, abs=1e-4)
    assert payload["config_hash"] in files[0].name


def test_outputs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run(["measure", "--domain", "cusp", "--angle", "0.0"], out)
        assert code == 0
    for fa in sorted(a.iterdir()):
        fb = b / fa.name
        assert fb.exists()
        assert fa.read_bytes() == fb.read_bytes()


def test_unknown_domain_exits_2(tmp_path, capsys):
    code = run(["measure", "--domain", "heptagon"], tmp_path)
    assert code == 2
    assert "unknown domain" in capsys.readouterr().err


def _refuse_gap_tables(*args):
    raise RuntimeError("a rejected level reached the gap table")


@pytest.mark.parametrize("name", ["omega_C", "bicone", "disk_minus_cantor", "cantor_comb"])
def test_level_beyond_the_bound_exits_2(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_cantor, "sorted_gaps", _refuse_gap_tables)
    code = run(["measure", "--domain", name, "--level", str(fractal.MAX_LEVEL + 1)], tmp_path)
    assert code == 2
    assert "level must be an integer" in capsys.readouterr().err


def _readme_list(lead: str) -> list[str]:
    """The comma-separated backquoted names that follow `lead` in README,
    with line breaks read as spaces."""
    text = " ".join(README.read_text().split()).split(lead, 1)[1]
    names = re.match(r"\s*((?:`[^`]+`,\s*)*`[^`]+`)", text).group(1)
    return re.findall(r"`([^`]+)`", names)


def test_readme_lists_the_catalogues():
    assert tuple(_readme_list("Named domains:")) == fractal.DOMAIN_NAMES
    cantor = [name for name, (_, overrides) in fractal._CATALOGUE.items() if overrides]
    assert _readme_list("`--ratio/--level/--scheme` overrides:") == cantor
    assert sorted(_readme_list("Fields are named by formula:")) == list(fields.field_names())


def test_unattainable_tolerance_exits_3(tmp_path):
    code = run(["ibp", "--domain", "square", "--u", "x1x2", "--v", "x1px2",
                "--tolerance", "1e-30"], tmp_path)
    assert code == 3
    # the failing report is still written, and it says the gate failed
    files = list(tmp_path.glob("ibp_*.json"))
    assert len(files) == 1
    res = json.loads(files[0].read_text())["results"]
    assert res["within_tolerance"] is False
    assert res["tolerance"] == 1e-30


def test_attainable_tolerance_exits_0(tmp_path):
    # 1e-4 lies above the run's error bar (about 7.6e-6 at ny=256), so an
    # explicit tolerance is not failed just for being explicit
    code = run(["ibp", "--domain", "square", "--u", "x1x2", "--v", "x1px2",
                "--tolerance", "1e-4"], tmp_path)
    assert code == 0
    res = json.loads(next(tmp_path.glob("ibp_*.json")).read_text())["results"]
    assert res["err_lhs"] + res["err_rhs"] < 1e-4
    assert res["within_tolerance"] is True


def test_measure_tolerance_below_error_exits_3(tmp_path):
    # the square's mass comes out as exactly 1.0, but its error bar does not
    # support a 1e-30 gate
    code = run(["measure", "--domain", "square", "--angle", "0.0",
                "--tolerance", "1e-30"], tmp_path)
    assert code == 3
    res = json.loads(next(tmp_path.glob("measure_*.json")).read_text())["results"]
    assert res["error"] > 1e-30
    assert res["mass_matches_volume"] is False


def test_bad_flag_exits_2(tmp_path, capsys):
    assert main(["staircase", "--domain", "square"]) == 2
    capsys.readouterr()


_PARSE_CASES = (
    [["--help"], ["--version"], [], ["frob"], ["meas", "--help"],
     ["measure", "--domain", "square", "--bogus", "1"],
     ["trace", "--domain", "square"],
     ["measure", "--domain", "square", "--ny", "x"],
     ["measure", "--domain", "square", "extra"]]
    + [[name, flag] for name in _COMMANDS for flag in ("--help", "-h")]
)


@pytest.mark.parametrize("columns", ["60", "200"])
@pytest.mark.parametrize("argv", _PARSE_CASES, ids=" ".join)
def test_main_parses_as_the_full_parser_does(argv, columns, capsys, monkeypatch):
    # main builds one sub-command's parser when it can; every help text,
    # usage line, error and exit code must still be the full parser's
    monkeypatch.setenv("COLUMNS", columns)
    code = main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert (code, got.out, got.err) == (int(exc.value.code or 0), want.out, want.err)


def test_a_command_builds_only_its_own_sub_parser(tmp_path, monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting_add_parser(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    assert run(["staircase", "--level", "2", "--pmax", "2"], tmp_path) == 0
    assert built == ["staircase"]
    assert main(["--version"]) == 0
    assert built[1:] == list(_COMMANDS)
    capsys.readouterr()


@pytest.mark.parametrize("angle", ["nan", "inf"])
def test_non_finite_angle_exits_2_without_files(angle, tmp_path, capsys):
    code = main(["measure", "--domain", "square", "--angle", angle, "--ny", "64",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["consistency", "--domain", "crack_square", "--field", "crack_2d", "--directions", "4"],
    ["measure", "--domain", "square"],
    ["ibp", "--domain", "square", "--u", "x1x2", "--v", "x1px2"],
])
@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_a_bad_tolerance_exits_2_without_files(argv, tolerance, tmp_path, capsys):
    # a NaN tolerance certified the slit field "in"; a negative one failed
    # every gate, and measure and ibp exited 3 on both
    code = main(argv + ["--tolerance", tolerance, "--ny", "64", "--out", str(tmp_path)])
    assert code == 2
    assert "tolerance must be finite and non-negative" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("field", ["bump:radius=0.1", "x1:foo=2", "bump:r=nan"])
def test_a_bad_field_parameter_exits_2_without_files(field, tmp_path, capsys):
    code = main(["trace", "--domain", "square", "--field", field, "--ny", "64",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_tolerance_without_a_gate_exits_2(tmp_path, capsys):
    # trace has no tolerance gate, so the flag must not be accepted and
    # silently dropped
    code = main(["trace", "--domain", "square", "--field", "x1x2", "--ny", "64",
                 "--tolerance", "1e-30", "--out", str(tmp_path)])
    assert code == 2
    assert "--tolerance" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_mc_samples_flag_is_gone(tmp_path, capsys):
    # no subcommand runs a Monte Carlo integral, so the flag is not accepted
    code = main(["measure", "--domain", "square", "--mc-samples", "100",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "--mc-samples" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_domain_overrides_are_in_the_config(tmp_path, capsys):
    argv = ["measure", "--domain", "omega_C", "--angle", "0.35", "--ny", "64"]
    for level in (4, 5):
        assert main(argv + ["--level", str(level), "--out", str(tmp_path)]) == 0
    reports = sorted(tmp_path.glob("measure_*.json"))
    assert len(reports) == 2 and len(list(tmp_path.glob("measure_*.csv"))) == 2
    configs = [json.loads(path.read_text())["config"] for path in reports]
    assert sorted(cfg["level"] for cfg in configs) == [4, 5]
    # a run without overrides records none of them
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    config = json.loads(next((tmp_path / "plain").glob("measure_*.json")).read_text())["config"]
    assert not {"ratio", "level", "scheme"} & set(config)
    capsys.readouterr()


def test_oned_truncation_is_in_the_config(tmp_path, capsys):
    argv = ["oned", "--domain", "crack_interval", "--field", "x1", "--n", "4",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    assert main(argv + ["--truncation", "0.25"]) == 0
    reports = sorted(tmp_path.glob("oned_*.json"))
    assert len(reports) == 2
    configs = [json.loads(path.read_text())["config"] for path in reports]
    # the default run records no truncation, so its report keeps its bytes
    assert {cfg.get("truncation") for cfg in configs} == {None, 0.25}
    capsys.readouterr()


@pytest.mark.parametrize("truncation", ["-1", "0", "nan"])
@pytest.mark.parametrize("domain, field", [("cantor_complement", "x1"),
                                           ("crack_interval", "crack_1d")])
def test_oned_bad_truncation_exits_2(domain, field, truncation, tmp_path, capsys):
    # on the crack the membership is refuted and no approximant is built
    argv = ["oned", "--domain", domain, "--field", field, "--n", "4",
            "--truncation", truncation, "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "truncation must be finite and positive" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_readme_commands_run(tmp_path, capsys):
    commands = [line.strip() for line in README.read_text().splitlines()
                if line.strip().startswith("python3 -m dirtrace ")]
    assert len(commands) == 8
    for command in commands:
        argv = shlex.split(command)[3:]
        assert main(argv + ["--out", str(tmp_path / argv[0])]) == 0, command
        assert list((tmp_path / argv[0]).glob(f"{argv[0]}_*.json"))
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip()


def test_staircase_files(tmp_path):
    code = run(["staircase", "--ratio", "0.3333333333333333", "--level", "6",
                "--scheme", "third", "--pmax", "6"], tmp_path)
    assert code == 0
    payload = json.loads(next(tmp_path.glob("staircase_*.json")).read_text())
    res = payload["results"]
    assert res["holds"] and res["monotone"] and res["endpoints_exact"]
    assert all(s <= b + 1e-15 for s, b in zip(res["sup_steps"], res["sup_bounds"]))
    csv = next(tmp_path.glob("staircase_*.csv")).read_text().splitlines()
    assert csv[1] == "t,value"


def test_nu_evaluates_each_stage_once_per_height(tmp_path, monkeypatch, capsys):
    calls = []
    stage_mean = calculus._stage_mean
    monkeypatch.setattr(calculus, "_stage_mean",
                        lambda *a: calls.append(a) or stage_mean(*a))
    assert run(["nu", "--domain", "omega_C", "--field", "sign_y",
                "--levels", "8"], tmp_path) == 0
    capsys.readouterr()
    # upper and mirrored stage 0..8, none again for the increments
    assert len(calls) == 18


def test_nu_rejects_a_bad_stage_before_computing_the_norm(tmp_path, capsys):
    # cusp_pow is infinite at the mirrored heights and on the bicone's lower
    # half: the stage values are computed, and fail, before the H1 norm.
    # The configuration is valid, so this is a computation error (3), not 2
    assert run(["nu", "--domain", "bicone", "--field", "cusp_pow"], tmp_path) == 3
    assert "not finite on a stage interval" in capsys.readouterr().err


def test_consistency_rejects_traces_that_are_not_finite(tmp_path, capsys):
    # cusp_pow is infinite on the bicone's lower half: a computation error
    # (3) with no report, not probes counted as unreached
    argv = ["consistency", "--domain", "bicone", "--field", "cusp_pow", "--directions", "8"]
    assert run(argv, tmp_path) == 3
    assert "not finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["trace", "--field", "cusp_pow"],
                                  ["ibp", "--u", "cusp_pow", "--v", "x1"],
                                  ["lebesgue", "--field", "cusp_pow"]], ids=lambda a: a[0])
def test_trace_commands_reject_fields_that_are_not_finite(argv, tmp_path, capsys):
    # cusp_pow is infinite on the bicone's lower half: a computation error
    # (3) with no report and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--domain", "bicone"], tmp_path) == 3
    err = capsys.readouterr().err
    assert "not finite" in err and "Warning" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("levels", [-1, fractal.MAX_LEVEL + 1])
def test_nu_rejects_levels_out_of_range_before_computing(levels, tmp_path, monkeypatch,
                                                         capsys):
    # stage n builds nodes on 2**n intervals: never run a stage past the bound,
    # nor the stages before it
    calls = []

    def refuse(*args, **kwargs):
        raise RuntimeError("a rejected --levels reached the computation")

    monkeypatch.setattr(calculus, "_stage_mean", lambda *a: calls.append(a) or 0.0)
    monkeypatch.setattr(quadrature, "h1_norm", refuse)
    code = main(["nu", "--domain", "omega_C", "--field", "sign_y", "--levels", str(levels),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "--levels" in capsys.readouterr().err
    assert calls == []
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["--domain", "omega_C", "--ratio", "0.25", "--scheme", "rho"],
    ["--domain", "omega_C", "--ratio", "0.25"],
    ["--domain", "omega_C", "--scheme", "rho"],
    ["--domain", "bicone", "--ratio", "0.2"],
    ["--domain", "square", "--field", "x2"],
    ["--domain", "disk_minus_cantor"],
    ["--domain", "cantor_comb", "--ratio", "0.3333333333333333", "--scheme", "third"],
])
def test_nu_rejects_domains_off_the_middle_thirds_stages(argv, tmp_path, monkeypatch, capsys):
    # the stages are the middle-thirds cone union's, whatever the domain:
    # on any other domain they would be reported under its config
    calls = []
    monkeypatch.setattr(calculus, "_stage_mean", lambda *a: calls.append(a) or 0.0)
    field = [] if "--field" in argv else ["--field", "sign_y"]
    assert main(["nu", *argv, *field, "--levels", "3", "--ny", "256",
                 "--out", str(tmp_path)]) == 2
    # a ratio other than 1/3 with the default scheme fails as it does in
    # every command: the domain refuses it
    assert "configuration error" in capsys.readouterr().err
    assert calls == [] and not list(tmp_path.iterdir())


def test_nu_takes_the_middle_thirds_domains_at_any_level(tmp_path, capsys):
    for argv in (["--domain", "omega_C", "--ratio", "0.3333333333333333", "--scheme", "third"],
                 ["--domain", "cone_union_cantor", "--level", "8"],
                 ["--domain", "bicone", "--level", "6"]):
        assert run(["nu", *argv, "--field", "sign_y", "--levels", "2"], tmp_path) == 0
    capsys.readouterr()


def test_nu_levels_stop_at_the_cost_cap(tmp_path, monkeypatch, capsys):
    # the gap tables reach stage 24, but past calculus.MAX_STAGE each stage
    # doubles the time and memory of the last: the cap is a configuration
    # error that names itself and its reason
    calls = []
    monkeypatch.setattr(calculus, "_stage_mean", lambda *a: calls.append(a) or 0.0)
    assert main(["nu", "--domain", "omega_C", "--field", "sign_y",
                 "--levels", str(calculus.MAX_STAGE + 1), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"[0, {calculus.MAX_STAGE}]" in err and "doubles time and memory" in err
    assert calls == [] and not list(tmp_path.iterdir())
    assert run(["nu", "--domain", "omega_C", "--field", "sign_y",
                "--levels", str(calculus.MAX_STAGE)], tmp_path) == 0
    capsys.readouterr()
    assert len(calls) == 2 * (calculus.MAX_STAGE + 1)


def test_nu_gap_of_jump_field(tmp_path):
    code = run(["nu", "--domain", "bicone", "--field", "sign_y",
                "--levels", "4"], tmp_path)
    assert code == 0
    payload = json.loads(next(tmp_path.glob("nu_*.json")).read_text())
    gaps = payload["results"]["gaps"]
    assert all(g == pytest.approx(2.0, abs=1e-9) for g in gaps)


def test_trace_report(tmp_path):
    code = run(["trace", "--domain", "square", "--field", "x1x2",
                "--angle", "0.0"], tmp_path)
    assert code == 0
    payload = json.loads(next(tmp_path.glob("trace_*.json")).read_text())
    assert payload["results"]["holds"] is True
    assert payload["results"]["trace_norm_sq"] == pytest.approx(1.0 / 3.0,
                                                                abs=1e-4)


def test_oned_membership_report(tmp_path):
    code = run(["oned", "--domain", "crack_interval", "--field", "crack_1d"],
               tmp_path)
    assert code == 0
    payload = json.loads(next(tmp_path.glob("oned_*.json")).read_text())
    res = payload["results"]
    assert res["verdict"] == "out"
    assert res["witnesses"][0]["point"] == pytest.approx(1.0)


def test_lebesgue_report(tmp_path):
    code = run(["lebesgue", "--domain", "square", "--field", "x1x2",
                "--angle", "0.0", "--eps", "0.1", "0.01"], tmp_path)
    assert code == 0
    payload = json.loads(next(tmp_path.glob("lebesgue_*.json")).read_text())
    assert payload["results"]["within_bound"] is True


@pytest.mark.parametrize("eps", ["-1", "0", "nan", "inf"])
def test_lebesgue_depth_outside_the_theory_exits_2(eps, tmp_path, capsys):
    code = run(["lebesgue", "--domain", "square", "--field", "x1", "--eps", eps], tmp_path)
    assert code == 2
    assert "eps must be finite and positive" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_lebesgue_with_one_bad_depth_among_several_exits_2(tmp_path, capsys):
    code = run(["lebesgue", "--domain", "square", "--field", "x1", "--eps", "0.1", "-1"],
               tmp_path)
    assert code == 2
    assert "eps must be finite and positive" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_consistency_report_cli(tmp_path):
    code = run(["consistency", "--domain", "crack_square", "--field",
                "crack_2d", "--directions", "4"], tmp_path)
    assert code == 0
    payload = json.loads(next(tmp_path.glob("consistency_*.json")).read_text())
    assert payload["results"]["verdict"] == "out"


def _old_csv(config, header, rows):
    # the writer before chunking: one repr(float(x)) per element
    text = f"# dirtrace {__version__} config {_config_hash(config)}\n"
    text += ",".join(header) + "\n"
    for row in rows:
        text += ",".join(repr(float(x)) for x in row) + "\n"
    return text


@pytest.mark.parametrize("case", ["specials", "signed_zeros", "nan_payloads", "repeats",
                                  "empty", "long", "tuples"])
def test_csv_writer_matches_per_element_repr(tmp_path, case, capsys):
    header = ["a", "b", "c"]
    if case == "specials":
        rows = np.array([[-0.0, np.nan, np.inf], [-np.inf, 1e16, 1e-5],
                         [5e-324, 0.1, -2.5], [1.0 / 3.0, 2.0**-1074, 1e300]])
    elif case == "signed_zeros":
        # one chunk, 0.0 and -0.0 in the same column
        rows = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0], [0.0, 0.0, -1.0]])
    elif case == "nan_payloads":
        bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFF0000000000001, 0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF,
                         0x7FF4000000000000, 0x7FF8000000000000, 0xFFF8000000000000],
                        dtype=np.uint64)
        rows = bits.view(np.float64).reshape(3, 3)
        assert np.isnan(rows).all() and np.signbit(rows).any()
    elif case == "repeats":
        # few distinct values, so repeats span the chunk boundaries
        rng = np.random.default_rng(5)
        values = np.array([0.0, -0.0, 0.1, 1.0 / 3.0, -2.5, np.nan, 1e-300])
        rows = rng.choice(values, size=(2 * _CSV_CHUNK_ROWS + 11, 3))
    elif case == "empty":
        rows = np.zeros((0, 3))
    elif case == "long":
        rows = np.random.default_rng(3).standard_normal((2 * _CSV_CHUNK_ROWS + 7, 3))
        rows[::5] *= 1e-300
    else:
        # nu-style rows: an int level next to floats
        header = ["n", "y_n", "nu", "nu_mirror", "gap"]
        rows = [(n, 0.5 * 3.0**-n, 0.1 * n, -0.0, float("nan")) for n in range(4)]
    config = {"command": "measure", "case": case}
    _write_csv(Namespace(out=str(tmp_path), command="measure"), config, header, rows)
    capsys.readouterr()
    (path,) = tmp_path.glob("measure_*.csv")
    assert path.read_text() == _old_csv(config, header, rows)
