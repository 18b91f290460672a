"""Command-line interface: configuration, reports, tabulation, determinism."""

import argparse
import csv
import io
import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import mipoly
from mipoly.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_default_config_passes(capsys):
    code, out, err = _run(
        capsys, "verify", "--family", "M", "--params", "1,1/2", "--deletions", "1",
        "--nmax", "2", "--xmax", "8", "--suite", "base,multi",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema"] == "mipoly-report/1"
    assert doc["summary"]["status"] == "pass"
    assert doc["summary"]["failed_suites"] == 0
    assert {s["suite"] for s in doc["suites"]} == {"base", "multi"}
    for s in doc["suites"]:
        assert {"id", "identity", "status", "checked", "witnesses"} <= set(s)


def test_verify_is_byte_deterministic(capsys):
    argv = (
        "verify", "--family", "lqL", "--params", "1/32,1/2", "--deletions", "1,2",
        "--nmax", "2", "--xmax", "8", "--suite", "virtual,casoratian",
    )
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_invalid_parameters_exit_2(capsys):
    code, out, err = _run(capsys, "verify", "--family", "M", "--params", "1,2")
    assert code == 2
    assert "requires 0 < c < 1" in err
    code, _, err = _run(capsys, "verify", "--family", "lqJ", "--params", "1/4,1/2,1/2")
    assert code == 2
    assert "degenerate parameters" in err
    # a = b q^67: the line is decided at every power, not only the first 65
    code, _, err = _run(capsys, "verify", "--family", "lqJ", "--params", "1/295147905179352825856,1/2,1/2",
                        "--deletions", "40", "--suite", "multi", "--nmax", "0", "--xmax", "0")
    assert code == 2
    assert err == "error: degenerate parameters: a = b q^67 collapses virtual-state degrees\n"
    code, _, err = _run(capsys, "verify", "--family", "X", "--params", "1,1/2")
    assert code == 2
    assert "unknown family" in err
    code, _, err = _run(capsys, "verify", "--family", "M", "--params", "1")
    assert code == 2
    assert "requires 2 parameters" in err
    code, _, err = _run(capsys, "verify", "--family", "M", "--params", "1,x")
    assert code == 2
    assert "invalid rational" in err
    code, _, err = _run(capsys, "verify", "--family", "M", "--params", "1,1/2",
                        "--deletions", "9", "--suite", "nope")
    assert code == 2


def test_q_family_with_a_at_least_1_exits_2(capsys):
    # alpha' = tE_0 = -(1 - a)(1 - bq) is negative only for a < 1, so a >= 1
    # is refused as a configuration, not reported as a failing check
    for family, params in (("lqJ", "15/8,-1/2,1/2"), ("lqL", "1,1/2")):
        code, out, err = _run(capsys, "verify", "--family", family, "--params", params, "--deletions", "")
        assert (code, out, err) == (2, "", "error: requires 0 < a < 1\n")
    with pytest.raises(ValueError, match="requires 0 < a < 1$"):
        mipoly.LittleQJacobi(1, 0, F(1, 2))


def test_deletions_validated(capsys):
    code, _, err = _run(capsys, "verify", "--family", "lqL", "--params", "1/32,1/2",
                        "--deletions", "7", "--suite", "base")
    assert code == 2
    code, _, err = _run(capsys, "verify", "--family", "M", "--params", "1,1/2",
                        "--deletions", "0", "--suite", "base")
    assert code == 2
    assert "labels" in err


def test_tabulate_frozen_examples(capsys):
    code, out, _ = _run(
        capsys, "tabulate", "--family", "M", "--params", "1,1/2", "--deletions", "1",
        "--nmax", "1", "--xmax", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "mipoly-table/1"
    assert doc["denominator"]["coefficients"] == ["1", "1/2"]
    assert doc["levels"][0]["coefficients"] == ["1", "1/4"]
    assert doc["levels"][0]["dn_sq"] == "1/2"
    assert [w["value"] for w in doc["weights"]] == ["2/3", "1/3"]


def test_tabulate_empty_deletions(capsys):
    code, out, _ = _run(
        capsys, "tabulate", "--family", "M", "--params", "1,1/2", "--deletions", "",
        "--nmax", "0", "--xmax", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"][0]["coefficients"] == ["1"]
    assert doc["denominator"]["coefficients"] == ["1"]


def test_tabulate_rationals_round_trip(capsys):
    code, out, _ = _run(
        capsys, "tabulate", "--family", "lqJ", "--params", "1/32,1/3,1/2",
        "--deletions", "1,2", "--nmax", "2", "--xmax", "4",
    )
    assert code == 0
    doc = json.loads(out)
    for level in doc["levels"]:
        for c in level["coefficients"]:
            assert F(c) == F(F(c).numerator, F(c).denominator)
        enc = level["dn_sq"]
        if isinstance(enc, dict):
            assert F(enc["lo"]) <= F(enc["hi"])
    for w in doc["weights"]:
        F(w["value"])  # parses exactly


def test_csv_formats(capsys):
    code, out, _ = _run(
        capsys, "verify", "--family", "M", "--params", "1,1/2", "--deletions", "1",
        "--nmax", "1", "--xmax", "4", "--suite", "casoratian", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["suite", "id", "identity", "status", "checked", "witnesses"]
    assert rows[-1][0] == "summary"
    code, out, _ = _run(
        capsys, "tabulate", "--family", "M", "--params", "1,1/2", "--deletions", "1",
        "--nmax", "0", "--xmax", "1", "--format", "csv",
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["record", "n", "k_or_x", "value"]
    assert ["poly_coeff", "0", "1", "1/4"] in rows


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "verify", "--family", "M", "--params", "1,1/2", "--deletions", "1",
        "--nmax", "1", "--xmax", "4", "--suite", "casoratian", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["summary"]["status"] == "pass"


@pytest.mark.parametrize(
    "family, params, deletions",
    [("M", "1,1/2", "1,2"), ("lqJ", "1/32,1/3,1/2", "1,2,3"), ("lqL", "1/32,1/2", "1,3")],
)
def test_checked_counts_statements_not_lattice_points(capsys, family, params, deletions):
    # each check is one statement however many points decide it, so every
    # report's `checked`, and the summary's total, is the same at every --xmax
    counts = set()
    for x_max in ("4", "12", "40"):
        _, out, _ = _run(
            capsys, "verify", "--family", family, "--params", params, "--deletions", deletions, "--xmax", x_max,
        )
        doc = json.loads(out)
        counts.add((tuple((s["id"], s["checked"]) for s in doc["suites"]), doc["summary"]["checks"]))
    assert len(counts) == 1, counts


def test_verify_failure_exit_code_possible():
    # exit code 1 is reserved for identity failures; valid configurations all
    # pass, so drive the summary logic directly with a doctored report
    import mipoly.cli as cli
    from mipoly.report import Report

    class _Args:
        family = "M"
        params = "1,1/2"
        deletions = "1"
        nmax = 1
        xmax = 4
        suite = "casoratian"
        format = "json"
        out = None

    cfg = cli.build_config(_Args())
    code, text = cli.run_verify(cfg)
    assert code == 0
    assert json.loads(text)["summary"]["status"] == "pass"

    failing = Report("casoratian.fake", "doctored failing report")
    failing.add("always fails", False, "witness text")
    original = cli._suite_reports
    cli._suite_reports = lambda cfg, suite: [failing]
    try:
        code, text = cli.run_verify(cfg)
    finally:
        cli._suite_reports = original
    assert code == 1
    doc = json.loads(text)
    assert doc["summary"]["status"] == "fail"
    assert doc["summary"]["failed_suites"] == 1
    assert doc["suites"][0]["witnesses"][0]["witness"] == "witness text"


def test_construction_defect_is_a_failing_check(capsys, monkeypatch):
    # a doubled C_D breaks the normalization inside construction: the multi
    # suite reports it as one failing check, and the base suite still runs
    from mipoly import multi

    original = multi.MultiIndexedSystem.C_D
    monkeypatch.setattr(multi.MultiIndexedSystem, "C_D", lambda self: 2 * original(self))
    monkeypatch.setattr(multi, "_SYSTEMS", {})
    code, out, err = _run(
        capsys, "verify", "--family", "M", "--params", "1,1/2", "--deletions", "1,2",
        "--nmax", "2", "--xmax", "8", "--suite", "base,multi",
    )
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["schema"] == "mipoly-report/1"
    assert doc["summary"]["status"] == "fail" and doc["summary"]["failed_suites"] == 1
    status = {s["suite"]: s["status"] for s in doc["suites"]}
    assert status == {"base": "pass", "multi": "fail"}
    (failed,) = [s for s in doc["suites"] if s["suite"] == "multi"]
    assert [w["name"] for w in failed["witnesses"]] == ["construction"]
    assert "normalization mismatch" in failed["witnesses"][0]["witness"]


def _double_C_D(monkeypatch, multi):
    original = multi.MultiIndexedSystem.C_D
    monkeypatch.setattr(multi.MultiIndexedSystem, "C_D", lambda self: 2 * original(self))


def _constant_quotients(monkeypatch, multi):
    from mipoly.polynomials import Polynomial

    monkeypatch.setattr(multi, "interpolate", lambda points: Polynomial((1,)))


@pytest.mark.parametrize(
    "spoil, witness",
    [(_double_C_D, "normalization mismatch"), (_constant_quotients, "denominator degree 0 != 2")],
    ids=["C_D doubled", "degree too low"],
)
def test_construction_decides_what_no_structure_row_rereads(monkeypatch, spoil, witness):
    # the multi reports have no degree or unit-normalization rows:
    # construction proves both or raises, and either defect makes the
    # whole multi suite one failing `construction` check
    import mipoly.cli as cli
    from mipoly import multi

    spoil(monkeypatch, multi)
    monkeypatch.setattr(multi, "_SYSTEMS", {})
    code, text = cli.run_verify(cli.build_config(_args(deletions="1,2", suite="multi")))
    doc = json.loads(text)
    assert code == 1 and doc["summary"]["checks"] == 1
    (suite,) = doc["suites"]
    assert suite["checked"] == 1 and [w["name"] for w in suite["witnesses"]] == ["construction"]
    assert witness in suite["witnesses"][0]["witness"]


def test_large_beta_builds_every_multi_report(capsys):
    # (1 - c)^beta < 2^-100 here: its enclosure once had lower endpoint 0 and
    # the orthogonality divisor failed construction; only the node counts of
    # the known false failure may fail
    code, out, err = _run(
        capsys, "verify", "--family", "M", "--params", "201/2,1/2", "--deletions", "1,2", "--suite", "multi",
    )
    doc = json.loads(out)
    witnesses = [w["name"] for s in doc["suites"] for w in s["witnesses"]]
    assert doc["summary"]["suites"] == 5 and "construction" not in witnesses
    status = {s["id"].split("[")[0]: s["status"] for s in doc["suites"]}
    assert status["multi.orthogonality"] == "pass"
    assert all("node count" in name for name in witnesses), witnesses
    assert code in (0, 1) and err == ""


def test_small_beta_multi_passes(capsys):
    # beta = 1/1000 puts a 1000th root into the mass (1 - c)^beta
    code, out, err = _run(capsys, "verify", "--params", "1/1000,1/2", "--deletions", "1", "--suite", "multi")
    assert code == 0 and err == ""


def _args(**flags):
    args = dict(family="M", params="1,1/2", deletions="1", nmax=3, xmax=12,
                suite="base", format="json", out=None)
    args.update(flags)
    return argparse.Namespace(**args)


def _refused(capsys, monkeypatch, command, *argv):
    # exit 2 from build_config: no suite and no table is started
    import mipoly.cli as cli

    monkeypatch.setattr(cli, "_suite_reports", lambda *a: pytest.fail("a suite started"))
    monkeypatch.setattr(cli, "run_tabulate", lambda *a: pytest.fail("a table started"))
    code, out, err = _run(capsys, command, "--family", "M", "--params", "1,1/2", *argv)
    assert code == 2 and out == ""
    return err


def test_nmax_ceiling(capsys, monkeypatch):
    import mipoly.cli as cli

    err = _refused(capsys, monkeypatch, "verify", "--nmax", "1000000", "--suite", "base")
    assert err == f"error: nmax 1000000 exceeds the ceiling {cli.NMAX_CEILING}\n"
    assert "ceiling" in _refused(capsys, monkeypatch, "tabulate", "--nmax", str(cli.NMAX_CEILING + 1))
    assert cli.build_config(_args(nmax=cli.NMAX_CEILING))["n_max"] == cli.NMAX_CEILING


def test_xmax_ceiling(capsys, monkeypatch):
    import mipoly.cli as cli

    err = _refused(capsys, monkeypatch, "verify", "--xmax", "100000000", "--suite", "virtual")
    assert err == f"error: xmax 100000000 exceeds the ceiling {cli.XMAX_CEILING}\n"
    assert "ceiling" in _refused(capsys, monkeypatch, "tabulate", "--xmax", str(cli.XMAX_CEILING + 1))
    assert cli.build_config(_args(xmax=cli.XMAX_CEILING))["x_max"] == cli.XMAX_CEILING


def test_beta_ceiling(capsys, monkeypatch):
    # M's mass (1 - c)^beta is formed exactly: beta = 10^100 once ran out of
    # memory there; the ceiling refuses it before anything is built
    import mipoly.cli as cli

    with pytest.raises(cli.ConfigError, match="ceiling"):
        cli.build_config(_args(params="1e100,1/2", suite="multi"))
    err = _refused(capsys, monkeypatch, "verify", "--params", "1e100,1/2", "--deletions", "1,2", "--suite", "multi")
    assert err == f"error: beta's numerator or denominator exceeds the ceiling {cli.BETA_CEILING}\n"
    assert "ceiling" in _refused(capsys, monkeypatch, "tabulate", "--params", f"1/{cli.BETA_CEILING + 1},1/2")
    # every beta in use is admitted, 10^4 and 1/10^4 included
    for beta in ("1", "1/2", "5/2", "201/2", "1/1000", "10000", "1/10000"):
        assert cli.build_config(_args(params=f"{beta},1/2"))["p"].beta == F(beta)


def test_label_ceiling(capsys, monkeypatch):
    import mipoly.cli as cli

    err = _refused(capsys, monkeypatch, "verify", "--deletions", "100000", "--suite", "multi")
    assert err == f"error: ell_D 100000 of labels [100000] exceeds the ceiling {cli.ELL_CEILING}\n"
    many = ",".join(str(d) for d in range(1, cli.ELL_CEILING + 2))  # ell_D = number of labels
    assert "ell_D 65 " in _refused(capsys, monkeypatch, "tabulate", "--deletions", many)
    # the largest label sets in use: M D = {3,6,...,18} (ell_D 48) and the
    # tabulate ladder's {2,4,...,12} at --nmax 10 --xmax 40
    assert cli.build_config(_args(deletions="3,6,9,12,15,18"))["deletions"] == (3, 6, 9, 12, 15, 18)
    assert cli.build_config(_args(deletions=str(cli.ELL_CEILING)))["deletions"] == (cli.ELL_CEILING,)
    cfg = cli.build_config(_args(family="lqL", params="1/1048576,1/2", deletions="2,4,6,8,10,12",
                                 nmax=10, xmax=40))
    assert cfg["deletions"] == (2, 4, 6, 8, 10, 12)


def test_empty_suite_selection_is_refused(capsys, monkeypatch):
    import mipoly.cli as cli

    for selection in ("", ",", " , "):
        err = _refused(capsys, monkeypatch, "verify", "--suite", selection)
        assert err == f"error: no suite selected (choose from {', '.join(cli.SUITES)})\n"


def test_unwritable_out_is_refused_before_any_suite(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing" / "x.json"
    for command in (("verify", "--suite", "base"), ("tabulate",)):
        err = _refused(capsys, monkeypatch, *command, "--out", str(missing))
        assert err == f"error: cannot write --out {missing}: No such file or directory\n"
        err = _refused(capsys, monkeypatch, *command, "--out", str(tmp_path))
        assert err.startswith(f"error: cannot write --out {tmp_path}: ")


def test_tabulate_takes_no_suite_flag(capsys):
    # tabulate runs no suite, so --suite is a verify flag only
    with pytest.raises(SystemExit) as exited:
        main(["tabulate", "--suite", "chain"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --suite chain" in capsys.readouterr().err


def test_tabulate_takes_no_rtol_flag(capsys):
    # the orthogonality tolerance is a constant of the library, not a flag
    with pytest.raises(SystemExit) as exited:
        main(["tabulate", "--rtol", "1/2"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --rtol 1/2" in capsys.readouterr().err
    code, out, _ = _run(capsys, "tabulate", "--nmax", "0", "--xmax", "0")
    assert code == 0 and "rel_tol" not in json.loads(out)["config"]


def test_verify_takes_no_rtol_flag(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["verify", "--rtol", "1/2"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --rtol 1/2" in capsys.readouterr().err
    code, out, _ = _run(capsys, "verify", "--suite", "casoratian", "--nmax", "0", "--xmax", "0")
    assert code == 0 and "rel_tol" not in json.loads(out)["config"]


def _int_digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "family, params, labels", [("lqL", "1/32,1/2", (1,)), ("lqJ", "1/32,1/3,1/2", (1, 2))]
)
def test_tabulate_prints_weights_past_the_int_digit_limit(capsys, family, params, labels):
    # at the documented --xmax ceiling the weights outgrow CPython's default
    # 4 300 int-to-string digits; a run prints them in full and then restores
    # the limit
    from mipoly.families import FAMILIES
    from mipoly.multi import system

    limit = _int_digit_limit()
    code, out, err = _run(
        capsys, "tabulate", "--family", family, "--params", params,
        "--deletions", ",".join(map(str, labels)), "--xmax", "200",
    )
    assert code == 0, err
    assert _int_digit_limit() == limit
    weights = system(FAMILIES[family](*map(F, params.split(","))), labels).weight
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        expected = [str(weights(x)) for x in range(201)]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert max(map(len, expected)) > 4300
    assert [w["value"] for w in json.loads(out)["weights"]] == expected


def test_config_echo_prints_a_long_parameter(capsys):
    # c = 1/(2 10^4301): its denominator is parsed and printed past the
    # default 4 300 digits (beta that long is refused by its ceiling)
    limit = _int_digit_limit()
    c = "1/2" + "0" * 4301
    code, out, err = _run(
        capsys, "verify", "--params", f"1,{c}", "--deletions", "", "--suite", "casoratian",
    )
    assert code == 0, err
    assert _int_digit_limit() == limit
    assert json.loads(out)["config"]["parameters"]["c"] == c


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every CLI job pays its imports: dataclasses pulls in inspect, ast, dis and tokenize
    src = str(Path(mipoly.__file__).resolve().parents[1])
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import mipoly.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, src], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_family_without_virtual_states_runs_with_empty_stderr():
    # lqL with a >= q admits no label: the virtual suite reports no positivity
    # entry, and nothing (no install path of a warning) reaches stderr
    src = str(Path(mipoly.__file__).resolve().parents[1])
    probe = "import sys; sys.path.insert(0, sys.argv[1]); from mipoly.cli import main; sys.exit(main(sys.argv[2:]))"
    argv = ["verify", "--family", "lqL", "--params", "1/2,1/2", "--deletions", "", "--suite", "virtual"]
    done = subprocess.run([sys.executable, "-c", probe, src, *argv], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    (suite,) = json.loads(done.stdout)["suites"]
    assert suite["id"].startswith("virtual.linear-relation") and suite["status"] == "pass"
