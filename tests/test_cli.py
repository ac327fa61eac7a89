"""Command-line behaviour: exit codes, formats, determinism."""

import json
import logging
import os
import subprocess
import sys

import pytest

import wqalg
from oracle import replace_preset
from wqalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_cartan_g2(capsys):
    code, out, _ = run(capsys, "verify-cartan", "--algebra", "g2")
    assert code == 0
    assert "PASS" in out


def test_verify_cartan_json_schema(capsys):
    code, out, _ = run(capsys, "verify-cartan", "--algebra", "e6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["passed"] is True


def test_closure_d4_json_support(capsys):
    code, out, _ = run(capsys, "closure", "--algebra", "dn", "--n", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    shifts = [d["shift"] for d in payload["report"]["deltas"]]
    assert shifts == [-6, -2, 2, 6]


def test_bracket_g2_worked_example(capsys):
    code, out, _ = run(capsys, "bracket", "--algebra", "g2", "--i", "1", "--j", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["baseCoeff"] == [1, 1]
    assert payload["deltas"] == [{"shift": -2, "coeff": [1, 1]},
                                 {"shift": 0, "coeff": [-1, 1]}]


def test_bracket_text_format(capsys):
    code, out, _ = run(capsys, "bracket", "--algebra", "g2", "--i", "1", "--j", "2")
    assert code == 0
    assert "Delta(-2): 1" in out and "Delta(+0): -1" in out


def test_lambda_table(capsys):
    code, out, _ = run(capsys, "lambda", "--algebra", "g2")
    assert code == 0
    assert "Lambda_7(z) = Y_1^{-1}(zq^{-12})" in out


def test_matrices_latex(capsys):
    code, out, _ = run(capsys, "matrices", "--algebra", "g2", "--format", "latex")
    assert code == 0
    assert "\\begin{pmatrix}" in out


def test_dual_commands(capsys):
    for algebra in ("g2", "e6"):
        code, out, _ = run(capsys, "dual", "--algebra", algebra)
        assert code == 0
        assert "PASS" in out


def test_emit_t2_g2(capsys):
    code, out, _ = run(capsys, "emit-t2", "--algebra", "g2", "--format", "json")
    assert code == 0
    assert json.loads(out)["termCount"] == 15


def test_emit_t2_e6_derived(capsys):
    code, out, _ = run(capsys, "emit-t2", "--algebra", "e6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["termCount"] == 351
    assert payload["coefficientCounts"] == {"1": 324, "2": 27}
    assert payload["shift"] == -2


def test_emit_t2_e6_warns_once(capsys, caplog):
    # the non-unit coefficients of the derived series are an INFO record, not a
    # warning; it comes from the one closure run, so it is recorded once
    with caplog.at_level(logging.INFO, logger="wqalg.poisson"):
        code, _, _ = run(capsys, "emit-t2", "--algebra", "e6")
    assert code == 0
    assert [rec.message for rec in caplog.records if rec.levelno >= logging.WARNING] == []
    infos = [rec.message for rec in caplog.records
             if rec.levelno == logging.INFO and "non-unit coefficients" in rec.message]
    assert infos == ["derived series at shift -2 has non-unit coefficients: {'1': 324, '2': 27}"]


@pytest.mark.parametrize("argv, stderr", [
    # the derived E6 series has coefficients 2: an INFO record, not shown
    (("emit-t2", "--algebra", "e6"), ""),
    # the d4 bracket has coefficients other than +-1: an INFO record, not shown
    (("closure", "--algebra", "dn", "--n", "4"), ""),
    (("closure", "--algebra", "e6"), ""),
    (("verify-all", "--algebra", "e6"), ""),
])
def test_stderr_of_a_fresh_process(argv, stderr):
    # pytest imports logging, so only a fresh process takes the path where
    # logging is not imported when wqalg.poisson could emit a record
    src = os.path.dirname(os.path.dirname(os.path.abspath(wqalg.__file__)))
    proc = subprocess.run([sys.executable, "-m", "wqalg.cli", *argv], cwd=src,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == stderr


def test_verify_all_g2(capsys):
    code, out, _ = run(capsys, "verify-all", "--algebra", "g2")
    assert code == 0
    assert out.startswith("verify-all g2: PASS")


@pytest.mark.parametrize("argv", [
    ("verify-cartan", "--algebra", "b2"),
    ("verify-cartan",),
    ("closure", "--algebra", "dn"),            # missing --n
    ("closure", "--algebra", "dn", "--n", "3"),
    ("closure", "--algebra", "g2", "--n", "5"),
    ("bracket", "--algebra", "g2", "--i", "1", "--j", "9"),
    ("dual", "--algebra", "dn", "--n", "4"),
    ("nonsense",),
])
def test_usage_errors_exit_2(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 2


def test_mismatch_exits_1(capsys, monkeypatch):
    import wqalg.cli as cli_mod
    real = cli_mod.build_preset("dn", 9)
    lams = list(real.lambdas)
    lams[0] = lams[0].shift_arg(2)
    corrupted = replace_preset(real, lambdas=tuple(lams))
    monkeypatch.setattr(cli_mod, "build_preset", lambda kind, n=None: corrupted)
    code, out, _ = run(capsys, "verify-all", "--algebra", "dn", "--n", "9")
    assert code == 1
    assert "FAIL" in out


def test_determinism_byte_identical(capsys):
    _, out1, _ = run(capsys, "closure", "--algebra", "g2", "--format", "json")
    _, out2, _ = run(capsys, "closure", "--algebra", "g2", "--format", "json")
    assert out1 == out2


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-cartan", "--algebra", "g2",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["passed"] is True


def test_out_flag_unwritable_path_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify-cartan", "--algebra", "g2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write %s: " % target)
    assert not target.exists()
