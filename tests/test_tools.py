"""Smoke tests of the scripts under tools/, each run as its own process,
and one in-process run of dn_stages with a verifier patched to fail."""

import importlib.util
import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def run_tool(name, *args):
    return subprocess.run([sys.executable, os.path.join(TOOLS, name), *args],
                          capture_output=True, text=True)


def test_dn_ranks_checks_each_rank():
    proc = run_tool("dn_ranks.py", "4", "9")
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["rank", "build_s", "verify_all_s", "passed", "verify_rss_mb",
                              "cartan@2^K", "pairs@2^K", "rss_mb"]
    assert [line.split()[0] for line in lines] == ["d4", "d9"]
    for line in lines:
        fields = line.split()
        # passed, the peak RSS as verify_all returns, then each oracle's
        # verdict followed by its K, then the peak RSS after the oracles
        assert (fields[3], fields[5], fields[7]) == ("True", "True", "True"), line
        assert 0 < float(fields[4]) <= float(fields[9]), line


@pytest.mark.parametrize("args", [("3",), ()])
def test_dn_ranks_refuses_a_rank_below_4(args):
    proc = run_tool("dn_ranks.py", *args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "usage: dn_ranks.py N [N ...]   (each N >= 4)\n"


def test_loc_total_is_the_sum_of_its_modules():
    proc = run_tool("loc.py")
    assert proc.returncode == 0, proc.stderr
    *modules, total = [line.split() for line in proc.stdout.splitlines()]
    assert modules and all(name.endswith(".py") for name, _ in modules)
    assert total[0] == "total"
    assert int(total[1]) == sum(int(count) for _, count in modules)


def test_dn_stages_times_each_stage_per_rank():
    proc = run_tool("dn_stages.py", "4", "7", "e6", "g2")
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["rank", "build", "verify_cartan", "m_parity", "bracket_sum",
                              "build_t2", "verify_closure", "verify_all", "rss_mb"]
    assert [line.split()[0] for line in lines] == ["d4", "d7", "e6", "g2"]
    for line in lines:
        fields = line.split()[1:]
        # E6 has no closed-form T2, so no build_t2 stage
        assert (fields[4] == "-") == line.startswith("e6"), line
        assert all(float(s) >= 0 for s in fields if s != "-"), line


def test_dn_ab_pairs_a_checkout_with_itself():
    proc = run_tool("dn_ab.py", os.path.dirname(TOOLS), "4", "e6", "g2")
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["rank", "stage", "ratio", "ratio_iqr", "this_s", "other_s",
                              "rounds"]
    stages = ("build", "verify_cartan", "m_parity", "bracket_sum", "build_t2",
              "verify_closure", "verify_all")
    # E6 has no closed-form T2, so no build_t2 line
    assert [line.split()[:2] for line in lines] == [
        [name, stage] for name in ("d4", "e6", "g2") for stage in stages
        if (name, stage) != ("e6", "build_t2")]
    for line in lines:
        *seconds, rounds = line.split()[2:]
        ratio, iqr, this_s, other_s = map(float, seconds)
        assert ratio > 0 and iqr >= 0 and this_s >= 0 and other_s >= 0, line
        # the first round's time sets the count, clamped to 5..51
        assert 5 <= int(rounds) <= 51, line


@pytest.mark.parametrize("args", [(), ("no-such-checkout",), (".", "3"), (".", "e7")])
def test_dn_ab_refuses_a_missing_checkout_or_a_rank_below_4(args):
    proc = run_tool("dn_ab.py", *args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: dn_ab.py OTHER_CHECKOUT [ALGEBRA ...]")


@pytest.mark.parametrize("args", [("3",), ("x",), (), ("e7",), ("4", "G2")])
def test_dn_stages_refuses_a_rank_below_4(args):
    proc = run_tool("dn_stages.py", *args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("usage: dn_stages.py ALGEBRA [ALGEBRA ...]   "
                           "(each a rank N >= 4, e6 or g2)\n")


def test_dn_stages_exits_1_naming_the_rank_and_stage_that_fails(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("dn_stages", os.path.join(TOOLS, "dn_stages.py"))
    dn_stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dn_stages)
    closure = dn_stages.verify_closure

    def failing(preset):
        outcome = closure(preset)
        outcome.check(False, "", "doctored failure")
        return outcome

    monkeypatch.setattr(dn_stages, "verify_closure", failing)
    assert dn_stages.main(["4", "5", "g2"]) == 1
    out, err = capsys.readouterr()
    header, *lines = out.splitlines()
    assert header.split()[0] == "rank"
    assert [line.split()[0] for line in lines] == ["d4", "d5", "g2"]
    assert err == ("d4 verify_closure did not pass: doctored failure\n"
                   "d5 verify_closure did not pass: doctored failure\n"
                   "g2 verify_closure did not pass: doctored failure\n")
