"""CLI: subcommand behavior, exit codes, report stability."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ivalbench
from ivalbench import cli, models, sched


def run(argv):
    return cli.main(argv)


def test_extrema_matches_spec_example(capsys):
    assert run(["extrema", "--model", "approxN", "--n", "3", "--max", "2"]) == 0
    out = capsys.readouterr().out
    assert "lo = 3, hi = 3" in out


def test_mdp_counter(capsys):
    assert run(["mdp", "--model", "unbiased-counter", "--threads", "2",
                "--budget", "60", "-f", "read"]) == 0
    assert "lo = 2, hi = 2" in capsys.readouterr().out


def test_laws_deterministic_report(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["laws", "--suite", "extrema", "--cases", "40", "--seed", "7",
                "--out", str(a)]) == 0
    assert run(["laws", "--suite", "extrema", "--cases", "40", "--seed", "7",
                "--out", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("elapsed_seconds"), rb.pop("elapsed_seconds")
    assert ra == rb


def test_couple_builtin_script(tmp_path):
    out = tmp_path / "couple.json"
    assert run(["couple", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"]["passed"] is True
    assert rep["witness"]["predicate"].startswith("(or")


def test_couple_failing_script(tmp_path):
    bad = tmp_path / "bad.sexp"
    bad.write_text("(equiv (ret 1 1 (pred-eq)) (ival (1 1/1)) (pset (ival (2 1/1))))\n")
    assert run(["couple", "--script", str(bad)]) == 1


def test_sandwich(capsys):
    assert run(["sandwich", "--threads", "1", "--max", "2", "--budget", "30"]) == 0
    assert "pass" in capsys.readouterr().out


def test_counter_bias_exit_and_report(tmp_path):
    out = tmp_path / "bias.json"
    assert run(["counter-bias", "--threads", "2", "--bits", "2",
                "--budget", "80", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["scheduler_dependent"] is True
    assert rep["lo"] == "3/2" and rep["hi"] == "5/2"
    assert rep["explored_states"] > rep["forced_flips"] > 0


def test_skiplist_cost_csv(tmp_path):
    out = tmp_path / "cost.csv"
    assert run(["skiplist-cost", "--keys", "2", "4", "--max-size", "2",
                "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("keys,query")
    assert len(lines) == 1 + 4 * 2  # (empty, {2}, {4}, {2,4}) x 2 queries
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(row) == len(rows[0]) == 8 for row in rows)
    assert [row[0] for row in rows[1:]] == ["-", "-", "2", "2", "4", "4", "2,4", "2,4"]


def test_parse_bundled_programs(capsys):
    assert run(["parse"]) == 0
    assert "round-trip ok" in capsys.readouterr().out


def test_simulate_small(capsys):
    assert run(["simulate", "--model", "unbiased-counter", "--threads", "2",
                "--budget", "80", "--trials", "300", "--seed", "3",
                "-f", "read"]) == 0
    assert "mean = 2" in capsys.readouterr().out


def test_invalid_configuration_exit_code():
    assert run(["extrema", "--model", "nosuch", "--n", "1"]) == 2
    assert run(["mdp", "--model", "unbiased-counter", "--threads", "0"]) == 2
    assert run(["simulate", "--model", "unbiased-counter", "--sched", "bogus"]) == 2


def test_malformed_worker_counts_exit_2(monkeypatch, capsys):
    argv = ["simulate", "--model", "unbiased-counter", "--threads", "2",
            "--trials", "20", "-f", "read"]
    for workers in ("-3", "0"):
        assert run(argv + ["--workers", workers]) == 2
        assert "--workers must be an integer >= 1" in capsys.readouterr().err
    for raw in ("abc", "-3", "0", ""):
        monkeypatch.setenv("IVALBENCH_WORKERS", raw)
        assert run(argv) == 2
        assert "IVALBENCH_WORKERS must be an integer >= 1" in capsys.readouterr().err
    monkeypatch.setenv("IVALBENCH_WORKERS", "1")
    assert run(argv) == 0


def test_functional_validation():
    assert run(["mdp", "--model", "unbiased-counter", "-f", "nope"]) == 2


def test_unknown_model_message_is_bare(capsys):
    assert run(["mdp", "--model", "nope"]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: unknown model 'nope'; known: {sorted(models.MODELS)}\n")


def test_functional_that_does_not_fit_the_model_exits_2(capsys):
    assert run(["mdp", "--model", "unbiased-counter", "--threads", "2",
                "-f", "pair-cost"]) == 2
    assert "configuration error: expected a (found, comparisons) pair" in \
        capsys.readouterr().err
    # with two workers the error is raised in a worker and pickled back
    for workers in ("1", "2"):
        assert run(["simulate", "--model", "unbiased-counter", "--threads", "2",
                    "--trials", "20", "-f", "true-indicator", "--workers", workers]) == 2
        assert "configuration error: expected a boolean result" in \
            capsys.readouterr().err


def test_couple_unreadable_or_malformed_script_exits_2(tmp_path, capsys):
    assert run(["couple", "--script", str(tmp_path / "missing.sexp")]) == 2
    bad = tmp_path / "bad.sexp"
    bad.write_text("(goal\n")
    assert run(["couple", "--script", str(bad)]) == 2
    assert "malformed script" in capsys.readouterr().err


@pytest.mark.parametrize("script", [
    "(ret 1)",
    "(conseq (ret 1 1 (pred-eq)) (pred-expr (and #t)))",
    "(trivial (ival (1 1/2)) (pset (ival (1 1))))",
    "(trivial (ival) (pset (ival (1 1))))",
    "(trivial (ival (1 1)) (pset))",
    "(trivial (ival (1 1/0)) (pset (ival (1 1))))",
    "(pchoice 3/2 (ret 1 1 (pred-eq)) (ret 2 2 (pred-eq)))",
])
def test_couple_malformed_script_forms_exit_2(tmp_path, capsys, script):
    bad = tmp_path / "bad.sexp"
    bad.write_text(script + "\n")
    assert run(["couple", "--script", str(bad)]) == 2
    assert "malformed script" in capsys.readouterr().err


@pytest.mark.parametrize("rational", [
    "#t", "#f", "1_0/3_0", "-1/-2", "+1/+2", "1/+2", "\u0663/4", "1/\u0663", "0x1/2",
    "1/2/3", "1/0", "1/-2", "/2", "1/",
])
def test_couple_rationals_use_the_reader_integers(tmp_path, capsys, rational):
    for script in (f"(trivial (ival (1 {rational})) (pset (ival (1 1))))",
                   f"(pchoice {rational} (ret 1 1 (pred-eq)) (ret 2 2 (pred-eq)))"):
        bad = tmp_path / "bad.sexp"
        bad.write_text(script + "\n")
        assert run(["couple", "--script", str(bad)]) == 2, script
        assert "expected a rational, got" in capsys.readouterr().err, script


def test_couple_reads_a_rational_past_the_int_digit_limit(tmp_path):
    # a 5,001-digit numerator, beyond Python's default 4,300-digit int/str
    # conversion limit, reads and prints exactly: 1...1 / 10^5001
    (num, den) = ("1" * 5001, "1" + "0" * 5001)
    script = tmp_path / "long.sexp"
    script.write_text(f"(pchoice {num}/{den} (ret 1 1 (pred-eq)) (ret 2 2 (pred-eq)))\n")
    out = tmp_path / "long.json"
    assert run(["couple", "--script", str(script), "--out", str(out)]) == 0
    joint = json.loads(out.read_text())["witness"]["joint"]["entries"]
    assert [p for (_, _, p) in joint] == [f"{num}/{den}", "8" * 5000 + f"9/{den}"]


@pytest.mark.parametrize(("valuation", "message"), [
    ("(ival (1 1/2))", "probabilities sum to 1/2, not 1"),
    ("(ival (1 -1/2) (1 3/2))", "negative probability -1/2"),
    ("(ival)", "probabilities sum to 0, not 1"),
])
def test_couple_malformed_valuation_messages(tmp_path, capsys, valuation, message):
    bad = tmp_path / "bad.sexp"
    bad.write_text(f"(trivial {valuation} (pset (ival (1 1))))\n")
    assert run(["couple", "--script", str(bad)]) == 2
    assert f"{valuation}: {message}" in capsys.readouterr().err


def pchoice_chain(depth):
    script = "(ret 1 1 (pred-eq))"
    for _ in range(depth):
        script = f"(pchoice 1/2 (ret 1 1 (pred-eq)) {script})"
    return script


@pytest.mark.parametrize("script", ["(" * 3000 + ")" * 3000, pchoice_chain(3000)],
                         ids=["nested-lists", "pchoice-chain"])
def test_couple_deeply_nested_script_exits_2(tmp_path, capsys, script):
    deep = tmp_path / "deep.sexp"
    deep.write_text(script + "\n")
    assert run(["couple", "--script", str(deep)]) == 2
    err = capsys.readouterr().err
    assert "malformed script" in err
    assert len(err) < 300  # the message cuts the form short


def test_couple_chain_within_the_recursion_limit_passes(tmp_path):
    chain = tmp_path / "chain.sexp"
    chain.write_text(pchoice_chain(300) + "\n")
    assert run(["couple", "--script", str(chain)]) == 0


# two indices each select one of {5, 6}: four selections, three distinct
BIND_SCRIPT = """
(bind (pchoice 1/2 (ret 0 0 (pred-eq)) (ret 1 1 (pred-eq)))
  (case ((0 0) (equiv (ret 5 5 (pred-eq)) (ival (5 1)) (pset (ival (5 1)) (ival (6 1)))))
        ((1 1) (equiv (ret 5 5 (pred-eq)) (ival (5 1)) (pset (ival (5 1)) (ival (6 1)))))))
"""


def test_couple_bind_report_independent_of_hash_seed(tmp_path):
    script = tmp_path / "bind.sexp"
    script.write_text(BIND_SCRIPT)
    src = str(Path(ivalbench.__file__).resolve().parent.parent)
    texts = []
    for seed in ("0", "1"):
        out = tmp_path / f"couple{seed}.json"
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(path)}
        subprocess.run([sys.executable, "-m", "ivalbench.cli", "couple", "--script",
                        str(script), "--out", str(out)], env=env, check=True,
                       capture_output=True)
        texts.append([line for line in out.read_text().splitlines()
                      if "elapsed_seconds" not in line])
    assert texts[0] == texts[1]
    rep = json.loads(out.read_text())
    assert rep["verdict"]["passed"] is True
    # one weight per distinct member of the bind-built rhs
    [cert] = rep["verdict"]["membership_certificates"]
    assert len(cert["weights"]) == 3


def test_extrema_deep_chain_exits_0(capsys):
    assert run(["extrema", "--model", "approxN", "--n", "2000", "--max", "0"]) == 0
    assert "lo = 2000, hi = 2000" in capsys.readouterr().out


def test_parse_unreadable_file_exits_2(tmp_path, capsys):
    assert run(["parse", "--file", str(tmp_path / "missing.sexp")]) == 2
    assert "cannot read --file" in capsys.readouterr().err
    assert run(["parse", "--file", str(tmp_path)]) == 2  # a directory
    good = tmp_path / "good.sexp"
    good.write_text("(+ 1 2)\n")
    assert run(["parse", "--file", str(good)]) == 0


def test_parse_deep_list_literal_exits_0(tmp_path, capsys):
    # the reader, parser and printer walk on explicit stacks
    n = 20_000
    deep = tmp_path / "deep.sexp"
    deep.write_text("(pair #t " * n + "()" + ")" * n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        assert run(["parse", "--file", str(deep)]) == 0
    finally:
        sys.setrecursionlimit(limit)
    assert "round-trip ok" in capsys.readouterr().out


def test_mdp_reports_fused_steps(tmp_path):
    out = tmp_path / "mdp.json"
    assert run(["mdp", "--model", "unbiased-counter", "--threads", "2",
                "--budget", "60", "-f", "read", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["explored_states"] > rep["forced_flips"] > 0 and rep["fused_steps"] > 0
    assert rep["longest_path"] == 32  # the least budget the analysis accepts
    assert run(["mdp", "--model", "unbiased-counter", "--threads", "2",
                "--budget", "31", "-f", "read"]) == 1


def test_only_the_cli_reads_worker_environment(monkeypatch):
    monkeypatch.setenv("IVALBENCH_WORKERS", "abc")
    mc = sched.monte_carlo(models.unbiased_counter_program(2, 2), sched.round_robin(), 80,
                           models.read_int, 20, seed=1)
    assert mc.trials == 20
    assert run(["simulate", "--model", "unbiased-counter", "--trials", "20"]) == 2


def test_format_only_on_tabular_subcommands(tmp_path, capsys):
    out = tmp_path / "out"
    for argv in (["couple"], ["mdp", "--model", "unbiased-counter"],
                 ["simulate", "--model", "unbiased-counter"], ["sandwich"],
                 ["counter-bias"], ["parse"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--format", "csv", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert not out.exists()
    assert run(["extrema", "--model", "approxN", "--n", "2", "--format", "csv",
                "--out", str(out)]) == 0
    assert out.read_text() == "model,n,l,max,lo,lo_dec,hi,hi_dec\napproxN,2,0,2,2/1,2,2/1,2\n"
    assert run(["laws", "--suite", "monad", "--cases", "2", "--format", "csv",
                "--out", str(out)]) == 0
    assert out.read_text().startswith("suite,law,cases,failures\nmonad,")


def test_every_report_names_its_command(tmp_path):
    out = tmp_path / "r.json"
    for argv in (["extrema", "--model", "approxN", "--n", "2"], ["couple"], ["parse"],
                 ["sandwich", "--threads", "1", "--budget", "30"],
                 ["skiplist-cost", "--keys", "2", "--max-size", "1"],
                 ["mdp", "--model", "morris-counter", "--n", "1", "--budget", "30"],
                 ["simulate", "--model", "morris-counter", "--n", "1", "--trials", "5",
                  "--workers", "1"]):
        assert run(argv + ["--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["command"] == argv[0] and rep["elapsed_seconds"] >= 0


def test_skiplist_cost_out_of_range_keys_exit_2(capsys):
    assert run(["skiplist-cost", "--keys", "3000000000"]) == 2
    assert "outside the sentinel range" in capsys.readouterr().err


def test_unwritable_out_exits_2(tmp_path, capsys):
    assert run(["parse", "--out", str(tmp_path / "missing" / "r.json")]) == 2
    assert "cannot write --out" in capsys.readouterr().err
