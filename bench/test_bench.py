"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q

They check the pinned answers against the independent oracles once,
run a short version of each workload in-process, check that traced counts
repeat exactly, and run ``run.py`` end to end, including in a directory
that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

import tracing
import worker
import workloads
from ivalbench import comp, models, ndset, sched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def shortened(name: str, keep):
    """The workload ``name`` restricted to the items ``keep`` accepts,
    with a single pass."""
    def build(seed):
        wl = workloads.WORKLOADS[name](seed)
        wl.items = [i for i in wl.items if keep(i.name)]
        wl.min_passes = 1
        return wl
    return build


SHORT = {
    "explore": shortened("explore", lambda n: any(
        p in n for p in ("flip", "morris_n3", "unbiased_counter_t2", "dlm_counter_b2"))),
    "algebra": shortened("algebra", lambda n: n.endswith(("/0", "/1"))
                         or n.startswith(("skiplist-cost/()", "skiplist-cost/(2,)", "couple"))),
    "sample": shortened("sample", lambda n: "unbiased_counter_t2" in n or "dlm" in n),
}


# ---------------------------------------------------------------------------
# pinned answers against the independent oracles


@pytest.mark.parametrize("name", ["flip", "morris_n3"])  # the others exceed its node limit
def test_explore_pins_match_brute_force(name):
    prog = workloads.read_programs()[name]
    _, lo, hi = workloads.PROGRAMS[name]
    bf = sched.brute_force_extrema(prog, workloads.EXPLORE_BUDGET, workloads.functional(name))
    assert (bf.lo, bf.hi) == (lo, hi)


def test_skiplist_cost_matches_materialized_spec():
    universe = workloads.SKIPLIST_KEYS
    for size in range(4):
        for keys in combinations(universe, size):
            members = models.skip_list_spec_set(keys)
            for q in universe:
                cost = lambda tb, q=q: F(models.skipcost(tb[0], tb[1], q))
                hi = comp.ex_max(cost, models.skip_list_spec(keys))
                assert hi == ndset.ex_max(cost, members), (keys, q)
                assert hi <= models.skip_cost_bound(sum(1 for k in keys if k < q))


def test_sample_references_match_pins():
    refs = workloads.sample_references(workloads.read_programs())
    assert len(refs) == 2 * len(workloads.CONCURRENT)
    for ((name, _), ref) in refs.items():
        _, lo, hi = workloads.PROGRAMS[name]
        assert lo <= ref <= hi
        if lo == hi:
            assert ref == lo


def test_concurrent_programs_are_the_forking_ones():
    base = workloads.resources.files("ivalbench.programs")
    forking = {n for n in workloads.PROGRAMS
               if "(fork" in base.joinpath(n + ".sexp").read_text()}
    assert set(workloads.CONCURRENT) == forking
    assert {p.name[:-5] for p in base.iterdir() if p.name.endswith(".sexp")} \
        == set(workloads.PROGRAMS)


# ---------------------------------------------------------------------------
# the metrics


def test_percentile_is_inclusive_quantile():
    xs = sorted([0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.5])
    cuts = statistics.quantiles(xs, n=4, method="inclusive")
    assert [worker.percentile(xs, q) for q in (25, 50, 75)] == pytest.approx(cuts)


def test_tail_percentile_has_ten_items_beyond():
    for build in workloads.WORKLOADS.values():
        wl = build(1)
        items = len(wl.items) * wl.min_passes
        assert items * (1 - wl.tail_q / 100) >= 10, wl.name


@pytest.mark.parametrize("name", sorted(SHORT))
def test_short_run_reports_every_metric(name):
    wl = SHORT[name](1)
    report = worker.measure(wl, 0, lambda: 0.0)
    assert report["failed"] == 0, report["failures"]
    assert report["attempted"] == len(wl.items)
    for metric in BENCH["end_to_end"]:
        if metric["name"] != "setup_s":
            assert report[metric["name"]] > 0


def test_guards_count_wrong_answers_as_failures(monkeypatch):
    wl = SHORT["explore"](1)
    monkeypatch.setitem(workloads.PROGRAMS, "flip", ("true-indicator", F(1, 3), F(1, 2)))
    report = worker.measure(wl, 0, lambda: 0.0)
    assert report["failed"] == 1
    assert report["failures"] == ["analyse/flip: wrong answer"]


def test_traced_counts_repeat(tmp_path):
    runs = [[worker.trace(SHORT[w], 1, tmp_path / f"{w}.tsv.gz", overhead=w == "sample")
             for w in sorted(SHORT)] for _ in range(2)]
    counts = [tracing.layer_metrics(r, 1.0) for r in runs]
    for (name, (value, unit)) in counts[0].items():
        if unit == "count":
            assert counts[1][name][0] == value, name
    assert counts[0]["sched.states"][0] > 0
    assert counts[0]["lp.pivot.calls"][0] > 0
    assert counts[0]["machine.config_step.calls"][0] > 0
    assert all(r["failed"] == 0 for r in runs[0])
    assert set(counts[0]) == {m["name"] for m in BENCH["per_layer"]}


def test_tracer_restores_the_package():
    from ivalbench import machine
    before = (machine.outcomes, sched.outcomes, sched.config_step)
    tracer = tracing.Tracer()
    tracer.install()
    assert sched.outcomes is machine.outcomes is not before[0]
    tracer.uninstall()
    assert (machine.outcomes, sched.outcomes, sched.config_step) == before


# ---------------------------------------------------------------------------
# run.py end to end


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_run_prints_the_result_line():
    proc = run_bench(ROOT, "--workload", "sample", "--seed", "3", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert "failed_ratio" in proc.stdout


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "explore", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
