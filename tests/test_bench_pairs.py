"""The summary ``tools/bench_pairs.py`` writes over benchmark pairs."""

import importlib.util
from pathlib import Path

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

METRICS = [{"name": "latency", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.1}]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def pairs(parent: dict, change: dict) -> list:
    """One pair per position of the value lists."""
    side = lambda values, k: {"attempted": 10, "failed": k % 2,
                              **{name: v[k] for (name, v) in values.items()}}
    return [{"parent": side(parent, k), "change": side(change, k)}
            for k in range(len(parent["latency"]))]


def test_summary_within_bound():
    summary = load_bench_pairs().summary
    parent = {"latency": [1.0, 2.0, 3.0], "throughput": [100.0, 100.0, 100.0]}
    # medians 2.0 -> 2.5 (exactly the bound) and 100 -> 91
    near = summary(pairs(parent, {"latency": [2.0, 2.5, 3.0],
                                  "throughput": [91.0, 91.0, 120.0]}), METRICS)
    assert near["parent"] == near["change"] == {"attempted": 30, "failed": 1}
    (lat, thr) = (near["metrics"]["latency"], near["metrics"]["throughput"])
    assert lat["within_bound"] and thr["within_bound"]
    assert (lat["change_over_parent"], lat["wins"], lat["losses"]) == (1.25, 0, 2)
    assert (thr["wins"], thr["losses"]) == (1, 2)
    assert not lat["beyond_parent_iqr"]
    # medians 2.0 -> 2.6 and 100 -> 89: both past their bounds
    far = summary(pairs(parent, {"latency": [2.6, 2.6, 2.6],
                                 "throughput": [89.0, 89.0, 89.0]}), METRICS)
    assert not far["metrics"]["latency"]["within_bound"]
    assert not far["metrics"]["throughput"]["within_bound"]
    assert far["metrics"]["throughput"]["beyond_parent_iqr"]
