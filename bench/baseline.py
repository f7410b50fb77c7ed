"""Run the benchmark over several seeds and record a baseline.

    python3 bench/baseline.py --out bench/baseline.json

For each workload of ``BENCHMARK.json`` it runs ``run.py`` once per seed
1-10 for ``run_seconds`` and reports each end-to-end metric's median,
quartiles and spread (the distance between the quartiles over the median,
the figure a bound is compared with), and flags a spread above a third of
the metric's bound.  It also runs the traced mode twice and checks that
every count repeats exactly.  ``--out`` writes all of it, with the
machine, the workload reasons and the layer prediction table, as JSON.
The exit code is 1 if an item failed, a spread was flagged or a count
did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # seeds per workload, as many as the bounds are checked over
TRACE_RUNS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_table(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        (q1, med, q3) = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "run_seconds": seconds,
        "seeds": list(range(1, RUNS + 1)),
        "workloads": {w["name"]: w["why"] for w in bench["workloads"]},
        "predictions": {
            **{f"{layer}.{{calls,self_s}}": {"moves": m, "on": w}
               for (layer, (m, w)) in tracing.LAYERS.items()},
            **{name: {"moves": m, "on": w} for (name, (_, m, w)) in tracing.DERIVED.items()},
        },
        "end_to_end": {},
    }
    ok = True
    for workload in record["workloads"]:
        results = [run(workload, seed, seconds, 0) for seed in record["seeds"]]
        failed = sum(r["failed"] for r in results)
        table = spread_table(results)
        record["end_to_end"][workload] = {"failed": failed, "metrics": table}
        print(f"{workload}: {failed} failed items over {len(results)} runs")
        for (name, row) in table.items():
            limit = bounds[name] / 3
            flag = "" if row["spread"] < limit else "  SPREAD ABOVE BOUND/3"
            ok = ok and (flag == "") and failed == 0
            print(f"  {name:18s} median {row['median']:.6g} {row['unit']:4s} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.3f} "
                  f"(bound/3 {limit:.3f}){flag}")

    # every traced run traces every workload; the named one only sets which
    # workload the overhead is measured on
    traces = [run(bench["workloads"][0]["name"], 1, seconds, 1) for _ in range(TRACE_RUNS)]
    counts = [{k: v["value"] for (k, v) in t["metrics"].items()
               if v["unit"] == "count"} for t in traces]
    repeat = all(c == counts[0] for c in counts)
    ok = ok and repeat
    record["trace"] = {"counts_repeat": repeat, "runs": [
        {k: v["value"] for (k, v) in t["metrics"].items()} for t in traces]}
    print(f"trace: counts repeat exactly over {len(traces)} runs: {repeat}")

    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
