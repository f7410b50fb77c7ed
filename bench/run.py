"""Benchmark of the ivalbench workbench: one workload per invocation.

    python3 bench/run.py --workload explore --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``explore`` (exact scheduler-extremal
analyses of the bundled case studies), ``algebra`` (algebraic laws,
skip-list cost bound and coupling check) and ``sample`` (Monte-Carlo
estimates under fixed schedulers).

``--trace 0`` runs the workload in one fresh process and prints its
end-to-end metrics:

* ``setup_s``: from process start until the items are ready (imports,
  parsing, building), the median of the measuring process's own set-up
  and ``worker.SETUP_PROBES`` fresh set-ups spread over the run;
* ``latency_p50_s`` and ``latency_tail_s``: percentiles over every item
  run of the run, each as measured.  The tail percentile is fixed per
  workload (explore p70, algebra p99, sample p75) and each workload runs
  enough passes that at least ten item runs lie beyond it; the report
  states the percentile and the number of item runs;
* ``throughput_per_s``: units of work (analyses, instances or trials)
  over the summed wall-clock time of all item runs;
* ``peak_rss_mb``: peak resident memory of the measuring process;
* ``failed_ratio``: items that raised or missed their exact-answer
  guard, over items attempted.  It is printed, and it is ``failed`` over
  ``attempted`` in the JSON line; it is not among the JSON metrics
  because it is normally 0.

``--trace 1`` traces one fixed pass of every workload, each in its own
process.  Each workload calls only some of the layers (``algebra`` never
reaches ``machine`` or ``sched``, for instance), so a trace of the named
workload alone would report a time of exactly 0 for the others on every
run; tracing all three measures every layer in every traced run.  Only
the named workload also runs untraced, to give ``trace.overhead_ratio``:
its traced pass time over its untraced pass time.  It prints the
per-layer metrics per workload and in total, and the JSON line carries
the totals.  Spans go to ``bench/out/spans-<workload>.tsv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 whenever that line is printed, and 2 without it, e.g. when the package
cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("explore", "algebra", "sample")
TIME_LIMIT_S = 170  # every child process is killed by then


class ChildFailed(Exception):
    pass


def run_child(args: list, deadline: float) -> dict:
    """Run ``worker.py`` with ``args``; return its JSON report and the
    monotonic time at which it was started."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # counts repeat exactly
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    sys.stderr.write(proc.stderr)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["started"] = started
    return report


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    m = run_child(["--mode", "measure", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds)], deadline)
    setups = [m["ready"] - m["started"], *m["setups"]]

    n = m["attempted"]
    print(f"workload {workload}, seed {seed}: {n} item runs in {m['passes']} passes, "
          f"{m['elapsed_s']:.1f} s of item time")
    rows = [
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        ("latency_p50_s", m["latency_p50_s"], "s", f"p50 of {n} item runs"),
        ("latency_tail_s", m["latency_tail_s"], "s", f"p{m['tail_q']:g} of {n} item runs"),
        ("throughput_per_s", m["throughput_per_s"], "1/s", f"{m['work_unit']} per item second"),
        ("peak_rss_mb", m["peak_rss_mb"], "MB", "measuring process"),
        ("failed_ratio", m["failed"] / n, "", f"{m['failed']} of {n} item runs"),
    ]
    for (name, value, unit, note) in rows:
        print(f"  {name:18s} {value:12.6g} {unit:4s} {note}")
    for failure in m["failures"]:
        print(f"  FAILED {failure}")
    return {"correct": m["failed"] == 0, "attempted": n, "failed": m["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for (name, value, unit, _) in rows[:5]}}


def traced(workload: str, seed: int, deadline: float) -> dict:
    import tracing

    out = HERE / "out"
    reports = {w: run_child(["--mode", "trace", "--workload", w, "--seed", str(seed),
                             "--trace-out", str(out / f"spans-{w}.tsv.gz"),
                             *(["--overhead"] if w == workload else [])], deadline)
               for w in WORKLOADS}
    overhead = reports[workload]["traced_s"] / reports[workload]["untraced_s"]
    columns = {w: tracing.layer_metrics([r], overhead if w == workload else float("nan"))
               for (w, r) in reports.items()}
    total = tracing.layer_metrics(list(reports.values()), overhead)
    print(f"traced one pass of each workload, seed {seed}: "
          + ", ".join(f"{w} {r['spans']} spans" for (w, r) in reports.items())
          + f"; overhead measured on {workload}")
    print(f"  {'metric':44s} {'unit':12s} " + " ".join(f"{c:>12s}" for c in (*WORKLOADS, "total")))
    for (name, (value, unit)) in total.items():
        cells = [columns[w][name][0] for w in WORKLOADS] + [value]
        print(f"  {name:44s} {unit:12s} " + " ".join(f"{c:12.6g}" for c in cells))
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    for r in reports.values():
        for failure in r["failures"]:
            print(f"  FAILED {failure}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for (name, (value, unit)) in total.items()}}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        result = (traced(args.workload, args.seed, deadline) if args.trace
                  else end_to_end(args.workload, args.seed, args.seconds, deadline))
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
