"""Run one workload in this process and print one JSON line.

Modes:

* ``setup``: import the package and build the workload's items, then
  report the moment they were ready;
* ``measure``: set up, then run whole passes over the items, untraced,
  until ``--seconds`` of item time have passed and at least the
  workload's minimum number of passes is done; between items, at even
  intervals, start ``SETUP_PROBES`` fresh ``setup`` processes one at a
  time and time each;
* ``trace``: set up and run one pass with every layer traced; report the
  raw per-layer counts and times.  With ``--overhead``, first set up and
  run a warm-up pass and a timed pass untraced, and report both pass
  times.

``run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import ivalbench  # noqa: E402  (needs SRC on the path)

import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh set-ups timed per run.  They are spread over the measured run
# because contention from other tenants of a shared host comes in bursts
# of 5-15 s that slow a whole burst of back-to-back set-ups alike.
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60


def percentile(sorted_xs: list, q: float) -> float:
    """Linear interpolation between closest ranks (``method="inclusive"``)."""
    pos = q / 100 * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


class Tally:
    def __init__(self):
        self.times: list = []  # wall-clock seconds of every item run
        self.work = 0
        self.passes = 0
        self.failed = 0
        self.failures: list = []

    def run(self, item: workloads.Item, around=None) -> None:
        t0 = time.perf_counter()
        try:
            ok, done = around(item.name, item.run) if around else item.run()
            detail = "wrong answer"
        except Exception as exc:  # a raising item is a failed item, not a failed run
            ok, done, detail = False, 0, repr(exc)
        self.times.append(time.perf_counter() - t0)
        if ok:
            self.work += done
        else:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{item.name}: {detail}")

    def run_pass(self, wl: workloads.Workload, around=None) -> None:
        for item in wl.items:
            self.run(item, around)
        self.passes += 1


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from the start of a fresh ``setup`` process until its items
    were ready."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--mode", "setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - started


def measure(wl: workloads.Workload, seconds: float, probe) -> dict:
    """Run passes over ``wl`` for ``seconds`` of item time; ``probe()``
    returns the set-up time of one fresh process."""
    wl.prepare()
    # The benchmark's set-up objects stay out of the collections the
    # program triggers; those run where they fall, inside the timed items.
    gc.freeze()
    tally = Tally()
    setups = []
    t0 = time.perf_counter()
    probing = 0.0  # time spent in probes, not counted as measured time
    while tally.passes < wl.min_passes or time.perf_counter() - t0 - probing < seconds:
        for item in wl.items:
            due = len(setups) * seconds / SETUP_PROBES
            if len(setups) < SETUP_PROBES and time.perf_counter() - t0 - probing >= due:
                p0 = time.perf_counter()
                setups.append(probe())
                probing += time.perf_counter() - p0
            tally.run(item)
        tally.passes += 1
    times = sorted(tally.times)
    return {
        "attempted": len(times),
        "failed": tally.failed,
        "failures": tally.failures,
        "passes": tally.passes,
        "elapsed_s": sum(times),
        "setups": setups,
        "work_unit": wl.work_unit,
        "tail_q": wl.tail_q,
        "latency_p50_s": percentile(times, 50),
        "latency_tail_s": percentile(times, wl.tail_q),
        "throughput_per_s": tally.work / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(build, seed: int, out: Path, overhead: bool) -> dict:
    """Set up and run one pass with every layer traced; ``build(seed)``
    sets up the workload.  With ``overhead``, first run a warm-up pass and
    a timed pass untraced, to compare the traced pass with."""
    untraced = None
    if overhead:
        wl = build(seed)
        wl.prepare()
        gc.freeze()
        Tally().run_pass(wl)
        t0 = time.perf_counter()
        Tally().run_pass(wl)
        untraced = time.perf_counter() - t0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = tracer.span("setup", build, seed)
        tracer.span("prepare", wl.prepare)
        gc.freeze()
        tally = Tally()
        t0 = time.perf_counter()
        tally.run_pass(wl, around=lambda item, run: tracer.span(f"item:{item}", run))
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.write(out)
    return {"attempted": len(tally.times), "failed": tally.failed,
            "failures": tally.failures, "spans": len(tracer.start),
            "untraced_s": untraced, "traced_s": traced, **tracer.summary()}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace-out", type=Path)
    p.add_argument("--overhead", action="store_true")
    args = p.parse_args()

    got = Path(ivalbench.__file__).resolve()
    if SRC.resolve() not in got.parents:
        print(f"ivalbench was imported from {got}, not from {SRC}", file=sys.stderr)
        return 2

    if args.mode == "trace":
        report = trace(workloads.WORKLOADS[args.workload], args.seed, args.trace_out,
                       args.overhead)
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed)
        ready = time.monotonic()
        report = (measure(wl, args.seconds, lambda: setup_probe(args.workload, args.seed))
                  if args.mode == "measure" else {})
        report["ready"] = ready
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
