"""Measure the working tree against its last commit in alternating benchmark pairs.

    python3 tools/bench_pairs.py algebra=10 explore=3 sample=3 --out BENCH.json

The parent is ``HEAD``, exported with ``git archive`` into a fresh
temporary directory; the change is the working tree itself, untracked
files included.  The tool refuses to run when ``git status --porcelain``
shows no change, since the two sides would then be the same files.  For
every ``WORKLOAD=PAIRS`` argument, pair ``k`` (from 0) runs

    python3 bench/run.py --workload WORKLOAD --seed 1+k --seconds SECONDS

once on each side, the parent first in even pairs and the change first
in odd ones (``SECONDS`` is ``run_seconds`` of ``BENCHMARK.json``).

``--out`` gets the machine, the parent commit, the change as the
``git status --porcelain`` lines and the SHA-256 of ``git diff HEAD``,
every run, and per workload the ``failed``/``attempted`` counts and, for
each end-to-end metric of ``BENCHMARK.json``, each side's median,
quartiles and interquartile range, the pairs the change won and lost
(ties count for neither), the change's median relative to the parent's,
whether the medians differ by more than the parent's interquartile
range, and whether the change's median is within the metric's ``bound``:
no worse than the parent's by more than that fraction.  The file is
rewritten after every pair.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIRST_SEED = 1


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def export_head(dest: Path) -> None:
    """Write the files of ``HEAD`` under ``dest``."""
    archive = dest.with_suffix(".tar")
    git("archive", "--output", str(archive), "HEAD")
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()


def machine() -> dict:
    info = {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as f:
            names = [line.split(":", 1)[1].strip() for line in f
                     if line.startswith("model name")]
        if names:
            info["cpu"] = names[0]
    except OSError:
        pass
    return info


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: bench/run.py --workload {workload} --seed {seed} "
                 f"exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"attempted": report["attempted"], "failed": report["failed"],
            **{name: m["value"] for (name, m) in report["metrics"].items()}}


def spread(values: list) -> dict:
    (q1, median, q3) = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summary(pairs: list, metrics: list) -> dict:
    out = {side: {"attempted": sum(p[side]["attempted"] for p in pairs),
                  "failed": sum(p[side]["failed"] for p in pairs)}
           for side in ("parent", "change")}
    out["metrics"] = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        before = [p["parent"][name] for p in pairs]
        after = [p["change"][name] for p in pairs]
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
               "parent": spread(before), "change": spread(after),
               "wins": sum(sign * (a - b) > 0 for (a, b) in zip(after, before)),
               "losses": sum(sign * (a - b) < 0 for (a, b) in zip(after, before)),
               "pairs": len(pairs)}
        (pm, cm) = (row["parent"]["median"], row["change"]["median"])
        row["change_over_parent"] = cm / pm
        row["beyond_parent_iqr"] = abs(cm - pm) > row["parent"]["iqr"]
        row["within_bound"] = (cm <= pm * (1 + m["bound"]) if m["better"] == "lower"
                               else cm >= pm * (1 - m["bound"]))
        out["metrics"][name] = row
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("runs", nargs="+", metavar="WORKLOAD=PAIRS")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()

    runs = []
    for spec in args.runs:
        (workload, _, n) = spec.partition("=")
        if not n.isdigit() or int(n) < 2:
            p.error(f"{spec!r}: expected WORKLOAD=PAIRS with at least 2 pairs")
        runs.append((workload, int(n)))
    status = git("status", "--porcelain").splitlines()
    if not status:
        p.error("the working tree has no change against HEAD; nothing to measure")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    record = {"machine": machine(),
              "commits": {"parent": git("rev-parse", "HEAD").strip(),
                          "change": "working tree",
                          "change_status": status,
                          "change_diff_sha256": hashlib.sha256(
                              git("diff", "--binary", "HEAD").encode()).hexdigest()},
              "command": "python3 bench/run.py --workload W --seed S --seconds "
                         f"{seconds}",
              "first_seed": FIRST_SEED, "workloads": {}}

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": ROOT}
        export_head(checkouts["parent"])
        for (workload, n) in runs:
            pairs = []
            for k in range(n):
                seed = FIRST_SEED + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(checkouts[side], workload, seed, seconds)
                pairs.append(pair)
                done = summary(pairs, bench["end_to_end"]) if len(pairs) > 1 else {}
                record["workloads"][workload] = {**done, "pairs": pairs}
                args.out.write_text(json.dumps(record, indent=1) + "\n")
                print(f"{workload} pair {k + 1}/{n} (seed {seed}): throughput "
                      f"{pair['parent']['throughput_per_s']:.4g} -> "
                      f"{pair['change']['throughput_per_s']:.4g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
