"""Time and peak memory of each engine on programs with deep contexts or many runs.

    python3 tools/deep_scaling.py [--sizes N]

Two programs grow a thread's evaluation context with their size: the
non-tail-recursive count of a list of ``n`` elements, whose context grows
to ``n`` frames, and ``(let (x 1) (+ 1 (+ 1 ... x)))`` with ``n``
additions, a context ``n`` frames deep from the first step.  A third
grows the number of runs instead: ``n`` sequential flips, each consed
onto a list in one heap cell, which is counted at the end, so the 2^n
runs never merge: ``evaluate_policy``'s frontier and the analysis memo
double with each flip, and the sampler's segment memo with each run
that its trials reach: 10,000 trials reach about 91% of the 4,096 runs
of 12 flips, and nearly every run of fewer.
Every cell runs one engine on one program in a fresh process, under
round-robin where the engine takes a policy, and reports its wall time
and the process's peak RSS; the answer is checked.  On the deep
programs, linear engines double both from one size to the next (peak RSS
beyond the interpreter's own); the wide sizes are two flips apart, four
times the runs.
``--sizes N`` keeps the ``N`` smallest sizes of each program.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ivalbench import lang, models, sched  # noqa: E402

# program -> (its sizes, its source at a size, its answer at a size)
PROGRAMS = {
    "list count": ((200, 400, 800),
                   lambda n: ("((rec (len l) (if (= l ()) 0 (+ 1 (len (snd l))))) "
                              + "(pair #t " * n + "()" + ")" * n + ")"),
                   lambda n: n),
    "let chain": ((500, 1000, 2000),
                  lambda n: "(let (x 1) " + "(+ 1 " * n + "x" + ")" * (n + 1),
                  lambda n: n + 1),
    "wide flips": ((8, 10, 12),
                   lambda n: ("(let (l (alloc ())) (seq "
                              + "(store l (pair (flip 1 2) (load l))) " * n
                              + "((rec (len x) (if (= x ()) 0 (+ 1 (len (snd x))))) "
                              + "(load l))))"),
                   lambda n: n),
}
ENGINES = {
    "evaluate_policy": lambda prog, budget: sched.evaluate_policy(
        prog, sched.round_robin(), budget, models.read_int),
    "monte_carlo, 10,000 trials": lambda prog, budget: sched.monte_carlo(
        prog, sched.round_robin(), budget, models.read_int, 10_000, seed=1).mean,
    "extremal_expectation": lambda prog, budget: sched.extremal_expectation(
        prog, budget, models.read_int).lo,
}


def cell(program: str, size: int, engine: str) -> dict:
    """Run one engine on one program in this process."""
    (_, source, answer) = PROGRAMS[program]
    prog = lang.parse(source(size))
    t0 = time.perf_counter()
    got = ENGINES[engine](prog, 10 * size + 10)
    seconds = time.perf_counter() - t0
    if got != answer(size):
        raise SystemExit(f"{program} {size} under {engine}: {got}, not {answer(size)}")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {"seconds": seconds, "peak_rss_mb": peak_kb / 1024}


def measure(program: str, size: int, engine: str) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--cell", program, str(size), engine],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{program} {size} under {engine} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def table(sizes: int) -> str:
    lines = ["| program | " + " | ".join(f"`{e}`" for e in ENGINES) + " |",
             "| --- |" + " --- |" * len(ENGINES)]
    for (program, (all_sizes, _, _)) in PROGRAMS.items():
        row = [f"{program}, " + " / ".join(f"{n:,}" for n in all_sizes[:sizes])]
        for engine in ENGINES:
            cells = [measure(program, n, engine) for n in all_sizes[:sizes]]
            row.append(" / ".join(f"{c['seconds']:.2f}" for c in cells) + " s, "
                       + " / ".join(f"{c['peak_rss_mb']:.0f}" for c in cells) + " MB")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--sizes", type=int, default=3, choices=(1, 2, 3))
    p.add_argument("--cell", nargs=3, metavar=("PROGRAM", "SIZE", "ENGINE"),
                   help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.cell:
        (program, size, engine) = args.cell
        print(json.dumps(cell(program, int(size), engine)))
    else:
        print(table(args.sizes))


if __name__ == "__main__":
    main()
