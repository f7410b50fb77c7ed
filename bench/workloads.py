"""The benchmark's workloads: their items, exact-answer guards and set-up.

A workload is a fixed list of items.  Each item calls the same in-process
functions a CLI subcommand calls and returns ``(ok, work)``: whether its
exact-answer guard held, and how many units of work it did (analyses,
instances or Monte-Carlo trials).  An item that raises or whose guard
fails is counted as failed; the run goes on.

* ``explore``: ``sched.extremal_expectation`` on every bundled program
  and the replay of both extracted adversaries of the DLM counter (one
  item, counted as two analyses).
  Exact, so it ignores the seed.
* ``algebra``: every law of ``laws.LAWS`` on seeded instances, the
  ``skiplist-cost`` cases and the bundled coupling script.  The instances
  come from the ``laws`` subcommand's default seed; the seed orders the
  laws.
* ``sample``: ``sched.monte_carlo`` on the concurrent bundled programs
  under round-robin and seeded-random scheduling.  The sampling seeds are
  the ``simulate`` subcommand's defaults, so each 3-sigma check gives the
  same verdict on every run instead of failing by chance on about 0.3% of
  seeds; the seed orders the items.

Every pass runs the same items with the same inputs, so percentiles over
several passes are stable however many passes fit in a run.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from importlib import resources
from itertools import combinations
from typing import Callable

from ivalbench import comp, coupling, coupling_script, lang, laws, models, sched

EXPLORE_BUDGET = 800
SAMPLE_BUDGET = 3000  # round-robin stutters on blocked threads, so sampling needs more steps
SAMPLE_TRIALS = 100
SAMPLE_SEED = 1  # `simulate --seed` default
SCHED_SEED = 0  # `simulate --sched-seed` default
LAW_CASES = 60  # instances of each law per pass
# `laws --seed` default.  The instances are fixed because their cost is
# heavy-tailed: over seeds 1-5 the slowest bind-congruence instance took
# 0.12-1.0 s, which moved throughput and tail far more than any bound.
LAW_SEED = 7
SKIPLIST_KEYS = (2, 4, 6, 8, 10)  # `skiplist-cost` defaults

# program -> (functional, scheduler-extremal lo, hi), the paper's case studies
PROGRAMS = {
    "count_true_client": ("read", F(3), F(3)),
    "dlm_counter_b2": ("pow2-minus-1", F(3, 2), F(5, 2)),
    "flip": ("true-indicator", F(1, 2), F(1, 2)),
    "morris_n3": ("read", F(3), F(3)),
    "skiplist_seq": ("pair-cost", F(15, 4), F(15, 4)),
    "skiplist_staged": ("pair-cost", F(9, 4), F(9, 4)),
    "unbiased_counter_t2": ("read", F(2), F(2)),
    "unbiased_counter_t3": ("read", F(3), F(3)),
}
REPLAYED = "dlm_counter_b2"  # the program whose adversaries differ
CONCURRENT = ("count_true_client", "dlm_counter_b2", "skiplist_staged",
              "unbiased_counter_t2", "unbiased_counter_t3")


@dataclass
class Item:
    name: str
    run: Callable[[], tuple]


@dataclass
class Workload:
    name: str
    items: list
    tail_q: float  # reported tail percentile
    min_passes: int  # guarantees at least ten item runs beyond ``tail_q``
    work_unit: str
    prepare: Callable[[], None] = lambda: None  # untimed, after set-up


def read_programs() -> dict:
    """Parse every bundled program: name -> AST."""
    base = resources.files("ivalbench.programs")
    return {name: lang.parse(base.joinpath(name + ".sexp").read_text())
            for name in PROGRAMS}


def functional(name: str):
    return models.FUNCTIONALS[PROGRAMS[name][0]]


# ---------------------------------------------------------------------------
# explore


def explore(seed: int) -> Workload:
    progs = read_programs()
    # the analysis the replay needs; only it outlives its item, so the heap
    # an item starts from, and what its collections traverse, does not
    # depend on what ran before it
    kept = {}

    def analyse(name):
        def run():
            _, lo, hi = PROGRAMS[name]
            res = sched.extremal_expectation(progs[name], EXPLORE_BUDGET, functional(name))
            if name == REPLAYED:
                kept["res"] = res
            return (res.lo, res.hi) == (lo, hi), 1
        return Item(f"analyse/{name}", run)

    def replay():
        # both adversaries in one item, as the `counter-bias` subcommand
        # replays them
        res = kept.pop("res")
        got = [sched.evaluate_policy(progs[REPLAYED], sched.extract_policy(res, d),
                                     EXPLORE_BUDGET, functional(REPLAYED))
               for d in ("lo", "hi")]
        return got == [res.lo, res.hi], 2

    items = []
    for name in PROGRAMS:
        items.append(analyse(name))
        if name == REPLAYED:
            items.append(Item(f"replay/{REPLAYED}", replay))
    return Workload("explore", items, tail_q=70, min_passes=4, work_unit="analyses")


# ---------------------------------------------------------------------------
# algebra


def algebra(seed: int) -> Workload:
    items = []
    for (suite, name, fn) in random.Random(seed).sample(laws.LAWS, len(laws.LAWS)):
        label = f"{suite}/{name}"
        state = {}

        def law(k, fn=fn, label=label, state=state):
            def run():
                if k == 0:  # every pass draws the same instances
                    state["rng"] = laws.rng_for(LAW_SEED, label)
                return fn(state["rng"]) is None, 1
            return run

        items += [Item(f"law/{label}/{k}", law(k)) for k in range(LAW_CASES)]

    for size in range(len(SKIPLIST_KEYS) + 1):
        for keys in combinations(SKIPLIST_KEYS, size):
            spec = models.skip_list_spec(keys)
            for q in SKIPLIST_KEYS:
                bound = models.skip_cost_bound(sum(1 for k in keys if k < q))

                def cost(spec=spec, q=q, bound=bound):
                    hi = comp.ex_max(lambda tb: F(models.skipcost(tb[0], tb[1], q)), spec)
                    return hi <= bound, 1

                items.append(Item(f"skiplist-cost/{keys}/{q}", cost))

    script = resources.files("ivalbench.couplings").joinpath("counter_k3.sexp").read_text()

    def couple():
        d = coupling_script.load_script(script)
        return coupling.check_witness(d.goal, d.witness).passed, 1

    items.append(Item("couple/counter_k3", couple))
    return Workload("algebra", items, tail_q=99, min_passes=4, work_unit="instances")


# ---------------------------------------------------------------------------
# sample


def policies() -> dict:
    return {"round-robin": sched.round_robin(),
            "seeded-random": sched.seeded_random(SCHED_SEED)}


def sample(seed: int) -> Workload:
    progs = read_programs()
    refs = {}

    def simulate(name, pname, policy):
        def run():
            mc = sched.monte_carlo(progs[name], policy, SAMPLE_BUDGET, functional(name),
                                   SAMPLE_TRIALS, SAMPLE_SEED, workers=1)
            _, lo, hi = PROGRAMS[name]
            ref = refs.get((name, pname))
            return ref is not None and lo <= ref <= hi and mc.contains(ref), mc.trials
        return Item(f"simulate/{name}/{pname}", run)

    items = [simulate(name, pname, policy)
             for name in CONCURRENT for (pname, policy) in policies().items()]
    random.Random(seed).shuffle(items)
    return Workload("sample", items, tail_q=75, min_passes=4, work_unit="trials",
                    prepare=lambda: refs.update(sample_references(progs)))


def sample_references(progs: dict) -> dict:
    """Exact value of each sampled (program, policy) pair, by
    ``evaluate_policy``; a pair whose evaluation raises is left out, so its
    items fail their check."""
    out = {}
    for name in CONCURRENT:
        for (pname, policy) in policies().items():
            try:
                out[(name, pname)] = sched.evaluate_policy(
                    progs[name], policy, SAMPLE_BUDGET, functional(name))
            except Exception as exc:  # reported, then counted as failed items
                print(f"reference {name}/{pname} failed: {exc!r}", file=sys.stderr)
    return out


WORKLOADS = {"explore": explore, "algebra": algebra, "sample": sample}
