"""Scheduler policies, exact evaluation, backward induction, sampling."""

import collections
import importlib.util
import itertools
import math
import pickle
import random
import sys
import traceback
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest

from ivalbench import lang, machine, models, sched
from ivalbench.lang import (
    Alloc, App, Cas, Faa, Flip, Fork, If, Let, Load, Prim, Rec, Store, Var, Wait,
    num, parse, seq, unit,
)
from ivalbench.models import read_int
import plugging_reference as ref


def lite_counter(threads: int):
    """Flip-guarded fetch-and-add counter, small enough for brute force."""
    l, d = Var("l"), Var("d")
    incr = If(Flip(num(1), num(2)), seq(Faa(l, num(1)), unit), unit)
    worker = seq(incr, Faa(d, num(1)))
    body = [Fork(worker) for _ in range(threads - 1)]
    body += [incr, Wait(d, num(threads - 1)), Load(l)]
    return Let("l", Alloc(num(0)), Let("d", Alloc(num(0)), seq(*body)))


def test_round_robin_alternates():
    c = machine.initial_config([parse("(flip 1 2)"), parse("(flip 1 2)")])
    pol = sched.round_robin()
    assert pol.choose(0, c) == 0
    assert pol.choose(1, c) == 1
    assert pol.choose(2, c) == 0


def test_seeded_random_reproducible():
    a, b = sched.seeded_random(5), sched.seeded_random(5)
    t = machine.initial_config([parse("1"), parse("2"), parse("3")])
    assert [a.choose(0, t)] * 3 == [b.choose(0, t)] * 3
    assert a.choose(4, t) == b.choose(4, t)
    c = sched.seeded_random(6)
    picks_a = [a.choose(s, t) for s in range(40)]
    picks_c = [c.choose(s, t) for s in range(40)]
    assert picks_a != picks_c


def test_seeded_random_caches_mix_per_step():
    # no mix is cached any more: each choice is the mix of (seed, step)
    # reduced by the pool size, at any step and in any order, and the
    # policy holds the seed alone
    pol = sched.seeded_random(5)
    t = machine.initial_config([parse("1"), parse("2"), parse("3")])
    steps = [3, 0, 1, 2, 3, 4, 2, (1 << 14) + 5, 9, 7, 5]
    assert [pol.choose(s, t) for s in steps] == [sched._mix(5, s) % 3 for s in steps]
    assert pol.choose.args == (5,)
    assert pickle.loads(pickle.dumps(pol)).choose.args == (5,)


def test_policies_pickle():
    c = machine.initial_config([parse("1"), parse("2"), parse("3")])
    for pol in (sched.round_robin(), sched.seeded_random(5)):
        copy = pickle.loads(pickle.dumps(pol))
        assert copy.name == pol.name
        assert [copy.choose(s, c) for s in range(6)] == [pol.choose(s, c) for s in range(6)]


def test_evaluate_policy_single_flip():
    f = lambda v: F(1) if v == __import__("ivalbench.lang", fromlist=["lang"]).TRUE else F(0)
    for pol in (sched.round_robin(), sched.seeded_random(1)):
        got = sched.evaluate_policy(parse("(flip 1 2)"), pol, 3,
                                    models.read_true_indicator)
        assert got == F(1, 2)


def test_evaluate_policy_constant_program():
    got = sched.evaluate_policy(parse("(+ 2 3)"), sched.round_robin(), 4, read_int)
    assert got == 5


def test_evaluate_policy_requires_termination():
    spin = parse("(let (lk (alloc #t)) "
                 "((rec (sp u) (if (cas lk #f #t) () (sp ()))) ()))")
    with pytest.raises(sched.ScheduleError):
        sched.evaluate_policy(spin, sched.round_robin(), 30, read_int)


def test_counter_round_robin_exact():
    prog = models.unbiased_counter_program(2, max_value=2)
    assert sched.evaluate_policy(prog, sched.round_robin(), 70, read_int) == 2


def test_extremal_single_thread_matches_policy_eval():
    prog = parse("(if (flip 1 3) 9 0)")
    res = sched.extremal_expectation(prog, 5, read_int)
    got = sched.evaluate_policy(prog, sched.round_robin(), 5, read_int)
    assert res.lo == res.hi == got == F(3)


def test_extremal_counter_exact():
    for threads in (1, 2):
        prog = models.unbiased_counter_program(threads, max_value=2)
        res = sched.extremal_expectation(prog, 70, read_int)
        assert res.lo == res.hi == threads


def test_extremal_budget_violation_reported():
    prog = models.unbiased_counter_program(2, max_value=2)
    with pytest.raises(sched.ScheduleError):
        sched.extremal_expectation(prog, 12, read_int)


def test_extremal_deadlock_reported():
    prog = parse("(let (l (alloc 0)) (wait l 1))")
    with pytest.raises(sched.ScheduleError):
        sched.extremal_expectation(prog, 10, read_int)


def test_deep_deadlock_reported_within_the_recursion_limit():
    # the message prints the configuration, and a thread prints its
    # expression by loops, however deep its context
    prog = parse("(let (r (alloc 0)) " + "(+ 1 " * 2000 + "(seq (wait r 1) 1)" + ")" * 2001)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        with pytest.raises(sched.ScheduleError, match="^deadlock: no thread can step in") as e:
            sched.extremal_expectation(prog, 10_000, read_int)
    finally:
        sys.setrecursionlimit(limit)
    assert "(wait (loc 0) 1)" in str(e.value)


def test_deadlock_over_a_deep_heap_value_reported_within_the_recursion_limit():
    # the message prints the heap, and a pair prints by a loop, however
    # deep it nests
    prog = parse("(let (r (alloc " + "(pair #t " * 2000 + "()" + ")" * 2000 + ")) (wait r 1))")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        for analysis in (sched.extremal_expectation, sched.brute_force_extrema):
            with pytest.raises(sched.ScheduleError, match="^deadlock: no thread can step in") as e:
                analysis(prog, 10, read_int)
            assert "(#t, " * 2000 + "()" + ")" * 2000 in str(e.value)
    finally:
        sys.setrecursionlimit(limit)


def test_extremal_restores_recursion_limit():
    # the analysis walks on its own stack and leaves the limit as it found
    # it, even when it raises; a limit left raised lets a later deep
    # recursion overflow the C stack
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        res = sched.extremal_expectation(parse("(flip 1 2)"), 40_000,
                                         models.read_true_indicator)
        assert res.lo == res.hi == F(1, 2)
        assert sys.getrecursionlimit() == 1000
        with pytest.raises(sched.ScheduleError):
            sched.extremal_expectation(parse("(let (l (alloc 0)) (wait l 1))"), 40_000,
                                       read_int)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(limit)


def test_extremal_long_schedule_needs_no_recursion_limit(monkeypatch):
    # 3,000 loop iterations of six primitive steps each: a walk that
    # recursed once per step would have to raise the limit
    def refuse(limit):
        raise AssertionError("the analysis must not touch the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    prog = parse("(let (l (alloc 0)) ((rec (f n) (if (< n 1) (load l) "
                 "(seq (faa l 1) (f (- n 1))))) 3000))")
    res = sched.extremal_expectation(prog, 40_000, read_int)
    assert res.lo == res.hi == 3000
    assert res.longest_path == 18_006


def test_deep_values_step_without_recursion():
    # a pair 2,000 deep is a value and is read as one on the machine's
    # own stack, at the default recursion limit
    deep = "(pair #t " * 2000 + "()" + ")" * 2000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        res = sched.extremal_expectation(parse(f"(fst {deep})"), 10,
                                         models.read_true_indicator)
        assert res.lo == res.hi == 1
        assert parse(deep).is_val
        assert lang.to_val(parse(f"(snd {deep})").args[0]).fst == lang.TRUE
    finally:
        sys.setrecursionlimit(limit)


DEEP_LIST = "(pair 1 " * 3000 + "()" + ")" * 3000


@pytest.mark.parametrize("text", [
    f"(let (l {DEEP_LIST}) (= l l))",
    f"(let (r (alloc {DEEP_LIST})) (cas r {DEEP_LIST} 0))",
    f"(let (r (alloc {DEEP_LIST})) (seq (wait r {DEEP_LIST}) #t))",
], ids=["=", "cas", "wait"])
def test_deep_values_compare_without_recursion(text):
    # comparing a 3,000-deep pair list with itself walks an explicit
    # stack in the exact analysis, a replay and sampling
    prog = parse(text)
    f = models.read_true_indicator
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        res = sched.extremal_expectation(prog, 10, f)
        assert res.lo == res.hi == 1
        assert sched.evaluate_policy(prog, sched.round_robin(), 10, f) == 1
        assert sched.monte_carlo(prog, sched.round_robin(), 10, f, 3, seed=1).mean == 1.0
    finally:
        sys.setrecursionlimit(limit)


def test_deep_let_substitutes_without_recursion():
    # a let whose body nests 3,000 deep: ``subst`` rebuilds the body on
    # an explicit stack, and every engine then runs the whole chain
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        chain = parse("(let (x 1) " + "(+ 1 " * 3000 + "x" + ")" * 3001)
        res = sched.extremal_expectation(chain, 4000, read_int)
        assert res.lo == res.hi == 3001
        assert sched.evaluate_policy(chain, sched.round_robin(), 4000, read_int) == 3001
        assert sched.monte_carlo(chain, sched.round_robin(), 4000, read_int, 3,
                                 seed=1).mean == 3001.0
    finally:
        sys.setrecursionlimit(limit)


def test_extracted_adversary_ignores_the_step_count():
    # the adversary is a map from configuration to thread: a memoized
    # configuration gets its recorded choice at any step
    prog = models.dlm_counter_program(2, bits=2)
    res = sched.extremal_expectation(prog, 80, models.read_pow2_minus_1)
    for (direction, table) in (("lo", res.policy_lo), ("hi", res.policy_hi)):
        pol = sched.extract_policy(res, direction)
        for c in res.memo:
            assert pol.choose(0, c) == pol.choose(79, c) == table[c]


def test_policy_extraction_replays_extrema():
    prog = models.dlm_counter_program(2, bits=2)
    res = sched.extremal_expectation(prog, 80, models.read_pow2_minus_1)
    assert res.lo < 2 < res.hi
    for direction, value in (("lo", res.lo), ("hi", res.hi)):
        pol = sched.extract_policy(res, direction)
        assert sched.evaluate_policy(prog, pol, 80,
                                     models.read_pow2_minus_1) == value


def test_concrete_policies_inside_extrema():
    prog = models.dlm_counter_program(2, bits=2)
    res = sched.extremal_expectation(prog, 90, models.read_pow2_minus_1)
    for pol in (sched.round_robin(), sched.seeded_random(2), sched.seeded_random(9)):
        got = sched.evaluate_policy(prog, pol, 90, models.read_pow2_minus_1)
        assert res.lo <= got <= res.hi


def test_extracted_adversary_beats_round_robin():
    prog = models.dlm_counter_program(2, bits=2)
    res = sched.extremal_expectation(prog, 80, models.read_pow2_minus_1)
    rr = sched.evaluate_policy(prog, sched.round_robin(), 80,
                               models.read_pow2_minus_1)
    hi = sched.extract_policy(res, "hi")
    assert sched.evaluate_policy(prog, hi, 80, models.read_pow2_minus_1) > rr


def test_brute_force_matches_memoized():
    prog = lite_counter(2)
    res = sched.extremal_expectation(prog, 40, read_int)
    bf = sched.brute_force_extrema(prog, 40, read_int)
    assert (bf.lo, bf.hi) == (res.lo, res.hi)
    assert bf.nodes <= 10 ** 6


def test_stutter_moves_do_not_change_extrema():
    prog = parse("(let (l (alloc 0)) (seq (fork (store l 5)) "
                 "(if (flip 1 2) (load l) (load l))))")
    base = sched.brute_force_extrema(prog, 9, read_int)
    assert (base.lo, base.hi) == (F(0), F(5))
    for extra in (1, 2):
        bf = sched.brute_force_extrema(prog, 9 + extra, read_int,
                                       allow_stutters=extra)
        assert (bf.lo, bf.hi) == (base.lo, base.hi)


def test_monte_carlo_flip_binomial():
    mc = sched.monte_carlo(parse("(flip 1 2)"), sched.round_robin(), 3,
                           models.read_true_indicator, trials=20000, seed=3)
    assert mc.contains(F(1, 2))
    assert abs(mc.mean - 0.5) < 0.02


def test_monte_carlo_seed_reproducible():
    prog = models.unbiased_counter_program(2, max_value=2)
    a = sched.monte_carlo(prog, sched.seeded_random(4), 80, read_int, 500, seed=8)
    b = sched.monte_carlo(prog, sched.seeded_random(4), 80, read_int, 500, seed=8)
    assert (a.mean, a.variance) == (b.mean, b.variance)


def test_monte_carlo_variance_from_exact_sums():
    # values near 1e9 differ by one: subtracting the rounded square of the
    # mean from the rounded mean square would cancel every significant digit
    prog = parse("(if (flip 1 2) 1000000001 1000000000)")
    for seed in range(1, 6):
        mc = sched.monte_carlo(prog, sched.round_robin(), 5, read_int, 1000, seed=seed)
        assert 0.24 < mc.variance <= 0.25
        assert mc.contains(F(2000000001, 2))


def test_monte_carlo_worker_invariance():
    prog = models.unbiased_counter_program(2, max_value=2)
    a = sched.monte_carlo(prog, sched.round_robin(), 80, read_int, 600, seed=8,
                          workers=1)
    b = sched.monte_carlo(prog, sched.round_robin(), 80, read_int, 600, seed=8,
                          workers=2)
    assert (a.mean, a.variance) == (b.mean, b.variance)
    with pytest.raises(ValueError):
        sched.monte_carlo(prog, sched.round_robin(), 80, read_int, 600, seed=8, workers=0)


def test_step_memo_cap_changes_no_draw(monkeypatch):
    # the sampler clears its step memo before a segment walk once it holds
    # more than the cap; a cache, so every run and the result stay the same
    prog = models.unbiased_counter_program(2, max_value=2)
    pol = sched.seeded_random(4)
    start = machine.initial_config([prog])

    class Steps(dict):
        clears = 0

        def clear(self):
            Steps.clears += 1
            super().clear()

    def ends(steps):
        segments = {}
        return [machine.sample_run(start, pol.choose, 80, random.Random(k), segments, steps)
                for k in range(50)]

    want = sched.monte_carlo(prog, pol, 80, read_int, 300, seed=8)
    want_ends = ends({})
    monkeypatch.setattr(machine, "STEP_MEMO_CAP", 1)
    assert sched.monte_carlo(prog, pol, 80, read_int, 300, seed=8) == want
    assert ends(Steps()) == want_ends and Steps.clears > 0


def test_monte_carlo_needs_a_trial():
    prog = parse("(flip 1 2)")
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            sched.monte_carlo(prog, sched.round_robin(), 3, read_int, trials, seed=1)


class StubRng:
    """``random()`` returns a fixed float, ``getrandbits(53)`` fixed bits."""

    def __init__(self, u: float, bits=None):
        self.u, self.bits = u, bits

    def random(self):
        return self.u

    def getrandbits(self, k):
        assert k == machine.UNIT_BITS and self.bits is not None, "no refinement expected"
        return self.bits


def sampled_first_thread(text: str, rng) -> lang.Expr:
    start = machine.initial_config([parse(text)])
    end = machine.sample_run(start, sched.round_robin().choose, 1, rng, {}, {})
    return end.threads[0].focus


def test_sample_run_chooses_exactly():
    # float(1/3) lies below 1/3, in the 53-bit cell that contains 1/3: the
    # cell is refined by further bits instead of being compared as a float
    u = float(F(1, 3))
    assert F(u) < F(1, 3)
    assert sampled_first_thread("(flip 1 3)", StubRng(u, 0)) == lang.Lit(lang.TRUE)
    assert sampled_first_thread("(flip 1 3)", StubRng(u, 2 ** 53 - 1)) == lang.Lit(lang.FALSE)
    # a dyadic threshold never falls inside a cell: no bits beyond random()
    assert sampled_first_thread("(flip 1 4)", StubRng(0.25)) == lang.Lit(lang.FALSE)
    assert sampled_first_thread("(flip 1 4)", StubRng(0.25 - 2 ** -53)) == lang.Lit(lang.TRUE)
    assert sampled_first_thread("(flip 1 1)", StubRng(1 - 2 ** -53)) == lang.Lit(lang.TRUE)
    assert sampled_first_thread("(flip 0 1)", StubRng(0.0)) == lang.Lit(lang.FALSE)


def reference_sample_run(start, choose, budget, rng):
    """The reference for ``machine.sample_run``: one ``choose`` call and
    one ``machine.config_step`` per step, with no memo."""
    c = start
    for step in range(budget):
        if machine.is_terminated(c):
            return c
        succ = machine.config_step(c, choose(step, c), {})
        if len(succ) == 1:
            c = succ[0][1]
        else:
            (den, cums) = row_of(succ)
            c = succ[machine.pick_outcome(den, cums, rng)][1]
    return c


def row_of(succ):
    """(common denominator, cumulative numerators) of a step's pairs."""
    den = math.lcm(*(p.denominator for (p, _) in succ))
    return den, tuple(itertools.accumulate(p.numerator * (den // p.denominator)
                                           for (p, _) in succ))


def test_segment_memo_matches_the_reference_sampler():
    # the random programs of the agreement tests below and both extracted
    # adversaries of the DLM counter: each trial ends at the same
    # configuration with the same rng state
    rng = random.Random(2024)
    progs = [random_concurrent_program(rng) for _ in range(60)]
    cases = [(prog, pol, budget) for prog in progs
             for pol in (sched.round_robin(), sched.seeded_random(3))
             for budget in (1, 4, 12, 40)]
    dlm = models.dlm_counter_program(2, bits=2)
    res = sched.extremal_expectation(dlm, 80, models.read_pow2_minus_1)
    cases += [(dlm, sched.extract_policy(res, d), 80) for d in ("lo", "hi")]
    # the second draw's outcomes are reached one step apart, and from there
    # the run ends within the budget or at it
    staggered = parse("(let (x (if (flip 1 2) 0 (let (y 0) 0))) "
                      "(if (flip 1 2) 1 (+ 0 (+ 0 0))))")
    cases += [(staggered, sched.round_robin(), budget) for budget in range(10)]
    seen = collections.Counter()
    for (prog, pol, budget) in cases:
        start = machine.initial_config([prog])
        (segments, steps) = ({}, {})
        for trial in range(30):
            (want_rng, got_rng) = (random.Random(sched._mix(1, trial)) for _ in range(2))
            path = []

            def recording(step, c):
                path.append((c, pol.choose(step, c)))
                return path[-1][1]

            want = reference_sample_run(start, recording, budget, want_rng)
            got = machine.sample_run(start, pol.choose, budget, got_rng, segments, steps)
            assert got == want and got_rng.getstate() == want_rng.getstate()
            entries = [machine.config_step(c, i, {}) for (c, i) in path]
            seen["stutter"] += any(len(e) == 1 and e[0][1] == c
                                   for (e, (c, _)) in zip(entries, path))
            if entries and len(entries[-1]) > 1:
                seen["ends right after a draw"] += 1
            elif len(path) == budget and not machine.is_terminated(want):
                seen["stops mid-segment at the budget"] += 1
    assert len(seen) == 3 and min(seen.values()) > 100, seen


def test_segment_memo_replays_without_choosing():
    # the same trials again over the same memos: every segment is a memo
    # hit, so the policy is never asked
    prog = models.dlm_counter_program(2, bits=2)
    choose = sched.seeded_random(0).choose
    calls = []

    def counting(step, c):
        calls.append(step)
        return choose(step, c)

    (segments, steps) = ({}, {})
    start = machine.initial_config([prog])

    def ends():
        return [machine.sample_run(start, counting, 3000,
                                   random.Random(sched._mix(1, trial)), segments, steps)
                for trial in range(100)]

    first = ends()
    assert calls and all(map(machine.is_terminated, first))
    calls.clear()
    assert ends() == first
    assert not calls


def load_bench(name: str):
    """The module ``bench/<name>.py``, loaded once; ``bench/`` lies
    outside the test paths."""
    key = f"bench_{name}"
    if key not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(key, path)
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def test_sample_pass_steps_each_thread_once(monkeypatch):
    # one pass of the benchmark's ``sample`` workload with the memos and
    # with the reference sampler: the same results, and with the memos a
    # thread step per (thread, heap) and call, and a ``choose`` call per
    # segment instead of per step
    workloads = load_bench("workloads")
    counts = collections.Counter()
    step_thread = machine.outcomes

    def outcomes(e, s):
        counts["outcomes"] += 1
        return step_thread(e, s)

    def counting_policies():
        def wrap(pol):
            def choose(step, c):
                counts["choose"] += 1
                return pol.choose(step, c)
            return sched.SchedulerPolicy(pol.name, choose)
        return {pname: wrap(pol) for (pname, pol) in workloads.policies().items()}

    def one_pass():
        counts.clear()
        progs = workloads.read_programs()
        results = [sched.monte_carlo(progs[name], pol, workloads.SAMPLE_BUDGET,
                                     workloads.functional(name), workloads.SAMPLE_TRIALS,
                                     workloads.SAMPLE_SEED)
                   for name in workloads.CONCURRENT for pol in counting_policies().values()]
        return results, dict(counts)

    monkeypatch.setattr(machine, "outcomes", outcomes)
    (got, got_counts) = one_pass()
    monkeypatch.setattr(machine, "sample_run",
                        lambda start, choose, budget, rng, segments, steps:
                        reference_sample_run(start, choose, budget, rng))
    (want, want_counts) = one_pass()
    assert got == want
    assert got_counts["outcomes"] == 2_237
    assert (got_counts["choose"], want_counts["choose"]) == (6_335, 221_021)


def recursive_subst(e, name, replacement):
    """The reference for ``lang.subst``: one call per node it rebuilds."""
    if name not in e.fv:
        return e
    t = type(e)
    if t is Var:
        return replacement
    if t is Let and e.name == name:
        return Let(name, recursive_subst(e.bound, name, replacement), e.body)
    form = lang.FORMS[t]
    return form.make(e, tuple(recursive_subst(k, name, replacement) for k in form.kids(e)))


def test_subst_matches_the_recursive_reference_on_a_pass(monkeypatch):
    # every substitution of one ``explore`` and one ``sample`` pass of the
    # benchmark gives the node the recursive version gives
    workloads = load_bench("workloads")
    subst = lang.subst
    calls = collections.Counter()
    workload = None

    def checked(e, name, replacement):
        out = subst(e, name, replacement)
        assert out is recursive_subst(e, name, replacement)
        calls[workload] += 1
        return out

    monkeypatch.setattr(machine, "subst", checked)
    for workload in ("explore", "sample"):
        for item in workloads.WORKLOADS[workload](1).items:
            assert item.run()[1] > 0
    assert calls["explore"] > 500 and calls["sample"] > 500, calls


# (mean, variance, ci_lo, ci_hi) of ``monte_carlo`` on the concurrent
# bundled programs, budget 3000, 100 trials, seed 1, recorded with a
# sampler that compared the draw with float sums of the probabilities:
# every bundled flip is dyadic, so exact choice keeps that random stream
PINNED_STREAM = {
    ("count_true_client", "round-robin"):
        (3.05, 2.0475, 2.620727359362374, 3.4792726406376255),
    ("count_true_client", "seeded-random(0)"):
        (3.05, 2.0475, 2.620727359362374, 3.4792726406376255),
    ("dlm_counter_b2", "round-robin"):
        (2.0, 1.0, 1.7, 2.3),
    ("dlm_counter_b2", "seeded-random(0)"):
        (1.96, 0.9984, 1.6602400960768768, 2.259759903923123),
    ("skiplist_staged", "round-robin"):
        (2.23, 0.7171, 1.9759547284439247, 2.484045271556075),
    ("skiplist_staged", "seeded-random(0)"):
        (2.23, 0.7171, 1.9759547284439247, 2.484045271556075),
    ("unbiased_counter_t2", "round-robin"):
        (2.0, 0.0, 2.0, 2.0),
    ("unbiased_counter_t2", "seeded-random(0)"):
        (2.0, 0.0, 2.0, 2.0),
    ("unbiased_counter_t3", "round-robin"):
        (3.0, 0.0, 3.0, 3.0),
    ("unbiased_counter_t3", "seeded-random(0)"):
        (3.0, 0.0, 3.0, 3.0),
}


def test_monte_carlo_stream_pinned():
    base = resources.files("ivalbench.programs")
    functionals = {"count_true_client": "read", "dlm_counter_b2": "pow2-minus-1",
                   "skiplist_staged": "pair-cost", "unbiased_counter_t2": "read",
                   "unbiased_counter_t3": "read"}
    policies = {"round-robin": sched.round_robin(), "seeded-random(0)": sched.seeded_random(0)}
    assert len(PINNED_STREAM) == 10
    for ((name, pname), want) in PINNED_STREAM.items():
        prog = lang.parse(base.joinpath(name + ".sexp").read_text())
        mc = sched.monte_carlo(prog, policies[pname], 3000,
                               models.FUNCTIONALS[functionals[name]], 100, seed=1, workers=1)
        assert (mc.mean, mc.variance, mc.ci_lo, mc.ci_hi) == want, (name, pname)


def test_monte_carlo_extracted_adversaries_on_workers():
    # an extracted adversary replays its extremum, pickles to a copy that
    # chooses alike along a run, and samples the same on one worker and on
    # two
    prog = models.dlm_counter_program(2, bits=2)
    res = sched.extremal_expectation(prog, 80, models.read_pow2_minus_1)
    for direction in ("lo", "hi"):
        pol = sched.extract_policy(res, direction)
        value = getattr(res, direction)
        assert sched.evaluate_policy(prog, pol, 80, models.read_pow2_minus_1) == value
        copy = pickle.loads(pickle.dumps(pol))
        c = machine.initial_config([prog])
        for step in range(80):
            if machine.is_terminated(c):
                break
            i = pol.choose(step, c)
            assert copy.choose(step, c) == i
            c = machine.config_step(c, i, {})[0][1]
        assert machine.is_terminated(c)
        a, b = (sched.monte_carlo(prog, pol, 80, models.read_pow2_minus_1, 300, seed=2,
                                  workers=w) for w in (1, 2))
        assert a == b and a.contains(value)


def test_evaluate_policy_stutter_spends_a_step():
    def least_budget(prog, choose):
        pol = sched.SchedulerPolicy("test", choose)
        for budget in range(60):
            try:
                return budget, sched.evaluate_policy(prog, pol, budget, read_int)
            except sched.ScheduleError:
                pass

    # an index naming no thread
    coin = parse("(if (flip 1 2) 1 0)")
    for k in range(4):
        got = least_budget(coin, lambda step, c, k=k: sched.STUTTER if step < k else 0)
        assert got == (2 + k, F(1, 2))
    # thread 0 blocks on ``wait`` at step 4 and is chosen until thread 1
    # stores at step ``s``; the wait, the ``seq`` and the load follow
    prog = parse("(let (l (alloc 0)) (seq (fork (store l 1)) (wait l 1) (load l)))")
    for s in range(4, 8):
        got = least_budget(prog, lambda step, c, s=s: 1 if step == s else 0)
        assert got == (s + 4, 1)


def test_zero_probability_branch_is_never_taken():
    # the flip's true branch has probability zero and never terminates:
    # every engine skips it, so no run reaches the horizon unterminated
    prog = parse("(if (flip 0 1) ((rec (f x) (f x)) 0) 7)")
    assert sched.evaluate_policy(prog, sched.round_robin(), 50, read_int) == 7
    res = sched.extremal_expectation(prog, 50, read_int)
    bf = sched.brute_force_extrema(prog, 50, read_int)
    assert (res.lo, res.hi) == (bf.lo, bf.hi) == (7, 7)
    assert sched.monte_carlo(prog, sched.round_robin(), 50, read_int, 20, seed=1).mean == 7.0


def test_sandwich_counter_against_spec():
    prog = models.unbiased_counter_program(2, max_value=2)
    spec = models.approx_n(2, 0, 2)
    rep = sched.soundness_sandwich_check(prog, spec, read_int,
                                         lambda v: F(v), 70)
    assert rep.passed
    assert (rep.spec_min, rep.mdp_lo, rep.mdp_hi, rep.spec_max) == (2, 2, 2, 2)


def test_sandwich_trivial_program():
    from ivalbench import comp
    rep = sched.soundness_sandwich_check(parse("5"), comp.ret(5), read_int,
                                         lambda v: F(v), 2)
    assert rep.passed and rep.mdp_lo == rep.mdp_hi == 5


def test_sandwich_mismatch_detected():
    # the biasable counter against the scheduler-independent spec must fail
    prog = models.dlm_counter_program(2, bits=2)
    spec = models.approx_n(2, 0, 2)
    rep = sched.soundness_sandwich_check(prog, spec, models.read_pow2_minus_1,
                                         lambda v: F(v), 90)
    assert not rep.passed


# ---------------------------------------------------------------------------
# fused analysis against the unfused brute-force oracle


def random_local(rng: random.Random, loops: int = 0):
    """An integer-valued thread-local expression: arithmetic, let, if, or a
    recursive countdown from at most ``loops``."""
    a, b = num(rng.randint(0, 2)), num(rng.randint(0, 2))
    form = rng.randrange(5)
    if form == 0:
        return a
    if form == 1:
        return Prim(rng.choice(["+", "-", "*", "min"]), (a, b))
    if form == 2:
        return Let("x", a, Prim("*", (Var("x"), b)))
    if form == 3:
        return If(Prim("<", (a, b)), a, b)
    countdown = Rec("f", "n", If(Prim("<", (Var("n"), num(1))), num(0),
                                 App(Var("f"), Prim("-", (Var("n"), num(1))))))
    return App(countdown, num(rng.randint(0, loops)))


def random_action(rng: random.Random, l, local):
    form = rng.randrange(6)
    if form == 0:
        return Faa(l, local(rng))
    if form == 1:
        return Store(l, local(rng))
    if form == 2:
        return Cas(l, num(rng.randint(0, 2)), local(rng))
    if form == 3:
        return If(Flip(num(1), num(rng.randint(2, 3))), Faa(l, num(1)), local(rng))
    if form == 4:
        return Wait(l, num(rng.randint(0, 2)))
    return local(rng)


def random_concurrent_program(rng: random.Random):
    """Thread 0 allocates a cell, forks one or two threads, acts on the cell
    and returns an integer computed from it.  The oracle enumerates every
    interleaving of every step, so the threads that run concurrently stay
    short: longer local loops run only before the forks and after the last
    read, and with two forks each forked thread takes one action on a
    constant."""
    l = Var("l")
    if rng.random() < 0.5:
        forks = [Fork(seq(*[random_action(rng, l, random_local)
                            for _ in range(rng.randint(1, 2))]))]
        mine = [random_action(rng, l, random_local) for _ in range(rng.randint(0, 1))]
    else:
        forks = [Fork(random_action(rng, l, lambda r: num(r.randint(0, 2)))) for _ in range(2)]
        mine = []
    final = rng.choice([Load(l), Let("v", Load(l), Prim("+", (Var("v"), random_local(rng, 2))))])
    return Let("l", Alloc(random_local(rng, 2)), seq(*forks, *mine, final))


def reference_chain(e, s, first, limit):
    """The reference for ``sched._local_chain``: one plugging
    ``fused_successor`` per step, with Brent's check on whole
    expressions."""
    (mark, n, lap) = (e, 0, 1)
    while (e2 := ref.fused_successor(e, s, first)) is not None:
        if n == limit:
            raise sched.ScheduleError(sched._BUDGET_INSUFFICIENT)
        if e2 is mark:
            raise sched.ScheduleError(sched._LOCAL_LOOP)
        (e, n) = (e2, n + 1)
        if n == lap:
            (mark, lap) = (e, 2 * lap)
    return (e, n)


def extrema_or_error(analysis, prog, budget, f=read_int):
    """The analysis result, or the message of the ScheduleError it raised."""
    try:
        return analysis(prog, budget, f)
    except sched.ScheduleError as exc:
        assert "exceeds" not in str(exc)  # the oracle's node limit is no verdict
        return str(exc)


def forceable_flip(c):
    """The lowest thread of ``c`` whose next step is a flip that can fire
    and, in the first thread, leaves it unterminated; else None."""
    for (i, t) in enumerate(c.threads):
        e = machine.plug(t)
        split = ref.decompose(e)
        if split is None or type(split[1]) is not Flip:
            continue
        res = ref.outcomes(e, c.state)
        if res is not None and (i or not res[0][1].is_val):
            return i
    return None


def assert_fused_agrees(prog, max_budget: int = 40, f=read_int):
    """For every budget from 0 to two past the sufficiency threshold, the
    fused analysis and brute force agree exactly or both fail, both
    extracted adversaries replay exactly, and every memoized configuration
    with a forceable flip records that thread as both of its choices.  A
    deadlock reachable within a budget stays reachable within every larger
    one, so a reported deadlock ends the sweep.  Returns the threshold, or
    None."""
    threshold = None
    budget = 0
    while budget <= (max_budget if threshold is None else threshold + 2):
        res = extrema_or_error(sched.extremal_expectation, prog, budget, f)
        bf = extrema_or_error(sched.brute_force_extrema, prog, budget, f)
        where = (lang.unparse(prog), budget)
        if isinstance(res, str):
            assert isinstance(bf, str), where
            if res.startswith("deadlock"):
                return None
        else:
            assert (res.lo, res.hi) == (bf.lo, bf.hi), where
            forced = 0
            for (c, entry) in res.memo.items():  # fused configurations only
                assert not any(ref.fused_successor(machine.plug(t), c.state, i == 0)
                               is not None for (i, t) in enumerate(c.threads))
                i = forceable_flip(c)
                if i is not None:
                    assert entry[2] == entry[3] == i, where
                    forced += 1
            assert res.forced_flips == forced, where
            for direction in ("lo", "hi"):
                pol = sched.extract_policy(res, direction)
                assert sched.evaluate_policy(prog, pol, budget, f) == getattr(res, direction)
            if threshold is None:
                threshold = budget
            assert res.longest_path == threshold, where  # the least sufficient budget
        budget += 1
    return threshold


def test_fused_matches_brute_force_on_random_programs():
    rng = random.Random(2024)
    thresholds = [assert_fused_agrees(random_concurrent_program(rng)) for _ in range(60)]
    assert 1 <= thresholds.count(None) <= 10  # deadlocks are covered, but are rare


COINS = [(1, 2), (1, 3), (0, 1), (1, 1), (3, 2)]  # (3 2) is stuck: no transition


def random_flipping_program(rng: random.Random):
    """Thread 0 allocates a cell, may flip before it forks, and forks one or
    two threads that each flip before they act on the cell; then it reads
    the cell, maybe behind a flip of its own.  The coins include the
    certain ``(flip 0 1)`` and ``(flip 1 1)`` and the stuck ``(flip 3 2)``,
    which is never forced."""
    l = Var("l")

    def coin():
        (a, b) = rng.choice(COINS)
        return Flip(num(a), num(b))

    def action():
        return rng.choice([Faa(l, num(1)), Store(l, num(rng.randint(0, 2))), Load(l)])

    first = [If(coin(), Store(l, num(1)), unit)] if rng.random() < 0.5 else []
    forks = [Fork(If(coin(), action(), action())) for _ in range(rng.randint(1, 2))]
    final = rng.choice([Load(l), If(coin(), Load(l), num(5))])
    return Let("l", Alloc(num(0)), seq(*first, *forks, final))


def test_forced_flips_match_brute_force_on_flipping_programs():
    rng = random.Random(28)
    progs = [random_flipping_program(rng) for _ in range(30)]
    texts = [lang.unparse(p) for p in progs]
    assert all(any(f"(flip {a} {b})" in t for t in texts) for (a, b) in COINS)
    thresholds = [assert_fused_agrees(p) for p in progs]
    assert 1 <= thresholds.count(None) < len(progs)  # a stuck thread 0 deadlocks


def test_first_thread_terminating_flip_is_not_forced():
    # the flip that makes thread 0 a value ends the run, so it stays a free
    # choice: an adversary may starve it while the fork stores, and the
    # least sufficient budget counts those stores
    f = models.FUNCTIONALS["true-indicator"]
    res = sched.extremal_expectation(parse("(flip 1 2)"), 5, f)
    assert (res.lo, res.hi, res.explored_states, res.forced_flips) == (F(1, 2), F(1, 2), 1, 0)
    prog = parse("(let (l (alloc 0)) (seq (fork (seq (store l 1) (store l 2))) (flip 1 2)))")
    assert assert_fused_agrees(prog, f=f) == 8
    assert sched.extremal_expectation(prog, 8, f).forced_flips == 0


def merging_flips(n: int) -> str:
    """Thread-local sum of ``n`` coins: the coins' outcomes meet again in
    the sum after every ``let``."""
    e = "s"
    for _ in range(n):
        e = f"(let (s (+ s (if (flip 1 2) 1 0))) {e})"
    return f"(let (s 0) {e})"


def test_forced_flips_keep_merging_in_the_memo():
    # a forced flip is one scheduled step, and ``settle`` stays a
    # deterministic chain, so the memo holds one configuration per (coins
    # flipped, sum so far): 136 at a flip and 17 before thread 0's last
    # step.  Branching ``settle`` on the flips would walk all 2 ** 16 runs.
    # In a forked thread the memo adds the configuration before the fork
    for (text, states, forced) in ((merging_flips(16), 153, 136),
                                   (f"(seq (fork {merging_flips(16)}) 0)", 154, 136)):
        res = sched.extremal_expectation(parse(text), 200, read_int)
        assert (res.explored_states, res.forced_flips) == (states, forced), text


def test_extracted_adversary_with_a_stuck_redex_samples_alike_on_workers():
    # the first fork is stuck for good at ``(if 3 1 2)``: the contractum
    # memo that the adversary carries into a worker marks it stuck, and the
    # mark must unpickle as itself for the worker to skip that thread
    prog = parse("(let (l (alloc 0)) (seq (fork (if 3 1 2)) "
                 "(fork (let (y (load l)) (store l (+ y 1)))) (if (flip 1 2) (load l) 5)))")
    res = sched.extremal_expectation(prog, 50, read_int)
    assert sched._STUCK in res.contracta.values()
    assert pickle.loads(pickle.dumps(sched._STUCK)) is sched._STUCK
    pol = sched.extract_policy(res, "hi")
    (a, b) = (sched.monte_carlo(prog, pol, 50, read_int, 200, seed=1, workers=w) for w in (1, 2))
    assert a == b and a.mean == 2.92


def reachable_threads(prog, limit: int = 200) -> set:
    """(thread, state) of every thread of the first ``limit``
    configurations that some schedule reaches from ``prog``."""
    start = machine.initial_config([prog])
    (seen, queue, threads) = ({start}, [start], set())
    for c in queue:
        if len(seen) > limit:
            break
        for (i, t) in enumerate(c.threads):
            threads.add((t, c.state))
            for (_, c2) in machine.config_step(c, i, {}):
                if c2 not in seen:
                    seen.add(c2)
                    queue.append(c2)
    return threads


def chain_or_error(chain, *args):
    try:
        return chain(*args)
    except sched.ScheduleError as exc:
        return str(exc)


def assert_steps_agree(t, s):
    """Each outcome of thread ``t`` plugs to the outcome of the plugging
    reference, and is the zipper of that expression: refocusing the
    contractum from the hole finds the redex that decomposing the plugged
    thread from the root finds."""
    e = machine.plug(t)
    assert machine.refocus(None, e) is t
    res = machine.outcomes(t, s)
    want = ref.outcomes(e, s)
    if res is None:
        assert want is None
        return 0
    assert [(p, machine.plug(t2), s2, tuple(map(machine.plug, sp)))
            for (p, t2, s2, sp) in res] == want
    for ((_, t2, _, sp), (_, e2, _, _)) in zip(res, want):
        assert t2 is machine.refocus(None, e2)
        assert all(b is machine.refocus(None, machine.plug(b)) for b in sp)
    return 1


def fused_step_or_none(t, s, first):
    """``sched._fused_step`` plugged, on a contractum memo of its own."""
    t2 = sched._fused_step(t, s, first, {})
    return None if t2 is None else machine.plug(t2)


def chain_plugged(t, s, first, limit, contracta):
    """``sched._local_chain`` with its end thread plugged."""
    (t2, n) = sched._local_chain(t, s, first, limit, contracta)
    return (machine.plug(t2), n)


def test_fast_paths_match_the_plugging_reference():
    # on the threads the random programs of the agreement test reach: the
    # fused step and the chain of them against one plug per step at several
    # budgets, for the first thread and any other, with one contractum memo
    # per program; and each step against decomposing and plugging from the
    # root
    rng = random.Random(2024)
    (chained, stepped) = (collections.Counter(), 0)
    for _ in range(60):
        contracta = {}
        for (t, s) in reachable_threads(random_concurrent_program(rng)):
            e = machine.plug(t)
            for first in (True, False):
                assert fused_step_or_none(t, s, first) == ref.fused_successor(e, s, first)
                for limit in (0, 1, 3, 8, 1000):
                    got = chain_or_error(chain_plugged, t, s, first, limit, contracta)
                    assert got == chain_or_error(reference_chain, e, s, first, limit)
                    chained[type(got) is str or got[1] > 0] += 1
            stepped += assert_steps_agree(t, s)
    assert chained[True] > 500 and stepped > 1000
    # a redex under pairs: for the first thread, only the step that
    # completes every pair around it ends the chain
    s = machine.State((lang.VInt(1),))
    for text in ("(pair (+ 1 2) (+ 3 4))", "(pair 1 (+ 1 2))", "(pair (pair 1 (+ 1 2)) 5)",
                 "(pair (pair (+ 0 1) 2) (pair 3 (+ 1 3)))", "(fst (pair (+ 1 2) 4))"):
        (e, t) = (parse(text), machine.refocus(None, parse(text)))
        for first in (True, False):
            assert fused_step_or_none(t, s, first) == ref.fused_successor(e, s, first)
            for limit in (0, 1, 3, 1000):
                assert (chain_or_error(chain_plugged, t, s, first, limit, {})
                        == chain_or_error(reference_chain, e, s, first, limit)), (text, first)
        stepped += assert_steps_agree(t, s)
    # random terms of the whole grammar, pairs and open terms among them
    rng = random.Random(31)
    for _ in range(500):
        e = lang.gen_expr(rng, depth=4)
        t = machine.refocus(None, e)
        stepped += assert_steps_agree(t, s)
        for first in (True, False):
            assert fused_step_or_none(t, s, first) == ref.fused_successor(e, s, first)
    assert stepped > 1200


def list_count(n: int):
    """The non-tail-recursive length of an ``n``-element list: every
    step is local, in a context that grows to ``n`` frames."""
    lst = "()"
    for _ in range(n):
        lst = f"(pair #t {lst})"
    return parse(f"((rec (len l) (if (= l ()) 0 (+ 1 (len (snd l))))) {lst})")


def counting_constructions(monkeypatch) -> collections.Counter:
    """Count every node ``lang.FORMS``' constructors build from here on,
    under the key ``"nodes"``; interned or not, each call counts."""
    calls = collections.Counter()
    for form in lang.FORMS.values():
        def make(e, kids, make=form.make):
            calls["nodes"] += 1
            return make(e, kids)
        monkeypatch.setattr(form, "make", make)
    return calls


def test_deep_chain_builds_constant_nodes_per_step(monkeypatch):
    # a fused step refocuses from the hole, so each of the 2,002 fused steps
    # of the count's one chain builds a few nodes, however deep its context
    calls = counting_constructions(monkeypatch)
    chain = sched._local_chain

    def counted(*args):
        calls["chain"] += 1
        return chain(*args)

    monkeypatch.setattr(sched, "_local_chain", counted)
    res = sched.extremal_expectation(list_count(400), 10 ** 4, read_int)
    assert (res.lo, res.hi, res.fused_steps, res.longest_path) == (400, 400, 2002, 2003)
    assert calls == {"chain": 1, "nodes": 5_610}


def test_deep_contexts_step_in_linear_time(monkeypatch):
    # a replay and sampling step a thread by refocusing from the hole too:
    # doubling the depth of the count's context doubles the nodes built
    calls = counting_constructions(monkeypatch)
    engines = {
        "evaluate_policy": lambda prog: sched.evaluate_policy(
            prog, sched.round_robin(), 10 ** 4, read_int),
        "monte_carlo": lambda prog: sched.monte_carlo(
            prog, sched.round_robin(), 10 ** 4, read_int, 3, seed=1).mean,
    }
    for (name, run) in engines.items():
        built = []
        for n in (200, 400):
            prog = list_count(n)
            calls.clear()
            assert run(prog) == n
            built.append(calls["nodes"])
        assert 0 < built[1] <= 2.1 * built[0], (name, built)


def test_no_step_path_plugs(monkeypatch):
    # one ``explore`` and one ``sample`` pass of the benchmark step threads
    # as zippers only: ``plug`` is left to printing
    workloads = load_bench("workloads")
    plug = machine.plug
    calls = 0

    def counted(t):
        nonlocal calls
        calls += 1
        return plug(t)

    monkeypatch.setattr(machine, "plug", counted)
    for workload in ("explore", "sample"):
        wl = workloads.WORKLOADS[workload](1)
        wl.prepare()
        for item in wl.items:
            (ok, work) = item.run()
            assert ok and work > 0, item.name
    assert calls == 0


def test_each_local_redex_contracted_once_per_call(monkeypatch):
    applied = collections.Counter()

    def counted(rule):
        def call(e, s):
            applied[e] += 1
            return rule(e, s)
        return call

    for (cls, form) in lang.FORMS.items():
        if form.local:
            monkeypatch.setitem(machine.RULES, cls, counted(machine.RULES[cls]))
    prog = models.dlm_counter_program(3, bits=1)
    res = sched.extremal_expectation(prog, 400, models.read_pow2_minus_1)
    assert (res.lo, res.hi, res.fused_steps) == (F(5, 2), F(19, 4), 2269)
    assert len(applied) == 48 and set(applied.values()) == {1}
    # the memo lives for one call: a second analysis contracts them again
    sched.extremal_expectation(prog, 400, models.read_pow2_minus_1)
    assert set(applied.values()) == {2}
    # the extracted adversaries find their pending local steps over the
    # analysis's contractum memo, which already holds every redex they meet
    probes = []

    class Probed(dict):
        def get(self, key, default=None):
            probes.append(key)
            return super().get(key, default)

    res.contracta = Probed(res.contracta)
    for d in ("lo", "hi"):
        pol = sched.extract_policy(res, d)
        assert sched.evaluate_policy(prog, pol, 400, models.read_pow2_minus_1) == getattr(res, d)
    assert probes and len(res.contracta) == 48


def test_fused_rejoining_branches():
    # the flip's branches reach the configuration before ``faa`` after 4 and
    # after 6 steps: the longer branch revisits a memoized configuration
    # with less budget left, and reuses its entry only while the entry's
    # longest path still fits
    prog = parse("(let (l (alloc 0)) (seq (fork (store l 5)) "
                 "(if (flip 1 2) (store l 1) (seq (store l 2) (store l 1))) (faa l 1)))")
    assert assert_fused_agrees(prog) is not None


def test_fused_keeps_first_thread_starvation():
    # thread 0's last step is left unfused: an adversary may starve it while
    # the forked thread stores, so budgets below 10 are insufficient
    prog = parse("(let (l (alloc 0)) (seq (fork (seq (store l 1) (store l 2) (store l 3))) "
                 "(+ 1 2)))")
    assert assert_fused_agrees(prog) == 10


def test_fused_local_loop_in_fork_raises():
    prog = parse("(seq (fork ((rec (f x) (f x)) ())) 1)")
    for budget in (0, 5, 200):
        with pytest.raises(sched.ScheduleError):
            sched.extremal_expectation(prog, budget, read_int)


def test_evaluate_policy_matches_bind_chain():
    # the forward pass over the run's frontier against the monadic n-step
    # semantics, on the random programs of the agreement test above
    rng = random.Random(2024)
    progs = [random_concurrent_program(rng) for _ in range(60)]
    raised = 0
    for prog in progs:
        for pol in (sched.round_robin(), sched.seeded_random(3)):
            for budget in (4, 12, 40):
                finals = machine.trace_step_ival_n(pol.choose, machine.initial_config([prog]),
                                                   budget).entries
                where = (lang.unparse(prog), pol.name, budget)
                if all(machine.is_terminated(c) for (_, c, p) in finals if p > 0):
                    want = sum(p * read_int(lang.to_val(c.threads[0].focus))
                               for (_, c, p) in finals)
                    assert sched.evaluate_policy(prog, pol, budget, read_int) == want, where
                else:
                    raised += 1
                    with pytest.raises(sched.ScheduleError):
                        sched.evaluate_policy(prog, pol, budget, read_int)
    assert 0 < raised < 360  # both outcomes are covered


def reference_evaluate_policy(prog, policy, budget, f):
    """The reference for ``sched.evaluate_policy``: a depth-first walk of
    the run tree, one ``config_step`` per node and a ``Fraction`` weight per
    path, with no merging of runs that meet again."""
    total = F(0)
    stack = [(machine.initial_config([prog]), 0, F(1))]
    while stack:
        (c, step, w) = stack.pop()
        if machine.is_terminated(c):
            total += w * f(lang.to_val(c.threads[0].focus))
            continue
        if step == budget:
            raise sched.ScheduleError(f"unterminated within {budget} steps")
        for (p, c2) in machine.config_step(c, policy.choose(step, c), {}):
            if p > 0:
                stack.append((c2, step + 1, w * p))
    return total


def policy_value_or_error(evaluate, prog, policy, budget, f):
    """The exact value, or ``ScheduleError`` when the evaluation raised one."""
    try:
        return evaluate(prog, policy, budget, f)
    except sched.ScheduleError:
        return sched.ScheduleError


def test_frontier_matches_the_tree_walk():
    # the random programs of the agreement test above, both extracted
    # adversaries of the DLM counter, and the benchmark's ``sample``
    # references: the same Fraction, or ScheduleError on both sides
    rng = random.Random(2024)
    progs = [random_concurrent_program(rng) for _ in range(60)]
    cases = [(prog, pol, budget, read_int) for prog in progs
             for pol in (sched.round_robin(), sched.seeded_random(3))
             for budget in (0, 1, 4, 12, 40)]
    dlm = models.dlm_counter_program(2, bits=2)
    res = sched.extremal_expectation(dlm, 80, models.read_pow2_minus_1)
    cases += [(dlm, sched.extract_policy(res, d), budget, models.read_pow2_minus_1)
              for d in ("lo", "hi") for budget in (80, 800)]
    workloads = load_bench("workloads")
    bundled = workloads.read_programs()
    cases += [(bundled[name], pol, workloads.SAMPLE_BUDGET, workloads.functional(name))
              for name in workloads.CONCURRENT for pol in workloads.policies().values()]
    raised = 0
    for (prog, pol, budget, f) in cases:
        want = policy_value_or_error(reference_evaluate_policy, prog, pol, budget, f)
        got = policy_value_or_error(sched.evaluate_policy, prog, pol, budget, f)
        assert got == want and type(got) is type(want), (lang.unparse(prog), pol.name, budget)
        raised += want is sched.ScheduleError
    assert 0 < raised < len(cases)  # both outcomes are covered


def test_replay_steps_each_configuration_once_per_step(monkeypatch):
    # the ``explore`` replay of both DLM adversaries: the tree walk steps a
    # configuration once per path that reaches it, the forward pass once
    # per step it is reached at
    workloads = load_bench("workloads")
    prog = workloads.read_programs()[workloads.REPLAYED]
    f = workloads.functional(workloads.REPLAYED)
    res = sched.extremal_expectation(prog, workloads.EXPLORE_BUDGET, f)
    step = machine.config_step
    calls = 0

    def counted(c, i, memo):
        nonlocal calls
        calls += 1
        return step(c, i, memo)

    monkeypatch.setattr(machine, "config_step", counted)
    monkeypatch.setattr(sched, "config_step", counted)
    counts = []
    for evaluate in (sched.evaluate_policy, reference_evaluate_policy):
        for d in ("lo", "hi"):
            calls = 0
            pol = sched.extract_policy(res, d)
            assert evaluate(prog, pol, workloads.EXPLORE_BUDGET, f) == getattr(res, d)
            counts.append(calls)
    assert counts == [442, 448, 589, 613]


def counting_outcomes(monkeypatch) -> collections.Counter:
    """Count ``machine.outcomes`` calls from here on, under ``"outcomes"``,
    and the scheduled steps of a thread (an index naming a thread) that
    ``sched`` hands ``config_step``, under ``"stepped"``."""
    calls = collections.Counter()
    (outcomes, step) = (machine.outcomes, machine.config_step)

    def counted_outcomes(t, s):
        calls["outcomes"] += 1
        return outcomes(t, s)

    def counted_step(c, i, memo):
        calls["stepped"] += 0 <= i < len(c.threads)
        return step(c, i, memo)

    monkeypatch.setattr(machine, "outcomes", counted_outcomes)
    monkeypatch.setattr(sched, "config_step", counted_step)
    return calls


def test_replay_steps_each_thread_once_per_heap_run(monkeypatch):
    # the ``explore`` replay and two concrete policies: sibling
    # configurations that share a heap step a thread that did not move once
    workloads = load_bench("workloads")
    prog = workloads.read_programs()[workloads.REPLAYED]
    f = workloads.functional(workloads.REPLAYED)
    res = sched.extremal_expectation(prog, workloads.EXPLORE_BUDGET, f)
    policies = [sched.extract_policy(res, "lo"), sched.extract_policy(res, "hi"),
                sched.round_robin(), sched.seeded_random(0)]
    want = [reference_evaluate_policy(prog, pol, workloads.EXPLORE_BUDGET, f)
            for pol in policies]
    assert want == [res.lo, res.hi, 2, 2]
    calls = counting_outcomes(monkeypatch)
    counts = []
    for (pol, value) in zip(policies, want):
        calls.clear()
        assert sched.evaluate_policy(prog, pol, workloads.EXPLORE_BUDGET, f) == value
        counts.append(calls["outcomes"])
    assert counts == [205, 210, 215, 219]  # 442, 448, 640 and 658 with no memo


def random_forked_flippers(rng: random.Random):
    """Thread 0 allocates a cell, forks two or three threads that each flip
    one or two coins of ``COINS``, with a local step or an action on the
    cell behind each, and reads the cell."""
    l = Var("l")

    def coin():
        (a, b) = rng.choice(COINS)
        return Flip(num(a), num(b))

    def flipper():
        return seq(*[If(coin(), Faa(l, num(1)), random_local(rng))
                     for _ in range(rng.randint(1, 2))])

    forks = [Fork(flipper()) for _ in range(rng.randint(2, 3))]
    return Let("l", Alloc(num(0)), seq(*forks, Load(l)))


def test_heap_run_memo_matches_the_tree_walk(monkeypatch):
    # several forked threads flip side by side, so the frontier holds runs
    # of configurations with one heap: under concrete policies and both
    # extracted adversaries, the same Fraction as the tree walk, which
    # steps every node afresh, or ScheduleError on both sides
    rng = random.Random(29)
    progs = [random_forked_flippers(rng) for _ in range(20)]
    cases = []
    for prog in progs:
        res = extrema_or_error(sched.extremal_expectation, prog, 60)
        adversaries = [] if isinstance(res, str) else [
            (sched.extract_policy(res, d), res.longest_path) for d in ("lo", "hi")]
        cases += [(prog, pol, budget) for (pol, budget) in adversaries]
        cases += [(prog, pol, budget)
                  for pol in (sched.round_robin(), sched.seeded_random(3))
                  for budget in (6, 40)]
    calls = counting_outcomes(monkeypatch)
    (raised, hits) = (0, [])
    for (prog, pol, budget) in cases:
        want = policy_value_or_error(reference_evaluate_policy, prog, pol, budget, read_int)
        calls.clear()
        got = policy_value_or_error(sched.evaluate_policy, prog, pol, budget, read_int)
        assert got == want and type(got) is type(want), (lang.unparse(prog), pol.name, budget)
        raised += want is sched.ScheduleError
        hits.append(calls["stepped"] - calls["outcomes"])  # steps the memo answered
    assert 0 < raised < len(cases)
    assert min(hits) >= 0 and sum(h > 0 for h in hits) > len(cases) // 2


def old_extremal(res, slot: int, c) -> int:
    """The adversary's choice as it was made by taking each fused step,
    stated on the plugging reference: the memo entry, else the first
    thread whose ``fused_successor`` is not None, else a stutter."""
    hit = res.memo.get(c)
    if hit is not None:
        return hit[slot]
    for (i, t) in enumerate(c.threads):
        if ref.fused_successor(machine.plug(t), c.state, i == 0) is not None:
            return i
    return sched.STUTTER


def assert_adversaries_choose_alike(prog, budget: int, f, seen: collections.Counter):
    """Replay both extracted adversaries of ``prog`` under
    ``evaluate_policy``, checking each choice against ``old_extremal``;
    ``seen`` counts the choices by how they were made."""
    res = sched.extremal_expectation(prog, budget, f)
    for (d, slot) in (("lo", 2), ("hi", 3)):
        pol = sched.extract_policy(res, d)

        def checked(step, c, choose=pol.choose, slot=slot):
            got = choose(step, c)
            assert got == old_extremal(res, slot, c), (lang.unparse(prog), d, c)
            if c in res.memo:
                seen["memoized"] += 1
                return got
            seen["thread 0" if got == 0 else "other thread"] += 1
            # the choice has contracted thread 0's local redex, if it has one
            t = c.threads[0]
            r = res.contracta.get(t.focus)
            if r is not None and r is not sched._STUCK and r.is_val:
                ends = machine.refocus(t.ctx, r).focus.is_val
                seen["value contractum ends thread 0" if ends else
                     "value contractum leaves thread 0 running"] += 1
            return got

        checked_pol = sched.SchedulerPolicy(pol.name, checked)
        assert sched.evaluate_policy(prog, checked_pol, budget, f) == getattr(res, d)


def test_adversaries_choose_without_stepping_as_they_did_by_stepping():
    # the extracted adversaries decide a pending local step from its
    # contractum alone, refocusing only thread 0 at a value contractum: on
    # every configuration the DLM replays reach, and on the random flipping
    # programs of the forcing test, they choose what taking the step chose
    workloads = load_bench("workloads")
    seen = collections.Counter()
    assert_adversaries_choose_alike(workloads.read_programs()[workloads.REPLAYED],
                                    workloads.EXPLORE_BUDGET,
                                    workloads.functional(workloads.REPLAYED), seen)
    assert seen["memoized"] > 0 and seen["other thread"] > 0
    rng = random.Random(28)
    for prog in [random_flipping_program(rng) for _ in range(30)]:
        res = extrema_or_error(sched.extremal_expectation, prog, 40)
        if not isinstance(res, str):
            assert_adversaries_choose_alike(prog, 40, read_int, seen)
    assert all(seen[k] > 0 for k in ("memoized", "thread 0", "other thread",
                                     "value contractum ends thread 0",
                                     "value contractum leaves thread 0 running")), seen


@pytest.mark.parametrize("analysis", [
    lambda prog, budget: sched.evaluate_policy(prog, sched.round_robin(), budget, read_int),
    lambda prog, budget: sched.extremal_expectation(prog, budget, read_int),
    lambda prog, budget: sched.brute_force_extrema(prog, budget, read_int),
    lambda prog, budget: sched.monte_carlo(prog, sched.round_robin(), budget, read_int,
                                           10, seed=1),
], ids=["evaluate_policy", "extremal_expectation", "brute_force_extrema", "monte_carlo"])
def test_negative_budget_rejected(analysis):
    # a negative budget is an error before any step, even where the program
    # is a value already or never terminates; budget 0 stays valid
    for text in ("3", "(+ 1 2)", "((rec (f x) (f x)) ())"):
        with pytest.raises(ValueError, match="budget must be >= 0, not -1"):
            analysis(parse(text), -1)
    analysis(parse("3"), 0)
    with pytest.raises(sched.ScheduleError):
        analysis(parse("(+ 1 2)"), 0)


def test_segment_rows_match_config_step(monkeypatch):
    # every segment a Monte-Carlo call memoizes, on the random programs of
    # the agreement test above, against the step function: walked one
    # ``config_step`` at a time from its start, it reaches its end, and the
    # row there is the chosen step's pairs
    memos = []
    sample_run = machine.sample_run

    def recorded(start, choose, budget, rng, segments, steps):
        if not memos or memos[-1][1] is not segments:
            memos.append((choose, segments))
        return sample_run(start, choose, budget, rng, segments, steps)

    monkeypatch.setattr(machine, "sample_run", recorded)
    rng = random.Random(2024)
    progs = [random_concurrent_program(rng) for _ in range(60)]
    budget = 40
    segments = stutters = branching = 0
    for prog in progs:
        for pol in (sched.round_robin(), sched.seeded_random(3)):
            try:
                sched.monte_carlo(prog, pol, budget, read_int, 30, seed=1, workers=1)
            except sched.ScheduleError:
                pass  # an unterminated trial: its segments are checked all the same
            [(choose, memo)] = memos
            memos.clear()
            for ((c, step), (end, end_step, row)) in memo.items():
                while step < budget and not machine.is_terminated(c):
                    succ = machine.config_step(c, choose(step, c), {})
                    if len(succ) > 1:
                        break
                    stutters += succ[0][1] == c
                    (c, step) = (succ[0][1], step + 1)
                assert (c, step) == (end, end_step)
                if row is None:
                    assert step == budget or machine.is_terminated(c)
                else:
                    assert row == (tuple(c2 for (_, c2) in succ), *row_of(succ))
                    branching += 1
                segments += 1
    assert segments > branching > 0 and stutters > 0


def test_memo_holds_each_configuration_once():
    # distinct fused configurations and longest schedule of each bundled
    # program at budget 800
    want = {"count_true_client": (122, 79), "dlm_counter_b2": (118, 64), "flip": (1, 1),
            "morris_n3": (19, 33), "skiplist_seq": (350, 430), "skiplist_staged": (196, 305),
            "unbiased_counter_t2": (32, 32), "unbiased_counter_t3": (271, 46)}
    base = resources.files("ivalbench.programs")
    functionals = {"dlm_counter_b2": "pow2-minus-1", "flip": "true-indicator",
                   "skiplist_seq": "pair-cost", "skiplist_staged": "pair-cost"}
    for (name, (states, longest)) in want.items():
        prog = lang.parse(base.joinpath(name + ".sexp").read_text())
        f = models.FUNCTIONALS[functionals.get(name, "read")]
        res = sched.extremal_expectation(prog, 800, f)
        assert res.explored_states == len(res.memo) == states, name
        assert res.longest_path == longest, name
        assert all(type(c) is machine.Config for c in res.memo), name
    res = sched.extremal_expectation(models.dlm_counter_program(3, bits=1), 400,
                                     models.read_pow2_minus_1)
    assert (res.explored_states, res.longest_path) == (337, 94)


def test_each_configuration_is_valued_once(monkeypatch):
    # the analysis steps each thread expression from each heap at most
    # once, however many configurations hold it: a configuration revisited
    # with less budget left reuses its entry, and every other one reads
    # its threads' steps from the analysis's step memo
    stepped = collections.Counter()
    outcomes = machine.outcomes

    def counted(e, s):
        stepped[(e, s)] += 1
        return outcomes(e, s)

    monkeypatch.setattr(machine, "outcomes", counted)
    res = sched.extremal_expectation(models.dlm_counter_program(3, bits=1), 400,
                                     models.read_pow2_minus_1)
    assert (res.lo, res.hi) == (F(5, 2), F(19, 4))
    assert len(stepped) == 102 and max(stepped.values()) == 1
    # the memo lives for one call: a second analysis steps everything again
    sched.extremal_expectation(models.dlm_counter_program(3, bits=1), 400,
                               models.read_pow2_minus_1)
    assert set(stepped.values()) == {2}


def test_cached_chain_met_with_less_budget_left():
    # both branches of the flip end with ``(store l 1)``, the short one two
    # steps sooner, and then thread 0 runs the same local countdown: the
    # chain is derived on the short branch, with budget to spare, and read
    # from the memo on the long one with less left.  Where that is too
    # little, the analysis raises at the memo hit, as brute force fails
    prog = parse("(let (l (alloc 0)) (seq (if (flip 1 2) (store l 1) "
                 "(seq (store l 2) (store l 3) (store l 1))) "
                 "((rec (f n) (if (< n 1) 0 (f (- n 1)))) 3) (load l)))")
    threshold = assert_fused_agrees(prog)
    raised_at = collections.Counter()
    for budget in range(threshold):
        with pytest.raises(sched.ScheduleError) as info:
            sched.extremal_expectation(prog, budget, read_int)
        raised_at[traceback.extract_tb(info.value.__traceback__)[-1].name] += 1
    assert raised_at["settle"] > 0 and raised_at["_local_chain"] > 0


def test_cycle_reported_at_its_first_repeat(monkeypatch):
    # an adversary can starve the store forever, so thread 0 spins: the
    # verdict comes at the first revisit of a configuration, whatever the
    # budget
    prog = parse("(let (l (alloc 0)) (seq (fork (store l 1)) "
                 "((rec (f x) (if (cas l 0 0) (f x) (load l))) 0)))")
    explored = []
    successors = machine.successors

    def counted(c, i, memo):
        explored[-1].add(c)
        return successors(c, i, memo)

    monkeypatch.setattr(sched, "successors", counted)
    for budget in (2_000, 20_000):
        explored.append(set())
        with pytest.raises(sched.ScheduleError, match="^budget insufficient: .*revisit"):
            sched.extremal_expectation(prog, budget, read_int)
    assert len(explored[0]) == len(explored[1]) < 10


def test_local_loop_reported_at_its_first_repeat(monkeypatch):
    # the rules applied and the refocusings (one per fused step, and one
    # per decomposition) do not grow with the budget
    calls = []

    def counted(fn):
        def call(*args):
            calls[-1] += 1
            return fn(*args)
        return call

    for (cls, rule) in list(machine.RULES.items()):
        monkeypatch.setitem(machine.RULES, cls, counted(rule))
    monkeypatch.setattr(machine, "refocus", counted(machine.refocus))
    # a one-step loop, the same in a forked thread, and a longer loop
    # entered after a prefix
    for prog in ("((rec (f x) (f x)) 0)", "(seq (fork ((rec (f x) (f x)) 0)) 1)",
                 "(let (y #t) ((rec (f x) (if x (f #f) (f #t))) y))"):
        for budget in (200, 10 ** 6):
            calls.append(0)
            with pytest.raises(sched.ScheduleError, match="^budget insufficient: .*repeat"):
                sched.extremal_expectation(parse(prog), budget, read_int)
        assert 0 < calls[-2] == calls[-1] < 40


@pytest.mark.parametrize(("prog", "f", "extrema", "before"), [
    (models.unbiased_counter_program(5, max_value=2), read_int, (5, 5), 71_613),
    (models.dlm_counter_program(4, bits=1), models.read_pow2_minus_1, (F(33, 8), F(65, 8)), 4_730),
    (models.dlm_counter_program(3, bits=2), models.read_pow2_minus_1,
     (F(33, 16), F(69, 16)), 2_456),
], ids=["unbiased_t5", "dlm_t4_b1", "dlm_t3_b2"])
def test_larger_counters_keep_their_extrema(prog, f, extrema, before):
    # ``before``: the fused configurations when every interleaving around
    # a pending flip was explored
    res = sched.extremal_expectation(prog, 5000, f)
    assert (res.lo, res.hi) == extrema
    assert 0 < res.forced_flips < res.explored_states < before


def test_fusion_shrinks_the_memo():
    prog = models.unbiased_counter_program(2, max_value=2)
    res = sched.extremal_expectation(prog, 70, read_int)
    assert res.fused_steps > res.explored_states > 0
