"""Scheduler policies and exact adversarial analysis.

A policy is a Markov scheduler: one picklable function of the step count
and the current configuration that names the thread to step.  The one
interface serves exact evaluation, adversary extraction and sampling.
``evaluate_policy`` computes the exact expected value of a functional of
the first thread's final value after ``n`` steps under one policy, by
carrying the run's distribution forward over its frontier, one step at a
time, so runs that meet again at a step are stepped once from there.
Every step is a ``machine.config_step``, as it is for the sampler and
for ``brute_force_extrema``.
``extremal_expectation`` computes the range of that quantity over *all*
deterministic policies by backward induction memoized on the
configuration:

* a terminated configuration is worth ``f(first thread's value)`` --
  nothing a scheduler does afterwards can change that thread;
* otherwise the scheduler picks among *enabled* threads (stutter choices
  are excluded: a stutter repeats the configuration and only burns budget,
  so any stutter-ful schedule is matched by its stutter-free compression);
* running out of budget before termination means some scheduler does not
  terminate within ``n``, which is reported loudly rather than truncated.

Each memo entry also records the longest schedule from its configuration,
in primitive steps.  An entry exists only if every schedule from its
configuration terminates without deadlock (any ``ScheduleError`` ends the
analysis), so its extrema and choices hold for any remaining budget at
least that long (Puterman, *Markov Decision Processes*, ch. 4), and a visit
with less left is ``budget insufficient`` at once: no entry is recomputed
or overwritten.  The initial configuration's longest path,
``longest_path``, is therefore the least budget at which the analysis
succeeds (Baier & Katoen, *Principles of Model Checking*, ch. 10).
``explored_states`` counts distinct configurations.  ``machine.successors``
builds each configuration's successors; the threads it does not reject
are enabled.  The walk keeps its own stack, one generator per
configuration being expanded, so a schedule of any length leaves the
interpreter's recursion limit alone.  A configuration values each of its
successors in place when it is terminated or settles into a memoized
configuration, so only a memo miss starts a generator.  A successor with
one outcome passes its (lo, hi) through; several outcomes are summed as
integers over one common denominator (``ival.weighted_sum``), one
``Fraction`` per bound.  The
configurations on that stack form a gray set (Cormen et al., depth-first
search): reaching one of them again closes a cycle of positive
probability, which an adversary can follow forever, so no budget suffices
and the analysis says so at once.
Without the check it would go round the cycle until the budget ran out
and give the same ``budget insufficient`` verdict.

Thread-local steps are fused.  A beta, ``let``, ``if`` or primitive step
(``lang.Form.local``) reads and writes no heap cell, forks
nothing, and whether it can fire does not depend on the heap, so it stays
enabled until its thread takes it and commutes with every step of every
other thread (Lipton's reduction; partial-order reduction for MDPs, Baier,
Groesser & Ciesinski 2004).  The analysis therefore runs such steps eagerly
as part of the scheduled step before them -- for the stepped thread, for a
thread it forks, and for every thread of the initial configuration -- and
the adversary loses no choice that could change the answer: any schedule
is matched, step for step, by one that takes the pending local steps
first.  One local step stays unfused: the one that turns the first thread
into a value.  It terminates the configuration, which is observable --
fusing it would drop the schedules that starve the first thread while
other threads run on, and with them a ``budget insufficient`` verdict.
``flip``, ``alloc``, ``fork`` and the heap operations are never fused.
So the memo holds only configurations in which every thread sits at a
heap, ``flip``, ``fork`` or ``alloc`` redex, is stuck or is a value, or is
the first thread before its last step; ``explored_states`` counts these
fused configurations and ``fused_steps`` the local steps run eagerly.

Pending flips are forced.  A ``flip`` that meets its side condition reads
and writes no heap cell, forks nothing, stays enabled until its thread
takes it and commutes with every step of every other thread, so it is an
independent, invisible probabilistic step, and a configuration may offer
it as its only choice (a singleton ample set; Baier, Groesser & Ciesinski
2004; D'Argenio & Niebert 2004).  Where some thread's next step is such a
flip, the lowest such thread is the configuration's one choice, recorded
as both its lo and its hi choice; ``forced_flips`` counts these
configurations.  A schedule that delays the flip is matched, with the same
distribution of outcomes, by one that takes it first.  Moving the flip
changes no step count, so ``longest_path`` holds, and a schedule that
reaches the horizon unterminated, or a deadlock, still does, so those
verdicts hold too.  The flip that turns the first thread into a value is
not forced: like that thread's last local step, it terminates the
configuration, which is observable, so it stays a free choice.  A flip is
forced, never fused: ``settle`` stays a deterministic chain, so threads
whose flips meet again within one local segment still merge in the memo
rather than branching into every combination of outcomes.

Fused steps still spend budget: the budget and the longest path of a memo
entry count primitive steps, exactly as without fusion.  A pending local
step never blocks and never terminates the configuration, so an adversary
that runs out the budget or reaches a deadlock can always have taken it
first; ``budget insufficient``, deadlock and the exact lo/hi are therefore
what the unfused recursion gives at every budget.  A thread whose local
steps repeat a thread loops forever, so it raises ``budget insufficient``
soon after the repeat, which ``_local_chain`` finds in constant memory;
one that loops without repeating runs until the budget is spent and then
raises.  ``_fusion`` decides whether a step is fused, for the chain and
for the extracted adversary alike, from the redex's contractum: only a
value contractum can turn a thread into a value, so it refocuses the
thread to decide only for the first thread and a value contractum.
``_fused_step`` takes the fused step; it refocuses the contractum from
the hole (``machine.refocus``), like every step, so a fused step costs
O(redex) however deep its context.

A thread's work recurs in every configuration that holds it, so each
analysis call derives it once per distinct thread, in three memos of its
own.  The chain and step memos die with the call; the contractum memo is
kept in the result for the extracted adversaries.  Threads and heaps are
hash-consed, so a key hashes in O(1) however deep its context (Filliatre
& Conchon 2006), and a ``Config`` hashes as one identity hash per thread
and one for its heap.

* The fused steps of a thread, keyed by (thread, is the first thread):
  local steps read no heap, so where they lead, and how many there are,
  depends on nothing else.  The chain is derived once, with
  the budget then left as its limit; a later visit with fewer steps left
  than the chain needs raises ``budget insufficient``, as running it
  would, and otherwise spends the whole chain, so ``fused_steps`` counts
  what the unmemoized loop counts.
* The contractum of a local redex, keyed by the redex: a local rule
  ignores the heap, so a redex that several threads or chains reach is
  substituted once.  It holds O(distinct redexes), never a context.
* The step of a thread, keyed by (thread, state): a thread's outcomes
  depend on the thread and the heap alone.  ``machine.successors``
  builds each successor configuration from them and the configuration's
  other threads.  Beyond the settled configurations, which the analysis
  memoizes anyway, it keeps only the successors of the steps taken.

``evaluate_policy`` keeps a step memo for one heap run only: a run of
consecutive configurations of one frontier that share one heap, as the
outcomes of a flip, a fork or a local step do, which the frontier holds
side by side and which differ in threads that did not move.  The memo is
dropped at the first configuration with another heap and at the end of
the frontier, so the pass holds little beyond the current frontier and
the next, one configuration per step on a deterministic run and the
widest step's leaves on a tree whose runs never meet; a memo for the
whole call, or for a heap run that outlives its frontier, as a run that
never changes its heap does, would keep every thread of the run alive.

Collapsing history-dependent schedulers to configuration keys is
justified for expected-value objectives and checked empirically:
``brute_force_extrema`` enumerates full history-dependent decision trees
(optionally with explicit stutter moves), unfused, and the test suite
asserts exact agreement, at every budget, on instances up to a million
decision nodes and on random small concurrent programs.

The extremizing choices are recorded in the memo beside the values, so
``extract_policy`` yields an ordinary Markov policy, a map from
configuration to thread that ignores the step count, which replays the
extremum exactly under the unfused ``evaluate_policy``: it reads the
configuration's entry in the analysis memo and, where there is none,
chooses a thread with a pending local step, which ``_fusion`` finds over
the analysis's contractum memo without taking the step, so a local redex
is not contracted again and the thread is built once, by the step
``evaluate_policy`` takes; the policy keeps no cache or view of its own.
History-dependent schedulers need no policy of their own: the
backward-induction optimum is attained by a Markov one, and
``brute_force_extrema`` covers the rest.

``monte_carlo`` checks the exact analyses statistically: it samples runs
under one policy with ``machine.sample_run``, whose memos of run segments
and thread steps, keyed by configuration, live for one call (or one
worker's share of it), and sums the first thread's final values exactly,
once per terminal configuration.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from ivalbench import comp, machine
from ivalbench.ival import as_rational, over_common_denominator, weighted_sum
from ivalbench.lang import FORMS, Expr, Flip, to_val
from ivalbench.machine import (
    Config, State, Thread, config_step, initial_config, is_terminated, outcomes, successors,
)


class ScheduleError(Exception):
    """Termination/budget violations discovered during analysis."""


@dataclass(frozen=True)
class SchedulerPolicy:
    """A Markov scheduler: ``choose(step, config)`` is the index of the
    thread to step next; an index naming no thread that can step is a
    stutter.  ``config.threads`` is the pool of ``machine.Thread``
    zippers: a thread's next redex is its ``focus``, and ``machine.plug``
    gives its expression.  ``choose`` must be pure, a function of its
    arguments alone: ``monte_carlo`` asks it once per run segment between
    draws and replays the segment for every later trial that reaches it.
    ``choose`` is a module-level function, a ``functools.partial`` of one
    or a picklable callable object, so that a policy pickles and
    ``monte_carlo`` can send it to worker processes."""

    name: str
    choose: Callable[[int, Config], int]


def _round_robin(step: int, c: Config) -> int:
    return step % len(c.threads)


def round_robin() -> SchedulerPolicy:
    return SchedulerPolicy("round-robin", _round_robin)


STUTTER = 10 ** 9  # out of range for any desk-scale pool


def _mix(seed: int, step: int) -> int:
    x = (seed * 1000003 + step) & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _seeded(seed: int, step: int, c: Config) -> int:
    return _mix(seed, step) % len(c.threads)


def seeded_random(seed: int) -> SchedulerPolicy:
    """Pseudorandom but deterministic: the choice is a hash of (seed, step)
    reduced by the current pool size."""
    return SchedulerPolicy(f"seeded-random({seed})", functools.partial(_seeded, seed))


# ---------------------------------------------------------------------------
# exact policy evaluation


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError(f"budget must be >= 0, not {budget}")


def evaluate_policy(prog: Expr, policy: SchedulerPolicy, budget: int,
                    f: Callable) -> Fraction:
    """Exact E[f(first thread's value)] after ``budget`` steps under a policy.

    Raises ``ScheduleError`` when a positive-probability run is still
    unterminated at the horizon.  A stutter repeats the configuration and
    spends a step.

    The run's distribution is carried forward a step at a time: the
    frontier maps each configuration reached at step ``s`` to its exact
    weight, each is stepped once, and successors that coincide are summed
    into the next frontier (the transient distribution of a Markov chain;
    Baier & Katoen, *Principles of Model Checking*, ch. 10).  Only the
    current frontier and the next are held, and the step memo of the
    current heap run: consecutive configurations of one frontier with one
    heap step a thread they share once, and a configuration with another
    heap starts a fresh memo, as does each frontier: a run that never
    changes its heap would otherwise keep one memo for the whole call.
    """
    _check_budget(budget)
    total = Fraction(0)
    frontier = {initial_config([prog]): Fraction(1)}
    step = 0
    while frontier:
        after: dict = {}
        heap = None  # the heap of the current run of configurations, and its step memo
        for (c, w) in frontier.items():
            if is_terminated(c):
                total += w * as_rational(f(to_val(c.threads[0].focus)))
                continue
            if step == budget:
                raise ScheduleError(
                    f"program does not terminate within {budget} steps under {policy.name}")
            if c.state is not heap:
                (heap, steps) = (c.state, {})
            succ = config_step(c, policy.choose(step, c), steps)
            for (p, c2) in succ:
                if p > 0:
                    q = w if len(succ) == 1 else w * p  # one outcome has p = 1
                    prev = after.get(c2)
                    after[c2] = q if prev is None else prev + q
        (frontier, step) = (after, step + 1)
    return total


# ---------------------------------------------------------------------------
# scheduler-extremal expectations by backward induction


@dataclass
class ExtremalResult:
    """The expectation's range over all schedulers and the analysis memo;
    ``policy_lo`` and ``policy_hi`` copy each extremum's choices out of it
    as a fresh ``{configuration: thread}`` dict."""

    lo: Fraction
    hi: Fraction
    explored_states: int  # distinct fused configurations memoized
    fused_steps: int  # thread-local steps run eagerly
    forced_flips: int  # memoized configurations whose one choice is a pending flip
    longest_path: int  # steps of the longest schedule: the least sufficient budget
    # configuration -> (lo, hi, lo choice, hi choice, longest path)
    memo: dict = field(repr=False, default_factory=dict)
    # local redex -> its contractum, or _STUCK: read on by the extracted adversaries
    contracta: dict = field(repr=False, default_factory=dict)

    @property
    def policy_lo(self) -> dict:
        return {c: e[2] for (c, e) in self.memo.items()}

    @property
    def policy_hi(self) -> dict:
        return {c: e[3] for (c, e) in self.memo.items()}


def enabled_threads(c: Config) -> list:
    return [i for (i, t) in enumerate(c.threads) if outcomes(t, c.state) is not None]


class _STUCK:
    """The contractum memo's entry for a stuck local redex.  A class, so it
    pickles by reference: a memo sent to a worker keeps it as itself."""


_BUDGET_INSUFFICIENT = "budget insufficient: an adversary reaches the horizon unterminated"
_LOCAL_LOOP = "budget insufficient: a thread's local steps repeat an expression, so they never end"
_CYCLE = "budget insufficient: an adversary can revisit a configuration forever"


def _fusion(t: Thread, s: State, first: bool, contracta: dict):
    """None if the analysis does not fuse ``t``'s next step, else the
    step's contractum, or the thread after the step where deciding built
    it.  Fused: an enabled thread-local step, except the one that turns the
    ``first`` thread into a value.  ``contracta`` maps each local redex to
    its contractum (or ``_STUCK``), which the heap cannot change.  A
    contractum that is not a value is descended into, so it never makes its
    thread a value: the thread is refocused to decide only for the
    ``first`` thread and a value contractum."""
    focus = t.focus
    if not FORMS[type(focus)].local:
        return None
    r = contracta.get(focus)
    if r is None:
        res = machine.RULES[type(focus)](focus, s)
        r = contracta[focus] = _STUCK if res is None else res[0][1]
    if r is _STUCK:
        return None  # stuck for good: a local side condition ignores the heap
    if first and r.is_val:
        t2 = machine.refocus(t.ctx, r)
        return None if t2.focus.is_val else t2
    return r


def _fused_step(t: Thread, s: State, first: bool, contracta: dict):
    """The thread after ``t``'s next step if the analysis fuses that step
    (``_fusion``), else None.  The contractum is refocused from the hole,
    so a step costs O(redex), not O(depth)."""
    r = _fusion(t, s, first, contracta)
    return r if r is None or type(r) is Thread else machine.refocus(t.ctx, r)


def _forced_flip(c: Config, steps: dict):
    """``(i, successors)`` of the lowest thread ``i`` of ``c`` whose next
    step is a ``flip`` that meets its side condition, or None.  A flip that
    turns the first thread into a value is not forced: it terminates the
    configuration, which is observable."""
    for (i, t) in enumerate(c.threads):
        if type(t.focus) is Flip and (succ := successors(c, i, steps)) is not None:
            # both outcomes are a boolean in the same context: either tells
            if i or not succ[0][1].threads[0].focus.is_val:
                return (i, succ)
    return None


def _local_chain(t: Thread, s: State, first: bool, limit: int, contracta: dict) -> tuple:
    """``(t2, n)``: the thread ``t`` reaches ``t2`` after its ``n`` fused
    steps, and ``t2``'s next step is not fused.  Raises ``budget
    insufficient`` when ``n`` would exceed ``limit``, or when the steps
    repeat a thread: they then never end.  A repeat is found in constant
    memory by comparing each thread with a mark moved to the chain's
    positions 1, 2, 4, 8, ... (Brent 1980); threads are hash-consed, so
    the comparison is by identity."""
    (mark, n, lap) = (t, 0, 1)
    while (t2 := _fused_step(t, s, first, contracta)) is not None:
        if n == limit:
            raise ScheduleError(_BUDGET_INSUFFICIENT)
        if t2 is mark:
            raise ScheduleError(_LOCAL_LOOP)
        (t, n) = (t2, n + 1)
        if n == lap:
            (mark, lap) = (t, 2 * lap)
    return (t, n)


def extremal_expectation(prog: Expr, budget: int, f: Callable) -> ExtremalResult:
    """Min and max over all deterministic schedulers of the expected value.

    Fails loudly if any scheduler can exhaust the budget without the first
    thread reaching a value (including deadlock: no enabled thread).  The
    walk keeps its own stack, so a schedule of any length leaves the
    interpreter's recursion limit alone.  The memos of thread work live
    for this call only.
    """
    _check_budget(budget)
    memo: dict = {}
    chains: dict = {}  # (expression, is the first thread) -> _local_chain's (e2, n)
    contracta: dict = {}  # local redex -> its contractum, or _STUCK
    steps: dict = {}  # (expression, state) -> the thread's outcomes
    gray: set = set()  # the settled configurations being valued on the stack
    fused = forced = 0

    def settle(c: Config, k: int, todo) -> tuple:
        """Run the pending local steps of threads ``todo`` of the
        unterminated ``c``, each spending one unit of the budget ``k``."""
        nonlocal fused
        threads = list(c.threads)
        k0 = k
        for j in todo:
            key = (threads[j], j == 0)
            chain = chains.get(key)
            if chain is None:
                chain = chains[key] = _local_chain(threads[j], c.state, j == 0, k, contracta)
            elif chain[1] > k:
                raise ScheduleError(_BUDGET_INSUFFICIENT)
            (threads[j], n) = chain
            k -= n
        if k == k0:
            return c, k
        fused += k0 - k
        return Config(tuple(threads), c.state), k

    def expand(c: Config, left: int):
        """The memo entry of the settled ``c``, which is not memoized yet,
        with ``left`` steps left, as a generator.  A successor that is
        terminated or settles into a memoized configuration is valued in
        place; for any other, it yields the settled successor and its
        budget and is sent that successor's entry."""
        nonlocal forced
        if c in gray:  # a cycle of positive probability: no budget suffices
            raise ScheduleError(_CYCLE)
        n = len(c.threads)
        flip = _forced_flip(c, steps)
        if flip is None:
            succs = [(i, succ) for i in range(n)
                     if (succ := successors(c, i, steps)) is not None]
        else:
            succs = [flip]
            forced += 1
        if not succs:
            raise ScheduleError(f"deadlock: no thread can step in {c}")
        if left == 0:
            raise ScheduleError(_BUDGET_INSUFFICIENT)
        gray.add(c)
        best = None
        longest = 0
        k = left - 1
        for (i, succ) in succs:
            valued = []  # (prob, lo, hi) of each outcome
            for (p, c2) in succ:
                if p == 0:
                    continue
                if c2.threads[0].focus.is_val:  # terminated
                    v = as_rational(f(to_val(c2.threads[0].focus)))
                    valued.append((p, v, v))
                    continue
                # only the stepped thread and a thread it forked can have
                # a pending local step
                (c2, left2) = settle(c2, k, (i, *range(n, len(c2.threads))))
                hit = memo.get(c2)
                if hit is None:
                    hit = yield (c2, left2)
                elif hit[4] > left2:  # valuing ``c2`` again could only run out of budget
                    raise ScheduleError(_BUDGET_INSUFFICIENT)
                valued.append((p, hit[0], hit[1]))
                longest = max(longest, k - left2 + hit[4])
            if len(valued) == 1:
                (_, lo_i, hi_i) = valued[0]
            else:  # integer weights over one denominator
                (den, weights) = over_common_denominator([p for (p, _, _) in valued])
                lo_i = weighted_sum(den, zip(weights, [lo for (_, lo, _) in valued]))
                hi_i = weighted_sum(den, zip(weights, [hi for (_, _, hi) in valued]))
            if best is None:
                best = [lo_i, hi_i, i, i]
            else:
                if lo_i < best[0]:
                    best[0], best[2] = lo_i, i
                if hi_i > best[1]:
                    best[1], best[3] = hi_i, i
        gray.remove(c)
        memo[c] = entry = (*best, 1 + longest)
        return entry

    c0 = initial_config([prog])
    if is_terminated(c0):
        v = as_rational(f(to_val(c0.threads[0].focus)))
        return ExtremalResult(v, v, 0, 0, 0, 0, memo, contracta)
    (c, left) = settle(c0, budget, range(len(c0.threads)))
    stack = [expand(c, left)]
    sent = None
    while True:
        try:
            args = stack[-1].send(sent)
        except StopIteration as done:
            stack.pop()
            sent = done.value
            if not stack:
                return ExtremalResult(sent[0], sent[1], len(memo), fused, forced,
                                      budget - left + sent[4], memo, contracta)
        else:
            stack.append(expand(*args))
            sent = None


def _extremal(memo: dict, contracta: dict, slot: int, step: int, c: Config) -> int:
    """``choose`` of an extracted adversary: the choice in ``slot`` of the
    analysis ``memo`` entry of a memoized configuration, else the first
    thread with a pending fused step, decided by ``_fusion`` over the
    analysis's ``contracta`` without taking the step, else a stutter."""
    hit = memo.get(c)
    if hit is not None:
        return hit[slot]  # a memoized configuration is settled
    for (i, t) in enumerate(c.threads):
        if _fusion(t, c.state, i == 0, contracta) is not None:
            return i
    return STUTTER


def extract_policy(result: ExtremalResult, direction: str) -> SchedulerPolicy:
    """The memoryless adversary recorded during backward induction; replays
    the extremum exactly under ``evaluate_policy`` with the same budget.

    A memoized configuration is settled, so it is looked up first, at
    whatever budget remains; its choice is a forced flip where it has one.
    One that is not memoized runs a pending fused step: local steps
    commute, so any order reaches the memoized configuration with the same
    remaining budget.  It reads the analysis memo itself, and decides which
    steps are fused over the analysis's contractum memo, which it extends
    with any redex the analysis did not meet, without taking them: the
    step itself is left to the engine that asked; a pickled copy carries
    both memos."""
    choose = functools.partial(_extremal, result.memo, result.contracta,
                               2 if direction == "lo" else 3)
    return SchedulerPolicy(f"extremal-{direction}", choose)


# ---------------------------------------------------------------------------
# brute-force enumeration of history-dependent scheduler decision trees


@dataclass
class BruteForceResult:
    lo: Fraction
    hi: Fraction
    nodes: int


def brute_force_extrema(prog: Expr, budget: int, f: Callable,
                        allow_stutters: int = 0,
                        node_limit: int = 2 * 10 ** 6) -> BruteForceResult:
    """Game-tree recursion over configurations, no memoization.

    A node of the tree is the path of configurations that leads to it, so
    every deterministic history-dependent scheduler is a choice function
    on this tree, and its min/max is the extremum over all of them.  With
    ``allow_stutters`` > 0 the adversary may also spend that many explicit
    stutter moves (each consuming budget), which lets the suite check that
    excluding stutters is harmless.
    """
    _check_budget(budget)
    nodes = 0

    def go(c: Config, k: int, stutters: int):
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise ScheduleError(f"decision tree exceeds {node_limit} nodes")
        if is_terminated(c):
            v = as_rational(f(to_val(c.threads[0].focus)))
            return (v, v)
        enabled = enabled_threads(c)
        if not enabled:
            raise ScheduleError(f"deadlock: no thread can step in {c}")
        if k == 0:
            raise ScheduleError("budget insufficient under brute force")
        lo = hi = None
        for i in enabled:
            lo_i = Fraction(0)
            hi_i = Fraction(0)
            for (p, c2) in config_step(c, i, {}):
                if p == 0:
                    continue
                (lo2, hi2) = go(c2, k - 1, stutters)
                lo_i += p * lo2
                hi_i += p * hi2
            lo = lo_i if lo is None else min(lo, lo_i)
            hi = hi_i if hi is None else max(hi, hi_i)
        if stutters > 0:
            (lo2, hi2) = go(c, k - 1, stutters - 1)
            lo = min(lo, lo2)
            hi = max(hi, hi2)
        return (lo, hi)

    (lo, hi) = go(initial_config([prog]), budget, allow_stutters)
    return BruteForceResult(lo, hi, nodes)


# ---------------------------------------------------------------------------
# Monte-Carlo estimation


@dataclass
class MonteCarloResult:
    trials: int
    mean: float
    variance: float
    ci_lo: float
    ci_hi: float
    seed: int

    def contains(self, exact) -> bool:
        return self.ci_lo <= float(exact) <= self.ci_hi


def _run_trials(prog, policy, budget, f, seed, lo, hi):
    """Trials ``lo`` to ``hi`` over one memo of deterministic run segments
    and one step memo: (sum, sum of squares), from the number of trials
    ending at each terminal configuration."""
    start = initial_config([prog])
    segments: dict = {}  # see machine.sample_run
    steps: dict = {}  # (thread, state) -> the thread's outcomes
    ends: dict = {}  # terminal configuration -> trials ending there
    for trial in range(lo, hi):
        rng = random.Random(_mix(seed, trial))
        end = machine.sample_run(start, policy.choose, budget, rng, segments, steps)
        if not is_terminated(end):
            raise ScheduleError(f"trial {trial} unterminated after {budget} steps")
        ends[end] = ends.get(end, 0) + 1
    total = Fraction(0)
    totalsq = Fraction(0)
    for (end, count) in ends.items():
        x = as_rational(f(to_val(end.threads[0].focus)))
        total += count * x
        totalsq += count * x * x
    return total, totalsq


def monte_carlo(prog: Expr, policy: SchedulerPolicy, budget: int, f: Callable,
                trials: int, seed: int, workers: int = 1) -> MonteCarloResult:
    """Sample mean/variance and a 3-sigma (99.7%) normal interval.

    Each trial runs on its own deterministic (seed, trial) sub-seed and
    sample sums are accumulated exactly, so the result is identical no
    matter how trials are chunked across the ``workers`` processes; each
    worker samples with its own memo of run segments and of thread steps
    (``machine.sample_run``), which live as long as its share of the call.
    A path that fails to terminate within the budget is an error, not a
    silent truncation.
    """
    _check_budget(budget)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, not {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, not {workers}")
    if workers > 1 and trials >= 2 * workers:
        import concurrent.futures
        bounds = [trials * k // workers for k in range(workers + 1)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            jobs = [pool.submit(_run_trials, prog, policy, budget, f, seed,
                                bounds[k], bounds[k + 1]) for k in range(workers)]
            parts = [job.result() for job in jobs]
        total = sum((t for (t, _) in parts), Fraction(0))
        totalsq = sum((q for (_, q) in parts), Fraction(0))
    else:
        total, totalsq = _run_trials(prog, policy, budget, f, seed, 0, trials)

    mean = float(total / trials)
    # from the exact sums: subtracting rounded floats cancels
    variance = float(totalsq / trials - (total / trials) ** 2)
    sigma_mean = math.sqrt(variance / trials)
    return MonteCarloResult(trials, mean, variance,
                            mean - 3 * sigma_mean, mean + 3 * sigma_mean, seed)


# ---------------------------------------------------------------------------
# the soundness sandwich, checked empirically


@dataclass
class SandwichReport:
    spec_min: Fraction
    mdp_lo: Fraction
    mdp_hi: Fraction
    spec_max: Fraction
    explored_states: int

    @property
    def passed(self) -> bool:
        return self.spec_min <= self.mdp_lo and self.mdp_hi <= self.spec_max


def soundness_sandwich_check(prog: Expr, spec: comp.Comp, f: Callable, g: Callable,
                             budget: int) -> SandwichReport:
    """Check that the scheduler range of E[f; program] lies inside the
    extrema of g over the monadic specification ``spec``."""
    (smin, smax) = (comp.ex_min(g, spec), comp.ex_max(g, spec))
    res = extremal_expectation(prog, budget, f)
    return SandwichReport(smin, res.lo, res.hi, smax, res.explored_states)
