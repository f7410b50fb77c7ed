"""Operational semantics: redexes, configurations, runs, invariants."""

import dataclasses
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import ivalbench
from ivalbench import ival, lang, machine, sched
from ivalbench.lang import FORMS, Lit, VInt, VLoc, parse, to_val
from ivalbench.machine import (
    HOLE, State, Thread, config_step, initial_config, plug, refocus, trace_step_ival_n,
)
from ivalbench.models import read_int, read_true_indicator
import plugging_reference as ref


def rr(step, c):
    return step % len(c.threads)


def first_threads(iv):
    return ival.map_values(lambda c: plug(c.threads[0]), iv)


def run_dist(text_or_expr, steps, heap=()):
    prog = parse(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr
    iv = first_threads(trace_step_ival_n(rr, initial_config([prog], heap), steps))
    return {to_val(e): p for (e, p) in ival.to_distribution(iv).weights}


def redex_is_local(e):
    """Is the redex of the next step of ``e`` a thread-local form?"""
    return FORMS[type(refocus(None, e).focus)].local


def outcomes(e, s):
    """``machine.outcomes`` of the thread ``e``, with each successor and
    forked thread plugged back to its expression."""
    res = machine.outcomes(refocus(None, e), s)
    return None if res is None else [(p, plug(t), s2, tuple(map(plug, sp)))
                                     for (p, t, s2, sp) in res]


def test_flip_two_entries():
    out = outcomes(parse("(flip 1 2)"), State(()))
    assert [(p, e) for (p, e, _, _) in out] == \
        [(F(1, 2), Lit(lang.TRUE)), (F(1, 2), Lit(lang.FALSE))]


def test_flip_keeps_zero_probability_branch():
    out = outcomes(parse("(flip 1 1)"), State(()))
    assert [p for (p, _, _, _) in out] == [F(1), F(0)]


def test_flip_side_condition_stuck():
    assert outcomes(parse("(flip 3 2)"), State(())) is None
    assert outcomes(parse("(flip 1 0)"), State(())) is None
    assert outcomes(parse("(flip -1 2)"), State(())) is None


def test_faa_returns_old_value():
    s = State((VInt(4),))
    out = outcomes(parse("(faa (loc 0) 3)"), s)
    [(p, e, s2, sp)] = out
    assert p == 1 and to_val(e) == VInt(4) and s2.lookup(0) == VInt(7) and sp == ()


def test_load_unallocated_stuck():
    assert outcomes(parse("(load (loc 9))"), State(())) is None


def test_store_requires_allocated_cell():
    assert outcomes(parse("(store (loc 0) 1)"), State(())) is None
    s = State((VInt(0),))
    [(_, e, s2, _)] = outcomes(parse("(store (loc 0) 5)"), s)
    assert s2.lookup(0) == VInt(5) and to_val(e) == lang.VUnit()


def test_cas_success_and_failure():
    s = State((VInt(2),))
    [(_, e, s2, _)] = outcomes(parse("(cas (loc 0) 2 3)"), s)
    assert to_val(e) == lang.TRUE and s2.lookup(0) == VInt(3)
    [(_, e, s3, _)] = outcomes(parse("(cas (loc 0) 7 3)"), s)
    assert to_val(e) == lang.FALSE and s3.lookup(0) == VInt(2)


def recursive_val_eq(a, b):
    """The reference for ``machine.val_eq``, one call per pair level."""
    if isinstance(a, lang.VClosure) or isinstance(b, lang.VClosure):
        return None
    if type(a) is not type(b):
        return False
    if isinstance(a, lang.VPair):
        left = recursive_val_eq(a.fst, b.fst)
        if left is None:
            return None
        if not left:
            return False
        return recursive_val_eq(a.snd, b.snd)
    return a == b


def test_val_eq_left_to_right():
    # the first closure or mismatch met, fst before snd, decides
    (one, two, clo) = (VInt(1), VInt(2), lang.VClosure("f", "x", lang.Var("x")))
    pair = lang.VPair
    assert machine.val_eq(pair(clo, one), pair(clo, two)) is None
    assert machine.val_eq(pair(one, clo), pair(two, clo)) is False
    assert machine.val_eq(pair(one, clo), pair(one, clo)) is None
    assert machine.val_eq(pair(one, pair(two, one)), pair(one, pair(two, one))) is True
    assert machine.val_eq(pair(one, two), one) is False
    leaves = [one, two, lang.TRUE, lang.UNIT, VLoc(1), clo]
    rng = random.Random(5)

    def gen(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        return pair(gen(depth - 1), gen(depth - 1))

    for _ in range(2_000):
        (a, b) = (gen(4), gen(4))
        assert machine.val_eq(a, b) is recursive_val_eq(a, b)
        assert machine.val_eq(a, a) is recursive_val_eq(a, a)


def test_wait_blocks_until_match():
    s = State((VInt(0),))
    assert outcomes(parse("(wait (loc 0) 1)"), s) is None
    s2 = s.store(0, VInt(1))
    [(_, e, _, _)] = outcomes(parse("(wait (loc 0) 1)"), s2)
    assert to_val(e) == lang.VUnit()


def test_fork_spawns_unevaluated():
    [(p, e, _, spawned)] = outcomes(parse("(fork (faa (loc 0) 1))"), State(()))
    assert p == 1 and to_val(e) == lang.VUnit()
    assert spawned == (parse("(faa (loc 0) 1)"),)


def test_thread_step_markers():
    # values and stuck expressions yield the none marker
    assert outcomes(parse("42"), State(())) is None
    assert outcomes(parse("(load (loc 3))"), State(())) is None
    assert sum(p for (p, _, _, _) in outcomes(parse("(flip 1 2)"), State(()))) == 1


def test_config_step_stutters():
    c = initial_config([parse("42")])
    assert config_step(c, 0, {}) == config_step(c, 5, {}) == ((1, c),)


def test_config_step_appends_forked_thread():
    c = initial_config([parse("(seq (fork 1) 2)")])
    [(p, c2)] = config_step(c, 0, {})
    assert p == 1 and len(c2.threads) == 2 and c2.threads[1] is Thread(None, parse("1"))


def heap_config():
    """A two-thread configuration over one cell, and its successor after
    the second thread's ``faa``."""
    c = initial_config([parse("(flip 1 2)"), parse("(faa (loc 0) 1)")], [VInt(1)])
    [(_, after)] = config_step(c, 1, {})
    return c, after


def test_config_step_reads_and_extends_the_step_memo():
    # the step memo of ``successors``: one entry per (thread, heap)
    # stepped, read back on the next call
    (c, _) = heap_config()
    memo = {}
    pairs = config_step(c, 1, memo)
    assert list(memo) == [(c.threads[1], c.state)]
    assert config_step(c, 1, memo) == pairs == config_step(c, 1, {})
    assert config_step(c, 9, memo) == ((1, c),) and len(memo) == 1


def test_equal_heaps_are_one_state():
    # a heap is hash-consed like a term, and a configuration compares and
    # hashes by its hash-consed parts
    (c, after) = heap_config()
    for x in (c, after):
        cells = tuple(list(x.state.cells))  # an equal tuple, not the same one
        assert State(cells) is x.state
        copy = machine.Config(tuple(list(x.threads)), State(cells))
        assert copy is not x
        assert copy == x and hash(copy) == hash(x)
        assert repr(x) == f"Config(threads={x.threads!r}, state={x.state!r})"
    assert c != after and c.state is not after.state
    assert after.state is c.state.store(0, VInt(2))
    assert [f.name for f in dataclasses.fields(machine.Config)] == ["threads", "state"]
    assert [f.name for f in dataclasses.fields(State)] == ["cells"]
    # the structural key is the flat preorder of the fields' tokens
    key = ival.value_key
    assert key(c.state) == (6, ((6, "State"), (5, 1), (6, "VInt"), (1, 1)))
    (rank, tokens) = key(c)
    assert rank == 6 and tokens[:2] == ((6, "Config"), (5, 2))
    assert tokens[-4:] == key(c.state)[1]


def test_configuration_pickles_into_the_interning_tables():
    # a loaded heap is interned again, in this process and in a fresh
    # interpreter, whose identity hashes differ
    (c, after) = heap_config()
    copy = pickle.loads(pickle.dumps(c))
    assert copy == c and hash(copy) == hash(c) and copy.state is c.state
    src = str(Path(ivalbench.__file__).resolve().parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    check = ("import pickle, sys\n"
             "from ivalbench.machine import Config, State\n"
             "cs = pickle.load(sys.stdin.buffer)\n"
             "table = {c: k for (k, c) in enumerate(cs)}\n"
             "print(all(table[Config(c.threads, State(c.state.cells))] == k\n"
             "          for (k, c) in enumerate(cs)))\n")
    out = subprocess.run([sys.executable, "-c", check], input=pickle.dumps([c, after]),
                         env=env, capture_output=True, check=True)
    assert out.stdout == b"True\n"


def test_heap_primitives_stuck_outside_the_heap():
    # a location names a cell only in 0 .. len(cells) - 1: a negative one
    # must not read a cell from the end
    s = State((VInt(1),))
    for loc in (-1, 1):
        for op in (f"(load (loc {loc}))", f"(store (loc {loc}) 1)", f"(faa (loc {loc}) 1)",
                   f"(cas (loc {loc}) 1 2)", f"(wait (loc {loc}) 1)"):
            assert machine.outcomes(refocus(None, parse(op)), s) is None, op


def test_trace_semantics_flip():
    d = run_dist("(flip 1 2)", 1)
    assert d == {lang.TRUE: F(1, 2), lang.FALSE: F(1, 2)}


def test_zero_steps_returns_first_thread():
    prog = parse("(flip 1 2)")
    c = initial_config([prog, parse("7")])
    iv = first_threads(trace_step_ival_n(rr, c, 0))
    assert ival.equiv(iv, ival.ret(prog))


def test_single_thread_deterministic_one_entry():
    c = initial_config([parse("(+ 1 2)")])
    iv = trace_step_ival_n(rr, c, 1)
    assert len(iv.entries) == 1 and iv.entries[0][2] == 1


def test_terminated_is_fixed_point():
    d1 = run_dist("(flip 1 2)", 1)
    d5 = run_dist("(flip 1 2)", 5)
    assert d1 == d5


def test_deterministic_example():
    d = run_dist("(let (l (alloc 4)) (seq (faa l 3) (load l)))", 10)
    assert d == {VInt(7): F(1)}


def test_min_and_arith():
    d = run_dist("(min (+ 2 3) (pow 2 2))", 5)
    assert d == {VInt(4): F(1)}
    d = run_dist("(mod 7 4)", 3)
    assert d == {VInt(3): F(1)}


def test_closure_application():
    d = run_dist("((rec (f x) (if (= x 0) 99 (f (- x 1)))) 3)", 40)
    assert d == {VInt(99): F(1)}


def test_terminates_within():
    # evaluate_policy raises exactly when some run is unterminated at the horizon
    flip = parse("(flip 1 2)")
    assert sched.evaluate_policy(flip, sched.round_robin(), 1, read_true_indicator) == F(1, 2)
    with pytest.raises(sched.ScheduleError):
        sched.evaluate_policy(flip, sched.round_robin(), 0, read_true_indicator)
    # lock already taken: the spinner can never finish under any script
    spin = parse("(let (lk (alloc #t)) "
                 "((rec (sp u) (if (cas lk #f #t) () (sp ()))) ()))")
    with pytest.raises(sched.ScheduleError):
        sched.evaluate_policy(spin, sched.round_robin(), 25, read_int)


def test_mass_conservation_along_random_runs():
    rng = random.Random(23)
    from ivalbench import models
    prog = models.unbiased_counter_program(2, max_value=2)
    c = initial_config([prog])
    for _ in range(40):
        i = rng.randrange(len(c.threads) + 1)
        succ = config_step(c, i, {})
        assert sum(p for (p, _) in succ) == 1
        positive = [cc for (p, cc) in succ if p > 0]
        c = rng.choice(positive)


def test_determinism_modulo_flip():
    # more than one positive outcome only ever comes from a flip redex
    from ivalbench import models
    rng = random.Random(41)
    for prog in (models.unbiased_counter_program(2, max_value=2),
                 models.dlm_counter_program(2, bits=2)):
        c = initial_config([prog])
        for _ in range(120):
            i = rng.randrange(len(c.threads))
            positive = [(cc, p) for (p, cc) in config_step(c, i, {}) if p > 0]
            if len(positive) > 1:
                assert isinstance(c.threads[i].focus, lang.Flip)
            c = rng.choice(positive)[0]


def test_pool_grows_only_by_fork():
    from ivalbench import models
    prog = models.unbiased_counter_program(3, max_value=1)
    c = initial_config([prog])
    rng = random.Random(5)
    for _ in range(60):
        i = rng.randrange(len(c.threads))
        before = len(c.threads)
        entries = [(cc, p) for (p, cc) in config_step(c, i, {}) if p > 0]
        (c2, _) = rng.choice(entries)
        grew = len(c2.threads) - before
        assert grew in (0, 1)
        if grew == 1:  # the stepped thread's redex, under its context, is a fork
            assert isinstance(c.threads[i].focus, lang.Fork)
        c = c2


def stored_locs(v):
    """The locations in value ``v`` and in the pairs it is built of."""
    if isinstance(v, lang.VPair):
        return stored_locs(v.fst) + stored_locs(v.snd)
    return [v.loc] if isinstance(v, VLoc) else []


def test_heap_safety_reachable_configs():
    from ivalbench import models
    prog = models.skip_list_sequential_program([5], query=5)
    c = initial_config([prog])
    rng = random.Random(7)
    for _ in range(150):
        # every location stored in a cell, inside pairs too, names a cell
        cells = c.state.cells
        assert all(0 <= loc < len(cells) for v in cells for loc in stored_locs(v))
        i = rng.randrange(len(c.threads))
        entries = [(cc, p) for (p, cc) in config_step(c, i, {}) if p > 0]
        if not entries:
            continue
        (c, _) = rng.choice(entries)


def check_decomposition(t, split):
    """The zipper ``t`` is the one decomposition ``split`` of the
    plugging reference: the same redex under the same frames, innermost
    first, each with the hole at the same position and the canonical hole
    marker there."""
    (frames, redex) = split
    assert t.focus is redex
    ctx = t.ctx
    for (node, k) in reversed(frames):
        positions = lang.FORMS[type(ctx.frame)].evaluated(ctx.frame)
        assert ctx.k == k and positions[k] is HOLE
        assert all(c.is_val for c in positions[:k])
        assert machine._fill(ctx, lang.FORMS[type(node)].evaluated(node)[k]) is node
        ctx = ctx.up
    assert ctx is None
    assert all(c.is_val for c in lang.FORMS[type(redex)].evaluated(redex))
    assert type(redex) in machine.RULES


def test_unique_decomposition():
    # an expression and its zipper are in bijection, and the zipper is the
    # decomposition the plugging reference finds
    rng = random.Random(29)
    interesting = 0
    for _ in range(500):
        e = lang.gen_expr(rng, depth=4)
        t = refocus(None, e)
        assert plug(t) is e and refocus(None, plug(t)) is t
        split = ref.decompose(e)
        if e.is_val:
            assert split is None and t is Thread(None, e)
        elif isinstance(e, lang.Var):
            assert split is None and t is Thread(None, e)  # open: no context applies
        elif split is not None:
            # non-value closed-ish forms decompose uniquely
            check_decomposition(t, split)
            interesting += 1
        else:  # a variable in redex position gives no decomposition
            assert type(t.focus) is lang.Var
    assert interesting > 300


def test_decomposition_agrees_with_stepper():
    # each step's outcomes plug to those of the plugging reference, and
    # refocusing a plugged successor gives the successor back
    rng = random.Random(31)
    s = State((VInt(1),))
    stepped = 0
    for _ in range(300):
        e = lang.gen_expr(rng, depth=3)
        t = refocus(None, e)
        res = machine.outcomes(t, s)
        want = ref.outcomes(e, s)
        if res is None:
            assert want is None
            continue
        check_decomposition(t, ref.decompose(e))
        assert [(p, plug(t2), s2, tuple(map(plug, sp))) for (p, t2, s2, sp) in res] == want
        assert all(refocus(None, plug(t2)) is t2 for (_, t2, _, _) in res)
        stepped += 1
    assert stepped > 80


def test_deep_context_steps_without_recursion():
    # the context is walked by a loop, not by the recursion limit
    e = lang.num(1)
    for _ in range(20_000):
        e = lang.Prim("+", (lang.num(1), e))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        [(p, e2, _, _)] = outcomes(e, State(()))
        assert redex_is_local(e)
        [(_, c2)] = config_step(initial_config([e]), 0, {})
        assert p == 1 and plug(c2.threads[0]) is e2
    finally:
        sys.setrecursionlimit(limit)
    for _ in range(20_000 - 1):
        e2 = e2.args[1]
    assert e2 == lang.num(2)


def test_dlm_single_step_matches_morris():
    # from counter value k, a full compare-and-swap increment moves the
    # counter like the logarithmic one: to k+1 with probability 1/2^k
    from ivalbench import models
    for k in (0, 1, 2):
        heap = (VInt(k),)
        dlm = lang.seq(models.dlm_incr(Lit(VLoc(0)), bits=3), parse("(load (loc 0))"))
        morris = lang.seq(models.morris_incr(Lit(VLoc(0))), parse("(load (loc 0))"))
        d1 = run_dist(dlm, 60, heap)
        d2 = run_dist(morris, 60, heap)
        expected = {VInt(k + 1): F(1, 2 ** k)}
        if k > 0:
            expected[VInt(k)] = 1 - F(1, 2 ** k)
        assert d1 == expected and d2 == expected


def test_next_redex_is_local():
    # the redex the next step reduces decides, wherever it sits in the context
    local = ["((lam (x) x) 1)", "(let (x 1) x)", "(if #t 1 2)", "(+ 1 2)",
             "(store (loc 0) (+ 1 2))", "(if 3 1 2)"]
    other = ["(load (loc 0))", "(flip 1 2)", "(fork 1)",
             "(alloc 1)", "(+ (load (loc 0)) 1)", "(seq (faa (loc 0) 1) (+ 1 2))"]
    assert all(redex_is_local(parse(t)) for t in local)
    assert not any(redex_is_local(parse(t)) for t in other)
    # a value has no redex: it is its own focus
    for text in ("1", "(lam (x) x)"):
        assert refocus(None, parse(text)) is Thread(None, parse(text))


def test_pow_bounded_by_result_bits():
    big = machine.POW_MAX_BITS
    assert machine.apply_prim("pow", (VInt(2), VInt(big - 1))) == VInt(2 ** (big - 1))
    assert machine.apply_prim("pow", (VInt(-3), VInt(3))) == VInt(-27)
    assert machine.apply_prim("pow", (VInt(1), VInt(10 ** 18))) == VInt(1)
    assert machine.apply_prim("pow", (VInt(2), VInt(big))) is None  # big + 1 bits
    assert machine.apply_prim("pow", (VInt(3), VInt(big))) is None
    # 3**40000 has 63,399 bits and 3**45000 has 71,324: the second is
    # refused only after it is computed
    assert machine.apply_prim("pow", (VInt(3), VInt(40000))) == VInt(3 ** 40000)
    assert machine.apply_prim("pow", (VInt(-3), VInt(45000))) is None
    t0 = time.perf_counter()
    assert machine.apply_prim("pow", (VInt(2), VInt(200_000_000))) is None
    assert machine.apply_prim("pow", (VInt(7), VInt(10 ** 30))) is None
    assert time.perf_counter() - t0 < 0.5  # computing 2**200000000 takes seconds
    # an oversized power is a stuck side condition, like a negative exponent
    assert outcomes(parse("(pow 2 200000000)"), State(())) is None
    assert outcomes(parse("(pow 2 -1)"), State(())) is None


def test_context_prints_its_expression_with_the_hole():
    t = refocus(None, parse("(+ 1 (+ 2 (f 3)))"))
    assert repr(t.focus) == "f"
    assert repr(t.ctx) == "(+ 1 (+ 2 ([] 3)))"
    assert repr(t) == "(+ 1 (+ 2 (f 3)))"


def test_deep_terms_contexts_and_configurations_repr_within_the_recursion_limit():
    # a let chain 3,000 deep in its bound, whose thread has a context of
    # 2,999 frames, and a pair 3,000 deep in a heap cell: every repr is the
    # printer's, which walks on explicit stacks
    chain = parse("(let (x " * 3000 + "1" + ") x)" * 3000)
    deep = to_val(parse("(pair #t " * 3000 + "()" + ")" * 3000))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        chain_text = repr(chain)
        [(_, t2, _, _)] = machine.outcomes(refocus(None, chain), State(()))
        ctx_text = repr(t2.ctx)
        value_text = repr(deep)
        stuck = initial_config([parse("(wait (loc 0) 1)")], [deep])  # deadlocked
        config_text = repr(stuck)
    finally:
        sys.setrecursionlimit(limit)
    assert chain_text == lang.unparse(chain)
    assert ctx_text == "(let (x " * 2998 + "[]" + ") x)" * 2998
    assert value_text == "(pair #t " * 3000 + "()" + ")" * 3000
    assert config_text == f"Config(threads=((wait (loc 0) 1),), state=State(cells=({value_text},)))"
