"""Case studies: counters, the counting client, and the skip list."""

from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations

import pytest

from ivalbench import comp, ival, lang, machine, models, ndset, sched
from ivalbench.lang import VBool, VInt, VLoc, VPair, Wait, to_val, unparse
from ivalbench.models import read_int


def rr(step, c):
    return step % len(c.threads)


def dist_of(prog, steps, heap=()):
    iv = machine.trace_step_ival_n(rr, machine.initial_config([prog], heap), steps)
    iv = ival.map_values(lambda c: c.threads[0].focus, iv)
    return {to_val(e): p for (e, p) in ival.to_distribution(iv).weights}


def ident(v):
    return F(v)


# -- counters -----------------------------------------------------------------


def test_unbiased_single_incr_from_zero_is_certain():
    prog = models.unbiased_counter_program(1, max_value=0)
    assert dist_of(prog, 30) == {VInt(1): F(1)}


def test_unbiased_incr_pretty_print_matches_listing():
    text = unparse(models.unbiased_incr(lang.Var("l"), 2))
    assert text == ("(let (k (min (load l) 2)) "
                    "(let (b (flip 1 (+ k 1))) "
                    "(if b (seq (faa l (+ k 1)) ()) ())))")


def test_unbiased_two_threads_expectation():
    prog = models.unbiased_counter_program(2, max_value=2)
    assert sched.evaluate_policy(prog, sched.round_robin(), 70, read_int) == 2


def test_morris_expectation_is_count():
    # E[2^C - 1] equals the number of increments
    for n in (0, 1, 2):
        prog = models.morris_program(n)
        got = sched.evaluate_policy(prog, sched.round_robin(), 20 + 30 * n, read_int)
        assert got == n


def test_morris_read_of_zero():
    assert dist_of(models.morris_program(0), 10) == {VInt(0): F(1)}


def test_dlm_cas_failure_reenters_loop():
    # the failure branch of the compare-and-swap recurses with the same bits
    text = unparse(models.dlm_incr(lang.Var("l"), bits=1))
    assert "(if (cas l k (+ k 1)) () (incraux b))" in text


def test_dlm_two_thread_bias():
    prog = models.dlm_counter_program(2, bits=2)
    res = sched.extremal_expectation(prog, 80, models.read_pow2_minus_1)
    assert res.lo < 2 < res.hi


def test_read_pow2_minus_1_exact_for_negative_counts():
    assert models.read_pow2_minus_1(VInt(3)) == 7
    assert models.read_pow2_minus_1(VInt(-1)) == F(-1, 2)
    assert models.read_pow2_minus_1(VInt(-2000)) == F(1, 2**2000) - 1


# -- monadic counter specifications -------------------------------------------


def test_approx_incr_members():
    s = models.approx_incr(4)
    assert len(s.forms) == 5
    for (k, m) in enumerate(s.members):
        assert ival.expected_value(ident, m) == 1
        assert dict(ival.to_distribution(m).weights)[k + 1] == F(1, k + 1)


def test_approx_n_extrema_exact():
    for mx in range(5):
        for n in range(7):
            term = models.approx_n(n, 0, mx)
            assert comp.extrema(ident, term) == (F(n), F(n))


def test_approx_n_strengthened_hypothesis():
    for l in (0, 1, 3):
        for n in (0, 1, 2, 3):
            term = models.approx_n(n, l, 2)
            assert comp.extrema(ident, term) == (F(n + l), F(n + l))


def test_approx_n_base_case():
    assert ndset.equiv(comp.materialize(models.approx_n(0, 7, 2)), ndset.ret(7))


def test_approx_n_small_set_matches_term():
    for n in (1, 2):
        pset = comp.materialize(models.approx_n(n, 0, 2))
        assert ndset.ex_min(ident, pset) == F(n)
        assert ndset.ex_max(ident, pset) == F(n)


def test_approx_n_prime_difference_zero():
    diff = lambda tl: F(tl[0] - tl[1])
    for mx in range(5):
        for n in range(6):
            term = models.approx_n_prime(n, 0, 0, mx)
            assert comp.extrema(diff, term) == (F(0), F(0))


def test_approx_n_prime_base_and_member_count():
    assert ndset.equiv(comp.materialize(models.approx_n_prime(0, 4, 9, 1)), ndset.ret((4, 9)))
    # counted by hand-expanding the early-stop recursion at n=2, cap 1:
    # 13 members, two of them equiv, so the bind keeps 12
    assert len(comp.materialize(models.approx_n_prime(2, 0, 0, 1)).forms) == 12


# -- skip list cost model ------------------------------------------------------


def test_skipcost_formula_cases():
    assert models.skipcost((), (), 7) == 2
    assert models.skipcost((5,), (5,), 5) == 1
    assert models.skipcost((), (1, 2, 3), 4) == 1 + (1 + 3)
    assert models.topcost((5,), 5) == 1
    assert models.rettop((), 9) == models.INTMIN
    assert models.rettop((2, 4), 9) == 4
    assert models.botcost((2,), (2, 3, 8), 7) == 1 + 1


def test_skip_cost_bound_values():
    assert models.skip_cost_bound(0) == 2
    assert models.skip_cost_bound(1) == 3
    bounds = [models.skip_cost_bound(n) for n in range(8)]
    assert all(a < b for (a, b) in zip(bounds, bounds[1:]))


def test_skip_spec_base_case():
    assert ndset.equiv(models.skip_list_spec_set((), (5, 3), (4,)),
                       ndset.ret(((3, 5), (4,))))


def test_skip_spec_single_key_expansion():
    one = comp.materialize(models.skip_list_spec((5,)))
    assert len(one.forms) == 1
    assert ival.to_distribution(one.members[0]).weights == \
        ((((), (5,)), F(1, 2)), (((5,), (5,)), F(1, 2)))


def test_skip_spec_permutation_invariant():
    a = models.skip_list_spec_set((3, 5, 8))
    b = models.skip_list_spec_set((8, 3, 5))
    assert ndset.equiv(a, b)


def test_skip_spec_cost_bound_small_universe():
    universe = (2, 4, 6, 8, 10)
    for size in range(4):
        for l in combinations(universe, size):
            spec = models.skip_list_spec(l)
            for k in universe:
                cost = lambda tb, k=k: F(models.skipcost(tb[0], tb[1], k))
                n = sum(1 for i in l if i < k)
                assert comp.ex_max(cost, spec) <= models.skip_cost_bound(n)


@lru_cache(maxsize=None)
def bind_skip_spec(remaining, tl, bl):
    """The oracle: the insertion step bound over a nondeterministic pick of
    the next key, as the skip-list spec was first written."""
    if not remaining:
        return comp.ret((tl, bl))

    def after_pick(k):
        rest = tuple(x for x in remaining if x != k)
        grown = tuple(sorted(tl + (k,)))
        bl2 = tuple(sorted(bl + (k,)))
        return comp.bind(ndset.pchoice(ndset.ret(tl), F(1, 2), ndset.ret(grown)),
                         lambda tl2: bind_skip_spec(rest, tl2, bl2))

    return comp.bind(ndset.union_all(ndset.ret(k) for k in remaining), after_pick)


def test_skip_spec_extrema_match_bind_oracle():
    universe = (2, 4, 6, 8, 10)
    for size in range(len(universe) + 1):
        for l in combinations(universe, size):
            (spec, oracle) = (models.skip_list_spec(l), bind_skip_spec(l, (), ()))
            for k in universe:
                cost = lambda tb, k=k: F(models.skipcost(tb[0], tb[1], k))
                assert comp.ex_min(cost, spec) == comp.ex_min(cost, oracle), (l, k)
                assert comp.ex_max(cost, spec) == comp.ex_max(cost, oracle), (l, k)


def test_skip_spec_set_equiv_bind_oracle():
    # materialized unions and pchoices drop repeated forms, so every order
    # of insertion gives one member
    universe = (2, 4, 6, 8, 10)
    for size in range(len(universe) + 1):
        for l in combinations(universe, size):
            assert ndset.equiv(models.skip_list_spec_set(l),
                               comp.materialize(bind_skip_spec(l, (), ())))
    assert len(models.skip_list_spec_set((1, 2, 3)).forms) == 1
    assert len(comp.materialize(bind_skip_spec((1, 2, 3), (), ())).forms) == 1


def test_skip_spec_rejects_bad_keys():
    with pytest.raises(ValueError):
        models.skip_list_spec((1, 1))
    with pytest.raises(ValueError):
        models.skip_list_spec((models.INTMAX,))


# -- concrete skip list --------------------------------------------------------


def test_mem_on_empty_list():
    prog = models.skip_list_sequential_program([], query=7)
    assert dist_of(prog, 200) == {VPair(VBool(False), VInt(2)): F(1)}


def test_add_then_mem_finds_key():
    prog = models.skip_list_sequential_program([5], query=5)
    d = dist_of(prog, 400)
    assert d == {VPair(VBool(True), VInt(1)): F(1, 2),
                 VPair(VBool(True), VInt(2)): F(1, 2)}


def test_mem_misses_absent_key():
    prog = models.skip_list_sequential_program([5], query=6)
    d = dist_of(prog, 400)
    assert all(v.fst == VBool(False) for v in d)


def test_duplicate_add_is_noop():
    prog = models.skip_list_sequential_program([5, 5], query=5)
    d = dist_of(prog, 700)
    assert all(v.fst == VBool(True) for v in d)
    # the second insertion returns early, so only one coin was flipped
    assert sum(d.values()) == 1 and len(d) == 2


def test_quiescent_cost_matches_formula():
    # run the adds under round robin, read off the heap contents, and
    # compare the probe's tally against the cost formulas
    keys, query = [3, 7, 5], 6
    prog = models.skip_list_sequential_program(keys, query)
    iv = machine.trace_step_ival_n(rr, machine.initial_config([prog]), 900)
    for (_, c, p) in iv.entries:  # final configurations, heaps included
        if p == 0:
            continue
        result = to_val(c.threads[0].focus)
        topl = None
        for (loc, v) in enumerate(c.state.cells):  # top-left sentinel: key INTMIN with a down pointer
            if (isinstance(v, VPair) and v.fst == VInt(models.INTMIN)
                    and isinstance(v.snd.snd.fst, VLoc)):
                topl = loc
        (tl, bl) = models.skip_list_heap_keys(c.state, topl)
        assert sorted(bl) == sorted(keys)
        assert result.snd.n == models.skipcost(tl, bl, query)


def test_staged_concurrent_adds_all_schedules():
    # two adder threads serialized on the done-counter: exhaustive over
    # every schedule, membership must hold and the probe must match the
    # cost formula in distribution
    prog = models.skip_list_staged_program([3], [7], query=7)
    res = sched.extremal_expectation(prog, 450, models.read_pair_found)
    assert res.lo == res.hi == 1
    spec = models.skip_list_spec((3, 7))
    cost = lambda tb: F(models.skipcost(tb[0], tb[1], 7))
    got = sched.extremal_expectation(prog, 450, models.read_pair_cost)
    assert comp.ex_min(cost, spec) <= got.lo and got.hi <= comp.ex_max(cost, spec)


def test_staged_probe_of_absent_key_all_schedules():
    prog = models.skip_list_staged_program([3], [7], query=5)
    res = sched.extremal_expectation(prog, 450, models.read_pair_found)
    assert res.lo == res.hi == 0


def test_concurrent_adds_monte_carlo():
    prog = models.skip_list_concurrent_program([3], [7], query=3)
    mc = sched.monte_carlo(prog, sched.round_robin(), 1500,
                           models.read_pair_found, trials=300, seed=5)
    assert mc.mean == 1.0
    mc2 = sched.monte_carlo(prog, sched.seeded_random(1), 1500,
                            models.read_pair_found, trials=300, seed=6)
    assert mc2.mean == 1.0


def test_early_flip_variant_runs():
    prog = models.skip_list_concurrent_program([4], [4], query=4,
                                               early_flip=True)
    mc = sched.monte_carlo(prog, sched.seeded_random(2), 1500,
                           models.read_pair_found, trials=200, seed=9)
    assert mc.mean == 1.0


# -- counting client ------------------------------------------------------------


def test_count_true_client_structure():
    prog = models.count_true_client([True], [False])
    # two forked workers, then the join strictly before the read
    body = prog.body.body
    assert isinstance(body.bound, lang.Fork)
    assert isinstance(body.body.bound, lang.Fork)
    tail = body.body.body
    assert isinstance(tail.bound, Wait) and isinstance(tail.body, lang.Load)


def test_count_true_client_extremal():
    lb1, lb2 = [True, False, True], [True]
    prog = models.count_true_client(lb1, lb2, max_value=2)
    res = sched.extremal_expectation(prog, 160, read_int)
    assert res.lo == res.hi == 3


def test_count_true_client_empty():
    prog = models.count_true_client([], [], max_value=2)
    res = sched.extremal_expectation(prog, 60, read_int)
    assert res.lo == res.hi == 0
