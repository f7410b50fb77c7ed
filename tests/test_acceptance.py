"""Acceptance criteria, one test per criterion, exact comparisons throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every tolerance is pinned here: algebraic checks are exact
rational comparisons; the only statistical check (criterion 9) uses the
3-sigma interval its criterion states.
"""

import os
import random
from fractions import Fraction as F
from itertools import combinations

from ivalbench import comp, coupling, ival, lang, laws, models, sched
from ivalbench.coupling import (
    CLAUSE_LHS, CLAUSE_MEMBERSHIP, CLAUSE_RHS_PICK, CouplingWitness,
)
from ivalbench.models import read_int


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d} PASS - {text}")


def ident(v):
    return F(v)


def test_c01_algebraic_law_suites():
    results = laws.run_all(cases=1000, seed=7)
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    assert len(results) == 38
    report(1, f"{len(results)} laws x 1000 seeded instances, exact, no failures")


def test_c02_counter_spec_extrema():
    checked = 0
    for mx in range(5):
        for n in range(7):
            term = models.approx_n(n, 0, mx)
            assert comp.extrema(ident, term) == (F(n), F(n)), (n, mx)
            checked += 1
    report(2, f"approx-n extrema equal n exactly on {checked} (n, cap) pairs")


def test_c03_early_stop_difference_zero():
    diff = lambda tl: F(tl[0] - tl[1])
    checked = 0
    for mx in range(5):
        for n in range(6):
            term = models.approx_n_prime(n, 0, 0, mx)
            assert comp.extrema(diff, term) == (F(0), F(0)), (n, mx)
            checked += 1
    report(3, f"early-stop spec difference is exactly 0 on {checked} cases")


def test_c04_soundness_sandwich_counter():
    budgets = {1: 40, 2: 70, 3: 90}
    for threads in (1, 2, 3):
        prog = models.unbiased_counter_program(threads, max_value=2)
        spec = models.approx_n(threads, 0, 2)
        rep = sched.soundness_sandwich_check(prog, spec, read_int, ident,
                                             budgets[threads])
        assert rep.mdp_lo == rep.mdp_hi == threads, rep
        assert rep.spec_min == rep.spec_max == threads, rep
        assert rep.passed
    report(4, "scheduler range equals [T, T] and sits inside the spec extrema "
              "for T in {1, 2, 3}")


def test_c05_cas_counter_bias():
    prog = models.dlm_counter_program(2, bits=2)
    res = sched.extremal_expectation(prog, 80, models.read_pow2_minus_1)
    assert res.lo < 2 < res.hi, (res.lo, res.hi)
    for direction, value in (("lo", res.lo), ("hi", res.hi)):
        pol = sched.extract_policy(res, direction)
        replay = sched.evaluate_policy(prog, pol, 80, models.read_pow2_minus_1)
        assert replay == value, (direction, replay, value)
    report(5, f"compare-and-swap counter is scheduler-biased: "
              f"[{res.lo}, {res.hi}] around 2, adversaries replay exactly")


def test_c06_skip_list_cost_bound():
    universe = (2, 4, 6, 8, 10)
    checked = 0
    for size in range(6):
        for keys in combinations(universe, size):
            spec = models.skip_list_spec(keys)
            for q in universe:
                cost = lambda tb, q=q: F(models.skipcost(tb[0], tb[1], q))
                hi = comp.ex_max(cost, spec)
                n = sum(1 for i in keys if i < q)
                assert hi <= models.skip_cost_bound(n), (keys, q, hi)
                checked += 1
    report(6, f"probe-cost bound holds exactly on {checked} (key set, query) cases")


def counter_derivation(k, cap):
    pred = lambda x, y: (x is True and y == k + 1) or (x is False and y == 0)
    d = coupling.couple_pchoice(
        coupling.couple_ret(True, k + 1, pred, "counter"),
        coupling.couple_ret(False, 0, pred, "counter"),
        F(1, k + 1))
    return coupling.couple_equiv(d, d.goal.lhs, models.approx_incr(cap))


def test_c07_coupling_kernel():
    for k in range(5):
        d = counter_derivation(k, cap=4)
        assert coupling.check_witness(d.goal, d.witness).passed, k

        # mass perturbation: shift 1/100 between the two joint entries
        ent = list(d.witness.joint.entries)
        ent[0] = (ent[0][0], ent[0][1], ent[0][2] - F(1, 100))
        ent[1] = (ent[1][0], ent[1][1], ent[1][2] + F(1, 100))
        bad = CouplingWitness(ival.of_entries(ent), d.witness.rhs_pick)
        verdict = coupling.check_witness(d.goal, bad)
        assert not verdict.passed and CLAUSE_LHS in verdict.failed_clauses(), k

        # support-pair deletion: drop one positive pair, renormalize the rest
        positive = [e for e in d.witness.joint.entries if e[2] > 0]
        drop = positive[0]
        rest = [e for e in d.witness.joint.entries if e[0] != drop[0]]
        total = sum(p for (_, _, p) in rest)
        if total == 0:
            renorm = tuple((i, v, F(1, len(rest))) for (i, v, _) in rest)
        else:
            renorm = tuple((i, v, p / total) for (i, v, p) in rest)
        bad = CouplingWitness(ival.of_entries(renorm), d.witness.rhs_pick)
        verdict = coupling.check_witness(d.goal, bad)
        assert not verdict.passed and CLAUSE_LHS in verdict.failed_clauses(), k

        # rhs_pick corruption: wrong bias cannot be a hull member either
        wrong = ival.pchoice(ival.ret(k + 1), F(1, k + 2), ival.ret(0))
        bad = CouplingWitness(d.witness.joint, wrong)
        verdict = coupling.check_witness(d.goal, bad)
        failed = verdict.failed_clauses()
        assert CLAUSE_RHS_PICK in failed and CLAUSE_MEMBERSHIP in failed, k

        f = lambda x, k=k: F(k + 1) if x else F(0)
        lo, mid, hi = coupling.sandwich_from_coupling(d.goal, d.witness, f, ident)
        assert (lo, mid, hi) == (F(1), F(1), F(1)), k
    report(7, "counter coupling checks for k in 0..4; all three mutation "
              "classes rejected with the right clauses; sandwich gives 1 in [1, 1]")


def test_c08_subset_p_agreement():
    res = laws.run_subset_p_agreement(pairs=500, fns_per_pair=500, seed=13)
    assert not res.disagreements, res.disagreements[:3]
    assert (res.lp_yes, res.lp_no) == (255, 245)
    report(8, f"LP vs falsifier agree on 500 pairs "
              f"({res.lp_yes} inside, {res.lp_no} separated)")


def test_c09_monte_carlo_consistency():
    workers = min(2, os.cpu_count() or 1)
    prog = models.unbiased_counter_program(2, max_value=2)
    for policy in (sched.round_robin(), sched.seeded_random(3)):
        mc = sched.monte_carlo(prog, policy, 80, read_int,
                               trials=10 ** 5, seed=11, workers=workers)
        assert mc.contains(F(2)), (policy.name, mc)
    report(9, "1e5-trial means under round-robin and seeded-random lie "
              "within 3 sigma of the exact value 2")


def test_c10_mdp_brute_force_validity():
    from tests.test_sched import lite_counter

    instances = [
        (lite_counter(2), 40),
        (lang.parse("(let (l (alloc 0)) (seq (fork (store l 5)) "
                    "(if (flip 1 2) (load l) (- (load l) 1))))"), 10),
        (lang.parse("(if (flip 1 3) (if (flip 1 2) 4 0) 1)"), 4),
    ]
    total_nodes = 0
    for (prog, budget) in instances:
        res = sched.extremal_expectation(prog, budget, read_int)
        bf = sched.brute_force_extrema(prog, budget, read_int, node_limit=10 ** 6)
        assert (bf.lo, bf.hi) == (res.lo, res.hi)
        assert bf.nodes <= 10 ** 6
        total_nodes += bf.nodes
    report(10, f"history-dependent decision trees match memoized backward "
               f"induction exactly ({total_nodes} nodes enumerated)")


def test_c11_parser_round_trip():
    rng = random.Random(19)
    for _ in range(1000):
        e = lang.gen_expr(rng, depth=4)
        printed = lang.unparse(e)
        assert lang.parse(printed) == e
        assert lang.unparse(lang.parse(printed)) == printed
    from importlib import resources
    base = resources.files("ivalbench.programs")
    programs = [p for p in base.iterdir() if p.name.endswith(".sexp")]
    assert programs
    for entry in programs:
        text = entry.read_text()
        ast = lang.parse(text)
        printed = lang.unparse(ast)
        assert lang.parse(printed) == ast
        assert lang.unparse(lang.parse(printed)) == printed
    report(11, f"1000 generated ASTs round-trip; {len(programs)} bundled "
               f"programs parse and print to fixed point")
