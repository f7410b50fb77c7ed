"""Coupling constructors, the four-clause checker, and the sandwich bound."""

from fractions import Fraction as F

import pytest

from ivalbench import coupling, ival, models, ndset
from ivalbench.coupling import (
    CLAUSE_LHS, CLAUSE_MEMBERSHIP, CLAUSE_PREDICATE, CLAUSE_RHS_PICK,
    CouplingError, CouplingGoal, CouplingWitness,
)
from ivalbench.laws import gen_ival, rng_for


def counter_pred(k):
    return lambda x, y: (x is True and y == k + 1) or (x is False and y == 0)


def counter_derivation(k, cap):
    p = counter_pred(k)
    d = coupling.couple_pchoice(
        coupling.couple_ret(True, k + 1, p, "counter"),
        coupling.couple_ret(False, 0, p, "counter"),
        F(1, k + 1))
    return coupling.couple_equiv(d, d.goal.lhs, models.approx_incr(cap))


def test_ret_rule():
    d = coupling.couple_ret(0, 0, lambda x, y: x == y, "eq")
    assert coupling.check_witness(d.goal, d.witness).passed
    with pytest.raises(CouplingError):
        coupling.couple_ret(0, 1, lambda x, y: x == y, "eq")


def test_counter_coupling_all_k():
    for k in range(5):
        d = counter_derivation(k, cap=4)
        verdict = coupling.check_witness(d.goal, d.witness)
        assert verdict.passed, (k, verdict.failures)


def test_pchoice_degenerate_weight():
    p = counter_pred(0)
    d1 = coupling.couple_ret(True, 1, p, "counter")
    d2 = coupling.couple_ret(False, 0, p, "counter")
    d = coupling.couple_pchoice(d1, d2, F(1))
    assert coupling.check_witness(d.goal, d.witness).passed
    assert ival.prob_equiv(d.witness.joint, d1.witness.joint)


def test_mass_perturbation_fails_lhs_clause():
    d = counter_derivation(3, cap=4)
    ent = list(d.witness.joint.entries)
    ent[0] = (ent[0][0], ent[0][1], ent[0][2] - F(1, 100))
    ent[1] = (ent[1][0], ent[1][1], ent[1][2] + F(1, 100))
    bad = CouplingWitness(ival.of_entries(ent), d.witness.rhs_pick)
    verdict = coupling.check_witness(d.goal, bad)
    assert not verdict.passed
    assert CLAUSE_LHS in verdict.failed_clauses()


def test_pair_deletion_fails_marginals():
    d = counter_derivation(2, cap=4)
    kept = [e for e in d.witness.joint.entries if e[1][0] is True]
    total = sum(p for (_, _, p) in kept)
    renorm = tuple((i, v, p / total) for (i, v, p) in kept)
    bad = CouplingWitness(ival.of_entries(renorm), d.witness.rhs_pick)
    verdict = coupling.check_witness(d.goal, bad)
    assert not verdict.passed
    assert CLAUSE_LHS in verdict.failed_clauses()


def test_predicate_violation_named():
    d = counter_derivation(2, cap=4)
    goal = CouplingGoal(d.goal.lhs, d.goal.rhs, lambda x, y: x is True, "onlytrue")
    verdict = coupling.check_witness(goal, d.witness)
    assert CLAUSE_PREDICATE in verdict.failed_clauses()


def test_rhs_pick_corruption_fails_membership():
    k, cap = 2, 4
    d = counter_derivation(k, cap)
    wrong = ival.pchoice(ival.ret(k + 1), F(1, k + 2), ival.ret(0))
    bad = CouplingWitness(d.witness.joint, wrong)
    verdict = coupling.check_witness(d.goal, bad)
    failed = verdict.failed_clauses()
    assert CLAUSE_RHS_PICK in failed and CLAUSE_MEMBERSHIP in failed


def test_bind_rule_composes():
    d = counter_derivation(1, cap=2)
    q = lambda a, b: a[1] == b[1]

    def k(x, y):
        return coupling.couple_ret((x, y), (str(y), y), q, "snd-eq")

    composite = coupling.couple_bind(d, k, rhs_cont=lambda y: ndset.ret((str(y), y)))
    assert coupling.check_witness(composite.goal, composite.witness).passed


def test_bind_of_two_rets_is_ret_of_pair():
    d0 = coupling.couple_ret(1, 2, lambda x, y: True, "T")
    comp_d = coupling.couple_bind(
        d0, lambda x, y: coupling.couple_ret((x, x), (y, y),
                                             lambda a, b: a[0] + 1 == b[0], "Q"))
    assert ival.equiv(comp_d.witness.joint, ival.ret(((1, 1), (2, 2))))
    assert coupling.check_witness(comp_d.goal, comp_d.witness).passed


def test_bind_rejects_undefined_continuation():
    d = counter_derivation(1, cap=2)

    def k(x, y):
        if x is False:
            raise ValueError("no case")
        return coupling.couple_ret(x, y, lambda a, b: True, "T")

    with pytest.raises(CouplingError):
        coupling.couple_bind(d, k)


def test_bind_detects_mixed_partner_distributions():
    # two lhs values couple to the same target value but continue with
    # different distributions: no per-index pick can match the mixture
    base_pred = lambda x, y: y == 0
    d1 = coupling.couple_pchoice(
        coupling.couple_ret("a", 0, base_pred, "P"),
        coupling.couple_ret("b", 0, base_pred, "P"),
        F(1, 2))

    def k(x, y):
        out = 1 if x == "a" else 2
        return coupling.couple_ret(out, out, lambda a, b: a == b, "eq")

    with pytest.raises(CouplingError):
        coupling.couple_bind(d1, k, rhs_cont=lambda y: ndset.union(
            ndset.ret(1), ndset.ret(2)))


def test_conseq_weakens_and_rejects():
    d = counter_derivation(1, cap=2)
    weakened = coupling.couple_conseq(d, lambda x, y: True, "TRUE")
    assert coupling.check_witness(weakened.goal, weakened.witness).passed
    with pytest.raises(CouplingError):
        coupling.couple_conseq(d, lambda x, y: x is True, "onlytrue")


def test_equiv_rule_side_conditions():
    d = counter_derivation(1, cap=2)
    with pytest.raises(CouplingError):
        coupling.couple_equiv(d, ival.ret(True), d.goal.rhs)
    bigger = ndset.union(d.goal.rhs, ndset.ret(99))
    d2 = coupling.couple_equiv(d, d.goal.lhs, bigger)
    assert coupling.check_witness(d2.goal, d2.witness).passed


def test_trivial_rule():
    rng = rng_for(41, "coupling-trivial")
    for _ in range(40):
        lhs = gen_ival(rng, 3)
        rhs = ndset.union(ndset.ret(rng.randint(0, 3)), ndset.ret(rng.randint(0, 3)))
        d = coupling.couple_trivial(lhs, rhs)
        assert coupling.check_witness(d.goal, d.witness).passed


def test_trivial_rule_rebuilds_one_member(monkeypatch):
    # the derivation is the one built from the first of all the rebuilt
    # members, but only that member is rebuilt
    rng = rng_for(43, "coupling-trivial-member")
    lhs = gen_ival(rng, 3)
    rhs = ndset.lift(*[gen_ival(rng, 3) for _ in range(300)])
    pick = rhs.members[0]
    want = ival.bind(lhs, lambda x: ival.map_values(lambda y: (x, y), pick))
    built = []
    rebuild = ndset.IndexedValuation

    def counted(den, terms):
        built.append(terms)
        return rebuild(den, terms)

    monkeypatch.setattr(ndset, "IndexedValuation", counted)
    d = coupling.couple_trivial(lhs, rhs)
    assert len(built) == 1
    assert (d.goal.lhs, d.goal.rhs, d.goal.name) == (lhs, rhs, "TRUE")
    assert (d.witness.joint, d.witness.rhs_pick, d.witness.predicate_name) == (want, pick, "TRUE")


def test_sandwich_counter_exact():
    for k in range(5):
        d = counter_derivation(k, cap=4)
        f = lambda x, k=k: F(k + 1) if x else F(0)
        g = lambda y: F(y)
        lo, mid, hi = coupling.sandwich_from_coupling(d.goal, d.witness, f, g)
        assert (lo, mid, hi) == (F(1), F(1), F(1))


def test_sandwich_rejects_non_equality_predicate():
    d = coupling.couple_trivial(
        ival.pchoice(ival.ret(0), F(1, 2), ival.ret(5)), ndset.ret(1))
    with pytest.raises(CouplingError):
        coupling.sandwich_from_coupling(d.goal, d.witness,
                                        lambda x: F(x), lambda y: F(y))


def test_sandwich_degenerate_ret():
    d = coupling.couple_ret(4, 4, lambda x, y: x == y, "eq")
    lo, mid, hi = coupling.sandwich_from_coupling(
        d.goal, d.witness, lambda x: F(x), lambda y: F(y))
    assert lo == mid == hi == 4


def test_random_pchoice_couplings_pass():
    rng = rng_for(42, "coupling-random")
    for _ in range(60):
        pairs = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(2)]
        pred = lambda x, y: any(x == a and y == b for (a, b) in pairs)
        ds = [coupling.couple_ret(a, b, pred, "table") for (a, b) in pairs]
        den = rng.randint(1, 5)
        d = coupling.couple_pchoice(ds[0], ds[1], F(rng.randint(0, den), den))
        assert coupling.check_witness(d.goal, d.witness).passed


def test_random_equality_couplings_sandwich():
    # equality-form couplings built from ret/pchoice trees: the sandwich
    # holds exactly on every one (asserted inside the operation)
    rng = rng_for(43, "coupling-sandwich")
    eq = lambda x, y: x == y
    for _ in range(80):
        leaves = [coupling.couple_ret(v, v, eq, "eq")
                  for v in (rng.randint(-3, 3) for _ in range(3))]
        den = rng.randint(1, 4)
        d = coupling.couple_pchoice(
            leaves[0], coupling.couple_pchoice(
                leaves[1], leaves[2], F(rng.randint(0, den), den)),
            F(rng.randint(0, den), den))
        lo, mid, hi = coupling.sandwich_from_coupling(
            d.goal, d.witness, lambda x: F(x), lambda y: F(y))
        assert lo <= mid <= hi
