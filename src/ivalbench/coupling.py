"""Coupling witnesses between a valuation and a set of valuations.

A witness for the judgment "lhs couples to the set rhs under predicate P"
is explicit data: a joint valuation over pairs together with the chosen
target member (``rhs_pick``).  ``check_witness`` re-verifies the four
semantic clauses from scratch, so constructors cannot silently certify a
false coupling:

  (i)   first marginal of the joint is prob-equivalent to the goal's lhs;
  (ii)  second marginal is prob-equivalent to ``rhs_pick``;
  (iii) every positive-probability pair satisfies the predicate;
  (iv)  the singleton ``{rhs_pick}`` is subset_p of the goal's rhs
        (decided by the exact convex-hull LP).

Constructors mirror the structural rules (ret, pchoice, bind, equiv,
conseq, trivial) and return a ``Derivation`` bundling the advertised goal
with its witness.  The sandwich bound turns an equality-form coupling into
the exact bracket

    ex_min(g, rhs)  <=  E[f; lhs]  <=  ex_max(g, rhs).

For the bind rule, the composite ``rhs_pick`` fixes one continuation per
index of the premise's ``rhs_pick``, choosing the value-least coupled
partner from the joint support.  When several partners couple to the same
target value with continuations that differ in distribution, no per-index
choice can reproduce the mixed marginal; the constructor then raises
rather than return a witness that cannot pass the checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

from ivalbench import ival, ndset
from ivalbench.ival import IndexedValuation, value_key
from ivalbench.ndset import ProcessSet

Value = Any


class CouplingError(Exception):
    """A constructor's precondition failed."""


@dataclass(frozen=True)
class CouplingGoal:
    lhs: IndexedValuation
    rhs: ProcessSet
    predicate: Callable[[Value, Value], bool]
    name: str = "P"


@dataclass(frozen=True)
class CouplingWitness:
    joint: IndexedValuation  # over (x, y) pairs
    rhs_pick: IndexedValuation
    predicate_name: str = "P"


@dataclass(frozen=True)
class Derivation:
    goal: CouplingGoal
    witness: CouplingWitness


CLAUSE_LHS = "lhs-marginal"
CLAUSE_RHS_PICK = "rhs-pick-marginal"
CLAUSE_PREDICATE = "predicate"
CLAUSE_MEMBERSHIP = "rhs-pick-membership"


@dataclass
class ClauseFailure:
    clause: str
    detail: str


@dataclass
class Verdict:
    passed: bool
    failures: list = field(default_factory=list)
    membership_certificates: Optional[list] = None

    def failed_clauses(self) -> set:
        return {f.clause for f in self.failures}


def check_witness(goal: CouplingGoal, w: CouplingWitness) -> Verdict:
    """Evaluate all four clauses; failures name the clause and a witness."""
    failures = []

    left = ival.map_values(lambda xy: xy[0], w.joint)
    if not ival.prob_equiv(left, goal.lhs):
        failures.append(ClauseFailure(
            CLAUSE_LHS,
            f"marginal {ival.to_distribution(left).weights} != "
            f"lhs {ival.to_distribution(goal.lhs).weights}"))

    right = ival.map_values(lambda xy: xy[1], w.joint)
    if not ival.prob_equiv(right, w.rhs_pick):
        failures.append(ClauseFailure(
            CLAUSE_RHS_PICK,
            f"marginal {ival.to_distribution(right).weights} != "
            f"rhs_pick {ival.to_distribution(w.rhs_pick).weights}"))

    for (_, pair, n) in w.joint.terms:
        if n and not goal.predicate(pair[0], pair[1]):
            failures.append(ClauseFailure(
                CLAUSE_PREDICATE, f"support pair {pair!r} violates {goal.name}"))
            break

    ok, certs = ndset.subset_p_certified(ndset.lift(w.rhs_pick), goal.rhs)
    if not ok:
        failures.append(ClauseFailure(
            CLAUSE_MEMBERSHIP,
            "rhs_pick distribution outside the convex hull of the target"))

    return Verdict(not failures, failures, certs)


# ---------------------------------------------------------------------------
# constructors


def couple_ret(a: Value, b: Value, predicate, name: str = "P") -> Derivation:
    """Rule for coupling two unit computations; requires the predicate to
    hold on the pair."""
    if not predicate(a, b):
        raise CouplingError(f"predicate {name} fails on ({a!r}, {b!r})")
    goal = CouplingGoal(ival.ret(a), ndset.ret(b), predicate, name)
    return Derivation(goal, CouplingWitness(ival.ret((a, b)), ival.ret(b), name))


def couple_pchoice(d1: Derivation, d2: Derivation, p) -> Derivation:
    """Couple two probabilistic choices branch-wise: both left or both
    right, never the cross combinations."""
    pred = d1.goal.predicate
    if d1.goal.name != d2.goal.name:
        raise CouplingError("pchoice premises use different predicates")

    def both(x, y):
        return pred(x, y) or d2.goal.predicate(x, y)

    goal = CouplingGoal(
        ival.pchoice(d1.goal.lhs, p, d2.goal.lhs),
        ndset.pchoice(d1.goal.rhs, p, d2.goal.rhs),
        both, d1.goal.name)
    witness = CouplingWitness(
        ival.pchoice(d1.witness.joint, p, d2.witness.joint),
        ival.pchoice(d1.witness.rhs_pick, p, d2.witness.rhs_pick),
        d1.goal.name)
    return Derivation(goal, witness)


def couple_bind(d1: Derivation, k: Callable[[Value, Value], Derivation],
                rhs_cont: Optional[Callable[[Value], ProcessSet]] = None) -> Derivation:
    """Sequence a coupling with per-pair continuation couplings.

    ``k`` must be defined on every support pair of the premise's joint.
    ``rhs_cont`` supplies the rhs continuation for target values that no
    support pair reaches (needed to state the composite goal's rhs, which
    binds over *all* members of the premise's rhs).  The composite keeps
    the continuations' predicate and its name.
    """
    pairs = {}
    for (_, pair, n) in d1.witness.joint.terms:
        if not n or value_key(pair) in pairs:
            continue
        try:
            sub = k(pair[0], pair[1])
        except Exception as exc:
            raise CouplingError(f"continuation undefined on {pair!r}: {exc}") from exc
        pairs[value_key(pair)] = (pair, sub)

    if not pairs:
        raise CouplingError("premise joint has empty support")
    some = next(iter(pairs.values()))[1]
    q_name = some.goal.name
    q_pred = some.goal.predicate

    lhs_cont = {}
    rhs_cont_map = {}
    for ((x, y), sub) in pairs.values():
        kx = value_key(x)
        if kx in lhs_cont and lhs_cont[kx].canonical() != sub.goal.lhs.canonical():
            raise CouplingError(f"continuation lhs differs across pairs for {x!r}")
        lhs_cont[kx] = sub.goal.lhs
        rhs_cont_map.setdefault(value_key(y), sub.goal.rhs)

    def lhs_f(x):
        return lhs_cont[value_key(x)]

    def rhs_f(y):
        got = rhs_cont_map.get(value_key(y))
        if got is None:
            if rhs_cont is None:
                raise CouplingError(
                    f"no rhs continuation for uncoupled target value {y!r}")
            got = rhs_cont(y)
        return got

    goal = CouplingGoal(
        ival.bind(d1.goal.lhs, lhs_f),
        ndset.bind(d1.goal.rhs, rhs_f),
        q_pred, q_name)

    joint = ival.bind(d1.witness.joint,
                      lambda pair: pairs[value_key(pair)][1].witness.joint)

    # Fix one continuation per index of the premise's rhs_pick: the
    # value-least coupled partner of that index's value.
    partner = {}
    for (_, pair, n) in d1.witness.joint.terms:
        if not n:
            continue
        ky = value_key(pair[1])
        if ky not in partner or value_key(pair[0]) < value_key(partner[ky][0]):
            partner[ky] = pair
    sigma = {}
    for (i, y, n) in d1.witness.rhs_pick.terms:
        if not n:
            continue
        ky = value_key(y)
        if ky not in partner:
            raise CouplingError(f"rhs_pick value {y!r} never coupled in the joint")
        sigma[i] = pairs[value_key(partner[ky])][1].witness.rhs_pick
    rhs_pick = ival.bind_per_index(d1.witness.rhs_pick, sigma)

    witness = CouplingWitness(joint, rhs_pick, q_name)
    derivation = Derivation(goal, witness)
    verdict = check_witness(goal, witness)
    if not verdict.passed:
        raise CouplingError(
            "per-index rhs composition cannot certify this bind "
            f"(clauses {sorted(verdict.failed_clauses())}); "
            "continuations mix distributions across partners of one target value")
    return derivation


def couple_equiv(d: Derivation, new_lhs: IndexedValuation,
                 new_rhs: ProcessSet) -> Derivation:
    """Retarget a derivation along lhs-equivalence and rhs-containment."""
    if not ival.equiv(d.goal.lhs, new_lhs):
        raise CouplingError("new lhs is not equiv to the derived lhs")
    if not ndset.subset(d.goal.rhs, new_rhs):
        raise CouplingError("derived rhs is not a subset of the new rhs")
    return Derivation(CouplingGoal(new_lhs, new_rhs, d.goal.predicate, d.goal.name),
                      d.witness)


def couple_conseq(d: Derivation, predicate, name: str = "P'") -> Derivation:
    """Weaken the predicate; the implication is checked on the support."""
    for (_, pair, n) in d.witness.joint.terms:
        if n and not predicate(pair[0], pair[1]):
            raise CouplingError(
                f"weakened predicate {name} fails on support pair {pair!r}")
    return Derivation(CouplingGoal(d.goal.lhs, d.goal.rhs, predicate, name),
                      CouplingWitness(d.witness.joint, d.witness.rhs_pick, name))


def couple_trivial(lhs: IndexedValuation, rhs: ProcessSet) -> Derivation:
    """The always-true coupling: pair lhs product-style with any member."""
    pick = rhs.member(0)
    joint = ival.bind(lhs, lambda x: ival.map_values(lambda y: (x, y), pick))
    goal = CouplingGoal(lhs, rhs, lambda x, y: True, "TRUE")
    return Derivation(goal, CouplingWitness(joint, pick, "TRUE"))


# ---------------------------------------------------------------------------
# the expected-value sandwich


def sandwich_from_coupling(goal: CouplingGoal, w: CouplingWitness,
                           f: Callable[[Value], Fraction],
                           g: Callable[[Value], Fraction]):
    """Exact bracket from an equality-form coupling.

    Requires the witness to pass its checker *and* every support pair to
    satisfy f(x) = g(y); a merely trivial coupling is rejected.  Returns
    (lo, mid, hi) with lo <= mid <= hi guaranteed.
    """
    verdict = check_witness(goal, w)
    if not verdict.passed:
        raise CouplingError(
            f"witness fails clauses {sorted(verdict.failed_clauses())}")
    for (_, pair, n) in w.joint.terms:
        if n and ival.as_rational(f(pair[0])) != ival.as_rational(g(pair[1])):
            raise CouplingError(
                f"predicate is not of equality form: f/g differ on {pair!r}")
    lo = ndset.ex_min(g, goal.rhs)
    mid = ival.expected_value(f, goal.lhs)
    hi = ndset.ex_max(g, goal.rhs)
    assert lo <= mid <= hi, "sandwich bound violated; checker is unsound"
    return lo, mid, hi
