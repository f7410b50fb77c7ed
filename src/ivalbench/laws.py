"""Seeded random-instance suites for the algebraic rules.

Each law is a function from a random source to an optional failure
description.  Instances are small (sets of at most four members, supports
of at most five values) and all checks are exact; a failure therefore is a
genuine counterexample, and the runner records it verbatim.

Premise-carrying rules (transitivity, congruences, weakening) are tested by
*constructing* premise-satisfying instances: supersets are built by adding
members, probabilistically dominated sets by mixing members with
``pchoice``, probabilistically equivalent valuations by mass splitting,
merging and index relabelling.  The conclusion is then checked with the
actual decision procedures.

Set premises are built on member forms, which every set relation
respects: relabelling keeps a form, so ``relabel_form`` only makes
``relabel``'s draws, and the laws' random streams stay pinned.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from ivalbench import ival, ndset
from ivalbench.ival import IndexedValuation, value_key
from ivalbench.ndset import ProcessSet


# ---------------------------------------------------------------------------
# generators


VALUE_POOL = tuple(range(6))


def rng_for(seed: int, label: str) -> random.Random:
    return random.Random(seed * 1000003 + zlib.crc32(label.encode()))


def gen_prob(rng: random.Random) -> Fraction:
    den = rng.randint(1, 6)
    return Fraction(rng.randint(0, den), den)


def gen_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def gen_ival(rng: random.Random, max_support: int = 5, pool=VALUE_POOL) -> IndexedValuation:
    n = rng.randint(1, max_support)
    weights = [rng.randint(1, 6) for _ in range(n)]
    terms = [(("g", i), rng.choice(pool), w) for (i, w) in enumerate(weights)]
    if rng.random() < 0.25:  # exercise zero-probability entries
        terms.append((("g", n), rng.choice(pool), 0))
    return ival.in_lowest_terms(sum(weights), terms)


def gen_pset(rng: random.Random, max_members: int = 4, max_support: int = 5,
             pool=VALUE_POOL) -> ProcessSet:
    n = rng.randint(1, max_members)
    return ndset.lift(*[gen_ival(rng, max_support, pool) for _ in range(n)])


def keyed(table: dict, default=None) -> Callable:
    """``v -> table[value_key(v)]``, or ``default`` off the table."""
    return lambda v: table.get(value_key(v), default)


def gen_fun_rational(rng: random.Random, domain) -> Callable:
    return keyed({value_key(v): gen_rational(rng) for v in domain}, Fraction(0))


def gen_fun_pset(rng: random.Random, domain, max_members: int = 2,
                 max_support: int = 2) -> Callable:
    table = {value_key(v): gen_pset(rng, max_members, max_support) for v in domain}
    return keyed(table, gen_pset(rng, max_members, max_support))


def gen_fun_ival(rng: random.Random, domain) -> Callable:
    table = {value_key(v): gen_ival(rng, 3) for v in domain}
    return keyed(table, gen_ival(rng, 3))


def _relabel_draws(rng: random.Random, entries: list) -> tuple:
    """Shuffle ``entries``, then draw an index salt and a zero-pad value
    or ``None``; the draws depend only on ``len(entries)``."""
    rng.shuffle(entries)
    salt = rng.randint(0, 10**6)
    return salt, (rng.choice(VALUE_POOL) if rng.random() < 0.3 else None)


def relabel(rng: random.Random, m: IndexedValuation) -> IndexedValuation:
    """An ``equiv`` variant: permute entries, relabel indices, toggle
    zero-probability padding."""
    terms = [t for t in m.terms if t[2] > 0]
    (salt, pad) = _relabel_draws(rng, terms)
    out = [(("rl", salt, i), v, n) for (i, (_, v, n)) in enumerate(terms)]
    if pad is not None:
        out.append((("rl", salt, len(out)), pad, 0))
    return IndexedValuation(m.den, tuple(out))


def relabel_form(rng: random.Random, form: tuple) -> tuple:
    """Make ``relabel``'s draws for a member of canonical form ``form``
    and return ``form``, which relabelling keeps."""
    _relabel_draws(rng, list(form[1]))
    return form


def prob_equiv_variant(rng: random.Random, m: IndexedValuation) -> IndexedValuation:
    """A ``prob_equiv`` variant: split or merge masses, then relabel."""
    entries = [(v, p) for (_, v, p) in m.entries if p > 0]
    for _ in range(rng.randint(0, 2)):
        op = rng.choice(["split", "merge"])
        if op == "split" and entries:
            k = rng.randrange(len(entries))
            (v, p) = entries[k]
            cut = Fraction(rng.randint(1, 3), 4)
            if 0 < cut < 1:
                entries[k] = (v, p * cut)
                entries.append((v, p * (1 - cut)))
        elif op == "merge":
            by_val: dict = {}
            for (v, p) in entries:
                kv = value_key(v)
                if kv in by_val:
                    by_val[kv] = (v, by_val[kv][1] + p)
                else:
                    by_val[kv] = (v, p)
            entries = list(by_val.values())
    rng.shuffle(entries)
    salt = rng.randint(0, 10**6)
    return ival.of_entries([(("pv", salt, i), v, p) for (i, (v, p)) in enumerate(entries)])


def pset_equiv_variant(rng: random.Random, s: ProcessSet) -> ProcessSet:
    out = [relabel_form(rng, form) for form in s.forms]
    if rng.random() < 0.4:
        out.append(relabel_form(rng, rng.choice(s.forms)))
    rng.shuffle(out)
    return ProcessSet(tuple(out), s.values)


def superset_of(rng: random.Random, s: ProcessSet) -> ProcessSet:
    extra = gen_pset(rng, max_members=2)
    return pset_equiv_variant(rng, ndset.union(s, extra))


def mixture_member(rng: random.Random, s: ProcessSet) -> tuple:
    """The form of a random convex combination of members of ``s`` (via
    pchoice trees), whose distribution lies in the hull of ``s``."""
    singles = [ProcessSet((form,), s.values) for form in s.forms]
    m = rng.choice(singles)
    for _ in range(rng.randint(0, 2)):
        m = ndset.pchoice(m, gen_prob(rng), rng.choice(singles))
    return m.forms[0]


def dominated_by(rng: random.Random, s: ProcessSet) -> ProcessSet:
    """A set that is ``subset_p`` of ``s`` by construction."""
    n = rng.randint(1, 3)
    return ProcessSet(tuple([mixture_member(rng, s) for _ in range(n)]), s.values)


# ---------------------------------------------------------------------------
# law definitions


@dataclass
class LawResult:
    suite: str
    name: str
    cases: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _law(checks: list, suite: str, name: str):
    def register(fn):
        checks.append((suite, name, fn))
        return fn
    return register


LAWS: list = []


# -- equational laws of the combined monad ----------------------------------

@_law(LAWS, "monad", "pchoice-commute")
def law_pchoice_comm(rng):
    a, b, p = gen_pset(rng), gen_pset(rng), gen_prob(rng)
    if not ndset.equiv(ndset.pchoice(a, p, b), ndset.pchoice(b, 1 - p, a)):
        return f"a={a} b={b} p={p}"


@_law(LAWS, "monad", "pchoice-one")
def law_pchoice_one(rng):
    a, b = gen_pset(rng), gen_pset(rng)
    if not ndset.equiv(ndset.pchoice(a, Fraction(1), b), a):
        return f"a={a} b={b}"


@_law(LAWS, "monad", "union-idempotent")
def law_union_idem(rng):
    a = gen_pset(rng)
    if not ndset.equiv(ndset.union(a, a), a):
        return f"a={a}"


@_law(LAWS, "monad", "union-commute")
def law_union_comm(rng):
    a, b = gen_pset(rng), gen_pset(rng)
    if not ndset.equiv(ndset.union(a, b), ndset.union(b, a)):
        return f"a={a} b={b}"


@_law(LAWS, "monad", "union-assoc")
def law_union_assoc(rng):
    a, b, c = gen_pset(rng), gen_pset(rng), gen_pset(rng)
    if not ndset.equiv(ndset.union(a, ndset.union(b, c)),
                       ndset.union(ndset.union(a, b), c)):
        return f"a={a} b={b} c={c}"


@_law(LAWS, "monad", "pchoice-over-union")
def law_pchoice_union(rng):
    a, b, c, p = gen_pset(rng), gen_pset(rng), gen_pset(rng), gen_prob(rng)
    lhs = ndset.pchoice(a, p, ndset.union(b, c))
    rhs = ndset.union(ndset.pchoice(a, p, b), ndset.pchoice(a, p, c))
    if not ndset.equiv(lhs, rhs):
        return f"a={a} b={b} c={c} p={p}"


@_law(LAWS, "monad", "bind-over-union")
def law_bind_union(rng):
    a, b = gen_pset(rng, 2, 3), gen_pset(rng, 2, 3)
    f = gen_fun_pset(rng, ndset.joint_support(ndset.union(a, b)))
    lhs = ndset.bind(ndset.union(a, b), f)
    rhs = ndset.union(ndset.bind(a, f), ndset.bind(b, f))
    if not ndset.equiv(lhs, rhs):
        return f"a={a} b={b}"


@_law(LAWS, "monad", "bind-over-pchoice")
def law_bind_pchoice(rng):
    a, b, p = gen_pset(rng, 2, 2), gen_pset(rng, 2, 2), gen_prob(rng)
    f = gen_fun_pset(rng, ndset.joint_support(ndset.union(a, b)))
    lhs = ndset.bind(ndset.pchoice(a, p, b), f)
    rhs = ndset.pchoice(ndset.bind(a, f), p, ndset.bind(b, f))
    if not ndset.equiv(lhs, rhs):
        return f"a={a} b={b} p={p}"


@_law(LAWS, "monad", "bind-left-identity")
def law_bind_left_id(rng):
    v = rng.choice(VALUE_POOL)
    f = gen_fun_pset(rng, VALUE_POOL)
    if not ndset.equiv(ndset.bind(ndset.ret(v), f), f(v)):
        return f"v={v}"


@_law(LAWS, "monad", "bind-right-identity")
def law_bind_right_id(rng):
    a = gen_pset(rng)
    if not ndset.equiv(ndset.bind(a, ndset.ret), a):
        return f"a={a}"


@_law(LAWS, "monad", "bind-assoc")
def law_bind_assoc(rng):
    a = gen_pset(rng, 2, 2)
    f = gen_fun_pset(rng, VALUE_POOL, 2, 2)
    g = gen_fun_pset(rng, VALUE_POOL, 2, 2)
    lhs = ndset.bind(ndset.bind(a, f), g)
    rhs = ndset.bind(a, lambda x: ndset.bind(f(x), g))
    if not ndset.equiv(lhs, rhs):
        return f"a={a}"


# -- ordering rules ----------------------------------------------------------

@_law(LAWS, "ordering", "equiv-implies-subset")
def law_equiv_subset(rng):
    a = gen_pset(rng)
    b = pset_equiv_variant(rng, a)
    if not (ndset.subset(a, b) and ndset.subset(b, a)):
        return f"a={a} b={b}"


@_law(LAWS, "ordering", "mutual-subset-antisymmetry")
def law_subset_antisym(rng):
    a = gen_pset(rng)
    b = pset_equiv_variant(rng, a) if rng.random() < 0.5 else gen_pset(rng)
    mutual = ndset.subset(a, b) and ndset.subset(b, a)
    if mutual != ndset.equiv(a, b):
        return f"a={a} b={b}"


@_law(LAWS, "ordering", "subset-transitive")
def law_subset_trans(rng):
    a = gen_pset(rng)
    b = superset_of(rng, a)
    c = superset_of(rng, b)
    if not (ndset.subset(a, b) and ndset.subset(b, c) and ndset.subset(a, c)):
        return f"a={a} b={b} c={c}"


@_law(LAWS, "ordering", "pchoice-congruence")
def law_subset_pchoice_cong(rng):
    a1, a2, p = gen_pset(rng, 2), gen_pset(rng, 2), gen_prob(rng)
    b1, b2 = superset_of(rng, a1), superset_of(rng, a2)
    if not ndset.subset(ndset.pchoice(a1, p, a2), ndset.pchoice(b1, p, b2)):
        return f"a1={a1} a2={a2} p={p}"


@_law(LAWS, "ordering", "union-congruence")
def law_subset_union_cong(rng):
    a1, a2 = gen_pset(rng, 2), gen_pset(rng, 2)
    b1, b2 = superset_of(rng, a1), superset_of(rng, a2)
    if not ndset.subset(ndset.union(a1, a2), ndset.union(b1, b2)):
        return f"a1={a1} a2={a2}"


@_law(LAWS, "ordering", "union-upper-bound")
def law_subset_union_upper(rng):
    a, b = gen_pset(rng), gen_pset(rng)
    if not ndset.subset(a, ndset.union(a, b)):
        return f"a={a} b={b}"


@_law(LAWS, "ordering", "bind-congruence")
def law_subset_bind_cong(rng):
    a = gen_pset(rng, 2, 3)
    b = superset_of(rng, a)
    domain = ndset.joint_support(b)
    f1 = gen_fun_pset(rng, domain)
    f2 = keyed({value_key(v): superset_of(rng, f1(v)) for v in domain})
    if not ndset.subset(ndset.bind(a, f1), ndset.bind(b, f2)):
        return f"a={a} b={b}"


@_law(LAWS, "ordering", "extrema-monotone")
def law_subset_extrema_monotone(rng):
    a = gen_pset(rng)
    b = superset_of(rng, a)
    f = gen_fun_rational(rng, ndset.joint_support(b))
    if ndset.ex_max(f, a) > ndset.ex_max(f, b):
        return f"max violated a={a} b={b}"
    if ndset.ex_min(f, b) > ndset.ex_min(f, a):
        return f"min violated a={a} b={b}"


# -- probabilistic equivalence rules ----------------------------------------

@_law(LAWS, "prob-equiv", "reflexive")
def law_pe_refl(rng):
    m = gen_ival(rng)
    if not ival.prob_equiv(m, m):
        return f"m={m}"


@_law(LAWS, "prob-equiv", "respects-equiv")
def law_pe_respects_equiv(rng):
    m1 = gen_ival(rng)
    m2 = prob_equiv_variant(rng, m1)
    m1p, m2p = relabel(rng, m1), relabel(rng, m2)
    if not ival.prob_equiv(m1p, m2p):
        return f"m1={m1} m2={m2}"


@_law(LAWS, "prob-equiv", "transitive")
def law_pe_trans(rng):
    m1 = gen_ival(rng)
    m2 = prob_equiv_variant(rng, m1)
    m3 = prob_equiv_variant(rng, m2)
    if not (ival.prob_equiv(m1, m2) and ival.prob_equiv(m2, m3)
            and ival.prob_equiv(m1, m3)):
        return f"m1={m1} m2={m2} m3={m3}"


@_law(LAWS, "prob-equiv", "bind-congruence")
def law_pe_bind_cong(rng):
    m1 = gen_ival(rng, 3)
    m2 = prob_equiv_variant(rng, m1)
    f1 = gen_fun_ival(rng, VALUE_POOL)
    f2 = keyed({value_key(v): prob_equiv_variant(rng, f1(v)) for v in VALUE_POOL})
    if not ival.prob_equiv(ival.bind(m1, f1), ival.bind(m2, f2)):
        return f"m1={m1} m2={m2}"


@_law(LAWS, "prob-equiv", "pchoice-congruence")
def law_pe_pchoice_cong(rng):
    m1, m1p = gen_ival(rng), gen_ival(rng)
    m2, m2p = prob_equiv_variant(rng, m1), prob_equiv_variant(rng, m1p)
    p = gen_prob(rng)
    if not ival.prob_equiv(ival.pchoice(m1, p, m1p), ival.pchoice(m2, p, m2p)):
        return f"m1={m1} m1'={m1p} p={p}"


@_law(LAWS, "prob-equiv", "bind-constant")
def law_pe_bind_const(rng):
    m1, m2 = gen_ival(rng), gen_ival(rng)
    if not ival.prob_equiv(ival.bind(m1, lambda _: m2), m2):
        return f"m1={m1} m2={m2}"


@_law(LAWS, "prob-equiv", "pchoice-self")
def law_pe_pchoice_self(rng):
    m, p = gen_ival(rng), gen_prob(rng)
    if not ival.prob_equiv(ival.pchoice(m, p, m), m):
        return f"m={m} p={p}"


# -- probabilistic subset rules ----------------------------------------------

@_law(LAWS, "prob-subset", "reflexive")
def law_ps_refl(rng):
    a = gen_pset(rng, 3, 3)
    if not ndset.subset_p(a, a):
        return f"a={a}"


@_law(LAWS, "prob-subset", "transitive")
def law_ps_trans(rng):
    c = gen_pset(rng, 3, 3)
    b = dominated_by(rng, c)
    a = dominated_by(rng, b)
    if not (ndset.subset_p(a, b) and ndset.subset_p(b, c)
            and ndset.subset_p(a, c)):
        return f"a={a} b={b} c={c}"


@_law(LAWS, "prob-subset", "weaken-by-subset")
def law_ps_weaken(rng):
    b = gen_pset(rng, 2, 3)
    a = dominated_by(rng, b)
    kept = a.forms[: rng.randint(1, len(a.forms))]
    a_sub = ProcessSet(tuple([relabel_form(rng, form) for form in kept]), a.values)
    b_sup = superset_of(rng, b)
    if not ndset.subset_p(a_sub, b_sup):
        return f"a'={a_sub} b'={b_sup}"


@_law(LAWS, "prob-subset", "bind-congruence")
def law_ps_bind_cong(rng):
    b = gen_pset(rng, 2, 2)
    a = dominated_by(rng, b)
    domain = ndset.joint_support(ndset.union(a, b))
    f2 = gen_fun_pset(rng, domain)
    f1 = keyed({value_key(v): dominated_by(rng, f2(v)) for v in domain})
    if not ndset.subset_p(ndset.bind(a, f1), ndset.bind(b, f2)):
        return f"a={a} b={b}"


@_law(LAWS, "prob-subset", "pchoice-congruence")
def law_ps_pchoice_cong(rng):
    b1, b2 = gen_pset(rng, 2, 2), gen_pset(rng, 2, 2)
    a1, a2 = dominated_by(rng, b1), dominated_by(rng, b2)
    p = gen_prob(rng)
    if not ndset.subset_p(ndset.pchoice(a1, p, a2), ndset.pchoice(b1, p, b2)):
        return f"a1={a1} a2={a2} p={p}"


@_law(LAWS, "prob-subset", "bind-constant")
def law_ps_bind_const(rng):
    a, b = gen_pset(rng, 2, 2), gen_pset(rng, 2, 2)
    if not ndset.subset_p(ndset.bind(a, lambda _: b), b):
        return f"a={a} b={b}"


@_law(LAWS, "prob-subset", "equiv-implies-both")
def law_ps_equiv_both(rng):
    a = gen_pset(rng, 3, 3)
    b = pset_equiv_variant(rng, a)
    if not (ndset.subset_p(a, b) and ndset.subset_p(b, a)):
        return f"a={a} b={b}"


# -- extrema rules -----------------------------------------------------------

@_law(LAWS, "extrema", "ret")
def law_ex_ret(rng):
    v = rng.choice(VALUE_POOL)
    f = gen_fun_rational(rng, VALUE_POOL)
    if ndset.ex_min(f, ndset.ret(v)) != f(v) or ndset.ex_max(f, ndset.ret(v)) != f(v):
        return f"v={v}"


@_law(LAWS, "extrema", "affine")
def law_ex_affine(rng):
    a = gen_pset(rng)
    f = gen_fun_rational(rng, ndset.joint_support(a))
    k = Fraction(rng.randint(0, 5), rng.randint(1, 3))
    c = gen_rational(rng)

    def af(v):
        return k * f(v) + c

    if ndset.ex_min(af, a) != k * ndset.ex_min(f, a) + c:
        return f"min a={a} k={k} c={c}"
    if ndset.ex_max(af, a) != k * ndset.ex_max(f, a) + c:
        return f"max a={a} k={k} c={c}"


@_law(LAWS, "extrema", "pchoice")
def law_ex_pchoice(rng):
    a, b, p = gen_pset(rng), gen_pset(rng), gen_prob(rng)
    f = gen_fun_rational(rng, ndset.joint_support(ndset.union(a, b)))
    lhs = ndset.ex_min(f, ndset.pchoice(a, p, b))
    if lhs != p * ndset.ex_min(f, a) + (1 - p) * ndset.ex_min(f, b):
        return f"min a={a} b={b} p={p}"
    lhs = ndset.ex_max(f, ndset.pchoice(a, p, b))
    if lhs != p * ndset.ex_max(f, a) + (1 - p) * ndset.ex_max(f, b):
        return f"max a={a} b={b} p={p}"


@_law(LAWS, "extrema", "compose-map")
def law_ex_compose(rng):
    a = gen_pset(rng, 3, 3)
    fmap = keyed({value_key(v): rng.choice(VALUE_POOL) for v in VALUE_POOL})
    g = gen_fun_rational(rng, VALUE_POOL)
    mapped = ndset.bind(a, lambda x: ndset.ret(fmap(x)))
    if ndset.ex_min(lambda v: g(fmap(v)), a) != ndset.ex_min(g, mapped):
        return f"min a={a}"
    if ndset.ex_max(lambda v: g(fmap(v)), a) != ndset.ex_max(g, mapped):
        return f"max a={a}"


@_law(LAWS, "extrema", "bind-bounds")
def law_ex_bind_bounds(rng):
    a = gen_pset(rng, 2, 3)
    domain = ndset.joint_support(a)
    F = gen_fun_pset(rng, domain)
    f = gen_fun_rational(rng, ndset.joint_support(
        ndset.union_all([F(v) for v in domain])))
    mins = [ndset.ex_min(f, F(v)) for v in domain]
    maxs = [ndset.ex_max(f, F(v)) for v in domain]
    bound_lo_min, bound_hi_min = min(mins), max(mins)
    bound_lo_max, bound_hi_max = min(maxs), max(maxs)
    got_min = ndset.ex_min(f, ndset.bind(a, F))
    got_max = ndset.ex_max(f, ndset.bind(a, F))
    if not bound_lo_min <= got_min <= bound_hi_min:
        return f"min bound a={a} got={got_min}"
    if not bound_lo_max <= got_max <= bound_hi_max:
        return f"max bound a={a} got={got_max}"


# ---------------------------------------------------------------------------
# runners


SUITES = ("monad", "ordering", "prob-equiv", "prob-subset", "extrema")
MAX_FAILURES = 3  # a law stops at this many failing instances


def run_suite(suite: str, cases: int, seed: int) -> list:
    """Run every law of a suite on ``cases`` fresh instances each."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick from {SUITES}")
    results = []
    for (s, name, fn) in LAWS:
        if s != suite:
            continue
        rng = rng_for(seed, f"{s}/{name}")
        res = LawResult(s, name, cases)
        for _ in range(cases):
            failure = fn(rng)
            if failure is not None:
                res.failures.append(failure)
                if len(res.failures) >= MAX_FAILURES:
                    break
        results.append(res)
    return results


def run_all(cases: int, seed: int) -> list:
    out = []
    for suite in SUITES:
        out.extend(run_suite(suite, cases, seed))
    return out


@dataclass
class AgreementResult:
    pairs: int
    lp_yes: int
    lp_no: int
    disagreements: list


def run_subset_p_agreement(pairs: int, fns_per_pair: int, seed: int) -> AgreementResult:
    """Cross-check the LP decision for ``subset_p`` against a randomized
    falsifier.

    LP-yes: no random function may violate the max-expectation domination.
    LP-no: the separating function extracted from the LP certificate must
    itself violate it.
    """
    rng = rng_for(seed, "subsetp-agreement")
    lp_yes = lp_no = 0
    disagreements = []
    for k in range(pairs):
        b = gen_pset(rng, 3, 3)
        a = dominated_by(rng, b) if rng.random() < 0.5 else gen_pset(rng, 3, 3)
        verdict, certs = ndset.subset_p_certified(a, b)
        domain = ndset.joint_support(ndset.union(a, b))
        if verdict:
            lp_yes += 1
            for _ in range(fns_per_pair):
                f = gen_fun_rational(rng, domain)
                if ndset.ex_max(f, a) > ndset.ex_max(f, b):
                    disagreements.append(f"pair {k}: LP yes but falsified")
                    break
        else:
            lp_no += 1
            cert = next(c for c in certs if c.separating is not None)
            f = ndset.separating_function(cert)
            if not ndset.ex_max(f, a) > ndset.ex_max(f, b):
                disagreements.append(f"pair {k}: LP no but certificate fails")
    return AgreementResult(pairs, lp_yes, lp_no, disagreements)
