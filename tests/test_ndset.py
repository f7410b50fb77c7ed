"""Process sets: monad operations, orderings, extrema, subset_p."""

from fractions import Fraction as F
from itertools import product

import pytest

from ivalbench import comp, ival, lp, models, ndset
from ivalbench.laws import (VALUE_POOL, dominated_by, gen_fun_rational, gen_ival,
                            gen_pset, relabel, rng_for)
from ivalbench.ndset import ProcessSet


def ident(v):
    return F(v)


def two_point(a, b, p=F(1, 2)):
    return ival.pchoice(ival.ret(a), p, ival.ret(b))


def test_ret_singleton():
    s = ndset.ret(0)
    assert len(s.forms) == 1
    assert ndset.ex_min(ident, ndset.ret(7)) == 7
    assert ndset.ex_max(ident, ndset.ret(7)) == 7
    assert ndset.equiv(ndset.ret(3), ndset.ret(3))


def test_nonempty_enforced():
    with pytest.raises(ValueError):
        ProcessSet((), {})
    with pytest.raises(ValueError):
        ndset.lift()


def test_union_laws_and_upper_bound():
    a, b = ndset.ret(0), ndset.ret(3)
    assert ndset.equiv(ndset.union(a, a), a)
    assert ndset.equiv(ndset.union(a, b), ndset.union(b, a))
    assert ndset.subset(a, ndset.union(a, b))
    assert ndset.ex_max(ident, ndset.union(a, b)) == 3
    assert ndset.ex_min(ident, ndset.union(a, b)) == 0


def test_pchoice_cartesian_count():
    a = ndset.union(ndset.ret(0), ndset.ret(1))
    b = ndset.union(ndset.ret(2), ndset.union(ndset.ret(3), ndset.ret(4)))
    assert len(ndset.pchoice(a, F(1, 2), b).forms) == 2 * 3


def test_pchoice_one_keeps_left():
    a, b = ndset.ret(0), ndset.ret(3)
    assert ndset.equiv(ndset.pchoice(a, F(1), b), a)


def test_bind_left_identity_and_union_split():
    f = lambda x: ndset.union(ndset.ret(x), ndset.ret(x + 1))
    assert ndset.equiv(ndset.bind(ndset.ret(4), f), f(4))
    a, b = ndset.ret(0), ndset.ret(5)
    lhs = ndset.bind(ndset.union(a, b), f)
    rhs = ndset.union(ndset.bind(a, f), ndset.bind(b, f))
    assert ndset.equiv(lhs, rhs)


def product_bind(a, f):
    """The structural per-index bind, the oracle of ``ndset.bind``: one
    composite per member of ``a`` and per selection of one member of
    ``f(value)`` for every support index, duplicates included."""
    out = []
    for m in a.members:
        indices = [i for (i, _, p) in m.entries if p > 0]
        conts = [f(v).members for (_, v, p) in m.entries if p > 0]
        for selection in product(*conts):
            out.append(ival.bind_per_index(m, dict(zip(indices, selection))))
    return ndset.lift(*out)


def test_bind_selects_per_index():
    # one two-point member, two continuation members: of the four
    # selections, the two mixed ones are equiv, and per-value selection
    # could not produce them
    src = ndset.lift(two_point(0, 1))
    cont = lambda _: ndset.union(ndset.ret(10), ndset.ret(20))
    out = ndset.bind(src, cont)
    assert len(product_bind(src, cont).forms) == 4
    assert len(out.forms) == 3
    dists = {ival.to_distribution(m).weights for m in out.members}
    mixed = ((10, F(1, 2)), (20, F(1, 2)))
    assert mixed in dists


def test_dedup_merges_equiv_members():
    m = two_point(0, 1)
    s = ndset.lift(m, m, ival.ret(5))
    assert len(ndset.dedup(s).forms) == 2


def test_orderings_tell_values_apart_by_structure():
    assert not ndset.equiv(ndset.ret(F(2)), ndset.ret(2))
    assert len(ndset.dedup(ndset.union(ndset.ret(0), ndset.ret(False))).forms) == 2


def test_subset_and_equiv():
    a = ndset.ret(1)
    assert not ndset.subset(a, ndset.ret(0))
    dup = ndset.lift(ival.ret(2), ival.ret(2))
    assert ndset.equiv(dup, ndset.ret(2))


def test_extrema_attained_and_monotone():
    rng = rng_for(21, "ndset-monotone")
    for _ in range(100):
        a = gen_pset(rng)
        b = ndset.union(a, gen_pset(rng))
        f = gen_fun_rational(rng, ndset.joint_support(b))
        assert ndset.ex_max(f, a) <= ndset.ex_max(f, b)
        assert ndset.ex_min(f, b) <= ndset.ex_min(f, a)
        assert ndset.ex_min(f, a) <= ndset.ex_max(f, a)


def test_joint_support_of_one_increment():
    s = comp.materialize(models.approx_n(1, 0, 2))
    # one increment from zero with cap 2 can leave 0..3 on the counter
    assert ndset.joint_support(s) == (0, 1, 2, 3)


def test_subset_p_reflexive_and_midpoint():
    mid = ndset.lift(two_point(0, 1))
    ends = ndset.union(ndset.ret(0), ndset.ret(1))
    assert ndset.subset_p(mid, mid)
    assert ndset.subset_p(mid, ends)
    assert not ndset.subset_p(ends, mid)


def test_subset_p_bind_constant():
    rng = rng_for(22, "ndset-bindconst")
    for _ in range(50):
        a, b = gen_pset(rng, 2, 2), gen_pset(rng, 2, 2)
        assert ndset.subset_p(ndset.bind(a, lambda _: b), b)


def test_subset_p_certificates_falsify():
    rng = rng_for(23, "ndset-cert")
    found_negative = 0
    for _ in range(80):
        a, b = gen_pset(rng, 3, 3), gen_pset(rng, 3, 3)
        verdict, certs = ndset.subset_p_certified(a, b)
        if verdict:
            for _ in range(60):
                f = gen_fun_rational(rng, ndset.joint_support(ndset.union(a, b)))
                assert ndset.ex_max(f, a) <= ndset.ex_max(f, b)
        else:
            found_negative += 1
            cert = next(c for c in certs if c.separating is not None)
            f = ndset.separating_function(cert)
            assert ndset.ex_max(f, a) > ndset.ex_max(f, b)
    assert found_negative > 0


def test_subset_p_dominated_by_construction():
    rng = rng_for(24, "ndset-dominated")
    for _ in range(60):
        b = gen_pset(rng, 3, 3)
        a = dominated_by(rng, b)
        assert ndset.subset_p(a, b)


def test_subset_p_boundedness_transfer():
    # domination bounds the source's maximal expectation by the target's
    rng = rng_for(25, "ndset-bounded")
    for _ in range(60):
        b = gen_pset(rng, 3, 3)
        a = dominated_by(rng, b)
        f = gen_fun_rational(rng, ndset.joint_support(b))
        assert ndset.ex_max(f, a) <= ndset.ex_max(f, b)


# continuation values that Python calls equal (True == 1 == F(1)) but
# ``value_key`` keeps apart
CONT_POOL = (0, 1, 2, True, False, F(1), F(2), (1,), (True,))


def gen_members(rng, max_members, max_support, pool=VALUE_POOL):
    """The valuations ``gen_pset`` lifts, on the same draws."""
    return [gen_ival(rng, max_support, pool) for _ in range(rng.randint(1, max_members))]


def gen_cont(rng):
    """A continuation over ``VALUE_POOL`` into sets over ``CONT_POOL`` that
    may repeat a member, as itself or relabelled, and the valuations each
    set was lifted from."""
    (table, raw) = ({}, {})
    for v in VALUE_POOL:
        ms = gen_members(rng, 2, 3, CONT_POOL)
        if rng.random() < 0.4:
            m = rng.choice(ms)
            ms.append(m if rng.random() < 0.5 else relabel(rng, m))
        (table[v], raw[v]) = (ndset.lift(*ms), ms)
    return (table.__getitem__, raw)


def test_bind_agrees_with_product_bind():
    rng = rng_for(26, "ndset-bind-forms")
    seen = {"zero in a": 0, "zero in f": 0, "equal values": 0, "duplicate members": 0,
            "equal across types": 0}
    for _ in range(500):
        raw = gen_members(rng, 3, 4)
        a = ndset.lift(*raw)
        (f, raw_f) = gen_cont(rng)
        bound = product_bind(a, f)
        expected = tuple(dict.fromkeys(bound.forms))
        # one form per distinct composite, in first-selection order
        assert ndset.bind(a, f).forms == expected
        assert set(ndset.bind(a, f).forms) == set(bound.forms)
        entries = [e for m in raw for e in m.entries]
        support = {v for (_, v, p) in entries if p > 0}
        seen["zero in a"] += any(p == 0 for (_, _, p) in entries)
        seen["zero in f"] += any(p == 0 for v in support for m in raw_f[v]
                                 for (_, _, p) in m.entries)
        seen["equal values"] += any(
            len({ival.value_key(v) for (_, v, p) in m.entries if p > 0})
            < sum(p > 0 for (_, _, p) in m.entries) for m in raw)
        seen["duplicate members"] += any(len(set(f(v).forms)) < len(f(v).forms)
                                         for v in support)
        seen["equal across types"] += any(
            len(set(vals)) < len({ival.value_key(w) for w in vals})
            for vals in [[v for (_, v, p) in m.entries if p > 0] for m in bound.members])
    assert min(seen.values()) >= 50, seen


def test_bind_decides_subset_of_binds():
    # dropping one continuation member: the forms route says no exactly
    # where the oracle's binds do
    rng = rng_for(27, "ndset-bind-forms-drop")
    verdicts = set()
    for _ in range(300):
        a = gen_pset(rng, 2, 3)
        (f, _) = gen_cont(rng)
        v = rng.choice(ndset.joint_support(a))
        members = f(v).members
        if len(members) < 2:
            continue
        k = rng.randrange(len(members))
        dropped = ndset.lift(*(members[:k] + members[k + 1:]))
        f2 = lambda x: dropped if x == v else f(x)
        expected = ndset.subset(product_bind(a, f), product_bind(a, f2))
        assert ndset.subset(ndset.bind(a, f), ndset.bind(a, f2)) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_pchoice_forms_agree_with_valuation_pchoice():
    rng = rng_for(29, "ndset-pchoice-forms")
    seen = {"p=0": 0, "p=1": 0, "zero entry": 0}
    for _ in range(400):
        (xs, ys) = (gen_members(rng, 3, 4), gen_members(rng, 3, 4))
        den = rng.randint(1, 6)
        p = F(rng.choice([0, den, rng.randint(0, den)]), den)
        got = ndset.pchoice(ndset.lift(*xs), p, ndset.lift(*ys))
        assert got.forms == tuple(ival.pchoice(x, p, y).canonical() for x in xs for y in ys)
        seen["p=0"] += p == 0
        seen["p=1"] += p == 1
        seen["zero entry"] += any(q == 0 for m in xs + ys for (_, _, q) in m.entries)
    assert min(seen.values()) >= 50, seen


def test_extrema_agree_with_member_expectations():
    rng = rng_for(30, "ndset-extrema-forms")
    for _ in range(300):
        raw = gen_members(rng, 4, 5)
        a = ndset.lift(*raw)
        f = gen_fun_rational(rng, ndset.joint_support(a))
        assert ndset.ex_max(f, a) == max(ival.expected_value(f, m) for m in raw)
        assert ndset.ex_min(f, a) == min(ival.expected_value(f, m) for m in raw)
        assert ndset.ex_max(f, a) == max(ival.expected_value(f, m) for m in a.members)


def test_lift_of_members_keeps_the_forms():
    rng = rng_for(33, "ndset-lift-members")
    for _ in range(200):
        (a, b) = (gen_pset(rng, 3, 3), gen_pset(rng, 2, 2))
        (f, _) = gen_cont(rng)
        for s in (a, ndset.union(a, a), ndset.pchoice(a, F(1, 3), b), ndset.bind(a, f)):
            assert ndset.lift(*s.members).forms == s.forms


def test_subset_p_solves_each_distribution_once(monkeypatch):
    # a repeated member reuses its LP; every certificate equals a
    # per-member solve in the same coordinates
    rng = rng_for(28, "ndset-lp-reuse")
    solves = []
    solve = lp.convex_hull_membership
    monkeypatch.setattr(lp, "convex_hull_membership",
                        lambda point, gens: solves.append(point) or solve(point, gens))
    verdicts = []
    for k in range(60):
        b = gen_pset(rng, 3, 3)
        a = dominated_by(rng, b) if k % 2 else gen_pset(rng, 3, 3)
        values = ndset.joint_support(ndset.union(a, b))

        def vec(m):
            """The distribution of ``m`` over ``values``, as ``(den, nums)``
            in lowest terms."""
            dist = {ival.value_key(v): p for (v, p) in ival.to_distribution(m).weights}
            (den, nums) = ival.over_common_denominator(
                [dist.get(ival.value_key(v), F(0)) for v in values])
            return (den, tuple(nums))

        solves.clear()
        doubled = ndset.union(a, a)
        verdict, certs = ndset.subset_p_certified(doubled, b)
        assert len(solves) == len({vec(m) for m in a.members})
        gens = [vec(m) for m in b.members]
        expected = [solve(vec(m), gens) for m in doubled.members]
        assert verdict == all(res.feasible for res in expected)
        for (j, (cert, res)) in enumerate(zip(certs, expected)):
            assert cert.member_index == j
            if res.feasible:
                assert (cert.weights, cert.separating) == (res.solution, None)
            else:
                sep = [(values[d], c) for (d, c) in enumerate(res.certificate[:len(values)])
                       if c != 0]
                assert (cert.weights, cert.separating) == (None, sep)
        n = len(a.forms)
        for j in range(n):
            assert (certs[j + n].weights, certs[j + n].separating) == \
                (certs[j].weights, certs[j].separating)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts
