"""Computation terms: materialization agrees with the structural extrema."""

import sys
from fractions import Fraction as F

import pytest

from ivalbench import comp, ival, models, ndset
from ivalbench.laws import gen_fun_rational, gen_pset, rng_for


def gen_comp(rng, depth):
    if depth == 0:
        return comp.ret(rng.randint(0, 5))
    form = rng.choice(["ret", "union", "pchoice", "bind", "lift"])
    d = depth - 1
    if form == "ret":
        return comp.ret(rng.randint(0, 5))
    if form == "union":
        return comp.union(*[gen_comp(rng, d) for _ in range(rng.randint(1, 3))])
    if form == "pchoice":
        den = rng.randint(1, 4)
        return comp.pchoice(gen_comp(rng, d), F(rng.randint(0, den), den),
                            gen_comp(rng, d))
    if form == "bind":
        table = {v: gen_comp(rng, d) for v in range(8)}
        return comp.bind(comp.materialize(gen_comp(rng, d)), lambda v: table[v % 8])
    return comp.bind(gen_pset(rng, 2, 2), comp.ret)


def test_structural_extrema_match_materialized():
    rng = rng_for(31, "comp-agree")
    for _ in range(150):
        term = gen_comp(rng, 3)
        pset = comp.materialize(term)
        f = gen_fun_rational(rng, ndset.joint_support(pset))
        assert comp.ex_min(f, term) == ndset.ex_min(f, pset)
        assert comp.ex_max(f, term) == ndset.ex_max(f, pset)


def test_extrema_of_deep_bind_chains():
    # 2,000 nested binds: the walk keeps its own stack
    diff = lambda tl: F(tl[0] - tl[1])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        assert comp.extrema(F, models.approx_n(2000, 0, 0)) == (2000, 2000)
        assert comp.extrema(diff, models.approx_n_prime(2000, 0, 0, 0)) == (0, 0)
    finally:
        sys.setrecursionlimit(limit)


def test_materialize_deep_bind_chains():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        assert ndset.equiv(comp.materialize(models.approx_n(2000, 0, 0)), ndset.ret(2000))
    finally:
        sys.setrecursionlimit(limit)


def recursive_materialize(c):
    """The structural recursion the explicit-stack walk replaces."""
    match c:
        case comp.Ret(value=v):
            return ndset.ret(v)
        case comp.Union(parts=parts):
            return ndset.union_all(recursive_materialize(x) for x in parts)
        case comp.PChoice(left=l, p=p, right=r):
            return ndset.pchoice(recursive_materialize(l), p, recursive_materialize(r))
        case comp.Bind(source=s, cont=k):
            return ndset.bind(s, lambda v: recursive_materialize(k(v)))


def test_materialize_keeps_member_order():
    # the stopping points of the early-stop counter, first stop first
    members = comp.materialize(models.approx_n_prime(3, 0, 0, 0)).members
    assert [m.canonical() for m in members] == [ival.ret((t, t)).canonical() for t in range(4)]
    rng = rng_for(32, "comp-materialize-order")
    for _ in range(150):
        term = gen_comp(rng, 3)
        (got, want) = (comp.materialize(term), recursive_materialize(term))
        # unions and pchoices drop repeated forms as binds do: the first
        # occurrences of the oracle's forms, in order
        assert got.forms == tuple(dict.fromkeys(want.forms))


def test_bind_rule_splits_per_index():
    # ex_min over a bind takes the best continuation member per support
    # index independently
    src = ndset.lift(ival.pchoice(ival.ret(0), F(1, 2), ival.ret(1)))
    cont = lambda v: comp.union(comp.ret(10 + v), comp.ret(20 + v))
    term = comp.bind(src, cont)
    f = lambda v: F(v)
    assert comp.ex_min(f, term) == F(10) * F(1, 2) + F(11) * F(1, 2)
    assert comp.ex_max(f, term) == F(20) * F(1, 2) + F(21) * F(1, 2)


def test_bind_source_must_be_an_explicit_set():
    with pytest.raises(TypeError):
        comp.bind(comp.ret(1), comp.ret)


def test_ret_and_pchoice_rules():
    t = comp.pchoice(comp.ret(0), F(1, 3), comp.ret(3))
    f = lambda v: F(v)
    assert comp.ex_min(f, t) == F(1, 3) * 0 + F(2, 3) * 3
    assert comp.extrema(f, comp.ret(5)) == (F(5), F(5))
