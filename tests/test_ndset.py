"""Process sets: monad operations, orderings, extrema, subset_p."""

from fractions import Fraction as F

import pytest

from ivalbench import comp, ival, models, ndset
from ivalbench.laws import dominated_by, gen_fun_rational, gen_pset, rng_for
from ivalbench.ndset import ProcessSet


def ident(v):
    return F(v)


def two_point(a, b, p=F(1, 2)):
    return ival.pchoice(ival.ret(a), p, ival.ret(b))


def test_ret_singleton():
    s = ndset.ret(0)
    assert len(s.members) == 1
    assert ndset.ex_min(ident, ndset.ret(7)) == 7
    assert ndset.ex_max(ident, ndset.ret(7)) == 7
    assert ndset.equiv(ndset.ret(3), ndset.ret(3))


def test_nonempty_enforced():
    with pytest.raises(ValueError):
        ProcessSet(())


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
    assert len(ndset.pchoice(a, F(1, 2), b).members) == 2 * 3


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


def test_bind_selects_per_index():
    # one two-point member, two continuation members: the four selections
    # include mixed ones that per-value selection could not produce
    src = ndset.lift(two_point(0, 1))
    cont = lambda _: ndset.union(ndset.ret(10), ndset.ret(20))
    out = ndset.bind(src, cont)
    assert len(out.members) == 4
    dists = {ival.to_distribution(m).weights for m in out.members}
    mixed = ((10, F(1, 2)), (20, F(1, 2)))
    assert mixed in dists


def test_dedup_merges_equiv_members():
    m = two_point(0, 1)
    s = ProcessSet((m, m, ival.ret(5)))
    assert len(ndset.dedup(s).members) == 2


def test_subset_and_equiv():
    a = ndset.ret(1)
    assert not ndset.subset(a, ndset.ret(0))
    dup = ProcessSet((ival.ret(2), ival.ret(2)))
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
