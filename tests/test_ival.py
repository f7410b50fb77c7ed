"""Indexed valuation kernel: constructors, relations, expectations."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ivalbench import ival
from ivalbench.ival import IndexedValuation
from ivalbench.laws import gen_ival, prob_equiv_variant, relabel


def ident(v):
    return F(v)


def test_ret_single_entry():
    a = ival.ret(5)
    assert len(a.entries) == 1
    (_, v, p) = a.entries[0]
    assert v == 5 and p == 1
    assert ival.expected_value(ident, a) == 5
    assert ival.equiv(a, ival.ret(5))


def test_pchoice_two_entries():
    a = ival.pchoice(ival.ret(True), F(1, 2), ival.ret(False))
    assert sorted(p for (_, _, p) in a.entries) == [F(1, 2), F(1, 2)]
    assert ival.expected_value(lambda v: F(1 if v else 0), a) == F(1, 2)


def test_pchoice_rejects_bad_weight():
    with pytest.raises(ValueError):
        ival.pchoice(ival.ret(0), F(3, 2), ival.ret(1))


def test_pchoice_self_not_equiv_but_prob_equiv():
    two_point = ival.pchoice(ival.ret(0), F(1, 2), ival.ret(1))
    doubled = ival.pchoice(two_point, F(1, 2), two_point)
    assert not ival.equiv(doubled, two_point)
    assert ival.prob_equiv(doubled, two_point)


def test_pchoice_keeps_zero_probability_entries():
    a = ival.pchoice(ival.ret(0), F(1), ival.ret(1))
    assert len(a.entries) == 2
    assert ival.equiv(a, ival.ret(0))


def test_bind_expected_value_hand_expansion():
    # two entries: value 2 at 1/2 and value 4 at 1/2, so the expectation
    # is 2*(1/2) + 4*(1/2) = 3
    a = ival.bind(ival.pchoice(ival.ret(1), F(1, 2), ival.ret(2)),
                  lambda k: ival.ret(2 * k))
    by_hand = F(2) * F(1, 2) + F(4) * F(1, 2)
    assert by_hand == 3
    assert ival.expected_value(ident, a) == by_hand


def test_bind_skips_zero_probability_sources():
    a = ival.pchoice(ival.ret(0), F(1), ival.ret(99))

    def f(v):
        if v == 99:
            raise AssertionError("continuation called outside the support")
        return ival.ret(v + 1)

    assert ival.equiv(ival.bind(a, f), ival.ret(1))


def test_equiv_relabeling():
    rng = random.Random(3)
    for _ in range(50):
        a = gen_ival(rng)
        assert ival.equiv(a, relabel(rng, a))


def test_equiv_distinguishes_values():
    assert not ival.equiv(ival.ret(0), ival.ret(1))


def test_to_distribution_merges_values():
    a = ival.pchoice(ival.ret(0), F(1, 2), ival.ret(0))
    assert ival.to_distribution(a).weights == ((0, F(1)),)
    assert ival.to_distribution(ival.ret(7)).weights == ((7, F(1)),)
    b = ival.pchoice(ival.ret(1), F(1, 3), ival.ret(2))
    assert ival.to_distribution(b).weights == ((1, F(1, 3)), (2, F(2, 3)))


def test_distribution_separates_bools_from_ints():
    a = ival.pchoice(ival.ret(True), F(1, 2), ival.ret(1))
    assert len(ival.to_distribution(a).weights) == 2


def test_relations_tell_bools_from_ints():
    # True == 1 in Python; the relations compare values by structure
    assert not ival.equiv(ival.ret(True), ival.ret(1))
    assert not ival.prob_equiv(ival.ret(True), ival.ret(1))


def test_prob_equiv_examples():
    assert not ival.prob_equiv(ival.ret(0), ival.ret(1))
    rng = random.Random(5)
    for _ in range(100):
        a = gen_ival(rng)
        b = gen_ival(rng)
        # constant bind collapses to the constant
        assert ival.prob_equiv(ival.bind(a, lambda _: b), b)


def test_expected_value_counter_step():
    # the capped-increment step at k = 3 contributes exactly one
    k = 3
    a = ival.pchoice(ival.ret(k + 1), F(1, k + 1), ival.ret(0))
    assert ival.expected_value(ident, a) == 1


def test_expected_value_ret():
    assert ival.expected_value(ident, ival.ret(5)) == 5


def test_mass_invariant_enforced():
    with pytest.raises(ValueError):
        IndexedValuation(((0, 1, F(1, 2)),))
    with pytest.raises(ValueError):
        IndexedValuation(((0, 1, F(1, 2)), (0, 2, F(1, 2))))  # dup index
    with pytest.raises(ValueError):
        IndexedValuation(((0, 1, F(3, 2)), (1, 2, F(-1, 2))))


def test_support_excludes_zero_entries():
    a = ival.pchoice(ival.ret(0), F(1), ival.ret(1))
    assert ival.support(a) == (0,)


# -- property tests ----------------------------------------------------------

small_vals = st.integers(min_value=-3, max_value=3)


@st.composite
def ivals(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    weights = [draw(st.integers(min_value=1, max_value=5)) for _ in range(n)]
    total = sum(weights)
    vals = [draw(small_vals) for _ in range(n)]
    return IndexedValuation(tuple(
        (i, v, F(w, total)) for (i, (v, w)) in enumerate(zip(vals, weights))))


@settings(max_examples=200)
@given(ivals(), st.integers(min_value=0, max_value=6))
def test_pchoice_commutes_up_to_equiv(a, pnum):
    p = F(pnum, 6)
    b = ival.ret(9)
    assert ival.equiv(ival.pchoice(a, p, b), ival.pchoice(b, 1 - p, a))


@settings(max_examples=200)
@given(small_vals)
def test_monad_left_identity(v):
    f = lambda x: ival.pchoice(ival.ret(x), F(1, 3), ival.ret(x + 1))
    assert ival.equiv(ival.bind(ival.ret(v), f), f(v))


@settings(max_examples=200)
@given(ivals())
def test_monad_right_identity(a):
    assert ival.equiv(ival.bind(a, ival.ret), a)


@settings(max_examples=100)
@given(ivals())
def test_monad_associativity(a):
    f = lambda x: ival.pchoice(ival.ret(x), F(1, 2), ival.ret(x * 2))
    g = lambda y: ival.pchoice(ival.ret(y + 1), F(1, 3), ival.ret(0))
    lhs = ival.bind(ival.bind(a, f), g)
    rhs = ival.bind(a, lambda x: ival.bind(f(x), g))
    assert ival.equiv(lhs, rhs)


def test_equiv_is_equivalence_and_implies_prob_equiv():
    rng = random.Random(11)
    for _ in range(200):
        a = gen_ival(rng)
        b = relabel(rng, a)
        c = relabel(rng, b)
        assert ival.equiv(a, a)
        assert ival.equiv(b, a)
        assert ival.equiv(a, c)
        assert ival.prob_equiv(a, b)


def test_expectations_respect_relations():
    rng = random.Random(13)
    for _ in range(200):
        a = gen_ival(rng)
        b = prob_equiv_variant(rng, a)
        f_table = {v: F(rng.randint(-5, 5)) for v in range(-1, 7)}
        f = lambda v: f_table.get(v, F(0))
        assert ival.expected_value(f, a) == ival.expected_value(f, b)


def test_distinct_closures_keep_distinct_support_points():
    from ivalbench import lang
    one = lang.to_val(lang.parse("(lam (x) 1)"))
    two = lang.to_val(lang.parse("(lam (x) 2)"))
    a = ival.pchoice(ival.ret(one), F(1, 2), ival.ret(two))
    assert len(ival.to_distribution(a).weights) == 2
    assert not ival.prob_equiv(a, ival.ret(one))
    assert ival.value_key(one) == ival.value_key(lang.to_val(lang.parse("(lam (x) 1)")))
