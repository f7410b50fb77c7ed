"""Indexed valuation kernel: constructors, relations, expectations."""

import dataclasses
import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from ivalbench import ival, lang, machine, ndset, sched
from ivalbench.ival import IndexedValuation
from ivalbench.laws import (VALUE_POOL, gen_fun_ival, gen_fun_rational, gen_ival, gen_prob,
                            prob_equiv_variant, relabel, rng_for)


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
        ival.of_entries(((0, 1, F(1, 2)),))
    with pytest.raises(ValueError):
        ival.of_entries(((0, 1, F(1, 2)), (0, 2, F(1, 2))))  # dup index
    with pytest.raises(ValueError):
        ival.of_entries(((0, 1, F(3, 2)), (1, 2, F(-1, 2))))


def raised(exc_type, build) -> str:
    with pytest.raises(exc_type) as info:
        build()
    return str(info.value)


def test_indexed_valuation_validation_messages():
    ival_of = lambda *probs: lambda: ival.of_entries(
        tuple((i, i, p) for (i, p) in enumerate(probs)))
    assert raised(TypeError, ival_of(1)) == "probability 1 is not a Fraction"
    assert raised(TypeError, ival_of(1.0)) == "probability 1.0 is not a Fraction"
    assert raised(TypeError, ival_of(True)) == "probability True is not a Fraction"
    assert raised(TypeError, ival_of(F(1, 2), 0.5)) == "probability 0.5 is not a Fraction"
    assert raised(ValueError, ival_of(F(-1, 2), F(3, 2))) == "negative probability -1/2"
    # every probability is checked to be a Fraction before any sign
    assert raised(TypeError, ival_of(F(-1, 2), 1.5)) == "probability 1.5 is not a Fraction"
    assert raised(ValueError, ival_of(F(1, 3), F(1, 4))) == \
        "probabilities sum to 7/12, not 1"
    assert raised(ValueError, ival_of(F(1, 3), F(2, 3), F(1, 10**12 + 39))) == \
        f"probabilities sum to {F(1) + F(1, 10**12 + 39)}, not 1"
    assert raised(ValueError, ival_of(F(0))) == "probabilities sum to 0, not 1"
    assert raised(ValueError, lambda: ival.of_entries(
        ((0, 1, F(1, 2)), (0, 2, F(1, 2))))) == "indexed valuation has duplicate indices"
    # the index check comes before the numerators'
    assert raised(ValueError, lambda: IndexedValuation(
        2, ((0, 1, 1.5), (0, 2, 1)))) == "indexed valuation has duplicate indices"


def test_integer_constructor_rejects_malformed_terms():
    def build(den, *nums):
        return lambda: IndexedValuation(den, tuple((i, i, n) for (i, n) in enumerate(nums)))

    for bad in (True, False, 1.0, F(1), F(1, 2)):
        assert raised(TypeError, build(2, bad, 1)) == f"numerator {bad!r} is not an int"
    for bad in (1.0, True, F(1), "1", None):
        assert raised(TypeError, build(bad, 1)) == f"denominator {bad!r} is not an int"
    for bad in (0, -1, -2):
        assert raised(ValueError, build(bad, 1)) == f"denominator {bad} is not positive"
    assert raised(ValueError, build(4, 2, 2)) == "denominator 4 is not in lowest terms"
    assert raised(ValueError, build(2, 2)) == "denominator 2 is not in lowest terms"
    assert raised(ValueError, build(6, 2, 4, 0)) == "denominator 6 is not in lowest terms"
    assert raised(ValueError, lambda: IndexedValuation(
        2, ((0, 1, 1), (0, 2, 1)))) == "indexed valuation has duplicate indices"
    assert raised(ValueError, build(2, 1)) == "probabilities sum to 1/2, not 1"
    assert raised(ValueError, build(3, 1, 1, 2)) == "probabilities sum to 4/3, not 1"
    assert raised(ValueError, build(1)) == "probabilities sum to 0, not 1"
    assert raised(ValueError, build(2, -1, 3)) == "negative probability -1/2"
    # zero terms are kept and ignored
    a = IndexedValuation(3, ((0, "a", 1), (1, "b", 0), (2, "c", 2)))
    assert a.entries == ((0, "a", F(1, 3)), (1, "b", F(0)), (2, "c", F(2, 3)))
    assert a.canonical() == (3, (((3, "a"), 1), ((3, "c"), 2)))
    assert ival.equiv(a, IndexedValuation(3, ((5, "c", 2), (6, "a", 1))))
    assert ival.to_distribution(a).weights == (("a", F(1, 3)), ("c", F(2, 3)))
    assert ival.of_entries(a.entries) == a


def test_distribution_validation_messages():
    D = ival.Distribution
    # ints (bools among them) are exact rationals, as before
    assert D(((0, 1),)).weights == ((0, 1),)
    assert D(((0, True),)).weights == ((0, True),)
    assert D(((0, F(1, 3)), (1, F(2, 3)))).weights == ((0, F(1, 3)), (1, F(2, 3)))
    assert raised(TypeError, lambda: D(((0, 0.5), (1, 0.5)))) == \
        "expected an exact rational, got 0.5"
    assert raised(ValueError, lambda: D(((0, F(-1, 2)), (1, F(3, 2))))) == \
        "distribution weights must be positive"
    assert raised(ValueError, lambda: D(((0, -0.5), (1, 1.5)))) == \
        "distribution weights must be positive"
    assert raised(ValueError, lambda: D(((0, F(0)), (1, F(1))))) == \
        "distribution weights must be positive"
    assert raised(ValueError, lambda: D(((0, F(1, 2)), (1, F(1, 3))))) == \
        "weights sum to 5/6, not 1"
    assert raised(ValueError, lambda: D(((0, 1), (1, 1)))) == "weights sum to 2, not 1"
    assert raised(ValueError, lambda: D(((1, F(1, 2)), (1, F(1, 2))))) == "duplicate key 1"
    # keys are structural: True and 1 are two values
    assert len(D(((True, F(1, 2)), (1, F(1, 2)))).weights) == 2


BIG_PRIMES = (10007, 65537, 999983, 2**31 - 1, 2**61 - 1)


def gen_wide_ival(rng):
    """Probabilities with large coprime denominators (the last one takes
    their product) and zero entries mixed in."""
    dens = rng.sample(BIG_PRIMES, rng.randint(1, 4))
    probs = [F(rng.randint(0, d // (len(dens) + 1)), d) for d in dens]
    probs.append(1 - sum(probs, F(0)))
    probs += [F(0)] * rng.randint(0, 2)
    rng.shuffle(probs)
    return ival.of_entries(tuple((i, rng.randint(-3, 3), p) for (i, p) in enumerate(probs)))


def test_expected_value_matches_fraction_sum():
    rng = random.Random(41)
    for _ in range(500):
        a = gen_wide_ival(rng)
        table = {v: rng.choice([F(rng.randint(-10**6, 10**6), rng.choice(BIG_PRIMES)),
                                rng.randint(-9, 9), F(0), True])
                 for v in range(-3, 4)}
        f = table.__getitem__
        oracle = sum((p * F(f(v)) for (_, v, p) in a.entries if p != 0), F(0))
        got = ival.expected_value(f, a)
        assert type(got) is F and got == oracle
    with pytest.raises(TypeError, match="expected an exact rational, got 0.5"):
        ival.expected_value(lambda v: 0.5, ival.ret(0))


# -- the Fraction route --------------------------------------------------------


def agrees(m, want, f):
    """``m`` is the reference valuation ``want``: the same entries, the
    same canonical form, distribution and expectation of ``f``, and a
    denominator in lowest terms."""
    assert m.entries == want
    assert m.canonical() == ref.canonical(want)
    assert ival.to_distribution(m).weights == ref.to_distribution(want)
    assert ival.expected_value(f, m) == ref.expected_value(f, want)
    assert math.gcd(m.den, *[n for (_, _, n) in m.terms]) == 1


def test_operations_match_the_fraction_route():
    rng = rng_for(47, "ival-fraction-route")
    h = gen_fun_rational(rng, VALUE_POOL)
    g = lambda v: v % 3
    seen = {"p=0": 0, "p=1": 0, "zero term": 0, "reduced": 0}
    for _ in range(300):
        (a, b, p) = (gen_ival(rng), gen_ival(rng), gen_prob(rng))
        f = gen_fun_ival(rng, VALUE_POOL)
        cont = lambda v: f(v).entries
        sigma = {i: gen_ival(rng, 3) for (i, _, _) in a.terms}
        mixed = ival.pchoice(a, p, b)
        agrees(mixed, ref.pchoice(a.entries, p, b.entries), h)
        bound = ival.bind(mixed, f)
        agrees(bound, ref.bind(mixed.entries, cont), h)
        agrees(ival.bind_per_index(a, sigma),
               ref.bind_per_index(a.entries, {i: m.entries for (i, m) in sigma.items()}), h)
        agrees(ival.map_values(g, bound), ref.map_values(g, bound.entries), h)
        (chain, want) = (a, a.entries)
        for _ in range(3):
            (q, c) = (gen_prob(rng), gen_ival(rng, 3))
            chain = ival.bind(ival.pchoice(chain, q, c), f)
            want = ref.bind(ref.pchoice(want, q, c.entries), cont)
            agrees(chain, want, h)
        seen["p=0"] += p == 0
        seen["p=1"] += p == 1
        seen["zero term"] += any(n == 0 for (_, _, n) in a.terms)
        seen["reduced"] += mixed.den < p.denominator * math.lcm(a.den, b.den)
    assert min(seen.values()) >= 30, seen


def test_degenerate_choices_keep_the_denominator():
    # a chain of choices with weight 0 or 1 never carries an unreduced factor
    rng = rng_for(48, "ival-degenerate-chain")
    a = gen_ival(rng)
    (left, right) = (a, a)
    for _ in range(40):
        left = ival.pchoice(left, 1, gen_ival(rng))
        right = ival.pchoice(gen_ival(rng), 0, right)
        assert left.den == right.den == a.den
    assert ival.equiv(left, a) and ival.equiv(right, a)


# -- canonical forms ----------------------------------------------------------

FORM_POOL = (0, 1, True, False, 2, F(1), "x", (1, True), (True, 1))
SHARED_DENS = (2, 4, 6, 12, 18)
COPRIME_DENS = (5, 7, 11, 13, 10007)


def gen_form_ival(rng):
    dens = SHARED_DENS if rng.random() < 0.5 else COPRIME_DENS
    n = rng.randint(1, 4)
    probs = [F(rng.randint(0, d // n), d) for d in rng.choices(dens, k=n - 1)]
    probs.append(1 - sum(probs, F(0)))
    return ival.of_entries(tuple((("o", i), rng.choice(FORM_POOL), p)
                                 for (i, p) in enumerate(probs)))


def python_twin(v):
    """A value of another type that Python calls equal to ``v``, if any."""
    if type(v) is bool:
        return int(v)
    if type(v) is int and v in (0, 1):
        return bool(v)
    if type(v) is F:
        return int(v) if v.denominator == 1 else v
    return v


def variant(rng, a, kind):
    """``a`` relabelled, reordered and zero-padded, or changed in one way
    that may or may not survive: a value swapped for one Python calls equal,
    or mass moved between two entries."""
    entries = list(relabel(rng, a).entries)
    if kind == "swap" and entries:
        k = rng.randrange(len(entries))
        (i, v, p) = entries[k]
        entries[k] = (i, python_twin(v), p)
    elif kind == "move" and len(entries) > 1:
        (j, k) = rng.sample(range(len(entries)), 2)
        e = min(entries[j][2], F(rng.randint(1, 3), rng.choice(SHARED_DENS + COPRIME_DENS)))
        entries[j] = (entries[j][0], entries[j][1], entries[j][2] - e)
        entries[k] = (entries[k][0], entries[k][1], entries[k][2] + e)
    if rng.random() < 0.3:
        entries.append((("pad", len(entries)), rng.choice(FORM_POOL), F(0)))
    rng.shuffle(entries)
    return ival.of_entries(entries)


def multiset(a):
    """The oracle: sorted positive ``(value_key, Fraction)`` pairs."""
    return tuple(sorted((ival.value_key(v), p) for (_, v, p) in a.entries if p > 0))


def test_canonical_forms_agree_with_the_fraction_multiset():
    rng = random.Random(43)
    seen = {"equal": 0, "unequal": 0, "swap": 0, "move": 0, "coprime": 0, "shared": 0}
    for _ in range(1200):
        a = gen_form_ival(rng)
        kind = rng.choice(["relabel", "swap", "move", "fresh"])
        b = gen_form_ival(rng) if kind == "fresh" else variant(rng, a, kind)
        same = multiset(a) == multiset(b)
        assert ival.equiv(a, b) == same
        for m in (a, b):
            (den, pairs) = m.canonical()
            assert [(k, F(n, den)) for (k, n) in pairs] == list(multiset(m))
            assert math.gcd(den, *[n for (_, n) in pairs]) == 1
            shuffled = list(m.entries)
            rng.shuffle(shuffled)
            assert ival.of_entries(shuffled).canonical() == m.canonical()
        seen["equal" if same else "unequal"] += 1
        if kind in ("swap", "move") and not same:
            seen[kind] += 1
        dens = [p.denominator for (_, _, p) in a.entries if p > 0]
        pairs = [math.gcd(x, y) for (k, x) in enumerate(dens) for y in dens[k + 1:]
                 if x > 1 and y > 1]
        seen["coprime"] += 1 in pairs
        seen["shared"] += any(g > 1 for g in pairs)
    assert min(seen.values()) >= 50, seen


def test_process_set_equiv_agrees_with_the_fraction_multisets():
    rng = random.Random(44)
    verdicts = {True: 0, False: 0}
    for _ in range(1000):
        a = [gen_form_ival(rng) for _ in range(rng.randint(1, 3))]
        b = [variant(rng, m, rng.choice(["relabel", "relabel", "swap", "move"])) for m in a]
        rng.shuffle(b)
        if rng.random() < 0.3:
            b.append(rng.choice(b))
        same = {multiset(m) for m in a} == {multiset(m) for m in b}
        assert ndset.equiv(ndset.lift(*a), ndset.lift(*b)) == same
        verdicts[same] += 1
    assert min(verdicts.values()) >= 200, verdicts


def test_support_excludes_zero_entries():
    a = ival.pchoice(ival.ret(0), F(1), ival.ret(1))
    assert ndset.joint_support(ndset.lift(a)) == (0,)


# -- property tests ----------------------------------------------------------

small_vals = st.integers(min_value=-3, max_value=3)


@st.composite
def ivals(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    weights = [draw(st.integers(min_value=1, max_value=5)) for _ in range(n)]
    total = sum(weights)
    vals = [draw(small_vals) for _ in range(n)]
    return ival.of_entries(tuple(
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
    one = lang.to_val(lang.parse("(lam (x) 1)"))
    two = lang.to_val(lang.parse("(lam (x) 2)"))
    a = ival.pchoice(ival.ret(one), F(1, 2), ival.ret(two))
    assert len(ival.to_distribution(a).weights) == 2
    assert not ival.prob_equiv(a, ival.ret(one))
    assert ival.value_key(one) == ival.value_key(lang.to_val(lang.parse("(lam (x) 1)")))


def test_over_common_denominator():
    assert ival.over_common_denominator([F(1, 2), F(1, 3), F(0), F(1, 6)]) == (6, [3, 2, 0, 1])
    assert ival.over_common_denominator([F(1)]) == (1, [1])
    rng = random.Random(29)
    for _ in range(200):
        probs = [F(rng.randint(0, 9), rng.randint(1, 12)) for _ in range(rng.randint(1, 5))]
        (den, nums) = ival.over_common_denominator(probs)
        assert den == math.lcm(*(p.denominator for p in probs))
        assert [F(n, den) for n in nums] == probs


def nested_value_key(v):
    """``value_key`` as it was defined before its dataclass branch was
    walked on a stack: nested keys, by recursion."""
    if isinstance(v, bool):
        return (0, v)
    if isinstance(v, int):
        return (1, v)
    if isinstance(v, F):
        return (2, v)
    if isinstance(v, str):
        return (3, v)
    if v is None:
        return (4,)
    if isinstance(v, tuple):
        return (5, len(v), tuple(nested_value_key(x) for x in v))
    return (6, type(v).__name__,
            tuple(nested_value_key(getattr(v, f.name)) for f in dataclasses.fields(v)))


def shallow_values(rng):
    """Scalars, tuples, language values and terms, and the configurations
    of a few short runs."""
    scalars = [0, 1, -2, True, False, F(1, 3), F(-1, 2), "a", "b", None]
    out = list(scalars)
    for _ in range(60):
        out.append(tuple(rng.choice(scalars) for _ in range(rng.randint(0, 3))))
        out.append(lang.gen_expr(rng, depth=2))
    out += [lang.to_val(lang.parse(t)) for t in (
        "()", "1", "2", "#t", "#f", "(loc 0)", "(loc 1)", "(pair 1 #t)", "(pair 1 ())",
        "(pair (pair 1 2) 3)", "(lam (x) x)", "(lam (y) x)", "(rec (f x) (f x))")]
    for text in ("(let (l (alloc 0)) (seq (fork (faa l 1)) (faa l 2) (load l)))",
                 "(if (flip 1 3) (pair 1 #t) (pair (flip 1 2) ()))"):
        c = machine.initial_config([lang.parse(text)])
        for steps in range(8):
            iv = machine.trace_step_ival_n(sched.round_robin().choose, c, steps)
            out += [v for (_, v, _) in iv.entries]
    out.append((out[-1], out[-2]))
    return out


def test_value_key_orders_as_the_nested_key():
    # the flat preorder key sorts exactly as the nested one: the tokens
    # of a value are a prefix of no other value's
    values = shallow_values(random.Random(31))
    flat = [ival.value_key(v) for v in values]
    nested = [nested_value_key(v) for v in values]
    for (a, na) in zip(flat, nested):
        for (b, nb) in zip(flat, nested):
            assert (a < b, a == b) == (na < nb, na == nb)
    assert len(set(flat)) == len(set(nested)) > 100


def test_value_key_walks_deep_values_without_recursion():
    deep = lang.to_val(lang.parse("(pair #t " * 3000 + "()" + ")" * 3000))
    chain = machine.initial_config([lang.parse("(let (x " * 3000 + "1" + ") x)" * 3000)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        key = ival.value_key(deep)
        dist = ival.to_distribution(
            machine.trace_step_ival_n(sched.round_robin().choose, chain, 2))
    finally:
        sys.setrecursionlimit(limit)
    assert key[0] == 6 and len(key[1]) == 3 * 3000 + 1
    assert key[1][:4] == ((6, "VPair"), (6, "VBool"), (0, True), (6, "VPair"))
    [(c, p)] = dist.weights
    assert p == 1 and repr(c.threads[0]) == "(let (x " * 2998 + "1" + ") x)" * 2998
