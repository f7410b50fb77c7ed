"""Exact finite indexed valuations.

An indexed valuation is a finite family of ``(index, value, probability)``
entries whose probabilities are exact rationals summing to one.  Unlike an
ordinary distribution, two distinct indices may carry the same value; the
index structure records *which* random outcome happened, not just what was
observed.  Collapsing equal values (``to_distribution``) deliberately
forgets that structure.

Two equivalences matter:

* ``equiv`` -- there is a bijective relabelling of the positive-probability
  indices preserving value and probability.  For finite supports this is
  the same as multiset equality of the positive ``(value, probability)``
  pairs, which is how it is decided here: both sides are brought to a
  canonical sorted form, values replaced by their ``value_key``, and
  compared exactly.
* ``prob_equiv`` -- the collapsed distributions agree.  This is strictly
  coarser: ``pchoice(a, p, a)`` is ``prob_equiv`` to ``a`` but never
  ``equiv`` to it for 0 < p < 1, because the support cardinalities differ.

Entries with probability zero are kept structurally (constructors may
produce them) but are outside the indicial support and are ignored by all
semantic relations, by ``expected_value``, and by ``bind``.

A valuation is stored as integers, ``(den, terms)`` with terms ``(index,
value, numerator)``, over the least common denominator ``den``.  The
monad operations multiply numerators over a common multiple of the
operands' denominators and reduce by one gcd; validation, ``canonical``,
``to_distribution`` and ``expected_value`` read the numerators.
Fractions appear only at the edge: ``entries`` is the ``(index, value,
Fraction)`` view and ``of_entries`` builds a valuation from such triples.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable

Value = Any
Rational = Fraction


def value_key(v: Value):
    """Total order key over the finite value domains used in this package.

    Values are ints, bools, unit (None), strings, Fractions, tuples of
    values, or dataclass instances (language values, expressions, machine
    states), which are keyed by the flat preorder of their type names and
    fields (``_preorder_tokens``), so two values share a key only if they
    are structurally equal.
    The key orders across types by a fixed type rank so heterogeneous
    supports still sort deterministically.
    """
    if isinstance(v, bool):
        return (0, v)
    if isinstance(v, int):
        return (1, v)
    if isinstance(v, Fraction):
        return (2, v)
    if isinstance(v, str):
        return (3, v)
    if v is None:
        return (4,)
    if isinstance(v, tuple):
        return (5, len(v), tuple(value_key(x) for x in v))
    if is_dataclass(v) and not isinstance(v, type):
        return (6, _preorder_tokens(v))
    raise TypeError(f"no structural key for {type(v).__name__} value {v!r}")


def _preorder_tokens(v) -> tuple:
    """The tokens of the dataclass value ``v`` in preorder, walked on an
    explicit stack, so a value nested any depth deep needs no recursion.  A
    dataclass is the token ``(6, type name)``, then its fields' tokens; a
    tuple is ``(5, len)``, then its items'; a scalar is its ``value_key``.
    The tokens of a value are a prefix of no other value's, so the flat
    tuple sorts exactly as the nested key ``(6, name, field keys)`` would."""
    tokens = []
    stack = [v]
    while stack:
        x = stack.pop()
        if is_dataclass(x) and not isinstance(x, type):
            tokens.append((6, type(x).__name__))
            stack += reversed([getattr(x, f.name) for f in fields(x)])
        elif isinstance(x, tuple):
            tokens.append((5, len(x)))
            stack += reversed(x)
        else:
            tokens.append(value_key(x))
    return tuple(tokens)


def as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {x!r}")


def _as_ratio(x) -> tuple:
    """``(numerator, denominator)`` of an exact rational, as ``as_rational``
    accepts it, without building a Fraction."""
    if isinstance(x, (Fraction, int)):
        return (x.numerator, x.denominator)
    raise TypeError(f"expected an exact rational, got {x!r}")


def over_common_denominator(probs: list) -> tuple:
    """``(den, nums)``: ``den`` is the lcm of the denominators of the exact
    rationals ``probs``, and ``nums[j] / den`` is ``probs[j]``.  Zeros have
    denominator 1, so ``den`` is also the lcm over the nonzero ones."""
    den = lcm(*[p.denominator for p in probs])
    return (den, [p.numerator * (den // p.denominator) for p in probs])


@dataclass(frozen=True)
class IndexedValuation:
    """Finite indexed valuation: ``terms`` are ``(index, value, numerator)``
    over the positive int ``den``.

    Invariants checked on construction: indices pairwise distinct, every
    numerator a nonnegative int, numerators summing to ``den``, and ``den``
    the least such denominator (its gcd with the numerators is 1).
    """

    den: int
    terms: tuple

    def __post_init__(self):
        den = self.den
        if type(den) is not int:
            raise TypeError(f"denominator {den!r} is not an int")
        if den <= 0:
            raise ValueError(f"denominator {den} is not positive")
        nums = [n for (_, _, n) in self.terms]
        if len({i for (i, _, _) in self.terms}) != len(nums):
            raise ValueError("indexed valuation has duplicate indices")
        for n in nums:
            if type(n) is not int:
                raise TypeError(f"numerator {n!r} is not an int")
            if n < 0:
                raise ValueError(f"negative probability {Fraction(n, den)}")
        if sum(nums) != den:
            raise ValueError(f"probabilities sum to {Fraction(sum(nums), den)}, not 1")
        if gcd(*nums) != 1:  # the numerators sum to den
            raise ValueError(f"denominator {den} is not in lowest terms")

    @property
    def entries(self) -> tuple:
        """The ``(index, value, Fraction)`` view, for readers at the edge."""
        return tuple((i, v, Fraction(n, self.den)) for (i, v, n) in self.terms)

    def canonical(self) -> tuple:
        """``(den, pairs)``: ``pairs`` is the sorted multiset of positive
        ``(value_key(value), numerator)`` pairs; decides ``equiv``.

        ``den`` is the least common denominator, so it and every numerator
        are fixed by the multiset of positive probabilities: equal
        multisets give equal forms, whatever the term order, indices or
        zero terms.  Values enter by their structural key, so ``True`` and
        ``1`` (equal in Python) stay apart.  Forms hash and compare as ints
        and keys."""
        return (self.den, tuple(sorted([(value_key(v), n) for (_, v, n) in self.terms if n])))

    def __repr__(self):
        inner = ", ".join(f"{v!r}@{Fraction(n, self.den)}" for (_, v, n) in self.terms)
        return f"IVal[{inner}]"


def of_entries(entries) -> IndexedValuation:
    """The valuation of ``(index, value, probability)`` triples whose
    probabilities are Fractions, over their least common denominator."""
    probs = [p for (_, _, p) in entries]
    for p in probs:
        if not isinstance(p, Fraction):
            raise TypeError(f"probability {p!r} is not a Fraction")
    (den, nums) = over_common_denominator(probs)
    return IndexedValuation(den, tuple((i, v, n) for ((i, v, _), n) in zip(entries, nums)))


def in_lowest_terms(den: int, terms: list) -> IndexedValuation:
    """The valuation of the integer ``terms`` over ``den``, both divided
    by their gcd."""
    g = gcd(den, *[n for (_, _, n) in terms])
    if g > 1:
        terms = [(i, v, n // g) for (i, v, n) in terms]
    return IndexedValuation(den // g, tuple(terms))


@dataclass(frozen=True)
class Distribution:
    """Finite distribution: value -> positive exact rational, summing to 1.

    The sum is taken over the lcm of the weights' denominators, on
    integers; a weight that is not an exact rational (a float) is a
    ``TypeError``."""

    weights: tuple  # sorted tuple of (value, prob)

    def __post_init__(self):
        seen = set()
        probs = []
        for (v, p) in self.weights:
            k = value_key(v)
            if k in seen:
                raise ValueError(f"duplicate key {v!r}")
            seen.add(k)
            if p <= 0:
                raise ValueError("distribution weights must be positive")
            probs.append(as_rational(p))
        (den, nums) = over_common_denominator(probs)
        if sum(nums) != den:
            raise ValueError(f"weights sum to {Fraction(sum(nums), den)}, not 1")


def ret(v: Value) -> IndexedValuation:
    """Unit: a single index carrying ``v`` with probability 1."""
    return IndexedValuation(1, ((0, v, 1),))


def pchoice(a: IndexedValuation, p, b: IndexedValuation) -> IndexedValuation:
    """Probabilistic choice: left entries scaled by p, right by 1-p, over
    the common denominator ``p.denominator * lcm(a.den, b.den)``.

    The index set is the tagged disjoint union, so choosing between equal
    valuations still doubles the support: ``pchoice(a, p, a)`` is not
    ``equiv`` to ``a`` unless p is 0 or 1.
    """
    p = as_rational(p)
    if not 0 <= p <= 1:
        raise ValueError(f"choice weight {p} outside [0, 1]")
    (pn, pd) = (p.numerator, p.denominator)
    l = lcm(a.den, b.den)
    (ca, cb) = (pn * (l // a.den), (pd - pn) * (l // b.den))
    terms = [(("L", i), v, ca * n) for (i, v, n) in a.terms]
    terms += [(("R", i), v, cb * n) for (i, v, n) in b.terms]
    return in_lowest_terms(pd * l, terms)


def bind(a: IndexedValuation, f: Callable[[Value], IndexedValuation]) -> IndexedValuation:
    """Monadic bind: dependent-pair indices, product probabilities, over
    ``a.den`` times the lcm of the continuations' denominators.

    ``f`` is applied only to values in the indicial support, so zero
    probability entries of ``a`` are dropped (they are outside every
    semantic relation anyway, and continuations need only be defined on
    the support).
    """
    conts = [(i, n, f(v)) for (i, v, n) in a.terms if n]
    l = lcm(*[c.den for (_, _, c) in conts])
    terms = []
    for (i, n, c) in conts:
        k = n * (l // c.den)
        terms += [((i, j), w, k * q) for (j, w, q) in c.terms]
    return in_lowest_terms(a.den * l, terms)


def bind_per_index(m: IndexedValuation, sigma: dict) -> IndexedValuation:
    """Compose ``m`` with one continuation valuation per support index: the
    ``bind`` of ``m``'s indices, the continuations' zero terms dropped."""
    indices = IndexedValuation(m.den, tuple((i, i, n) for (i, _, n) in m.terms))
    return bind(indices, lambda i: IndexedValuation(
        sigma[i].den, tuple(t for t in sigma[i].terms if t[2])))


def map_values(g: Callable[[Value], Value], a: IndexedValuation) -> IndexedValuation:
    """Apply ``g`` to every entry value, keeping indices and probabilities."""
    return IndexedValuation(a.den, tuple((i, g(v), n) for (i, v, n) in a.terms))


def equiv(a: IndexedValuation, b: IndexedValuation) -> bool:
    """Bijective index relabelling preserving value and probability.

    Decided by comparing canonical multisets of positive (value, prob)
    pairs, which is equivalent for finite supports: a bijection exists iff
    the multisets coincide.
    """
    return a.canonical() == b.canonical()


def to_distribution(a: IndexedValuation) -> Distribution:
    """Collapse to a distribution by summing the numerators of equal
    values."""
    acc: dict = {}  # value_key -> (value, summed numerator)
    for (_, v, n) in a.terms:
        if n:
            k = value_key(v)
            acc[k] = (v, acc[k][1] + n) if k in acc else (v, n)
    return Distribution(tuple((v, Fraction(n, a.den)) for (_, (v, n)) in sorted(acc.items())))


def prob_equiv(a: IndexedValuation, b: IndexedValuation) -> bool:
    """Equality of collapsed distributions (equal expectations for all
    bounded functions), values compared by ``value_key``."""
    def keyed(m):
        return [(value_key(v), p) for (v, p) in to_distribution(m).weights]

    return keyed(a) == keyed(b)


def weighted_sum(den: int, terms) -> Fraction:
    """``sum(n * x for (n, x) in terms) / den`` for integers ``n`` and exact
    rationals ``x``, summed as integers over the lcm of the denominators;
    one Fraction is built at the end."""
    (num, d) = (0, 1)
    for (n, x) in terms:
        (xn, xd) = _as_ratio(x)
        if d % xd:
            common = lcm(d, xd)
            num *= common // d
            d = common
        num += n * xn * (d // xd)
    return Fraction(num, d * den)


def expected_value(f: Callable[[Value], Rational], a: IndexedValuation) -> Fraction:
    """Exact expectation of ``f`` over ``a`` (finite, so it always exists),
    as a ``weighted_sum`` over ``a.den``."""
    return weighted_sum(a.den, [(n, f(v)) for (_, v, n) in a.terms if n])
