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
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Any, Callable

Value = Any
Rational = Fraction


def value_key(v: Value):
    """Total order key over the finite value domains used in this package.

    Values are ints, bools, unit (None), strings, Fractions, tuples of
    values, or dataclass instances (language values, expressions, machine
    states), which are keyed by their type name and the keys of their
    fields, so two values share a key only if they are structurally equal.
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
        return (6, type(v).__name__, tuple(value_key(getattr(v, f.name)) for f in fields(v)))
    raise TypeError(f"no structural key for {type(v).__name__} value {v!r}")


def as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {x!r}")


@dataclass(frozen=True)
class IndexedValuation:
    """Finite indexed valuation: entries are ``(index, value, prob)``.

    Invariants checked on construction: indices pairwise distinct, every
    probability a Fraction in [0, 1], probabilities summing to exactly 1.
    """

    entries: tuple

    def __post_init__(self):
        indices = [i for (i, _, _) in self.entries]
        if len(set(indices)) != len(indices):
            raise ValueError("indexed valuation has duplicate indices")
        total = Fraction(0)
        for (_, _, p) in self.entries:
            if not isinstance(p, Fraction):
                raise TypeError(f"probability {p!r} is not a Fraction")
            if p < 0:
                raise ValueError(f"negative probability {p}")
            total += p
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def canonical(self) -> tuple:
        """Sorted multiset of positive ``(value_key(value), prob)`` pairs;
        decides ``equiv``.  Values enter by their structural key, so
        ``True`` and ``1`` (equal in Python) stay apart."""
        return tuple(sorted((value_key(v), p) for (_, v, p) in self.entries if p > 0))

    def __repr__(self):
        inner = ", ".join(f"{v!r}@{p}" for (_, v, p) in self.entries)
        return f"IVal[{inner}]"


@dataclass(frozen=True)
class Distribution:
    """Finite distribution: value -> positive Fraction, summing to 1."""

    weights: tuple  # sorted tuple of (value, prob)

    def __post_init__(self):
        total = Fraction(0)
        seen = set()
        for (v, p) in self.weights:
            k = value_key(v)
            if k in seen:
                raise ValueError(f"duplicate key {v!r}")
            seen.add(k)
            if p <= 0:
                raise ValueError("distribution weights must be positive")
            total += p
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")


def ret(v: Value) -> IndexedValuation:
    """Unit: a single index carrying ``v`` with probability 1."""
    return IndexedValuation(((0, v, Fraction(1)),))


def pchoice(a: IndexedValuation, p, b: IndexedValuation) -> IndexedValuation:
    """Probabilistic choice: left entries scaled by p, right by 1-p.

    The index set is the tagged disjoint union, so choosing between equal
    valuations still doubles the support: ``pchoice(a, p, a)`` is not
    ``equiv`` to ``a`` unless p is 0 or 1.
    """
    p = as_rational(p)
    if not 0 <= p <= 1:
        raise ValueError(f"choice weight {p} outside [0, 1]")
    entries = [(("L", i), v, p * q) for (i, v, q) in a.entries]
    entries += [(("R", i), v, (1 - p) * q) for (i, v, q) in b.entries]
    return IndexedValuation(tuple(entries))


def bind(a: IndexedValuation, f: Callable[[Value], IndexedValuation]) -> IndexedValuation:
    """Monadic bind: dependent-pair indices, product probabilities.

    ``f`` is applied only to values in the indicial support, so zero
    probability entries of ``a`` are dropped (they are outside every
    semantic relation anyway, and continuations need only be defined on
    the support).
    """
    entries = []
    for (i, v, p) in a.entries:
        if p == 0:
            continue
        for (j, w, q) in f(v).entries:
            entries.append(((i, j), w, p * q))
    return IndexedValuation(tuple(entries))


def bind_per_index(m: IndexedValuation, sigma: dict) -> IndexedValuation:
    """Compose ``m`` with one continuation valuation per support index."""
    entries = []
    for (i, _, p) in m.entries:
        if p == 0:
            continue
        for (j, w, q) in sigma[i].entries:
            if q == 0:
                continue
            entries.append(((i, j), w, p * q))
    return IndexedValuation(tuple(entries))


def map_values(g: Callable[[Value], Value], a: IndexedValuation) -> IndexedValuation:
    """Apply ``g`` to every entry value, keeping indices and probabilities."""
    return IndexedValuation(tuple((i, g(v), p) for (i, v, p) in a.entries))


def equiv(a: IndexedValuation, b: IndexedValuation) -> bool:
    """Bijective index relabelling preserving value and probability.

    Decided by comparing canonical multisets of positive (value, prob)
    pairs, which is equivalent for finite supports: a bijection exists iff
    the multisets coincide.
    """
    return a.canonical() == b.canonical()


def to_distribution(a: IndexedValuation) -> Distribution:
    """Collapse to a distribution by summing probabilities of equal values."""
    acc: dict = {}
    for (_, v, p) in a.entries:
        if p > 0:
            k = value_key(v)
            if k in acc:
                acc[k] = (v, acc[k][1] + p)
            else:
                acc[k] = (v, p)
    items = sorted(acc.values(), key=lambda vp: value_key(vp[0]))
    return Distribution(tuple(items))


def prob_equiv(a: IndexedValuation, b: IndexedValuation) -> bool:
    """Equality of collapsed distributions (equal expectations for all
    bounded functions), values compared by ``value_key``."""
    def keyed(m):
        return [(value_key(v), p) for (v, p) in to_distribution(m).weights]

    return keyed(a) == keyed(b)


def expected_value(f: Callable[[Value], Rational], a: IndexedValuation) -> Fraction:
    """Exact expectation of ``f`` over ``a`` (finite, so it always exists)."""
    total = Fraction(0)
    for (_, v, p) in a.entries:
        if p == 0:
            continue
        total += p * as_rational(f(v))
    return total


def support(a: IndexedValuation) -> tuple:
    """Distinct values occurring with positive probability, value-ordered."""
    seen: dict = {}
    for (_, v, p) in a.entries:
        if p > 0:
            seen.setdefault(value_key(v), v)
    return tuple(sorted(seen.values(), key=value_key))
