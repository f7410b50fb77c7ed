"""Finite nonempty sets of indexed valuations (nondeterminism over chance).

A ``ProcessSet`` is a finite nonempty sequence of indexed valuations; each
member is one way the scheduler could resolve all nondeterministic choices.
Duplicates are permitted structurally and irrelevant semantically: ``forms``,
the frozenset of member canonical forms, is the set up to ``equiv`` of
members that ``subset`` and ``equiv`` compare.

``bind`` selects *per index*: each member and each assignment of one
continuation member to every index in its indicial support give one
composite.  Selecting per index rather than per value is the whole point of
indices: later nondeterminism may be resolved differently on the basis of a
probabilistic choice that is not observable in the value.  The selections
number the product of the continuation sizes over the support, but a
composite's form depends only on the forms chosen, so ``bind`` folds over
canonical forms and returns one member per distinct composite;
``bind_forms`` is the set of forms of that same fold.  A form is
``(den, sorted (value_key, numerator))`` in lowest terms (see
``IndexedValuation.canonical``), so the forms, the fold and the set
comparisons hash and compare ints and keys, never Fractions.

The coarse order ``subset_p`` ("every bounded function's maximal
expectation is dominated") is decided by exact convex-hull membership of
collapsed distributions: for finite sets, ``a subset_p b`` holds iff every
member's distribution is a convex combination of the distributions of
``b``'s members.  Soundness of that reduction is a finite-dimensional
separating-hyperplane argument: expectations are linear in the
distribution, so domination for all (bounded) functions is exactly
membership in the closed convex hull, and the hull of finitely many points
needs no closure.  When the LP says no, its dual certificate *is* a
function whose maximal expectation violates the domination, which the
property suite uses as an independent falsifier.  Members with the same
distribution share one LP solve; a distribution is keyed by its integer
numerators over their lowest common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable, Optional

from ivalbench import ival, lp
from ivalbench.ival import IndexedValuation, as_rational, value_key

Value = Any


@dataclass(frozen=True)
class ProcessSet:
    """Finite nonempty set of indexed valuations."""

    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValueError("process set must be nonempty")
        for m in self.members:
            if not isinstance(m, IndexedValuation):
                raise TypeError(f"member {m!r} is not an IndexedValuation")

    def __repr__(self):
        return "PSet{" + ", ".join(repr(m) for m in self.members) + "}"


def ret(v: Value) -> ProcessSet:
    """Unit: the singleton set containing ``ival.ret(v)``."""
    return ProcessSet((ival.ret(v),))


def lift(member: IndexedValuation, *more: IndexedValuation) -> ProcessSet:
    return ProcessSet((member,) + more)


def union(a: ProcessSet, b: ProcessSet) -> ProcessSet:
    """Nondeterministic choice: set union (concatenation of members)."""
    return ProcessSet(a.members + b.members)


def union_all(sets) -> ProcessSet:
    members = ()
    for s in sets:
        members += s.members
    return ProcessSet(members)


def pchoice(a: ProcessSet, p, b: ProcessSet) -> ProcessSet:
    """Pairwise probabilistic choice of members."""
    p = as_rational(p)
    if not 0 <= p <= 1:
        raise ValueError(f"choice weight {p} outside [0, 1]")
    return ProcessSet(tuple(
        ival.pchoice(x, p, y) for x in a.members for y in b.members
    ))


def _bind_fold(a: ProcessSet, f: Callable[[Value], ProcessSet]):
    """The distinct composite forms of the per-index bind, as the keys of a
    dict in the order the fold first reaches them, and ``f(v)`` per value
    key reached.

    A composite's canonical form is the multiset union, over the positive
    entries ``(i, v, p)`` of its source member, of the chosen continuation
    member's form scaled by ``p``; it depends only on the forms chosen.  So
    each member of ``a`` folds over its positive entries a deduplicated dict
    of partial sorted multisets, merging every partial with every distinct
    form of ``f(v)``.  The partials of one member are integer numerators
    over one denominator ``den``, a common multiple of every product
    ``p * q`` it can meet, so they hash and compare as ints; dividing a
    finished partial and ``den`` by their gcd gives its canonical form.
    Dicts, never sets, keep the order independent of string hashing.
    """
    conts: dict = {}  # value_key -> (f(v), its distinct forms); f once per value
    out: dict = {}
    for m in a.members:
        picks = []  # (p, distinct forms of f(v)) per positive entry
        for (_, v, p) in m.entries:
            if not p.numerator:
                continue
            k = value_key(v)
            if k not in conts:
                cont = f(v)
                conts[k] = (cont, dict.fromkeys(x.canonical() for x in cont.members))
            picks.append((p, conts[k][1]))
        den = lcm(*[p.denominator * d for (p, forms) in picks for (d, _) in forms])
        partials = {(): None}
        for (p, forms) in picks:
            scaled = []
            for (d, pairs) in forms:
                c = p.numerator * (den // (p.denominator * d))
                scaled.append(tuple([(w, c * q) for (w, q) in pairs]))
            partials = dict.fromkeys(
                tuple(sorted(part + t)) for part in partials for t in scaled)
        # (g, id(pair)) -> the pair's numerator divided by g: the forms share
        # their pairs as the partials do, which keeps a large fold's memory
        # at that of the partials
        lowest: dict = {}
        for part in partials:
            g = gcd(den, *[n for (_, n) in part])
            form = []
            for pair in part:
                k = (g, id(pair))
                if k not in lowest:
                    lowest[k] = (pair[0], pair[1] // g)
                form.append(lowest[k])
            out[(den // g, tuple(form))] = None
    return out, conts


def bind(a: ProcessSet, f: Callable[[Value], ProcessSet]) -> ProcessSet:
    """Per-index selection bind, up to ``equiv`` of members.

    Every selection of one member of ``f(value)`` per support index of a
    member of ``a`` gives a composite with dependent-pair indices and
    product probabilities.  One member stands for each distinct composite
    form, rebuilt with index = position, in the order the fold first
    reaches it.
    """
    out, conts = _bind_fold(a, f)
    values = {value_key(w): w for (cont, _) in conts.values()
              for x in cont.members for (_, w, _) in x.entries}
    return ProcessSet(tuple(
        IndexedValuation(tuple((n, values[k], Fraction(q, den))
                               for (n, (k, q)) in enumerate(pairs)))
        for (den, pairs) in out))


def forms(a: ProcessSet) -> frozenset:
    """The members' canonical forms: ``a`` up to ``equiv`` of members."""
    return frozenset(m.canonical() for m in a.members)


def bind_forms(a: ProcessSet, f: Callable[[Value], ProcessSet]) -> frozenset:
    """``forms(bind(a, f))``, without building the composites."""
    return frozenset(_bind_fold(a, f)[0])


def dedup(a: ProcessSet) -> ProcessSet:
    """Merge ``equiv``-equal members, keeping first representatives."""
    seen = {}
    for m in a.members:
        seen.setdefault(m.canonical(), m)
    return ProcessSet(tuple(seen.values()))


def subset(a: ProcessSet, b: ProcessSet) -> bool:
    """Every member of ``a`` is ``equiv`` to some member of ``b``."""
    return forms(a) <= forms(b)


def equiv(a: ProcessSet, b: ProcessSet) -> bool:
    """Mutual ``subset``."""
    return forms(a) == forms(b)


def ex_min(f: Callable[[Value], Fraction], a: ProcessSet) -> Fraction:
    """Minimal expected value of ``f`` over the members (attained: finite)."""
    return min(ival.expected_value(f, m) for m in a.members)


def ex_max(f: Callable[[Value], Fraction], a: ProcessSet) -> Fraction:
    """Maximal expected value of ``f`` over the members."""
    return max(ival.expected_value(f, m) for m in a.members)


def joint_support(a: ProcessSet) -> tuple:
    """Union of member supports, value-ordered."""
    seen: dict = {}
    for m in a.members:
        for v in ival.support(m):
            seen.setdefault(value_key(v), v)
    return tuple(sorted(seen.values(), key=value_key))


@dataclass
class SubsetPCertificate:
    """Per-member evidence for a ``subset_p`` decision.

    For a positive decision, ``weights`` gives the convex combination of
    ``b``'s members reproducing the member's distribution.  For a negative
    one, ``separating`` maps support values to the coefficients of a
    function whose maximal expectation is strictly larger on ``a``.
    """

    member_index: int
    weights: Optional[list] = None
    separating: Optional[list] = None  # list of (value, coefficient)


def subset_p_certified(a: ProcessSet, b: ProcessSet):
    """Decide ``a subset_p b`` with certificates; see module docstring."""
    values = joint_support(union(a, b))
    coords = {value_key(v): d for (d, v) in enumerate(values)}
    dim = len(values)

    def form(m: IndexedValuation) -> tuple:
        """The distribution of ``m`` as ``(den, numerators)`` in lowest
        terms, one numerator per coordinate: equal distributions, equal
        forms."""
        (den, acc) = ival.collapsed(m)
        nums = [0] * dim
        for (k, (_, n)) in acc.items():
            nums[coords[k]] = n
        g = gcd(den, *nums)
        return (den // g, tuple([n // g for n in nums]))

    def vec(key: tuple) -> list:
        (den, nums) = key
        return [Fraction(n, den) for n in nums]

    generators = [vec(form(m)) for m in b.members]
    solved: dict = {}  # distribution form -> its FeasibilityResult
    certs = []
    verdict = True
    for (k, m) in enumerate(a.members):
        key = form(m)
        if key not in solved:
            solved[key] = lp.convex_hull_membership(vec(key), generators)
        res = solved[key]
        if res.feasible:
            certs.append(SubsetPCertificate(k, weights=res.solution))
        else:
            sep = [(values[d], res.certificate[d]) for d in range(dim)
                   if res.certificate[d] != 0]
            certs.append(SubsetPCertificate(k, separating=sep))
            verdict = False
    return verdict, certs


def subset_p(a: ProcessSet, b: ProcessSet) -> bool:
    """``a subset_p b``: maximal expectations dominated for every function."""
    verdict, _ = subset_p_certified(a, b)
    return verdict


def separating_function(cert: SubsetPCertificate) -> Callable[[Value], Fraction]:
    """Turn a negative certificate into the falsifying expectation function."""
    table = {value_key(v): c for (v, c) in cert.separating or []}

    def f(v: Value) -> Fraction:
        return table.get(value_key(v), Fraction(0))

    return f
