"""Finite nonempty sets of indexed valuations (nondeterminism over chance).

A ``ProcessSet`` is a finite nonempty sequence of indexed valuations; each
member is one way the scheduler could resolve all nondeterministic choices.
Duplicates are permitted structurally and irrelevant semantically; ``dedup``
merges ``equiv``-equal members when callers want to keep sizes down.

``bind`` enumerates *per-index* selection functions: for each member and
each assignment of one continuation member to every index in its indicial
support, one composite member is produced.  Selecting per index rather than
per value is the whole point of indices: later nondeterminism may be
resolved differently on the basis of a probabilistic choice that is not
observable in the value.  The member count is the sum over members of the
product of the continuation sizes over the support, and composites are
often ``equiv`` to one another.

``forms`` is a set up to ``equiv`` of members: the frozenset of member
canonical forms, which ``subset`` and ``equiv`` compare.  To decide an
ordering of binds, compare ``bind_forms``, which equals ``forms(bind(a, f))``
but is a fold over canonical forms that builds no composite; ``bind``
stays the structural definition it is checked against.

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
distribution share one LP solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
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


def bind(a: ProcessSet, f: Callable[[Value], ProcessSet]) -> ProcessSet:
    """Per-index selection bind.

    For each member and each selection assigning one member of ``f(value)``
    to every index in the member's indicial support, produce the composite
    valuation with dependent-pair indices and product probabilities.
    Beware the member count: it is sum over members of the product of
    continuation sizes over the support.
    """
    out = []
    for m in a.members:
        indices = [i for (i, _, p) in m.entries if p > 0]
        conts = [f(v).members for (_, v, p) in m.entries if p > 0]
        for selection in itertools.product(*conts):
            out.append(ival.bind_per_index(m, dict(zip(indices, selection))))
    return ProcessSet(tuple(out))


def forms(a: ProcessSet) -> frozenset:
    """The members' canonical forms: ``a`` up to ``equiv`` of members."""
    return frozenset(m.canonical() for m in a.members)


def bind_forms(a: ProcessSet, f: Callable[[Value], ProcessSet]) -> frozenset:
    """``forms(bind(a, f))``, without building the composites.

    A composite's canonical form is the multiset union, over the positive
    entries ``(i, v, p)`` of its source member, of the chosen continuation
    member's form scaled by ``p``; it depends only on the forms chosen.  So
    each member of ``a`` folds over its positive entries a deduplicated set
    of partial sorted multisets, merging every partial with every distinct
    form of ``f(v)``.
    """
    cont: dict = {}  # value_key -> forms(f(v)), one call of f per value
    out = set()
    for m in a.members:
        partials = {()}
        for (_, v, p) in m.entries:
            if p == 0:
                continue
            k = value_key(v)
            if k not in cont:
                cont[k] = forms(f(v))
            scaled = [tuple((w, p * q) for (w, q) in form) for form in cont[k]]
            partials = {tuple(sorted(part + s)) for part in partials for s in scaled}
        out |= partials
    return frozenset(out)


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

    def vec(m: IndexedValuation) -> list:
        out = [Fraction(0)] * dim
        for (v, p) in ival.to_distribution(m).weights:
            out[coords[value_key(v)]] = p
        return out

    generators = [vec(m) for m in b.members]
    solved: dict = {}  # distribution vector -> its FeasibilityResult
    certs = []
    verdict = True
    for (k, m) in enumerate(a.members):
        point = vec(m)
        key = tuple(point)
        if key not in solved:
            solved[key] = lp.convex_hull_membership(point, generators)
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
