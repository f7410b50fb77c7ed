"""Finite nonempty sets of indexed valuations (nondeterminism over chance).

A ``ProcessSet`` is a finite nonempty set of indexed valuations; each
member is one way the scheduler could resolve all nondeterministic choices.
Every relation on a set respects ``equiv`` of its members, so a set holds
its members' canonical forms ``(den, sorted (value_key, numerator))`` in
lowest terms (see ``IndexedValuation.canonical``), in order and with
repeats, beside a ``value_key -> value`` table through which ``ex_min``
and ``ex_max`` call their function on real values.  ``lift`` is the one
constructor from valuations; ``member``, the one place that rebuilds
one (index = position), serves only ``coupling.couple_trivial``.  Every
operation works on the forms, which hash and compare as ints and keys,
never Fractions.

``bind`` selects *per index*: each member and each assignment of one
continuation member to every index in its indicial support give one
composite.  Selecting per index rather than per value is the whole point of
indices: later nondeterminism may be resolved differently on the basis of a
probabilistic choice that is not observable in the value.  The selections
number the product of the continuation sizes over the support, but a
composite's form depends only on the forms chosen, so ``bind`` folds over
forms and returns each distinct composite form once.

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
property suite uses as an independent falsifier.  A distribution is keyed
by its integer numerators over their lowest common denominator, and that
key is what the LP reads (``lp.convex_hull_membership``): no Fraction is
built on the way in.  Members with the same distribution share one LP
solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable, Optional

from ivalbench import ival, lp
from ivalbench.ival import IndexedValuation, as_rational, value_key

Value = Any


@dataclass(frozen=True)
class ProcessSet:
    """Finite nonempty set of valuations: their canonical ``forms``, in
    order with repeats, and ``values``, a ``value_key -> value`` table
    holding at least every key of the forms."""

    forms: tuple
    values: dict = field(compare=False)

    def __post_init__(self):
        if not self.forms:
            raise ValueError("process set must be nonempty")

    def member(self, j: int) -> IndexedValuation:
        """Member ``j`` as a valuation, rebuilt with index = position: the
        one rebuild, read only by ``coupling.couple_trivial``."""
        (den, pairs) = self.forms[j]
        return IndexedValuation(den, tuple((i, self.values[k], n)
                                           for (i, (k, n)) in enumerate(pairs)))

    @property
    def members(self) -> tuple:
        """Every member, as ``member`` rebuilds it."""
        return tuple(self.member(j) for j in range(len(self.forms)))

    def __repr__(self):
        return "PSet{" + ", ".join("IVal[" + ", ".join(
            f"{self.values[k]!r}@{Fraction(n, den)}" for (k, n) in pairs) + "]"
            for (den, pairs) in self.forms) + "}"


def lift(*members: IndexedValuation) -> ProcessSet:
    """The set of ``members``, one form each, in order."""
    return ProcessSet(tuple(m.canonical() for m in members),
                      {value_key(v): v for m in members for (_, v, _) in m.terms})


def ret(v: Value) -> ProcessSet:
    """Unit: the singleton set containing ``ival.ret(v)``."""
    return ProcessSet(((1, ((value_key(v), 1),)),), {value_key(v): v})


def union(a: ProcessSet, b: ProcessSet) -> ProcessSet:
    """Nondeterministic choice: set union (concatenation of members)."""
    return union_all((a, b))


def union_all(sets) -> ProcessSet:
    (forms, values) = ((), {})
    for s in sets:
        forms += s.forms
        values.update(s.values)
    return ProcessSet(forms, values)


def pchoice(a: ProcessSet, p, b: ProcessSet) -> ProcessSet:
    """Pairwise probabilistic choice of members: the form of
    ``ival.pchoice(x, p, y)`` for each pair, mixed over the common
    denominator ``p.denominator * lcm(dx, dy)`` and reduced by the gcd."""
    p = as_rational(p)
    if not 0 <= p <= 1:
        raise ValueError(f"choice weight {p} outside [0, 1]")
    (pn, pd) = (p.numerator, p.denominator)
    forms = []
    for (dx, xs) in a.forms:
        for (dy, ys) in b.forms:
            l = lcm(dx, dy)
            (cx, cy) = (pn * (l // dx), (pd - pn) * (l // dy))
            pairs = [(k, cx * n) for (k, n) in xs if cx] + [(k, cy * n) for (k, n) in ys if cy]
            g = gcd(pd * l, *[n for (_, n) in pairs])
            forms.append((pd * l // g, tuple(sorted([(k, n // g) for (k, n) in pairs]))))
    return ProcessSet(tuple(forms), {**a.values, **b.values})


def bind(a: ProcessSet, f: Callable[[Value], ProcessSet]) -> ProcessSet:
    """Per-index selection bind, up to ``equiv`` of members: each distinct
    composite form once, in the order the fold first reaches it.

    A composite's form is the multiset union, over the pairs ``(k, n)`` of
    its source member's form, of the chosen continuation member's form
    scaled by ``n / den``; it depends only on the forms chosen.  So each
    member of ``a`` folds over its pairs a deduplicated dict of partial
    sorted multisets, merging every partial with every distinct form of
    ``f(v)``, and ``f`` is called once per value key.  The partials of one
    member are integer numerators over one denominator ``den``, a common
    multiple of every product it can meet, so they hash and compare as
    ints; dividing a finished partial and ``den`` by their gcd gives its
    form.  Dicts, never sets, keep the order independent of string hashing.
    """
    conts: dict = {}  # value_key -> the distinct forms of f(v)
    values: dict = {}
    out: dict = {}
    for (mden, pairs) in a.forms:
        picks = []  # (numerator, distinct forms of f(v)) per pair
        for (k, n) in pairs:
            if k not in conts:
                cont = f(a.values[k])
                conts[k] = tuple(dict.fromkeys(cont.forms))
                values.update(cont.values)
            picks.append((n, conts[k]))
        den = lcm(*[mden * d for (_, forms) in picks for (d, _) in forms])
        partials = {(): None}
        for (n, forms) in picks:
            scaled = []
            for (d, cpairs) in forms:
                c = n * (den // (mden * d))
                scaled.append(tuple([(w, c * q) for (w, q) in cpairs]))
            partials = dict.fromkeys(
                tuple(sorted(part + t)) for part in partials for t in scaled)
        # (g, id(pair)) -> the pair's numerator divided by g: the forms share
        # their pairs as the partials do, which keeps a large fold's memory
        # at that of the partials
        lowest: dict = {}
        for part in partials:
            g = gcd(den, *[q for (_, q) in part])
            form = []
            for pair in part:
                k = (g, id(pair))
                if k not in lowest:
                    lowest[k] = (pair[0], pair[1] // g)
                form.append(lowest[k])
            out[(den // g, tuple(form))] = None
    return ProcessSet(tuple(out), values)


def dedup(a: ProcessSet) -> ProcessSet:
    """Merge ``equiv``-equal members, keeping first occurrences."""
    return ProcessSet(tuple(dict.fromkeys(a.forms)), a.values)


def subset(a: ProcessSet, b: ProcessSet) -> bool:
    """Every member of ``a`` is ``equiv`` to some member of ``b``."""
    return set(a.forms) <= set(b.forms)


def equiv(a: ProcessSet, b: ProcessSet) -> bool:
    """Mutual ``subset``."""
    return set(a.forms) == set(b.forms)


def expectations(g: Callable, a: ProcessSet) -> list:
    """Each member's expected value of ``g``, a function of value keys."""
    return [ival.weighted_sum(den, [(n, g(k)) for (k, n) in pairs])
            for (den, pairs) in a.forms]


def ex_min(f: Callable[[Value], Fraction], a: ProcessSet) -> Fraction:
    """Minimal expected value of ``f`` over the members (attained: finite)."""
    return min(expectations(lambda k: f(a.values[k]), a))


def ex_max(f: Callable[[Value], Fraction], a: ProcessSet) -> Fraction:
    """Maximal expected value of ``f`` over the members."""
    return max(expectations(lambda k: f(a.values[k]), a))


def support_keys(a: ProcessSet) -> list:
    """The value keys of the union of member supports, sorted."""
    return sorted({k for (_, pairs) in a.forms for (k, _) in pairs})


def joint_support(a: ProcessSet) -> tuple:
    """Union of member supports, value-ordered."""
    return tuple([a.values[k] for k in support_keys(a)])


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
    both = union(a, b)
    keys = support_keys(both)
    coords = {k: d for (d, k) in enumerate(keys)}

    def dist(form: tuple) -> tuple:
        """The member's distribution as ``(den, numerators)`` in lowest
        terms, one numerator per coordinate: equal distributions, equal
        keys."""
        (den, pairs) = form
        nums = [0] * len(keys)
        for (k, n) in pairs:
            nums[coords[k]] += n
        g = gcd(den, *nums)
        return (den // g, tuple([n // g for n in nums]))

    generators = [dist(form) for form in b.forms]
    solved: dict = {}  # distribution -> its FeasibilityResult
    certs = []
    verdict = True
    for (i, form) in enumerate(a.forms):
        key = dist(form)
        if key not in solved:
            solved[key] = lp.convex_hull_membership(key, generators)
        res = solved[key]
        if res.feasible:
            certs.append(SubsetPCertificate(i, weights=res.solution))
        else:
            sep = [(both.values[keys[d]], res.certificate[d]) for d in range(len(keys))
                   if res.certificate[d] != 0]
            certs.append(SubsetPCertificate(i, separating=sep))
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
