"""Term-level nondeterministic probabilistic computations.

Explicit ``ProcessSet`` values are fine at law-suite scale, but the member
count of an n-fold ``bind`` grows like ``c ** (2 ** n)``: every adaptive
resolution of the nondeterminism is one member.  The bundled counter and
skip-list specifications need expectation extrema at depths where
materializing the set is hopeless, so computations are also represented as
terms (ret / union / pchoice / bind / literal set), and extrema are
computed by structural recursion:

* ``ex_min(f, ret v) = f(v)``
* ``ex_min(f, union)`` is the min over the parts,
* ``ex_min(f, pchoice(a, p, b)) = p * ex_min(f, a) + (1-p) * ex_min(f, b)``
* ``ex_min(f, bind(a, F)) = min over members m of a of
  sum over support indices i of m of prob(i) * ex_min(f, F(value(i)))``

The bind rule is exact for per-index selection semantics: a selection picks
one continuation member independently for every support index, expectation
is linear with nonnegative coefficients, so the inner optimum splits into
independent per-index optima.  ``materialize`` produces the explicit set,
whose binds are ``ndset.bind`` (one member per distinct composite), and the
test suite checks the two routes agree on random small terms.  The extrema
walk keeps its own stack, so a bind chain of any depth leaves the
interpreter's recursion limit alone; it only ever materializes *sources* of
binds, which the bundled models keep shallow.

Sharing matters: builders memoize their recursive calls so equal subterms
are the same object, and extrema memoize on object identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from ivalbench import ival, ndset
from ivalbench.ival import as_rational
from ivalbench.ndset import ProcessSet

Value = Any


class Comp:
    """Base class of computation terms."""


@dataclass(frozen=True)
class Ret(Comp):
    value: Value


@dataclass(frozen=True, eq=False)
class Union(Comp):
    parts: tuple


@dataclass(frozen=True, eq=False)
class PChoice(Comp):
    left: Comp
    p: Fraction
    right: Comp


@dataclass(frozen=True, eq=False)
class Bind(Comp):
    source: Comp
    cont: Callable[[Value], Comp]


@dataclass(frozen=True, eq=False)
class Lift(Comp):
    pset: ProcessSet


def ret(v: Value) -> Comp:
    return Ret(v)


def union(*parts: Comp) -> Comp:
    if not parts:
        raise ValueError("union of no alternatives")
    return Union(tuple(parts))


def pchoice(left: Comp, p, right: Comp) -> Comp:
    p = as_rational(p)
    if not 0 <= p <= 1:
        raise ValueError(f"choice weight {p} outside [0, 1]")
    return PChoice(left, p, right)


def bind(source: Comp, cont: Callable[[Value], Comp]) -> Comp:
    return Bind(source, cont)


def lift(pset: ProcessSet) -> Comp:
    return Lift(pset)


def materialize(c: Comp) -> ProcessSet:
    """Evaluate the term to an explicit ProcessSet."""
    match c:
        case Ret(value=v):
            return ndset.ret(v)
        case Union(parts=parts):
            return ndset.union_all(materialize(x) for x in parts)
        case PChoice(left=l, p=p, right=r):
            return ndset.pchoice(materialize(l), p, materialize(r))
        case Bind(source=s, cont=k):
            return ndset.bind(materialize(s), lambda v: materialize(k(v)))
        case Lift(pset=ps):
            return ps
    raise TypeError(f"not a computation term: {c!r}")


def _extremum(f, c: Comp, pick) -> Fraction:
    """Walk the term on an explicit stack, so any bind depth leaves the
    interpreter's recursion limit alone."""
    memo: dict = {}  # id(node) -> (node, value); the node pins its id

    def value(c: Comp):
        """The extremum at ``c``, as a generator: it yields each subterm it
        needs valued and is sent that subterm's value."""
        match c:
            case Ret(value=v):
                return as_rational(f(v))
            case Union(parts=parts):
                vals = []
                for x in parts:
                    vals.append((yield x))
                return pick(vals)
            case PChoice(left=l, p=p, right=r):
                lv = yield l
                rv = yield r
                return p * lv + (1 - p) * rv
            case Bind(source=s, cont=k):
                sub: dict = {}  # value_key -> extremum of k(v)
                totals = []
                for m in materialize(s).members:
                    total = Fraction(0)
                    for (_, v, p) in m.entries:
                        if p == 0:
                            continue
                        vk = ival.value_key(v)
                        if vk not in sub:
                            sub[vk] = yield k(v)
                        total += p * sub[vk]
                    totals.append(total)
                return pick(totals)
            case Lift(pset=ps):
                return pick(ival.expected_value(f, m) for m in ps.members)
        raise TypeError(f"not a computation term: {c!r}")

    stack = [(c, value(c))]
    sent = None
    while True:
        (node, gen) = stack[-1]
        try:
            child = gen.send(sent)
        except StopIteration as done:
            stack.pop()
            memo[id(node)] = (node, done.value)
            if not stack:
                return done.value
            sent = done.value
        else:
            hit = memo.get(id(child))
            if hit is None:
                stack.append((child, value(child)))
                sent = None
            else:
                sent = hit[1]


def ex_min(f: Callable[[Value], Fraction], c: Comp) -> Fraction:
    return _extremum(f, c, min)


def ex_max(f: Callable[[Value], Fraction], c: Comp) -> Fraction:
    return _extremum(f, c, max)


def extrema(f: Callable[[Value], Fraction], c: Comp):
    return ex_min(f, c), ex_max(f, c)
