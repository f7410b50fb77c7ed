"""Term-level nondeterministic probabilistic computations.

Explicit ``ProcessSet`` values are fine at law-suite scale, but the member
count of an n-fold ``bind`` grows like ``c ** (2 ** n)``: every adaptive
resolution of the nondeterminism is one member.  The bundled counter and
skip-list specifications need expectation extrema at depths where
materializing the set is hopeless, so computations are also terms:
ret / union / pchoice, and bind of an explicit ``ProcessSet`` ``S`` to a
map ``F`` from its support values to terms.  Extrema are computed by
structural recursion:

* ``ex_min(f, ret v) = f(v)``
* ``ex_min(f, union)`` is the min over the parts,
* ``ex_min(f, pchoice(a, p, b)) = p * ex_min(f, a) + (1-p) * ex_min(f, b)``
* ``ex_min(f, bind(S, F)) = min over members m of S of
  sum over support indices i of m of prob(i) * ex_min(f, F(value(i)))``

The bind rule is exact for per-index selection semantics: a selection picks
one continuation member independently for every support index, expectation
is linear with nonnegative coefficients, so the inner optimum splits into
independent per-index optima.  Every source is explicit, so the extrema
never materialize: a bind sums over its source's forms.  ``materialize``
produces the explicit set, each step of it up to ``equiv`` of members: a
bind is ``ndset.bind`` and a union or pchoice goes through ``ndset.dedup``,
so each distinct member form is kept once, first occurrence first.  The
test suite checks the two routes agree on random small terms.  Both walks
keep their own stack, so a bind chain of any depth leaves the recursion
limit alone.

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
    source: ProcessSet
    cont: Callable[[Value], Comp]


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


def bind(source: ProcessSet, cont: Callable[[Value], Comp]) -> Comp:
    if not isinstance(source, ProcessSet):
        raise TypeError(f"a bind's source is a ProcessSet, not a {type(source).__name__}")
    return Bind(source, cont)


def _walk(c: Comp, evaluate):
    """Value the term ``c`` on an explicit stack, so any bind depth leaves
    the interpreter's recursion limit alone.

    ``evaluate(node)`` is a generator: it yields each subterm it needs
    valued, is sent that subterm's value, and returns the node's value.
    Each node is valued once per walk."""
    memo: dict = {}  # id(node) -> (node, value); the node pins its id
    stack = [(c, evaluate(c))]
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
                stack.append((child, evaluate(child)))
                sent = None
            else:
                sent = hit[1]


def _materialized(c: Comp):
    match c:
        case Ret(value=v):
            return ndset.ret(v)
        case Union(parts=parts):
            sets = []
            for x in parts:
                sets.append((yield x))
            return ndset.dedup(ndset.union_all(sets))
        case PChoice(left=l, p=p, right=r):
            ls = yield l
            rs = yield r
            return ndset.dedup(ndset.pchoice(ls, p, rs))
        case Bind(source=src, cont=k):
            table = {}  # value_key -> materialized k(v)
            for v in ndset.joint_support(src):
                table[ival.value_key(v)] = yield k(v)
            return ndset.bind(src, lambda v: table[ival.value_key(v)])
    raise TypeError(f"not a computation term: {c!r}")


def materialize(c: Comp) -> ProcessSet:
    """Evaluate the term to an explicit ProcessSet, on an explicit stack: a
    bind's continuation at each support value of its source."""
    return _walk(c, _materialized)


def _extremum(f, c: Comp, pick) -> Fraction:
    def value(c: Comp):
        """The extremum at ``c``."""
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
            case Bind(source=src, cont=k):
                sub = {}  # value_key -> extremum of k(v)
                for key in ndset.support_keys(src):
                    sub[key] = yield k(src.values[key])
                return pick(ndset.expectations(sub.__getitem__, src))
        raise TypeError(f"not a computation term: {c!r}")

    return _walk(c, value)


def ex_min(f: Callable[[Value], Fraction], c: Comp) -> Fraction:
    return _extremum(f, c, min)


def ex_max(f: Callable[[Value], Fraction], c: Comp) -> Fraction:
    return _extremum(f, c, max)


def extrema(f: Callable[[Value], Fraction], c: Comp):
    return ex_min(f, c), ex_max(f, c)
