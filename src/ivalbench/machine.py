"""Small-step operational semantics: threads, heaps, configurations.

Per-thread reduction is deterministic except for ``flip``, which yields a
two-entry valuation (true with n1/n2, false with the remainder; entries
with probability zero are kept).  The leftmost redex under the
call-by-value evaluation-context discipline is reduced; an irreducible
non-value makes the thread *stuck right now* -- stuckness is re-evaluated
against the current heap on every scheduling, which is what lets ``wait``
block and later resume.

A configuration is a nonempty thread pool plus a heap; stepping thread
``i`` replaces its expression, applies the heap effect, and appends any
forked expression to the pool.  Scheduling a value, a stuck thread, or an
out-of-range index is a stutter: the configuration repeats with
probability one.  A configuration has terminated when the first thread is
a value; nothing can change that thread afterwards, so termination is
absorbing.

A scheduler is a Markov policy ``choose(step, config) -> thread index``.
``trace_step_ival_n`` is the monadic n-step semantics under one: a chain
of binds over ``config_step``.  ``sample_run`` is the path for Monte-Carlo
work: it follows a single run, sampling flip outcomes exactly, over a
``TransitionTable`` that the runs of one sampling call build and share.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Optional

from ivalbench import ival, lang
from ivalbench.ival import IndexedValuation
from ivalbench.lang import (
    Alloc, App, Cas, Expr, Faa, Flip, Fork, If, Let, Lit, Load, Pair, Prim,
    Rec, Store, Val, Var, VBool, VClosure, VInt, VLoc, VPair, Wait,
    is_value, of_val, subst, to_val,
)


# ---------------------------------------------------------------------------
# states, configurations


@dataclass(frozen=True, slots=True)
class State:
    heap: tuple = ()  # sorted (loc, Val) pairs
    next_loc: int = 0

    def __post_init__(self):
        locs = [l for (l, _) in self.heap]
        if locs != sorted(set(locs)):
            raise ValueError("heap must be sorted with distinct locations")
        if locs and locs[-1] >= self.next_loc:
            raise ValueError("allocation counter must exceed every location")

    def lookup(self, loc: int) -> Optional[Val]:
        for (l, v) in self.heap:
            if l == loc:
                return v
        return None

    def store(self, loc: int, val: Val) -> "State":
        cells = tuple((l, val if l == loc else v) for (l, v) in self.heap)
        return State(cells, self.next_loc)

    def alloc(self, val: Val):
        loc = self.next_loc
        return State(self.heap + ((loc, val),), loc + 1), loc


@dataclass(frozen=True, slots=True)
class Config:
    threads: tuple
    state: State

    def __post_init__(self):
        if not self.threads:
            raise ValueError("thread pool must be nonempty")


def initial_config(exprs, heap=(), next_loc: Optional[int] = None) -> Config:
    cells = tuple(sorted(heap))
    if next_loc is None:
        next_loc = max((l for (l, _) in cells), default=-1) + 1
    return Config(tuple(exprs), State(cells, next_loc))


# ---------------------------------------------------------------------------
# per-thread reduction


def val_eq(a: Val, b: Val) -> Optional[bool]:
    """Structural equality on closure-free values; None when undecidable."""
    if isinstance(a, VClosure) or isinstance(b, VClosure):
        return None
    if type(a) is not type(b):
        return False
    if isinstance(a, VPair):
        left = val_eq(a.fst, b.fst)
        if left is None:
            return None
        if not left:
            return False
        return val_eq(a.snd, b.snd)
    return a == b


_ONE = Fraction(1)
_TRUE_LIT = Lit(lang.TRUE)
_FALSE_LIT = Lit(lang.FALSE)


def outcomes(e: Expr, s: State):
    """Step outcomes of one thread: ``None`` if ``e`` is a value or is
    stuck in ``s``, else a list of (prob, expr, state, spawned)."""
    t = type(e)
    if t is Lit or t is Rec or t is Var:
        return None  # a value, or an open term with no rule

    def wrap(res, rebuild):
        if res is None:
            return None
        return [(p, rebuild(e2), s2, sp) for (p, e2, s2, sp) in res]

    if t is Pair:
        a, b = e.fst, e.snd
        if not is_value(a):
            return wrap(outcomes(a, s), lambda a2: Pair(a2, b))
        if not is_value(b):
            return wrap(outcomes(b, s), lambda b2: Pair(a, b2))
        return None  # a pair of values is itself a value
    if t is App:
        f, a = e.fn, e.arg
        if not is_value(f):
            return wrap(outcomes(f, s), lambda f2: App(f2, a))
        if not is_value(a):
            return wrap(outcomes(a, s), lambda a2: App(f, a2))
        if type(f) is Rec:
            body = subst(f.body, f.fname, f)
            return [(_ONE, subst(body, f.xname, a), s, ())]
        return None
    if t is Let:
        b = e.bound
        if not is_value(b):
            x, body = e.name, e.body
            return wrap(outcomes(b, s), lambda b2: Let(x, b2, body))
        return [(_ONE, subst(e.body, e.name, b), s, ())]
    if t is If:
        c = e.cond
        if not is_value(c):
            tt, ff = e.then, e.els
            return wrap(outcomes(c, s), lambda c2: If(c2, tt, ff))
        cv = to_val(c)
        if isinstance(cv, VBool):
            return [(_ONE, e.then if cv.b else e.els, s, ())]
        return None
    if t is Flip:
        a, b = e.num, e.den
        if not is_value(a):
            return wrap(outcomes(a, s), lambda a2: Flip(a2, b))
        if not is_value(b):
            return wrap(outcomes(b, s), lambda b2: Flip(a, b2))
        av, bv = to_val(a), to_val(b)
        if not (isinstance(av, VInt) and isinstance(bv, VInt)) or bv.n == 0:
            return None
        p = Fraction(av.n, bv.n)
        if not 0 <= p <= 1:
            return None  # side condition fails: no transition
        return [(p, _TRUE_LIT, s, ()), (1 - p, _FALSE_LIT, s, ())]
    if t is Fork:
        return [(_ONE, lang.unit, s, (e.body,))]
    if t is Alloc:
        a = e.init
        if not is_value(a):
            return wrap(outcomes(a, s), Alloc)
        s2, loc = s.alloc(to_val(a))
        return [(_ONE, Lit(VLoc(loc)), s2, ())]
    if t is Load:
        r = e.ref
        if not is_value(r):
            return wrap(outcomes(r, s), Load)
        rv = to_val(r)
        if not isinstance(rv, VLoc):
            return None
        cur = s.lookup(rv.loc)
        return None if cur is None else [(_ONE, of_val(cur), s, ())]
    if t is Store:
        r, v = e.ref, e.value
        if not is_value(r):
            return wrap(outcomes(r, s), lambda r2: Store(r2, v))
        if not is_value(v):
            return wrap(outcomes(v, s), lambda v2: Store(r, v2))
        rv = to_val(r)
        if not isinstance(rv, VLoc) or s.lookup(rv.loc) is None:
            return None
        return [(_ONE, lang.unit, s.store(rv.loc, to_val(v)), ())]
    if t is Faa:
        r, d = e.ref, e.delta
        if not is_value(r):
            return wrap(outcomes(r, s), lambda r2: Faa(r2, d))
        if not is_value(d):
            return wrap(outcomes(d, s), lambda d2: Faa(r, d2))
        rv, dv = to_val(r), to_val(d)
        if not (isinstance(rv, VLoc) and isinstance(dv, VInt)):
            return None
        cur = s.lookup(rv.loc)
        if not isinstance(cur, VInt):
            return None
        return [(_ONE, Lit(cur), s.store(rv.loc, VInt(cur.n + dv.n)), ())]
    if t is Cas:
        r, x, n = e.ref, e.expected, e.new
        if not is_value(r):
            return wrap(outcomes(r, s), lambda r2: Cas(r2, x, n))
        if not is_value(x):
            return wrap(outcomes(x, s), lambda x2: Cas(r, x2, n))
        if not is_value(n):
            return wrap(outcomes(n, s), lambda n2: Cas(r, x, n2))
        rv = to_val(r)
        if not isinstance(rv, VLoc):
            return None
        cur = s.lookup(rv.loc)
        if cur is None:
            return None
        eq = val_eq(cur, to_val(x))
        if eq is None:
            return None
        if eq:
            return [(_ONE, _TRUE_LIT, s.store(rv.loc, to_val(n)), ())]
        return [(_ONE, _FALSE_LIT, s, ())]
    if t is Wait:
        r, v = e.ref, e.value
        if not is_value(r):
            return wrap(outcomes(r, s), lambda r2: Wait(r2, v))
        if not is_value(v):
            return wrap(outcomes(v, s), lambda v2: Wait(r, v2))
        rv = to_val(r)
        if not isinstance(rv, VLoc):
            return None
        cur = s.lookup(rv.loc)
        if cur is None or val_eq(cur, to_val(v)) is not True:
            return None  # blocked until the cell holds the value
        return [(_ONE, lang.unit, s, ())]
    if t is Prim:
        op, args = e.op, e.args
        for (k, a) in enumerate(args):
            if not is_value(a):
                def rebuild(a2, k=k):
                    return Prim(op, args[:k] + (a2,) + args[k + 1:])
                return wrap(outcomes(a, s), rebuild)
        res = apply_prim(op, tuple(to_val(a) for a in args))
        return None if res is None else [(_ONE, of_val(res), s, ())]
    raise TypeError(f"not an expression: {e!r}")


def apply_prim(op: str, vals: tuple) -> Optional[Val]:
    match op, vals:
        case ("min", (VInt(n=a), VInt(n=b))):
            return VInt(min(a, b))
        case ("+", (VInt(n=a), VInt(n=b))):
            return VInt(a + b)
        case ("-", (VInt(n=a), VInt(n=b))):
            return VInt(a - b)
        case ("*", (VInt(n=a), VInt(n=b))):
            return VInt(a * b)
        case ("pow", (VInt(n=a), VInt(n=b))):
            return _pow(a, b)
        case ("mod", (VInt(n=a), VInt(n=b))):
            return VInt(a % b) if b != 0 else None
        case ("=", (a, b)):
            eq = val_eq(a, b)
            return None if eq is None else VBool(eq)
        case ("<", (VInt(n=a), VInt(n=b))):
            return VBool(a < b)
        case ("<=", (VInt(n=a), VInt(n=b))):
            return VBool(a <= b)
        case ("not", (VBool(b=a),)):
            return VBool(not a)
        case ("and", (VBool(b=a), VBool(b=b))):
            return VBool(a and b)
        case ("or", (VBool(b=a), VBool(b=b))):
            return VBool(a or b)
        case ("fst", (VPair(fst=a),)):
            return a
        case ("snd", (VPair(snd=b),)):
            return b
    return None


# ``pow`` is stuck when its result would need more bits than this, as it is
# on a negative exponent: the side condition keeps one step from running
# out of time or memory.
POW_MAX_BITS = 1 << 16


def _pow(a: int, b: int) -> Optional[VInt]:
    if b < 0:
        return None
    # |a| ** b needs at least b * (bit_length(|a|) - 1) + 1 bits
    if abs(a) > 1 and b * (abs(a).bit_length() - 1) >= POW_MAX_BITS:
        return None
    n = a ** b
    return VInt(n) if n.bit_length() <= POW_MAX_BITS else None


def thread_step(e: Expr, s: State) -> IndexedValuation:
    """Per-thread reduction as a valuation over optional step results.

    Values and stuck expressions yield the single ``None`` marker entry.
    """
    res = outcomes(e, s)
    if res is None:
        return ival.ret(None)
    return IndexedValuation(tuple(
        (k, (e2, s2, sp), p) for (k, (p, e2, s2, sp)) in enumerate(res)))


def config_step(c: Config, i: int) -> IndexedValuation:
    """Step thread ``i``; stutter (same configuration, probability one)
    when the index is out of range or the thread cannot reduce."""
    if not 0 <= i < len(c.threads):
        return ival.ret(c)
    res = outcomes(c.threads[i], c.state)
    if res is None:
        return ival.ret(c)
    return IndexedValuation(tuple(
        (k, successor(c, i, e2, s2, spawned), p)
        for (k, (p, e2, s2, spawned)) in enumerate(res)))


def successor(c: Config, i: int, e2: Expr, s2: State, spawned) -> Config:
    """``c`` after thread ``i`` stepped to ``e2`` in ``s2``, forking
    ``spawned``."""
    return Config(c.threads[:i] + (e2,) + c.threads[i + 1:] + tuple(spawned), s2)


# ---------------------------------------------------------------------------
# runs under a scheduler


def trace_step_ival_n(choose: Callable[[int, Config], int], c: Config,
                      n: int) -> IndexedValuation:
    """The configurations after ``n`` scheduler-driven steps from ``c``,
    the reference semantics that the analyses are checked against.

    Computed iteratively (one bind of ``config_step`` per step); this
    matches the recursive bind-chain definition up to index relabelling by
    monad associativity.
    """
    cur = ival.ret(c)
    for step in range(n):
        cur = ival.bind(cur, lambda c2, step=step: config_step(c2, choose(step, c2)))
    return cur


def is_terminated(c: Config) -> bool:
    return is_value(c.threads[0])


# ---------------------------------------------------------------------------
# sampling (Monte-Carlo)


class TransitionTable:
    """The steps that sampled runs took, built lazily.  Node ``n`` is the
    ``n``-th configuration reached; ``rows[n]`` maps each thread stepped
    from it to its row: the successor node of a step with one outcome
    (``n`` itself for a stutter), else (successor nodes, common
    denominator, cumulative numerators).  A row is derived once from
    ``outcomes``, and each successor configuration is hashed once to find
    its node; every later step through the row is an int-keyed dict probe.
    Rows name nodes by number, so the table holds no reference cycle and
    is freed as soon as its last user drops it.  Memory grows with the
    distinct configurations the runs visit."""

    def __init__(self):
        self.ids: dict = {}  # Config -> node
        self.configs: list = []  # node -> Config
        self.terminated: list = []  # node -> is_terminated(its Config)
        self.rows: list = []  # node -> {thread index: row}

    def node(self, c: Config) -> int:
        n = self.ids.setdefault(c, len(self.configs))  # terms hash by identity
        if n == len(self.configs):
            self.configs.append(c)
            self.terminated.append(is_terminated(c))
            self.rows.append({})
        return n

    def row(self, n: int, i: int):
        c = self.configs[n]
        res = outcomes(c.threads[i], c.state) if 0 <= i < len(c.threads) else None
        if res is None:
            row = n
        else:
            succs = tuple(self.node(successor(c, i, e2, s2, spawned))
                          for (_, e2, s2, spawned) in res)
            if len(succs) == 1:
                row = succs[0]
            else:
                den = math.lcm(*(p.denominator for (p, _, _, _) in res))
                cums = accumulate(p.numerator * (den // p.denominator) for (p, _, _, _) in res)
                row = (succs, den, tuple(cums))
        self.rows[n][i] = row
        return row


UNIT_BITS = 53  # ``random.random()`` is k / 2**53 for an integer k


def pick_outcome(den: int, cums: tuple, rng: random.Random) -> int:
    """The first outcome ``j`` whose cumulative threshold ``cums[j]/den``
    bounds the whole cell ``[r, r+1) / scale`` of the uniform draw, in
    integers only.  ``r / 2**53`` is ``rng.random()``; while a threshold
    falls strictly inside the cell, 53 more bits refine it, so every
    rational is sampled exactly (Knuth & Yao 1976).  A dyadic threshold
    with denominator at most ``2**53`` never falls inside a cell, so such a
    choice draws nothing beyond the one ``random()``."""
    scale = 1 << UNIT_BITS
    r = int(rng.random() * scale)
    j = 0
    while True:
        t = cums[j] * scale
        if (r + 1) * den <= t:
            return j
        if r * den < t:
            r = (r << UNIT_BITS) | rng.getrandbits(UNIT_BITS)
            scale <<= UNIT_BITS
        else:
            j += 1


def sample_run(table: TransitionTable, start: int,
               choose: Callable[[int, Config], int], budget: int,
               rng: random.Random) -> int:
    """Follow one sampled run from node ``start`` until termination or
    budget exhaustion, extending ``table`` with the rows it steps through;
    returns the last node."""
    configs, terminated, rows = table.configs, table.terminated, table.rows
    n = start
    for step in range(budget):
        if terminated[n]:
            return n
        i = choose(step, configs[n])
        row = rows[n].get(i)
        if row is None:
            row = table.row(n, i)
        n = row if type(row) is int else row[0][pick_outcome(row[1], row[2], rng)]
    return n


# ---------------------------------------------------------------------------
# evaluation-context decompositions (for the uniqueness invariant and the
# thread-locality test of the exact analysis)


def is_redex(e: Expr) -> bool:
    """Structurally ready to attempt a top-level reduction (possibly stuck)."""
    match e:
        case Fork():
            return True
        case App(fn=f, arg=a) | Store(ref=f, value=a) | Faa(ref=f, delta=a) \
                | Wait(ref=f, value=a) | Flip(num=f, den=a):
            return is_value(f) and is_value(a)
        case Let(bound=b) | If(cond=b) | Alloc(init=b) | Load(ref=b):
            return is_value(b)
        case Cas(ref=r, expected=x, new=n):
            return is_value(r) and is_value(x) and is_value(n)
        case Prim(args=args):
            return all(is_value(a) for a in args)
    return False


def decompositions(e: Expr) -> list:
    """All (path, redex) splits of ``e`` along the evaluation-context
    grammar.  The semantics is deterministic exactly because closed
    non-value expressions admit exactly one."""
    out = []

    def walk(e: Expr, path: tuple):
        if is_redex(e):
            out.append((path, e))
            return  # a redex is never transparent to further context search
        match e:
            case Pair(fst=a, snd=b):
                if not is_value(a):
                    walk(a, path + ("pair-l",))
                elif not is_value(b):
                    walk(b, path + ("pair-r",))
            case App(fn=f, arg=a):
                if not is_value(f):
                    walk(f, path + ("app-l",))
                elif not is_value(a):
                    walk(a, path + ("app-r",))
            case Let(bound=b):
                if not is_value(b):
                    walk(b, path + ("let",))
            case If(cond=c):
                if not is_value(c):
                    walk(c, path + ("if",))
            case Flip(num=a, den=b):
                if not is_value(a):
                    walk(a, path + ("flip-l",))
                elif not is_value(b):
                    walk(b, path + ("flip-r",))
            case Alloc(init=a):
                if not is_value(a):
                    walk(a, path + ("alloc",))
            case Load(ref=a):
                if not is_value(a):
                    walk(a, path + ("load",))
            case Store(ref=a, value=b):
                if not is_value(a):
                    walk(a, path + ("store-l",))
                elif not is_value(b):
                    walk(b, path + ("store-r",))
            case Faa(ref=a, delta=b):
                if not is_value(a):
                    walk(a, path + ("faa-l",))
                elif not is_value(b):
                    walk(b, path + ("faa-r",))
            case Cas(ref=a, expected=b, new=c):
                if not is_value(a):
                    walk(a, path + ("cas-1",))
                elif not is_value(b):
                    walk(b, path + ("cas-2",))
                elif not is_value(c):
                    walk(c, path + ("cas-3",))
            case Wait(ref=a, value=b):
                if not is_value(a):
                    walk(a, path + ("wait-l",))
                elif not is_value(b):
                    walk(b, path + ("wait-r",))
            case Prim(args=args):
                for (k, a) in enumerate(args):
                    if not is_value(a):
                        walk(a, path + (f"prim-{k}",))
                        break

    walk(e, ())
    return out


# Redexes whose step reads and writes no heap cell, forks nothing and, when
# stuck, is stuck for good (its side condition looks only at the redex).
LOCAL_REDEXES = (App, Let, If, Prim)


def next_redex_is_local(e: Expr) -> bool:
    """Is the redex the next step of ``e`` reduces a beta, ``let``, ``if``
    or primitive redex?  Such a step commutes with every step of every other
    thread.  False for values and open terms, which have no redex."""
    splits = decompositions(e)
    return bool(splits) and type(splits[0][1]) in LOCAL_REDEXES
