"""Small-step operational semantics: threads, heaps, configurations.

Per-thread reduction is deterministic except for ``flip``, which yields a
two-entry valuation (true with n1/n2, false with the remainder; entries
with probability zero are kept).  The leftmost redex under the
call-by-value evaluation-context discipline is reduced; an irreducible
non-value makes the thread *stuck right now* -- stuckness is re-evaluated
against the current heap on every scheduling, which is what lets ``wait``
block and later resume.

A thread is a zipper (Huet, "The Zipper", JFP 1997): a ``Thread`` pairs
an evaluation context ``Ctx``, a cons list of frames, with the focus in
its hole.  A frame is a node with the one marker ``HOLE`` at the
evaluation position it was entered by.  ``refocus`` walks down the
evaluation positions that ``lang.FORMS`` lists, always into the first one
that is not a value, pushing a frame, and fills the innermost hole with a
value, popping it; it stops at the next redex.  An expression decomposes
in exactly one way, so a thread and its expression are in bijection, and
threads and frames are hash-consed like terms (``lang``): identity,
hashing and memo keys stay O(1).  ``RULES`` holds one rule per redex
constructor, which gives the redex's outcomes in the current heap; a step
refocuses each contractum from the hole (Danvy & Nielsen, "Refocusing in
reduction semantics", 2004), so it builds O(redex + frames popped and
pushed) nodes however deep the context, and the rest of the context is
shared.  ``plug`` rebuilds the expression, to print it; a context prints
as its expression with ``[]`` in the hole.  The walks are loops, so a
deep context needs no recursion.

A heap is a ``State``, hash-consed like a term: the tuple of its cells,
indexed by location.  A configuration is a nonempty thread pool plus a
heap, whose generated ``==`` and ``hash`` cost one identity hash per
thread and one for the heap; every engine keys dicts on configurations.
Stepping thread ``i`` replaces it, applies the heap effect, and appends
any forked thread to the pool.  ``successors`` is that step.  Scheduling
a value, a stuck thread, or an out-of-range index is a stutter: the
configuration repeats with probability one.  ``config_step`` adds that
rule to ``successors``, and every engine that follows a scheduler steps
through it.  A configuration has terminated when the first thread's
focus is a value; nothing can change that thread afterwards, so
termination is absorbing.

A scheduler is a Markov policy ``choose(step, config) -> thread index``.
``trace_step_ival_n`` is the monadic n-step semantics under one: a chain
of binds over ``config_step``, the one place where a step becomes an
``IndexedValuation``.  ``sample_run`` is the path for Monte-Carlo
work: it follows a single run over configurations, sampling flip outcomes
exactly.  A run can differ from another only where it draws, so the runs
of one sampling call share a memo of the deterministic segments between
draws, keyed by the configuration and step where each starts: a segment
walked once is replayed by one dict probe.  They also share the step memo
of ``successors``, so a segment's first walk steps a thread once per heap;
that memo is cleared when it outgrows ``STEP_MEMO_CAP``, so a call that
reaches many runs holds a bounded number of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Optional

from ivalbench import ival, lang
from ivalbench.ival import IndexedValuation
from ivalbench.lang import (
    FORMS, Alloc, App, Cas, Expr, Faa, Flip, Fork, If, Let, Lit, Load, Prim,
    Rec, Store, Val, Var, VBool, VClosure, VInt, VLoc, VPair, Wait, _Node, _node,
    of_val, subst, to_val,
)


# ---------------------------------------------------------------------------
# states, configurations


@_node
class State(_Node):
    """A heap: ``cells[loc]`` is the value at location ``loc``.  Cells are
    allocated and never freed, so the locations in use are always ``0 ..
    len(cells) - 1``, and every tuple of values is a heap."""

    cells: tuple

    def lookup(self, loc: int) -> Optional[Val]:
        """The value at ``loc``, or None when no cell is there."""
        cells = self.cells
        return cells[loc] if 0 <= loc < len(cells) else None

    def store(self, loc: int, val: Val) -> "State":
        cells = self.cells
        return State(cells[:loc] + (val,) + cells[loc + 1:])

    def alloc(self, val: Val):
        return State(self.cells + (val,)), len(self.cells)


@dataclass(frozen=True, slots=True)
class Config:
    threads: tuple
    state: State


def initial_config(exprs, cells=()) -> Config:
    """The pool of threads ``exprs`` over the heap whose value at location
    ``loc`` is ``cells[loc]``; allocation continues above the last cell."""
    threads = tuple(refocus(None, e) for e in exprs)
    if not threads:
        raise ValueError("thread pool must be nonempty")
    return Config(threads, State(tuple(cells)))


# ---------------------------------------------------------------------------
# per-thread reduction


def val_eq(a: Val, b: Val) -> Optional[bool]:
    """Structural equality on closure-free values; None when undecidable.
    Pairs are compared left to right, ``fst`` before ``snd``, and the
    first closure or mismatch met decides.  Walked on an explicit stack,
    so a pair nested any depth deep needs no recursion."""
    stack = [(a, b)]
    while stack:
        (a, b) = stack.pop()
        if isinstance(a, VClosure) or isinstance(b, VClosure):
            return None
        if type(a) is not type(b):
            return False
        if isinstance(a, VPair):
            stack.append((a.snd, b.snd))
            stack.append((a.fst, b.fst))
        elif a != b:
            return False
    return True


_ONE = Fraction(1)
_TRUE_LIT = Lit(lang.TRUE)
_FALSE_LIT = Lit(lang.FALSE)


@_node
class Ctx(_Node):
    """An evaluation context, as the cons list of its frames, innermost
    first: ``frame`` is a node with ``HOLE`` at its ``k``-th evaluation
    position, whose earlier evaluation positions are values, and ``up``
    is the context around it (None at the root)."""

    frame: Expr
    k: int
    up: Optional["Ctx"]

    def __repr__(self):
        # the context's expression with ``[]`` in its hole
        return lang.unparse(plug(Thread(self, HOLE)))


@_node
class Thread(_Node):
    """A thread as a zipper: the context ``ctx`` (None when empty) with
    ``focus`` in its hole.  The focus is the next redex (its type is in
    ``RULES``), or a variable where the next redex would be (an open term,
    which no rule reduces), or a value, the last only when the context is
    empty."""

    ctx: Optional[Ctx]
    focus: Expr

    def __repr__(self):
        # the thread's expression, printed by loops: the generated repr
        # would recurse once per frame of the context
        return lang.unparse(plug(self))


HOLE = Var("[]")  # the hole of every frame: not a value, like what it stands for


def _fill(ctx: Ctx, e: Expr) -> Expr:
    """The innermost frame of ``ctx`` with ``e`` in its hole."""
    (frame, k) = (ctx.frame, ctx.k)
    form = FORMS[type(frame)]
    kids = form.kids(frame)
    return form.make(frame, kids[:k] + (e,) + kids[k + 1:])


def refocus(ctx: Optional[Ctx], e: Expr) -> Thread:
    """The thread with ``e`` in the hole of ``ctx``: ``plug`` of the result
    is ``e`` plugged into ``ctx``.

    A non-value is descended into, through its first evaluation position
    that is not a value, and becomes a frame with the hole there.  A value
    fills the hole of the innermost frame, which is popped; the filled node
    is walked on, so a node whose later evaluation positions are values
    becomes the focus, and one with a later non-value position is
    descended into again.  After a rule fires, refocusing the contractum
    from the hole finds the next redex without plugging from the root
    (Danvy & Nielsen 2004).  Iterative, so context depth is not bounded
    by the recursion limit."""
    while True:
        if e.is_val:
            if ctx is None:
                return Thread(None, e)
            (e, ctx) = (_fill(ctx, e), ctx.up)
            continue
        form = FORMS[type(e)]
        for (k, c) in enumerate(form.evaluated(e)):
            if not c.is_val:
                kids = form.kids(e)
                (ctx, e) = (Ctx(form.make(e, kids[:k] + (HOLE,) + kids[k + 1:]), k, ctx), c)
                break
        else:
            return Thread(ctx, e)


def plug(t: Thread) -> Expr:
    """The expression of thread ``t``, for printing."""
    (ctx, e) = (t.ctx, t.focus)
    while ctx is not None:
        (e, ctx) = (_fill(ctx, e), ctx.up)
    return e


def outcomes(t: Thread, s: State):
    """Step outcomes of thread ``t``: ``None`` if it is a value or is
    stuck in ``s``, else a list of (prob, thread, state, spawned threads).
    Each contractum is refocused from the hole, and each forked body from
    the empty context."""
    rule = RULES.get(type(t.focus))
    res = None if rule is None else rule(t.focus, s)
    if res is None:
        return None
    return [(p, refocus(t.ctx, r), s2, tuple(refocus(None, b) for b in sp) if sp else ())
            for (p, r, s2, sp) in res]


# ---------------------------------------------------------------------------
# redex rules: one per redex constructor, applied to a node whose evaluation
# positions are values; ``None`` when a side condition fails in ``s``


def _app(e: App, s: State):
    f = e.fn
    if type(f) is not Rec:
        return None
    body = subst(f.body, f.fname, f)
    return [(_ONE, subst(body, f.xname, e.arg), s, ())]


def _let(e: Let, s: State):
    return [(_ONE, subst(e.body, e.name, e.bound), s, ())]


def _if(e: If, s: State):
    cv = to_val(e.cond)
    if isinstance(cv, VBool):
        return [(_ONE, e.then if cv.b else e.els, s, ())]
    return None


def _flip(e: Flip, s: State):
    av, bv = to_val(e.num), to_val(e.den)
    if not (isinstance(av, VInt) and isinstance(bv, VInt)) or bv.n == 0:
        return None
    p = Fraction(av.n, bv.n)
    if not 0 <= p <= 1:
        return None  # side condition fails: no transition
    return [(p, _TRUE_LIT, s, ()), (1 - p, _FALSE_LIT, s, ())]


def _fork(e: Fork, s: State):
    return [(_ONE, lang.unit, s, (e.body,))]


def _alloc(e: Alloc, s: State):
    s2, loc = s.alloc(to_val(e.init))
    return [(_ONE, Lit(VLoc(loc)), s2, ())]


def _cell(ref: Expr, s: State):
    """``(loc, content)`` of the cell that ``ref`` names in ``s``; None
    when ``ref`` is not a location or its cell is not allocated."""
    rv = to_val(ref)
    if not isinstance(rv, VLoc):
        return None
    cur = s.lookup(rv.loc)
    return None if cur is None else (rv.loc, cur)


def _load(e: Load, s: State):
    cell = _cell(e.ref, s)
    return None if cell is None else [(_ONE, of_val(cell[1]), s, ())]


def _store(e: Store, s: State):
    cell = _cell(e.ref, s)
    return None if cell is None else [(_ONE, lang.unit, s.store(cell[0], to_val(e.value)), ())]


def _faa(e: Faa, s: State):
    cell = _cell(e.ref, s)
    dv = to_val(e.delta)
    if cell is None or not (isinstance(cell[1], VInt) and isinstance(dv, VInt)):
        return None
    (loc, cur) = cell
    return [(_ONE, Lit(cur), s.store(loc, VInt(cur.n + dv.n)), ())]


def _cas(e: Cas, s: State):
    cell = _cell(e.ref, s)
    eq = None if cell is None else val_eq(cell[1], to_val(e.expected))
    if eq is None:
        return None
    if eq:
        return [(_ONE, _TRUE_LIT, s.store(cell[0], to_val(e.new)), ())]
    return [(_ONE, _FALSE_LIT, s, ())]


def _wait(e: Wait, s: State):
    cell = _cell(e.ref, s)
    if cell is None or val_eq(cell[1], to_val(e.value)) is not True:
        return None  # blocked until the cell holds the value
    return [(_ONE, lang.unit, s, ())]


def _prim(e: Prim, s: State):
    res = apply_prim(e.op, tuple(to_val(a) for a in e.args))
    return None if res is None else [(_ONE, of_val(res), s, ())]


RULES = {App: _app, Let: _let, If: _if, Flip: _flip, Fork: _fork, Alloc: _alloc,
         Load: _load, Store: _store, Faa: _faa, Cas: _cas, Wait: _wait, Prim: _prim}


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


def successors(c: Config, i: int, memo: dict):
    """The (prob, configuration) pairs of thread ``i``'s step from ``c``,
    one per outcome of its redex, or ``None`` when ``i`` names no thread or
    the thread is a value or stuck.

    A thread's outcomes depend only on the thread and the heap, so the
    caller's ``memo``, (thread, state) -> outcomes (``()`` for a value or
    a stuck thread), lets it step a thread that recurs in many
    configurations once; this call reads and extends it.  A caller that
    shares nothing passes ``{}``."""
    if not 0 <= i < len(c.threads):
        return None
    key = (c.threads[i], c.state)
    res = memo.get(key)
    if res is None:
        res = memo[key] = outcomes(*key) or ()
    if not res:
        return None
    (head, tail) = (c.threads[:i], c.threads[i + 1:])
    return [(p, Config(head + (e2,) + tail + tuple(spawned), s2))
            for (p, e2, s2, spawned) in res]


def config_step(c: Config, i: int, memo: dict):
    """The (prob, configuration) pairs of scheduling thread ``i`` in ``c``:
    its ``successors`` over the step memo ``memo``, or a stutter, ``c``
    again with probability one, when ``i`` names no thread or the thread
    is a value or stuck.  The one statement of the stutter rule."""
    return successors(c, i, memo) or ((_ONE, c),)


# ---------------------------------------------------------------------------
# runs under a scheduler


def trace_step_ival_n(choose: Callable[[int, Config], int], c: Config,
                      n: int) -> IndexedValuation:
    """The configurations after ``n`` scheduler-driven steps from ``c``,
    the reference semantics that the analyses are checked against.

    Computed iteratively (one bind of ``config_step`` per step, its pairs
    indexed by position); this matches the recursive bind-chain
    definition up to index relabelling by monad associativity.
    """
    cur = ival.ret(c)
    for step in range(n):
        cur = ival.bind(cur, lambda c2, step=step: ival.of_entries([
            (k, c3, p) for (k, (p, c3)) in enumerate(config_step(c2, choose(step, c2), {}))]))
    return cur


def is_terminated(c: Config) -> bool:
    return c.threads[0].focus.is_val


# ---------------------------------------------------------------------------
# sampling (Monte-Carlo)


UNIT_BITS = 53  # ``random.random()`` is k / 2**53 for an integer k

# ``sample_run`` clears the step memo before walking a new segment once it
# holds more entries than this: a cache, so clearing it changes no draw
STEP_MEMO_CAP = 10_000


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


def sample_run(start: Config, choose: Callable[[int, Config], int], budget: int,
               rng: random.Random, segments: dict, steps: dict) -> Config:
    """Follow one sampled run from ``start`` until termination or budget
    exhaustion; returns the last configuration.

    ``choose`` must be pure, so a run is fixed from configuration ``c`` at
    step ``s`` until it terminates, runs out of budget or takes a step
    with several outcomes, where it draws.  ``segments`` memoizes those
    deterministic segments, ``(c, s) -> (end configuration, end step,
    row)``, for the runs of one ``choose`` and ``budget`` that share it.
    The row is ``(successor configurations, common denominator,
    cumulative numerators)`` of the step drawn from at the end, or None
    where the run ends.  The first run through a segment walks it step by
    step, and every later one pays one dict probe per draw.  ``steps`` is
    the step memo of ``successors``, so the walks step a thread that
    recurs beside different threads once per heap; it is cleared before a
    segment walk when it holds more than ``STEP_MEMO_CAP`` entries.  Draws
    come in the same order either way, so ``rng`` gives the same stream.  The memo grows
    with the distinct ``(c, s)`` pairs where segments start: the start,
    and every outcome of a draw at the step after it."""
    (c, step) = (start, 0)
    while True:
        seg = segments.get((c, step))
        if seg is None:
            if len(steps) > STEP_MEMO_CAP:
                steps.clear()
            seg = segments[(c, step)] = _segment(c, step, choose, budget, steps)
        (c, step, row) = seg
        if row is None:
            return c
        c = row[0][pick_outcome(row[1], row[2], rng)]
        step += 1


def _segment(c: Config, step: int, choose: Callable[[int, Config], int], budget: int,
             steps: dict) -> tuple:
    """The deterministic segment of a run from ``c`` at ``step``: ``(end
    configuration, end step, row)``, where ``row`` is that of the step
    with several outcomes chosen at the end, or None when the run ends
    there.  A step is a ``config_step`` over the step memo ``steps``, so
    a stutter keeps ``c`` and spends the step."""
    while step < budget and not is_terminated(c):
        succ = config_step(c, choose(step, c), steps)
        if len(succ) > 1:
            (den, nums) = ival.over_common_denominator([p for (p, _) in succ])
            return (c, step, (tuple(c2 for (_, c2) in succ), den, tuple(accumulate(nums))))
        (c, step) = (succ[0][1], step + 1)
    return (c, step, None)
