"""Case-study programs and their monadic specifications.

Three approximate counters (the classic logarithmic one, the
compare-and-swap one it inspired, and the fetch-and-add one that stays
unbiased under any scheduler), the nondeterministic counter specification
``approx_n`` and its early-stop variant, a two-level lock-per-node skip
list with its comparison-cost model, and a client counting booleans with a
shared counter.

Concurrent drivers share one shape: the main thread forks workers, does
its own share, then blocks on a done-counter with ``wait`` before reading.
A spinning join would let an adversary run the spinner forever, so no
bounded budget could cover *all* schedulers and exhaustive analysis would
be impossible; the blocking wait keeps every schedule's real work bounded
while stuck waiters simply stutter.

Specifications are computation terms so expectation extrema stay cheap at
depths where the explicit member sets are astronomically large; the
``*_set`` variants materialize explicit sets for law-level checks.  The
skip-list specification, a union over the next key of a fair choice
between two cached successor subterms, is the insertion step bound over
``union(ret k, ...)`` rewritten by the laws bind-left-identity,
bind-over-union and bind-over-pchoice, which hold up to ``ndset.equiv``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ivalbench import comp, machine, ndset
from ivalbench.lang import (
    Alloc, App, Cas, Expr, Faa, Flip, Fork, If, Let, Load, Pair, Prim,
    Rec, Store, Var, VBool, VInt, VLoc, VPair, Wait,
    boolean, num, seq, unit,
)


# ---------------------------------------------------------------------------
# counters: object-language programs


def plus(a: Expr, b: Expr) -> Expr:
    return Prim("+", (a, b))


def unbiased_incr(l: Expr, max_value: int) -> Expr:
    """Read, cap at the parameter, then add k+1 with probability 1/(k+1)."""
    return Let("k", Prim("min", (Load(l), num(max_value))),
               Let("b", Flip(num(1), plus(Var("k"), num(1))),
                   If(Var("b"),
                      seq(Faa(l, plus(Var("k"), num(1))), unit),
                      unit)))


def morris_incr(l: Expr) -> Expr:
    """Store k+1 with probability 1/2^k, the logarithmic-counter step."""
    return Let("k", Load(l),
               Let("b", Flip(num(1), Prim("pow", (num(2), Var("k")))),
                   If(Var("b"), Store(l, plus(Var("k"), num(1))), unit)))


def morris_read(l: Expr) -> Expr:
    return Let("k", Load(l), Prim("-", (Prim("pow", (num(2), Var("k"))), num(1))))


def randbits(bits: int) -> Expr:
    """Uniform integer in [0, 2^bits) built from ``bits`` sequential flips."""
    if bits < 1:
        raise ValueError("need at least one random bit")
    acc: Expr = num(0)
    for i in reversed(range(bits)):
        acc = plus(Var(f"rb{i}"), Prim("*", (num(2), acc)))
    for i in reversed(range(bits)):
        acc = Let(f"rb{i}", If(Flip(num(1), num(2)), num(1), num(0)), acc)
    return acc


def lsb_zero(b: Expr, k: Expr) -> Expr:
    """Are the k least significant bits of b all zero?"""
    return Prim("=", (Prim("mod", (b, Prim("pow", (num(2), k)))), num(0)))


def dlm_incr(l: Expr, bits: int) -> Expr:
    """Draw random bits up front, then retry a compare-and-swap increment.

    The retry re-reads the counter but reuses the same bits, which is what
    an adversarial schedule exploits.
    """
    loop = Rec("incraux", "b",
               Let("k", Load(l),
                   If(lsb_zero(Var("b"), Var("k")),
                      If(Cas(l, Var("k"), plus(Var("k"), num(1))),
                         unit,
                         App(Var("incraux"), Var("b"))),
                      unit)))
    return Let("rb", randbits(bits), App(loop, Var("rb")))


def counter_program(incr: Expr, threads: int) -> Expr:
    """Fork ``threads - 1`` workers that each run ``incr`` on the counter
    ``l``, run it once more locally, join on a done-counter, then load
    ``l``.  Thread 0's final value is the count read."""
    if threads < 1:
        raise ValueError("need at least one thread")
    l, d = Var("l"), Var("d")
    body = [Fork(seq(incr, Faa(d, num(1)))) for _ in range(threads - 1)]
    body += [incr, Wait(d, num(threads - 1)), Load(l)]
    return Let("l", Alloc(num(0)), Let("d", Alloc(num(0)), seq(*body)))


def unbiased_counter_program(threads: int, max_value: int) -> Expr:
    return counter_program(unbiased_incr(Var("l"), max_value), threads)


def dlm_counter_program(threads: int, bits: int) -> Expr:
    return counter_program(dlm_incr(Var("l"), bits), threads)


def morris_program(n: int) -> Expr:
    """Sequential: n logarithmic increments then the unbiasing read."""
    l = Var("l")
    return Let("l", Alloc(num(0)),
               seq(*([morris_incr(l) for _ in range(n)] + [morris_read(l)])))


# ---------------------------------------------------------------------------
# counters: monadic specifications


@lru_cache(maxsize=None)
def approx_incr(max_value: int) -> ndset.ProcessSet:
    """Nondeterministically pick the capped read, then add k+1 with
    probability 1/(k+1): one member per possible read."""
    ks = ndset.union_all(ndset.ret(k) for k in range(max_value + 1))
    return ndset.bind(ks, lambda k: ndset.pchoice(
        ndset.ret(k + 1), Fraction(1, k + 1), ndset.ret(0)))


@lru_cache(maxsize=None)
def approx_n(n: int, l: int, max_value: int) -> comp.Comp:
    """n pending increments with accumulated value l, as a term."""
    if n < 0 or l < 0:
        raise ValueError("increment count and accumulator must be nonnegative")
    if n == 0:
        return comp.ret(l)
    return comp.bind(approx_incr(max_value), lambda k: approx_n(n - 1, l + k, max_value))


@lru_cache(maxsize=None)
def approx_n_prime(n: int, t: int, l: int, max_value: int) -> comp.Comp:
    """Early-stop variant: before each increment the computation may
    nondeterministically stop, returning (increments done, counter)."""
    if n == 0:
        return comp.ret((t, l))
    return comp.union(
        comp.ret((t, l)),
        comp.bind(approx_incr(max_value),
                  lambda k: approx_n_prime(n - 1, t + 1, l + k, max_value)))


# ---------------------------------------------------------------------------
# skip list: cost model and monadic specification


INTMIN = -(2 ** 31)
INTMAX = 2 ** 31 - 1


def topcost(tl, k: int) -> int:
    return 1 + sum(1 for i in tl if INTMIN < i < k)


def rettop(tl, k: int) -> int:
    return max([i for i in tl if i < k] + [INTMIN])


def botcost(tl, bl, k: int) -> int:
    lo = rettop(tl, k)
    return 1 + sum(1 for i in bl if lo < i < k)


def skipcost(tl, bl, k: int) -> int:
    """Key comparisons for a membership probe with these level contents."""
    if k in tl:
        return topcost(tl, k)
    return topcost(tl, k) + botcost(tl, bl, k)


def skip_cost_bound(n: int) -> Fraction:
    """Closed-form bound on the expected probe cost with n smaller keys."""
    if n < 0:
        raise ValueError("key count must be nonnegative")
    return 1 + Fraction(n, 2) + 2 * (1 - Fraction(1, 2 ** (n + 1)))


@lru_cache(maxsize=None)
def _skip_spec(remaining: tuple, tl: tuple, bl: tuple) -> comp.Comp:
    """Pick any remaining key ``k``, add it to the bottom level, and to the
    top level with probability 1/2."""
    if not remaining:
        return comp.ret((tl, bl))
    picks = []
    for k in remaining:
        rest = tuple(x for x in remaining if x != k)
        bl2 = tuple(sorted(bl + (k,)))
        picks.append(comp.pchoice(_skip_spec(rest, tl, bl2), Fraction(1, 2),
                                  _skip_spec(rest, tuple(sorted(tl + (k,))), bl2)))
    return comp.union(*picks)


def skip_list_spec(keys, tl=(), bl=()) -> comp.Comp:
    """Simulated insertion of ``keys`` in nondeterministic order; each key
    reaches the top level with probability 1/2.  Values are the final
    (sorted top keys, sorted bottom keys)."""
    ks = tuple(keys)
    if len(set(ks)) != len(ks):
        raise ValueError("duplicate keys")
    for k in list(ks) + list(tl) + list(bl):
        if not INTMIN < k < INTMAX:
            raise ValueError(f"key {k} outside the sentinel range")
    return _skip_spec(ks, tuple(sorted(tl)), tuple(sorted(bl)))


def skip_list_spec_set(keys, tl=(), bl=()) -> ndset.ProcessSet:
    return comp.materialize(skip_list_spec(keys, tl, bl))


# ---------------------------------------------------------------------------
# skip list: object-language implementation
#
# A node is one heap cell holding (key, (next, (down, lock))) where next
# and down are locations or unit and lock is the location of a boolean
# cell.  Mutation rebuilds the tuple under the node's lock; probes take no
# locks at all.


def nkey(n: Expr) -> Expr:
    return Prim("fst", (Load(n),))


def nnext(n: Expr) -> Expr:
    return Prim("fst", (Prim("snd", (Load(n),)),))


def ndown(n: Expr) -> Expr:
    return Prim("fst", (Prim("snd", (Prim("snd", (Load(n),)),)),))


def nlock(n: Expr) -> Expr:
    return Prim("snd", (Prim("snd", (Prim("snd", (Load(n),)),)),))


def set_next(n: Expr, v: Expr) -> Expr:
    return Let("cur", Load(n),
               Store(n, Pair(Prim("fst", (Var("cur"),)),
                             Pair(v, Prim("snd", (Prim("snd", (Var("cur"),)),))))))


def acquire(lock: Expr) -> Expr:
    """Spin until the compare-and-swap from #f to #t succeeds."""
    return App(Rec("sp", "lk",
                   If(Cas(Var("lk"), boolean(False), boolean(True)),
                      unit,
                      App(Var("sp"), Var("lk")))),
               lock)


def release(lock: Expr) -> Expr:
    return Store(lock, boolean(False))


def node(key: Expr, nxt: Expr, down: Expr, lock: Expr) -> Expr:
    return Pair(key, Pair(nxt, Pair(down, lock)))


def skip_list_new() -> Expr:
    """Allocate the two-level sentinel skeleton; evaluates to the top-left
    sentinel location.  Top sentinels point down at their bottom copies."""
    return Let("lkbr", Alloc(boolean(False)),
           Let("botr", Alloc(node(num(INTMAX), unit, unit, Var("lkbr"))),
           Let("lkbl", Alloc(boolean(False)),
           Let("botl", Alloc(node(num(INTMIN), Var("botr"), unit, Var("lkbl"))),
           Let("lktr", Alloc(boolean(False)),
           Let("topr", Alloc(node(num(INTMAX), unit, Var("botr"), Var("lktr"))),
           Let("lktl", Alloc(boolean(False)),
           Let("topl", Alloc(node(num(INTMIN), Var("topr"), Var("botl"), Var("lktl"))),
           Var("topl")))))))))


def walk(k: int, counting: bool) -> Expr:
    """List walk stopping at the first key >= k.

    Counting form: argument and result carry a comparison tally; each loop
    iteration costs exactly one inequality comparison, matching the cost
    model.  Result is ((pred, stop), tally) counting, (pred, stop) not.
    """
    if counting:
        return Rec("tw", "pz",
                   Let("pred", Prim("fst", (Var("pz"),)),
                   Let("z", Prim("snd", (Var("pz"),)),
                   Let("nx", nnext(Var("pred")),
                   If(Prim("<", (nkey(Var("nx")), num(k))),
                      App(Var("tw"), Pair(Var("nx"), plus(Var("z"), num(1)))),
                      Pair(Pair(Var("pred"), Var("nx")), plus(Var("z"), num(1))))))))
    return Rec("fp", "pred",
               Let("nx", nnext(Var("pred")),
               If(Prim("<", (nkey(Var("nx")), num(k))),
                  App(Var("fp"), Var("nx")),
                  Pair(Var("pred"), Var("nx")))))


def skip_list_mem(v: Expr, k: int) -> Expr:
    """Lock-free membership probe returning (found?, comparisons)."""
    tw = walk(k, counting=True)
    return Let("r1", App(tw, Pair(v, num(0))),
           Let("pred1", Prim("fst", (Prim("fst", (Var("r1"),)),)),
           Let("stop1", Prim("snd", (Prim("fst", (Var("r1"),)),)),
           Let("z1", Prim("snd", (Var("r1"),)),
           If(Prim("=", (nkey(Var("stop1")), num(k))),
              Pair(boolean(True), Var("z1")),
              Let("r2", App(tw, Pair(ndown(Var("pred1")), Var("z1"))),
              Let("stop2", Prim("snd", (Prim("fst", (Var("r2"),)),)),
              Let("z2", Prim("snd", (Var("r2"),)),
              If(Prim("=", (nkey(Var("stop2")), num(k))),
                 Pair(boolean(True), Var("z2")),
                 Pair(boolean(False), Var("z2")))))))))))


def skip_list_add(v: Expr, k: int, early_flip: bool = False) -> Expr:
    """Insert ``k``: find predecessors, lock bottom then top, re-validate
    the successor pointers, flip for top-level membership, link, unlock.
    Any validation failure releases and retries the whole search.

    With ``early_flip`` the coin is flipped *before* locking; a bottom-only
    insertion then takes a single lock, which is what makes its
    distribution scheduler-dependent."""
    fp = walk(k, counting=False)
    insert_bottom = Let("lknb", Alloc(boolean(False)),
                    Let("nb", Alloc(node(num(k), Var("succb"), unit, Var("lknb"))),
                    seq(set_next(Var("predb"), Var("nb")), Var("nb"))))
    insert_both = Let("nb2", insert_bottom,
                  Let("lknt", Alloc(boolean(False)),
                  Let("nt", Alloc(node(num(k), Var("succt"), Var("nb2"), Var("lknt"))),
                  set_next(Var("predt"), Var("nt")))))
    unlock_bottom = [release(nlock(Var("predb")))]
    unlock_both = [release(nlock(Var("predt")))] + unlock_bottom

    def validated(pred: str, succ: str, work: Expr, unlock: list) -> Expr:
        """Lock ``pred``; if it still points to ``succ`` do ``work``, else
        run ``unlock`` and retry."""
        return seq(acquire(nlock(Var(pred))),
                   If(Prim("=", (nnext(Var(pred)), Var(succ))),
                      work,
                      seq(*unlock, App(Var("retry"), unit))))

    def both_locked(work: Expr) -> Expr:
        return validated("predb", "succb",
                         validated("predt", "succt", seq(work, *unlock_both), unlock_both),
                         unlock_bottom)

    if early_flip:
        insert = If(Var("coin"),
                    both_locked(insert_both),
                    validated("predb", "succb", seq(insert_bottom, unit, *unlock_bottom),
                              unlock_bottom))
    else:
        insert = both_locked(If(Flip(num(1), num(2)), insert_both, seq(insert_bottom, unit)))
    body = Let("rt", App(fp, v),
           Let("predt", Prim("fst", (Var("rt"),)),
           Let("succt", Prim("snd", (Var("rt"),)),
           If(Prim("=", (nkey(Var("succt")), num(k))),
              unit,
              Let("rb", App(fp, ndown(Var("predt"))),
              Let("predb", Prim("fst", (Var("rb"),)),
              Let("succb", Prim("snd", (Var("rb"),)),
              If(Prim("=", (nkey(Var("succb")), num(k))),
                 unit,
                 insert))))))))
    retry_loop = App(Rec("retry", "_u", body), unit)
    return Let("coin", Flip(num(1), num(2)), retry_loop) if early_flip else retry_loop


def skip_list_sequential_program(keys, query: int) -> Expr:
    """Single thread: create, add every key in order, probe the query."""
    v = Var("slv")
    steps = [skip_list_add(v, k) for k in keys] + [skip_list_mem(v, query)]
    return Let("slv", skip_list_new(), seq(*steps))


def skip_list_staged_program(keys_a, keys_b, query: int) -> Expr:
    """Two adder threads serialized by a done-counter (no lock contention
    is reachable), then a probe; exhaustive scheduling stays bounded."""
    v, d = Var("slv"), Var("d")
    worker_a = seq(*([skip_list_add(v, k) for k in keys_a] + [Faa(d, num(1))]))
    worker_b = seq(*([Wait(d, num(1))] + [skip_list_add(v, k) for k in keys_b]
                     + [Faa(d, num(1))]))
    return Let("slv", skip_list_new(),
           Let("d", Alloc(num(0)),
           seq(Fork(worker_a), Fork(worker_b),
               Wait(d, num(2)), skip_list_mem(v, query))))


def skip_list_concurrent_program(keys_a, keys_b, query: int,
                                 early_flip: bool = False) -> Expr:
    """Two adder threads racing (lock contention possible); for fair
    schedulers only -- adversarial spinning is unbounded."""
    v, d = Var("slv"), Var("d")
    worker_a = seq(*([skip_list_add(v, k, early_flip) for k in keys_a] + [Faa(d, num(1))]))
    worker_b = seq(*([skip_list_add(v, k, early_flip) for k in keys_b] + [Faa(d, num(1))]))
    return Let("slv", skip_list_new(),
           Let("d", Alloc(num(0)),
           seq(Fork(worker_a), Fork(worker_b),
               Wait(d, num(2)), skip_list_mem(v, query))))


def skip_list_heap_keys(state: machine.State, top_left_loc: int):
    """Walk the heap image of a skip list and return (top keys, bottom
    keys), excluding sentinels.  For quiescent-state checks."""

    def fields(loc):
        cell = state.lookup(loc)
        key = cell.fst.n
        nxt = cell.snd.fst
        down = cell.snd.snd.fst
        return key, nxt, down

    def walk_from(loc):
        keys = []
        while True:
            key, nxt, _ = fields(loc)
            if key != INTMIN and key != INTMAX:
                keys.append(key)
            if not isinstance(nxt, VLoc):
                return keys
            loc = nxt.loc

    _, _, down = fields(top_left_loc)
    top = walk_from(top_left_loc)
    bottom = walk_from(down.loc)
    return tuple(top), tuple(bottom)


# ---------------------------------------------------------------------------
# boolean-counting client


def count_true(counter: Expr, booleans, max_value: int) -> Expr:
    """Walk a boolean list, incrementing the shared counter on each true."""
    lst: Expr = unit
    for b in reversed(list(booleans)):
        lst = Pair(boolean(b), lst)
    body = If(Prim("=", (Var("lb"), unit)),
              unit,
              seq(If(Prim("fst", (Var("lb"),)),
                     unbiased_incr(counter, max_value),
                     unit),
                  App(Var("ct"), Prim("snd", (Var("lb"),)))))
    return App(Rec("ct", "lb", body), lst)


def count_true_client(lb1, lb2, max_value: int = 2) -> Expr:
    """Fork two counting workers over a shared counter, join, read."""
    c, d = Var("c"), Var("d")
    w1 = seq(count_true(c, lb1, max_value), Faa(d, num(1)))
    w2 = seq(count_true(c, lb2, max_value), Faa(d, num(1)))
    return Let("c", Alloc(num(0)),
           Let("d", Alloc(num(0)),
           seq(Fork(w1), Fork(w2), Wait(d, num(2)), Load(c))))


# ---------------------------------------------------------------------------
# value functionals (objectives applied to the first thread's final value)


class FunctionalError(TypeError):
    """The final value is not of the shape the functional reads."""


def read_int(v) -> Fraction:
    if not isinstance(v, VInt):
        raise FunctionalError(f"expected an integer result, got {v!r}")
    return Fraction(v.n)


def read_pow2_minus_1(v) -> Fraction:
    if not isinstance(v, VInt):
        raise FunctionalError(f"expected an integer result, got {v!r}")
    return Fraction(2) ** v.n - 1


def read_true_indicator(v) -> Fraction:
    if not isinstance(v, VBool):
        raise FunctionalError(f"expected a boolean result, got {v!r}")
    return Fraction(1 if v.b else 0)


def read_pair_cost(v) -> Fraction:
    if not isinstance(v, VPair) or not isinstance(v.snd, VInt):
        raise FunctionalError(f"expected a (found, comparisons) pair, got {v!r}")
    return Fraction(v.snd.n)


def read_pair_found(v) -> Fraction:
    if not isinstance(v, VPair) or not isinstance(v.fst, VBool):
        raise FunctionalError(f"expected a (found, comparisons) pair, got {v!r}")
    return Fraction(1 if v.fst.b else 0)


FUNCTIONALS = {
    "read": read_int,
    "pow2-minus-1": read_pow2_minus_1,
    "true-indicator": read_true_indicator,
    "pair-cost": read_pair_cost,
    "pair-found": read_pair_found,
}


# ---------------------------------------------------------------------------
# experiment registry (names, parameter schemas, program builders)


MODELS = {
    "unbiased-counter": {
        "params": {"threads": (int, 1), "max": (int, 0)},
        "build": lambda p: unbiased_counter_program(p["threads"], p["max"]),
    },
    "dlm-counter": {
        "params": {"threads": (int, 1), "bits": (int, 1)},
        "build": lambda p: dlm_counter_program(p["threads"], p["bits"]),
    },
    "morris-counter": {
        "params": {"n": (int, 0)},
        "build": lambda p: morris_program(p["n"]),
    },
}


def build_registered(name: str, params: dict) -> Expr:
    """Validate ``params`` against the model's schema and build its program."""
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}; known: {sorted(MODELS)}")
    entry = MODELS[name]
    checked = {}
    for (pname, (ptype, minimum)) in entry["params"].items():
        got = params.get(pname)
        if not isinstance(got, ptype) or got < minimum:
            raise ValueError(f"parameter {pname!r} of {name} must be "
                             f"{ptype.__name__} >= {minimum}, got {got!r}")
        checked[pname] = got
    return entry["build"](checked)
