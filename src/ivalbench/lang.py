"""Syntax of the concurrent probabilistic language.

Values are unit, integers, booleans, heap locations, pairs, and recursive
closures.  Expressions add variables, application, let-sequencing,
conditionals, the biased coin ``flip``, heap primitives (``alloc`` /
``load`` / ``store`` / ``faa`` / ``cas``), ``wait`` (block until a cell
holds a given value -- the join primitive), ``fork``, and arithmetic /
comparison / pair primitives.

Concrete syntax is s-expressions, one form per constructor:

    e ::= n | #t | #f | () | x | (loc n)
        | (rec (f x) e) | (lam (x) e) | (e e ...)
        | (let (x e) e) | (seq e e ...) | (if e e e)
        | (flip e e) | (fork e)
        | (alloc e) | (load e) | (store e e) | (faa e e)
        | (cas e e e) | (wait e e)
        | (pair e e) | (fst e) | (snd e)
        | (min e e) | (mod e e) | (pow e e) | (+ e e) | (- e e) | (* e e)
        | (= e e) | (< e e) | (<= e e) | (not e) | (and e e) | (or e e)

``lam`` is sugar for a ``rec`` whose self-name is ``_``; ``seq`` is sugar
for ``let`` with binder ``_``.  The printer emits the canonical forms, so
print-then-parse is the identity on ASTs and printing is idempotent on
text.  It is the one printer: an expression's ``repr`` is ``unparse`` of
it and a value's is ``unparse`` of its expression (``of_val``).

The grammar is written down once, in ``FORMS``: one ``Form`` per
expression constructor, giving its expression children (its fields of
type ``Expr``; ``Prim``'s ``args`` is a variadic run of them), its
evaluation positions in order, the keyword and arity of its
``(keyword e ...)`` forms, and whether its redex is thread-local.  The
free-variable cache, ``subst``, the parser, the printer and ``gen_expr``
read their children and keyword forms off the table, as ``machine`` reads
its evaluation contexts; only variables, literals, ``rec``/``lam``,
``let``/``seq``, ``loc`` and n-ary application have code of their own.
``RESERVED`` is the table's keywords plus those forms' words.

Every value and expression node is hash-consed (Filliatre & Conchon,
"Type-safe modular hash-consing", 2006): constructing a node looks its
constructor arguments up in a table of its class and returns the node
already built from them, if there is one.  Equal terms are therefore one
object, and ``==`` and ``hash`` are identity, so hashing a term costs O(1)
however deep it is.  ``__post_init__`` checks run on the first
construction only.  The tables hold their nodes weakly: a node leaves its
table when its last reference goes, so intermediate terms are not kept.
Pickling a node records its class and constructor arguments, and
unpickling constructs it again, so a node sent to a worker process is
interned there too.  Each expression caches its free variables (``fv``)
and whether it is a value (``is_val``), so neither is ever recomputed by
recursion; ``subst`` returns a term in which the name is not free
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from weakref import ref

from ivalbench import sexpr
from ivalbench.sexpr import Symbol


# ---------------------------------------------------------------------------
# hash-consing


class _KeyedRef(ref):
    """A weak reference that knows its table key (``weakref.KeyedRef``
    without the Python-level ``__new__`` and ``__init__``)."""

    __slots__ = ("key",)


class _Interned(type):
    """Metaclass of the syntax nodes: one node per class and tuple of
    (positional) constructor arguments, held in a weak per-class table."""

    def __init__(cls, name, bases, ns):
        super().__init__(name, bases, ns)
        table: dict = {}  # constructor arguments -> _KeyedRef to the node

        def forget(r, table=table):
            if table.get(r.key) is r:  # not yet replaced by a new node
                del table[r.key]

        cls._table = table
        cls._forget = forget

    def __call__(cls, *args):
        table = cls._table
        r = table.get(args)
        if r is not None:
            node = r()
            if node is not None:
                return node
        node = type.__call__(cls, *args)
        r = table[args] = _KeyedRef(node, cls._forget)
        r.key = args
        return node


class _InternedScalar(_Interned):
    """A scalar node admits a payload of exactly its type: ``True == 1``,
    so ``VInt(True)`` would otherwise be the node ``VInt(1)``."""

    def __call__(cls, x):
        if type(x) is not cls._payload:
            raise TypeError(f"{cls.__name__} payload must be {cls._payload.__name__}, not {x!r}")
        return _Interned.__call__(cls, x)


_node = dataclass(frozen=True, slots=True, eq=False, repr=False, weakref_slot=True)


class _Node(metaclass=_Interned):
    __slots__ = ()

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self.__match_args__))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({args})"


# ---------------------------------------------------------------------------
# values


class Val(_Node):
    __slots__ = ()

    def __repr__(self):
        return unparse(of_val(self))


@_node
class VUnit(Val):
    pass


@_node
class VInt(Val, metaclass=_InternedScalar):
    _payload = int
    n: int


@_node
class VBool(Val, metaclass=_InternedScalar):
    _payload = bool
    b: bool


@_node
class VLoc(Val, metaclass=_InternedScalar):
    _payload = int
    loc: int


@_node
class VPair(Val):
    fst: Val
    snd: Val


@_node
class VClosure(Val):
    fname: str
    xname: str
    body: "Expr"


UNIT = VUnit()
TRUE = VBool(True)
FALSE = VBool(False)


# ---------------------------------------------------------------------------
# expressions


_CLOSED = frozenset()


class Expr(_Node):
    # fv: the names free in the expression, a frozenset; is_val: whether
    # the expression is a value
    __slots__ = ("fv", "is_val")

    def __repr__(self):
        return unparse(self)

    def __post_init__(self):
        """Cache the free variables, from the children's cached sets; a
        set equal to a child's is that child's set.  ``_`` is never free:
        it binds nothing, so ``subst`` never replaces it.  Cache whether
        the expression is a value, from the children's flags."""
        t = type(self)
        object.__setattr__(self, "is_val", t is Lit or t is Rec or (
            t is Pair and self.fst.is_val and self.snd.is_val))
        if t is Var:
            fv = _CLOSED if self.name == "_" else frozenset((self.name,))
        elif t is Rec:
            fv = _bind(self.body.fv, (self.fname, self.xname))
        elif t is Let:
            fv = _union(self.bound.fv, _bind(self.body.fv, (self.name,)))
        else:
            fv = _CLOSED
            for child in FORMS[t].kids(self):
                if child.fv:  # at run time terms are mostly closed
                    fv = _union(fv, child.fv) if fv else child.fv
        object.__setattr__(self, "fv", fv)


@_node
class Var(Expr):
    name: str

    def __post_init__(self):
        if self.name in RESERVED:
            raise ValueError(f"variable name {self.name!r} is reserved")
        Expr.__post_init__(self)


@_node
class Lit(Expr):
    value: Val


@_node
class Pair(Expr):
    fst: Expr
    snd: Expr


@_node
class Rec(Expr):
    fname: str
    xname: str
    body: Expr


@_node
class App(Expr):
    fn: Expr
    arg: Expr


@_node
class Let(Expr):
    name: str
    bound: Expr
    body: Expr


@_node
class If(Expr):
    cond: Expr
    then: Expr
    els: Expr


@_node
class Flip(Expr):
    num: Expr
    den: Expr


@_node
class Fork(Expr):
    body: Expr


@_node
class Alloc(Expr):
    init: Expr


@_node
class Load(Expr):
    ref: Expr


@_node
class Store(Expr):
    ref: Expr
    value: Expr


@_node
class Faa(Expr):
    ref: Expr
    delta: Expr


@_node
class Cas(Expr):
    ref: Expr
    expected: Expr
    new: Expr


@_node
class Wait(Expr):
    ref: Expr
    value: Expr


@_node
class Prim(Expr):
    op: str
    args: tuple

    def __post_init__(self):
        if self.op not in PRIM_ARITY:
            raise ValueError(f"unknown primitive {self.op!r}")
        if len(self.args) != PRIM_ARITY[self.op]:
            raise ValueError(f"{self.op} expects {PRIM_ARITY[self.op]} arguments")
        Expr.__post_init__(self)


# ---------------------------------------------------------------------------
# the grammar


def _getter(names: tuple):
    """``e -> tuple(getattr(e, n) for n in names)``."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda e: (get(e),)
    return attrgetter(*names) if names else lambda e: ()


class Form:
    """One expression constructor of the grammar.

    Its fields typed ``Expr`` are its children, in order; ``Prim``'s
    ``args``, typed ``tuple``, is a variadic run of children.  Its other
    fields (binders, the primitive's operator) come first and are its
    head.  ``evaluated`` names its evaluation positions, a prefix of its
    children that is reduced left to right before the node's own redex
    fires; naming ``args`` makes every argument one.  ``keywords`` maps the
    keyword of each ``(keyword e ...)`` form of the constructor to its
    arity.  ``local`` says its redex has one outcome, reads and writes no
    heap cell, forks nothing and, when stuck, is stuck for good (its side
    condition looks only at the redex)."""

    __slots__ = ("cls", "children", "keywords", "local", "kids", "evaluated", "make")

    def __init__(self, cls: type, evaluated: tuple = (), keywords=None, local: bool = False):
        typed = {f.name: f.type for f in fields(cls)}
        self.cls = cls
        self.children = tuple(n for (n, t) in typed.items() if t in ("Expr", "tuple"))
        self.keywords = keywords or {}
        self.local = local
        get_head = _getter(tuple(n for n in typed if n not in self.children))
        # kids(e) and evaluated(e): tuples of e's children and evaluation
        # positions; make(e, kids): the node with e's head and children kids
        if "tuple" in typed.values():
            self.kids = self.evaluated = attrgetter(*self.children)
            self.make = lambda e, kids: cls(*get_head(e), kids)
        else:
            self.kids = _getter(self.children)
            self.evaluated = _getter(evaluated)
            self.make = lambda e, kids: cls(*get_head(e), *kids)


FORMS = {form.cls: form for form in [
    Form(Var),
    Form(Lit),
    Form(Pair, ("fst", "snd"), {"pair": 2}),
    Form(Rec),
    Form(App, ("fn", "arg"), local=True),
    Form(Let, ("bound",), local=True),
    Form(If, ("cond",), {"if": 3}, local=True),
    Form(Flip, ("num", "den"), {"flip": 2}),
    Form(Fork, (), {"fork": 1}),
    Form(Alloc, ("init",), {"alloc": 1}),
    Form(Load, ("ref",), {"load": 1}),
    Form(Store, ("ref", "value"), {"store": 2}),
    Form(Faa, ("ref", "delta"), {"faa": 2}),
    Form(Cas, ("ref", "expected", "new"), {"cas": 3}),
    Form(Wait, ("ref", "value"), {"wait": 2}),
    Form(Prim, ("args",), {"min": 2, "mod": 2, "pow": 2, "+": 2, "-": 2, "*": 2, "=": 2,
                           "<": 2, "<=": 2, "not": 1, "and": 2, "or": 2, "fst": 1,
                           "snd": 1}, local=True),
]}

# keyword -> (its form, its arity)
KEYWORDS = {kw: (form, n) for form in FORMS.values() for (kw, n) in form.keywords.items()}
PRIM_ARITY = FORMS[Prim].keywords
# the keywords, and the words of the forms with parse code of their own
RESERVED = frozenset(KEYWORDS) | {"rec", "lam", "let", "seq", "loc"}


def _union(a: frozenset, b: frozenset) -> frozenset:
    return a if b <= a else b if a <= b else a | b


def _bind(fv: frozenset, names: tuple) -> frozenset:
    return fv if fv.isdisjoint(names) else fv.difference(names)


def seq(*exprs: Expr) -> Expr:
    """Right-nested sequencing with throwaway binders."""
    if not exprs:
        raise ValueError("empty sequence")
    out = exprs[-1]
    for e in reversed(exprs[:-1]):
        out = Let("_", e, out)
    return out


def num(n: int) -> Expr:
    return Lit(VInt(n))


def boolean(b: bool) -> Expr:
    return Lit(TRUE if b else FALSE)


unit = Lit(UNIT)


# ---------------------------------------------------------------------------
# value <-> expression


def to_val(e: Expr) -> Val:
    """The value ``e`` denotes.  A pair is built bottom-up on an explicit
    stack, so one nested any depth deep needs no recursion."""
    return e.value if type(e) is Lit else _bottom_up(e, _valued)


def _valued(e):
    """``(parts, build)`` for ``to_val``."""
    t = type(e)
    if t is Lit:
        return (), lambda: e.value
    if t is Rec:
        return (), lambda: VClosure(e.fname, e.xname, e.body)
    if t is Pair:
        return (e.fst, e.snd), VPair
    raise ValueError(f"not a value: {e!r}")


def of_val(v: Val) -> Expr:
    if isinstance(v, VClosure):
        return Rec(v.fname, v.xname, v.body)
    return Lit(v)


# ---------------------------------------------------------------------------
# substitution (values are closed, so no capture is possible)


def subst(e: Expr, name: str, replacement: Expr) -> Expr:
    """``e`` with ``replacement`` for the free occurrences of ``name``;
    ``e`` itself, unwalked, when ``name`` is not free in it.  A binder
    that ``name`` is free under is not ``name``, so only a ``let`` whose
    body rebinds it needs care.  Rebuilt bottom-up on an explicit stack
    of the nodes that ``name`` is free in, so a term nested any depth deep
    needs no recursion."""
    if name not in e.fv:
        return e
    if type(e) is Var:
        return replacement
    stack = [(e, _subst_kids(e, name), [])]  # a node, its children, their results so far
    while True:
        (node, kids, done) = stack[-1]
        if len(done) < len(kids):
            kid = kids[len(done)]
            if name not in kid.fv:
                done.append(kid)
            elif type(kid) is Var:
                done.append(replacement)
            else:
                stack.append((kid, _subst_kids(kid, name), []))
            continue
        stack.pop()
        if type(node) is Let and node.name == name:  # only the bound was walked
            out = Let(name, done[0], node.body)
        else:
            out = FORMS[type(node)].make(node, tuple(done))
        if not stack:
            return out
        stack[-1][2].append(out)


def _subst_kids(e: Expr, name: str) -> tuple:
    """The children of ``e`` that ``subst`` walks: all of them, except
    the body of a ``let`` that rebinds ``name``."""
    if type(e) is Let and e.name == name:
        return (e.bound,)
    return FORMS[type(e)].kids(e)


# ---------------------------------------------------------------------------
# parser


def parse(text: str) -> Expr:
    """Parse one program; errors carry line:column positions."""
    return from_sexpr(sexpr.read(text))


def from_sexpr(s) -> Expr:
    """The term ``s`` denotes.  Built bottom-up on an explicit stack, so a
    list nested any depth deep needs no recursion."""
    return _bottom_up(s, _parsed)


def _bottom_up(root, shape):
    """Fold the tree under ``root`` bottom-up on an explicit stack.
    ``shape(node)`` is ``(children, build)``: the node's children in order,
    and the function from their results to the node's result."""
    (kids, build) = shape(root)
    stack = [(kids, build, [])]  # a node, and its children's results so far
    while True:
        (kids, build, done) = stack[-1]
        if len(done) < len(kids):
            stack.append((*shape(kids[len(done)]), []))
            continue
        stack.pop()
        out = build(*done)
        if not stack:
            return out
        stack[-1][2].append(out)


def _parsed(s):
    """``(subterms, build)`` for ``from_sexpr``: the s-expressions of the
    subterms of the term ``s`` denotes, in order, and the function from
    their terms to that term.  A malformed ``s`` raises here, before any of
    its subterms is parsed."""
    if isinstance(s, bool):
        return (), lambda: boolean(s)
    if isinstance(s, int):
        return (), lambda: num(s)
    if isinstance(s, Symbol):
        if s.name in RESERVED:
            raise sexpr.SexprError(f"reserved word {s.name!r} used as a variable")
        return (), lambda: Var(s.name)
    if not isinstance(s, list):
        raise sexpr.SexprError(f"cannot parse {s!r}")
    if not s:
        return (), lambda: unit
    head = s[0]
    if isinstance(head, Symbol):
        kw = head.name
        if kw == "loc":
            expect(s, 2, kw)
            if type(s[1]) is not int:  # #t reads as True, an int too
                raise sexpr.SexprError("loc expects an integer literal")
            return (), lambda: Lit(VLoc(s[1]))
        if kw == "rec":
            expect(s, 3, kw)
            binder = s[1]
            if (not isinstance(binder, list) or len(binder) != 2
                    or not all(isinstance(b, Symbol) for b in binder)):
                raise sexpr.SexprError("rec expects a (self arg) binder list")
            return (s[2],), lambda body: Rec(binder[0].name, binder[1].name, body)
        if kw == "lam":
            expect(s, 3, kw)
            binder = s[1]
            if (not isinstance(binder, list) or len(binder) != 1
                    or not isinstance(binder[0], Symbol)):
                raise sexpr.SexprError("lam expects an (arg) binder list")
            return (s[2],), lambda body: Rec("_", binder[0].name, body)
        if kw == "let":
            expect(s, 3, kw)
            binder = s[1]
            if (not isinstance(binder, list) or len(binder) != 2
                    or not isinstance(binder[0], Symbol)):
                raise sexpr.SexprError("let expects an (x e) binder list")
            return (binder[1], s[2]), lambda bound, body: Let(binder[0].name, bound, body)
        if kw == "seq":
            if len(s) < 3:
                raise sexpr.SexprError("seq expects at least two expressions")
            return s[1:], seq
        if kw in KEYWORDS:
            (form, arity) = KEYWORDS[kw]
            expect(s, 1 + arity, kw)
            return s[1:], (lambda *kids: Prim(kw, kids)) if form.cls is Prim else form.cls
    # application, n-ary sugar for left-nested binary application
    if len(s) < 2:
        raise sexpr.SexprError(f"cannot parse application {s!r}")
    return s, _apply


def _apply(fn: Expr, *args: Expr) -> Expr:
    for arg in args:
        fn = App(fn, arg)
    return fn


def expect(s: list, n: int, kw: str) -> None:
    if len(s) != n:
        raise sexpr.SexprError(f"{kw} expects {n - 1} argument(s), got {len(s) - 1}")


# ---------------------------------------------------------------------------
# printer


def to_sexpr(e: Expr):
    """The canonical s-expression of ``e``.  Built bottom-up on an explicit
    stack, so a term nested any depth deep needs no recursion."""
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    return _bottom_up(e, _printed)


def _printed(t):
    """``(parts, build)`` for ``to_sexpr``: the terms and values whose
    s-expressions the one of the term or value ``t`` contains, in order,
    and the function from theirs to ``t``'s."""
    match t:
        case Var(name=n):
            return (), lambda: Symbol(n)
        case Lit(value=v):
            return (v,), lambda x: x
        case Rec(fname=f, xname=x, body=b) | VClosure(fname=f, xname=x, body=b):
            return (b,), lambda body: [Symbol("rec"), [Symbol(f), Symbol(x)], body]
        case App():
            parts = []
            while type(t) is App:
                parts.append(t.arg)
                t = t.fn
            parts.append(t)
            parts.reverse()
            return parts, lambda *xs: list(xs)
        case Let(name="_"):
            parts = []
            while type(t) is Let and t.name == "_":
                parts.append(t.bound)
                t = t.body
            parts.append(t)
            return parts, lambda *xs: [Symbol("seq"), *xs]
        case Let(name=n, bound=b, body=body):
            return (b, body), lambda b, body: [Symbol("let"), [Symbol(n), b], body]
        case Expr():
            form = FORMS[type(t)]
            kw = t.op if type(t) is Prim else next(iter(form.keywords))
            return form.kids(t), lambda *xs: [Symbol(kw), *xs]
        case VUnit():
            return (), list
        case VInt(n=n):
            return (), lambda: n
        case VBool(b=b):
            return (), lambda: b
        case VLoc(loc=l):
            return (), lambda: [Symbol("loc"), l]
        case VPair(fst=a, snd=b):
            return (a, b), lambda x, y: [Symbol("pair"), x, y]
    raise TypeError(f"cannot print {t!r}")


def unparse(e: Expr) -> str:
    return sexpr.write(to_sexpr(e))


# ---------------------------------------------------------------------------
# random source ASTs (parser round-trip fodder)


# ``gen_expr``'s choices, in the order that fixes its random stream; an int
# is a primitive of that arity
_GEN_FORMS = ["leaf", Pair, Rec, App, Let, "seq", If, Flip, Fork, Alloc, Load, Store,
              Faa, Cas, Wait, 1, 2]


def gen_expr(rng, depth: int = 4) -> Expr:
    """A random closed-ish source AST; used for print/parse round trips."""
    names = ["x", "y", "z", "acc", "n1"]
    if depth <= 0:
        leaf = rng.choice(["int", "bool", "unit", "var"])
        if leaf == "int":
            return num(rng.randint(-20, 20))
        if leaf == "bool":
            return boolean(rng.random() < 0.5)
        if leaf == "unit":
            return unit
        return Var(rng.choice(names))
    d = depth - 1
    form = rng.choice(_GEN_FORMS)
    if form == "leaf":
        return gen_expr(rng, 0)
    if form is Rec:
        if rng.random() < 0.3:
            return Rec("_", rng.choice(names), gen_expr(rng, d))
        return Rec("f", rng.choice(names), gen_expr(rng, d))
    if form is App:
        e = gen_expr(rng, d)
        for _ in range(rng.randint(1, 2)):
            e = App(e, gen_expr(rng, d))
        return e
    if form is Let:
        return Let(rng.choice(names), gen_expr(rng, d), gen_expr(rng, d))
    if form == "seq":
        return seq(*[gen_expr(rng, d) for _ in range(rng.randint(2, 3))])
    if type(form) is int:  # a primitive of that arity
        op = rng.choice([op for (op, n) in PRIM_ARITY.items() if n == form])
        return Prim(op, tuple(gen_expr(rng, d) for _ in range(form)))
    return form(*[gen_expr(rng, d) for _ in FORMS[form].children])
