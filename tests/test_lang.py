"""Concrete syntax: parsing, printing, round trips, hash-consing."""

import copy
import gc
import pickle
import random
import sys
import weakref
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from ivalbench import lang, machine, sexpr
from ivalbench.lang import (
    FORMS, App, Faa, Flip, Let, Lit, Prim, Rec, Var, VBool, VInt, VLoc, VPair,
    gen_expr, parse, unparse,
)


def test_flip_and_faa_forms():
    assert parse("(flip 1 2)") == Flip(Lit(VInt(1)), Lit(VInt(2)))
    assert parse("(faa l 3)") == Faa(Var("l"), Lit(VInt(3)))


def test_atoms():
    assert parse("42") == Lit(VInt(42))
    assert parse("#t") == lang.boolean(True)
    assert parse("()") == lang.unit
    assert parse("(loc 3)") == Lit(VLoc(3))
    assert parse("x") == Var("x")


def test_application_currying():
    e = parse("(f x y)")
    assert e == App(App(Var("f"), Var("x")), Var("y"))
    assert unparse(e) == "(f x y)"


def test_seq_sugar_flattens():
    e = parse("(seq a b c)")
    assert unparse(e) == "(seq a b c)"
    assert e == lang.seq(Var("a"), Var("b"), Var("c"))


def test_lam_normalizes_to_rec():
    e = parse("(lam (x) x)")
    assert e == Rec("_", "x", Var("x"))
    printed = unparse(e)
    assert printed == "(rec (_ x) x)"
    assert parse(printed) == e


def test_reserved_words_rejected_as_variables():
    with pytest.raises(Exception):
        parse("(let (load 1) load)")
    with pytest.raises(ValueError):
        Var("flip")


def test_parse_errors_have_positions():
    with pytest.raises(sexpr.SexprError) as err:
        parse("(flip 1")
    assert "1:" in str(err.value)
    with pytest.raises(sexpr.SexprError):
        parse("(if x y)")  # arity


def test_sexpr_reads_any_depth():
    s = sexpr.read("(" * 3000 + "a" + ")" * 3000)
    for _ in range(3000):
        (s,) = s
    assert s == sexpr.Symbol("a")
    assert sexpr.write(sexpr.read("(a (b #t) () -3)")) == "(a (b #t) () -3)"


def test_grammar_table_is_complete():
    # every expression constructor has exactly one form
    constructors = {c for c in vars(lang).values()
                    if isinstance(c, type) and issubclass(c, lang.Expr) and c is not lang.Expr}
    assert constructors == set(lang.FORMS)
    assert all(form.cls is cls for (cls, form) in lang.FORMS.items())
    assert lang.RESERVED == set(lang.KEYWORDS) | {"rec", "lam", "let", "seq", "loc"}
    assert len(lang.KEYWORDS) == sum(len(f.keywords) for f in lang.FORMS.values())
    # every keyword form parses, prints and parses back to the same node
    for (kw, (form, arity)) in lang.KEYWORDS.items():
        text = "(" + " ".join([kw] + [f"x{i}" for i in range(arity)]) + ")"
        e = parse(text)
        assert type(e) is form.cls
        assert form.kids(e) == tuple(Var(f"x{i}") for i in range(arity))
        assert unparse(e) == text and parse(unparse(e)) is e
        with pytest.raises(sexpr.SexprError):
            parse(text[:-1] + " y)")  # arity


def test_forms_rebuild_every_node():
    # a node's evaluation positions are a prefix of its children, and its
    # form rebuilds it from its head and its children
    rng = random.Random(3)
    seen = set()
    todo = [gen_expr(rng, depth=5) for _ in range(200)]
    while todo:
        e = todo.pop()
        form = lang.FORMS[type(e)]
        kids = form.kids(e)
        evaluated = form.evaluated(e)
        assert kids[:len(evaluated)] == evaluated
        assert form.make(e, kids) is e
        seen.add(type(e))
        todo.extend(kids)
    assert seen == set(lang.FORMS)


def test_comments_ignored():
    e = parse("; a probe\n(flip 1 2) ; tail\n")
    assert e == Flip(Lit(VInt(1)), Lit(VInt(2)))


def test_runtime_values_print_as_constructors():
    v = Lit(VPair(VInt(1), VInt(2)))
    assert unparse(v) == "(pair 1 2)"
    reparsed = parse(unparse(v))
    assert reparsed.is_val and lang.to_val(reparsed) == VPair(VInt(1), VInt(2))


def test_round_trip_generated_asts():
    rng = random.Random(17)
    for _ in range(400):
        e = gen_expr(rng, depth=4)
        printed = unparse(e)
        assert parse(printed) == e
        assert unparse(parse(printed)) == printed


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2 ** 63))
def test_round_trip_seeded(seed):
    rng = random.Random(seed)
    e = gen_expr(rng, depth=3)
    assert parse(unparse(e)) == e


def test_substitution_respects_binders():
    e = parse("(let (x 1) (+ x y))")
    out = lang.subst(e, "x", Lit(VInt(9)))
    assert out == e  # bound occurrence untouched
    out = lang.subst(e, "y", Lit(VInt(9)))
    assert out == parse("(let (x 1) (+ x 9))")
    rec = parse("(rec (f x) (f x y))")
    assert lang.subst(rec, "f", Lit(VInt(1))) == rec
    assert lang.subst(rec, "y", Lit(VInt(7))) == parse("(rec (f x) (f x 7))")


def test_value_conversions():
    e = parse("(pair 1 (pair #t ()))")
    assert e.is_val
    v = lang.to_val(e)
    assert v == VPair(VInt(1), VPair(lang.TRUE, lang.VUnit()))
    assert lang.to_val(lang.of_val(v)) == v
    assert not parse("(pair 1 (load x))").is_val


def test_equal_constructions_are_one_object():
    text = "(let (x (flip 1 2)) (if x (+ y 1) (pair y ())))"
    e = parse(text)
    assert parse(text) is e
    assert lang.subst(parse(text.replace("y", "z")), "z", Var("y")) is e
    s = machine.State(())
    for (text, after) in (("(+ 1 2)", "3"), ("(let (x 1) (+ x x))", "(+ 1 1)"),
                          ("(pair (+ 1 2) y)", "(pair 3 y)")):
        [(_, a, _, _)] = machine.outcomes(machine.refocus(None, parse(text)), s)
        [(_, b, _, _)] = machine.outcomes(machine.refocus(None, parse(text)), s)
        assert a is b is machine.refocus(None, parse(after))


def test_pickle_and_copy_reintern():
    rng = random.Random(5)
    for _ in range(100):
        e = gen_expr(rng, depth=4)
        assert pickle.loads(pickle.dumps(e)) is e
        assert copy.deepcopy(e) is e
    v = lang.to_val(parse("(pair (rec (f x) (f x)) #t)"))
    assert pickle.loads(pickle.dumps(v)) is v
    # unpickled after the original is gone: constructed again, checks and all
    data = pickle.dumps(parse("(let (x 123456789123) (+ x y))"))
    gc.collect()
    e = pickle.loads(data)
    assert e is parse("(let (x 123456789123) (+ x y))") and e.fv == {"y"}


def test_scalar_payloads_keep_their_type():
    assert VInt(1) is VInt(1)
    assert VInt(1) is not VBool(True)
    assert Lit(VInt(1)) is not Lit(VBool(True))
    for (cls, bad) in ((VInt, True), (VInt, 1.0), (VBool, 1), (VLoc, False)):
        with pytest.raises(TypeError):
            cls(bad)
    with pytest.raises(sexpr.SexprError):
        parse("(loc #t)")


def test_table_entry_dies_with_last_reference():
    n = 10 ** 30 + 7
    e = Prim("+", (lang.num(n), Var("y")))
    assert (n,) in VInt._table
    dead = weakref.ref(e)
    del e
    gc.collect()
    assert dead() is None
    assert (n,) not in VInt._table
    assert lang.num(n).value.n == n


def test_underscore_never_binds():
    # `_` is a throwaway binder: the body's `_` stays an unbound variable,
    # so each of these steps to it and is stuck, and never terminates
    s = machine.State(())
    for text in ("(let (_ 1) _)", "(seq 1 _)", "((lam (x) _) 1)"):
        e = parse(text)
        assert e.fv == frozenset()
        [(_, t1, _, _)] = machine.outcomes(machine.refocus(None, e), s)
        assert t1 is machine.Thread(None, Var("_")) and machine.outcomes(t1, s) is None
    assert lang.subst(Var("_"), "_", lang.num(1)) is Var("_")


def naive_free_vars(e) -> set:
    t = type(e)
    if t is Var:
        return set() if e.name == "_" else {e.name}
    if t is Lit:
        return set()
    if t is Rec:
        return naive_free_vars(e.body) - {e.fname, e.xname}
    if t is Let:
        return naive_free_vars(e.bound) | (naive_free_vars(e.body) - {e.name})
    kids = e.args if t is Prim else [getattr(e, f) for f in t.__match_args__]
    return set().union(*map(naive_free_vars, kids))


def naive_subst(e, name, r):
    """Substitution by a full walk, with no free-variable shortcut."""
    t = type(e)
    if t is Var:
        return r if e.name == name and name != "_" else e
    if t is Lit or (t is Rec and name in (e.fname, e.xname)):
        return e
    if t is Let:
        body = e.body if e.name == name else naive_subst(e.body, name, r)
        return Let(e.name, naive_subst(e.bound, name, r), body)
    if t is Prim:
        return Prim(e.op, tuple(naive_subst(a, name, r) for a in e.args))
    return t(*[naive_subst(x, name, r) if isinstance(x, lang.Expr) else x
               for x in (getattr(e, f) for f in t.__match_args__)])


def test_subst_skips_terms_where_the_name_is_not_free():
    e = parse("(let (x 1) (rec (f y) (f (+ x y))))")
    for name in ("x", "f", "y", "z", "_"):
        assert lang.subst(e, name, lang.num(9)) is e
    open_term = parse("(pair x (let (x 2) x))")
    assert open_term.fv == {"x"}
    assert lang.subst(open_term, "x", lang.num(9)) is parse("(pair 9 (let (x 2) x))")
    rng = random.Random(23)
    for _ in range(300):
        e = gen_expr(rng, depth=4)
        assert e.fv == naive_free_vars(e)
        for name in ("x", "y", "z", "acc", "n1", "f", "_"):
            out = lang.subst(e, name, lang.num(7))
            assert out is naive_subst(e, name, lang.num(7))
            assert out.fv == e.fv - {name}
            if name not in e.fv:
                assert out is e


def test_deep_terms_print_and_parse_without_recursion():
    # every form that nests, 5,000 deep: the parser and the printer walk
    # on explicit stacks
    e = lang.unit
    for k in range(5_000):
        e = [lang.Pair(lang.num(k), e), lang.App(lang.Var("f"), e), lang.Let("x", e, lang.Var("x")),
             lang.seq(e, lang.num(k)), lang.Rec("f", "x", e), lang.Prim("+", (e, lang.num(1))),
             lang.If(e, lang.unit, lang.unit)][k % 7]
    v = lang.UNIT
    for k in range(5_000):
        v = lang.VPair(lang.VInt(k), v)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        text = lang.unparse(e)
        assert lang.parse(text) is e
        printed = sexpr.write(lang.to_sexpr(lang.of_val(v)))
    finally:
        sys.setrecursionlimit(limit)
    assert text.count("(") == text.count(")") > 5_000
    assert printed == "".join(f"(pair {k} " for k in reversed(range(5_000))) + "()" + ")" * 5_000


VALUE_CLASSES = [lang.VUnit, VInt, VBool, VLoc, VPair, lang.VClosure]


def test_terms_and_values_repr_through_the_printer():
    # one printer: a term reprs as its concrete syntax and a value as the
    # expression of it, both of which ``parse`` reads back
    rng = random.Random(19)
    for _ in range(1000):
        e = gen_expr(rng, depth=4)
        assert repr(e) == unparse(e)
    programs = [p for p in resources.files("ivalbench.programs").iterdir()
                if p.name.endswith(".sexp")]
    assert programs
    for entry in programs:
        e = parse(entry.read_text())
        assert repr(e) == unparse(e)
    values = [lang.UNIT, VInt(-3), lang.TRUE, VLoc(2), VPair(VInt(1), lang.FALSE),
              lang.to_val(parse("(rec (f x) (f (+ x 1)))"))]
    assert [type(v) for v in values] == VALUE_CLASSES
    assert [repr(v) for v in values] == [
        "()", "-3", "#t", "(loc 2)", "(pair 1 #f)", "(rec (f x) (f (+ x 1)))"]
    for v in values:
        assert repr(v) == unparse(lang.of_val(v))
        assert lang.to_val(parse(repr(v))) is v


def test_no_node_class_has_a_repr_of_its_own():
    # values and expressions print through the one printer, not through
    # generated or hand-written reprs
    for cls in [*VALUE_CLASSES, *FORMS]:
        assert "__repr__" not in vars(cls), cls
    assert repr(machine.State((VInt(1),))) == "State(cells=(1,))"


def test_integers_of_any_length_read_and_print_exactly():
    # past Python's limit on int/str conversion, a numeral is still an
    # integer literal, and it prints back digit for digit
    text = "1" + "0" * 4997 + "123"
    n = 10 ** 5000 + 123
    assert sexpr.read(text) == n and sexpr.read("-" + text) == -n
    assert sexpr.read("+" + text) == n
    assert sexpr.decimal(n) == text and sexpr.decimal(-n) == "-" + text
    e = parse(f"(+ {text} 1)")
    assert e.fv == frozenset() and e.args[0] is Lit(VInt(n))
    assert unparse(e) == repr(e) == f"(+ {text} 1)"
    rng = random.Random(5)
    for digits in (1, 2, 499, 500, 501, 1000, 4000):
        k = rng.randrange(10 ** digits) * rng.choice((1, -1))
        assert sexpr.decimal(k) == str(k) and sexpr.read(str(k)) == k
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least limit Python accepts
    try:
        assert sexpr.read(text) == n and sexpr.decimal(n) == text
    finally:
        sys.set_int_max_str_digits(limit)
    for token in ("-", "+", "1x", "x1", "1_000", "--1", "١"):
        assert sexpr.read(token) == sexpr.Symbol(token)
