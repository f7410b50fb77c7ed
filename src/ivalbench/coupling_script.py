"""Textual derivation scripts for coupling constructions.

A script is one s-expression naming constructor rules:

    d ::= (ret <val> <val> <pred>)
        | (pchoice <rat> <d> <d>)
        | (bind <d> (case ((<val> <val>) <d>) ...) [(else-rhs (<val> <pset>) ...)])
        | (equiv <d> <ival> <pset>)
        | (conseq <d> <pred>)
        | (trivial <ival> <pset>)

    <ival> ::= (ival (<val> <rat>) ...)          probabilities sum to 1
    <pset> ::= (pset <ival> ...)
    <pred> ::= (pred-true) | (pred-eq) | (pred-expr <bexpr>)
    <bexpr>::= #t | #f | (and <bexpr> <bexpr>) | (or <bexpr> <bexpr>)
             | (not <bexpr>) | (= x <val>) | (= y <val>) | (= x y)
    <val>  ::= integer | #t | #f | (tuple <val> ...)
    <rat>  ::= integer | integer/digits        the reader's integers, digits > 0

Evaluating a script yields a checked derivation; the CLI turns the
checker's verdict into a report.
"""

from __future__ import annotations

from fractions import Fraction

from ivalbench import coupling, ival, ndset, sexpr
from ivalbench.ival import value_key
from ivalbench.sexpr import Symbol


class ScriptError(Exception):
    """The script is not a well-formed derivation."""


def show(s, depth=3) -> str:
    """``s`` for a message, lists deeper than ``depth`` cut to ``(...)``."""
    if isinstance(s, list):
        return "(...)" if depth == 0 else "(" + " ".join(show(x, depth - 1) for x in s) + ")"
    return sexpr.write(s)


def check_arity(s: list, *counts: int) -> None:
    """Raise unless the form ``s`` has one of ``counts`` arguments."""
    if len(s) - 1 not in counts:
        want = " or ".join(str(n) for n in counts)
        raise ScriptError(f"{s[0]!r} takes {want} argument(s): {show(s)}")


def parse_rational(s) -> Fraction:
    """An integer, or ``num/den``: one ``/`` between the reader's signed
    integer and an unsigned positive one."""
    if type(s) is int:
        return Fraction(s)
    if isinstance(s, Symbol) and s.name.count("/") == 1:
        (num, den) = s.name.split("/")
        (n, d) = (sexpr.integer(num), sexpr.integer(den))
        if n is not None and d is not None and den[0] not in "+-" and d > 0:
            return Fraction(n, d)
    raise ScriptError(f"expected a rational, got {show(s)}")


def parse_value(s):
    if isinstance(s, (bool, int)):
        return s
    if isinstance(s, list) and s and s[0] == Symbol("tuple"):
        return tuple(parse_value(x) for x in s[1:])
    raise ScriptError(f"expected a value, got {show(s)}")


def parse_ival(s) -> ival.IndexedValuation:
    if not (isinstance(s, list) and s and s[0] == Symbol("ival")):
        raise ScriptError(f"expected (ival ...), got {show(s)}")
    entries = []
    for (k, item) in enumerate(s[1:]):
        if not (isinstance(item, list) and len(item) == 2):
            raise ScriptError(f"expected (value prob), got {show(item)}")
        entries.append((k, parse_value(item[0]), parse_rational(item[1])))
    try:
        return ival.of_entries(entries)
    except ValueError as exc:
        raise ScriptError(f"{show(s)}: {exc}") from exc


def parse_pset(s) -> ndset.ProcessSet:
    if not (isinstance(s, list) and s and s[0] == Symbol("pset")):
        raise ScriptError(f"expected (pset ...), got {show(s)}")
    if len(s) < 2:
        raise ScriptError("(pset ...) needs at least one member")
    return ndset.lift(*[parse_ival(x) for x in s[1:]])


def parse_bexpr(s):
    if isinstance(s, bool):
        return lambda x, y: s
    if not (isinstance(s, list) and s):
        raise ScriptError(f"expected a boolean expression, got {show(s)}")
    head = s[0]
    if head == Symbol("and"):
        check_arity(s, 2)
        a, b = parse_bexpr(s[1]), parse_bexpr(s[2])
        return lambda x, y: a(x, y) and b(x, y)
    if head == Symbol("or"):
        check_arity(s, 2)
        a, b = parse_bexpr(s[1]), parse_bexpr(s[2])
        return lambda x, y: a(x, y) or b(x, y)
    if head == Symbol("not"):
        check_arity(s, 1)
        a = parse_bexpr(s[1])
        return lambda x, y: not a(x, y)
    if head == Symbol("="):
        check_arity(s, 2)
        sides = []
        for side in s[1:3]:
            if side == Symbol("x"):
                sides.append(lambda x, y: x)
            elif side == Symbol("y"):
                sides.append(lambda x, y: y)
            else:
                v = parse_value(side)
                sides.append(lambda x, y, v=v: v)
        a, b = sides
        return lambda x, y: value_key(a(x, y)) == value_key(b(x, y))
    raise ScriptError(f"unknown boolean form {show(s)}")


def parse_pred(s):
    if not (isinstance(s, list) and s):
        raise ScriptError(f"expected a predicate form, got {show(s)}")
    head = s[0]
    if head == Symbol("pred-true"):
        check_arity(s, 0)
        return (lambda x, y: True), "TRUE"
    if head == Symbol("pred-eq"):
        check_arity(s, 0)
        return (lambda x, y: value_key(x) == value_key(y)), "x=y"
    if head == Symbol("pred-expr"):
        check_arity(s, 1)
        return parse_bexpr(s[1]), sexpr.write(s[1])
    raise ScriptError(f"unknown predicate form {show(s)}")


_ARITY = {"ret": (3,), "pchoice": (3,), "bind": (2, 3), "equiv": (3,),
          "conseq": (2,), "trivial": (2,)}


def eval_script(s) -> coupling.Derivation:
    if not (isinstance(s, list) and s and isinstance(s[0], Symbol)):
        raise ScriptError(f"expected a derivation form, got {show(s)}")
    rule = s[0].name
    if rule in _ARITY:
        check_arity(s, *_ARITY[rule])
    if rule == "ret":
        a, b = parse_value(s[1]), parse_value(s[2])
        pred, name = parse_pred(s[3])
        return coupling.couple_ret(a, b, pred, name)
    if rule == "pchoice":
        p = parse_rational(s[1])
        if not 0 <= p <= 1:
            raise ScriptError(f"choice weight {p} outside [0, 1]")
        return coupling.couple_pchoice(eval_script(s[2]), eval_script(s[3]), p)
    if rule == "bind":
        d1 = eval_script(s[1])
        cases = {}
        if not (isinstance(s[2], list) and s[2] and s[2][0] == Symbol("case")):
            raise ScriptError("bind expects a (case ...) block")
        for item in s[2][1:]:
            if not (isinstance(item, list) and len(item) == 2
                    and isinstance(item[0], list) and len(item[0]) == 2):
                raise ScriptError(f"case entry must be ((x y) derivation), got {show(item)}")
            (pair_s, sub_s) = item
            pair = (parse_value(pair_s[0]), parse_value(pair_s[1]))
            cases[value_key(pair)] = eval_script(sub_s)
        rhs_else = {}
        if len(s) > 3:
            if not (isinstance(s[3], list) and s[3] and s[3][0] == Symbol("else-rhs")):
                raise ScriptError("bind's optional third block is (else-rhs ...)")
            for item in s[3][1:]:
                if not (isinstance(item, list) and len(item) == 2):
                    raise ScriptError(f"else-rhs entry must be (value pset), got {show(item)}")
                (vy, ps) = item
                rhs_else[value_key(parse_value(vy))] = parse_pset(ps)

        def k(x, y):
            key = value_key((x, y))
            if key not in cases:
                raise coupling.CouplingError(f"no case for support pair {(x, y)!r}")
            return cases[key]

        def rhs_cont(y):
            got = rhs_else.get(value_key(y))
            if got is None:
                raise coupling.CouplingError(f"no else-rhs entry for {y!r}")
            return got

        return coupling.couple_bind(d1, k, rhs_cont=rhs_cont if rhs_else else None)
    if rule == "equiv":
        return coupling.couple_equiv(eval_script(s[1]), parse_ival(s[2]),
                                     parse_pset(s[3]))
    if rule == "conseq":
        d = eval_script(s[1])
        pred, name = parse_pred(s[2])
        return coupling.couple_conseq(d, pred, name)
    if rule == "trivial":
        return coupling.couple_trivial(parse_ival(s[1]), parse_pset(s[2]))
    raise ScriptError(f"unknown rule {rule!r}")


def load_script(text: str) -> coupling.Derivation:
    try:
        return eval_script(sexpr.read(text))
    except RecursionError:
        raise ScriptError("derivation nested too deeply to evaluate") from None
