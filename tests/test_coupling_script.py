"""Derivation scripts: every rule form, and verdict wiring."""

from fractions import Fraction as F

import pytest

from ivalbench import coupling, coupling_script, ival
from ivalbench.coupling_script import ScriptError, load_script


def check(text):
    d = load_script(text)
    return coupling.check_witness(d.goal, d.witness)


def test_ret_script():
    assert check("(ret 3 3 (pred-eq))").passed
    with pytest.raises(coupling.CouplingError):
        load_script("(ret 3 4 (pred-eq))")


def test_pchoice_script_counter_shape():
    text = """
    (pchoice 1/3
      (ret #t 3 (pred-expr (or (and (= x #t) (= y 3)) (and (= x #f) (= y 0)))))
      (ret #f 0 (pred-expr (or (and (= x #t) (= y 3)) (and (= x #f) (= y 0))))))
    """
    d = load_script(text)
    assert coupling.check_witness(d.goal, d.witness).passed
    assert dict(ival.to_distribution(d.goal.lhs).weights)[True] == F(1, 3)


def test_equiv_script_retargets():
    text = """
    (equiv (ret 1 1 (pred-eq))
           (ival (1 1/1))
           (pset (ival (1 1/1)) (ival (2 1/2) (0 1/2))))
    """
    assert check(text).passed


def test_equiv_script_rejects_wrong_lhs():
    with pytest.raises(coupling.CouplingError):
        load_script("(equiv (ret 1 1 (pred-eq)) (ival (2 1/1)) (pset (ival (1 1/1))))")


def test_conseq_and_trivial_scripts():
    assert check("(conseq (ret 2 2 (pred-eq)) (pred-true))").passed
    assert check("(trivial (ival (0 1/2) (5 1/2)) (pset (ival (1 1/1))))").passed


def test_bind_script_with_cases():
    text = """
    (bind (pchoice 1/2 (ret 0 0 (pred-eq)) (ret 1 1 (pred-eq)))
          (case ((0 0) (ret 10 10 (pred-eq)))
                ((1 1) (ret 11 11 (pred-eq)))))
    """
    assert check(text).passed


def test_bind_script_missing_case():
    text = """
    (bind (pchoice 1/2 (ret 0 0 (pred-eq)) (ret 1 1 (pred-eq)))
          (case ((0 0) (ret 10 10 (pred-eq)))))
    """
    with pytest.raises(coupling.CouplingError):
        load_script(text)


def test_value_and_rational_parse_errors():
    from ivalbench.sexpr import Symbol
    with pytest.raises(ScriptError):
        coupling_script.parse_rational(Symbol("x/y"))
    with pytest.raises(ScriptError):
        load_script("(ret 1 1 (pred-unknown))")
    with pytest.raises(ScriptError):
        load_script("(frobnicate 1)")
