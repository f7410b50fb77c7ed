"""Serialization: exact rational rendering and stable shapes."""

from fractions import Fraction as F

from ivalbench import ival, lang, machine, report


def test_frac_round_trip():
    for q in (F(0), F(3), F(-7, 2), F(22, 7)):
        assert F(report.frac_str(q)) == q
    assert report.frac_str(F(1, 2)) == "1/2"
    assert report.frac_str(3) == "3/1"
    # past Python's limit on int/str conversion
    assert report.frac_str(F(10 ** 5000)) == "1" + "0" * 5000 + "/1"
    assert report.frac_str(F(-1, 10 ** 5000)) == "-1/1" + "0" * 5000


def test_ival_json_shape():
    m = ival.pchoice(ival.ret(True), F(1, 3), ival.ret(False))
    out = report.ival_json(m)
    assert out == {"entries": [["('L', 0)", True, "1/3"],
                               ["('R', 0)", False, "2/3"]]}


def test_value_json_tuples_and_lang_values():
    assert report.value_json((1, (True, None))) == [1, [True, None]]
    assert report.value_json(lang.VInt(4)) == {"expr": "4"}
    assert report.value_json(lang.VPair(lang.VInt(1), lang.VUnit())) == \
        {"expr": "(pair 1 ())"}


def test_trace_json():
    c = machine.initial_config([lang.parse("(let (l (alloc 7)) (load l))")])
    [(_, c2)] = machine.config_step(c, 0, {})
    out = report.trace_json([c, c2])
    assert len(out["configs"]) == 2
    assert out["configs"][1]["heap"] == {"0": "7"}


def test_dump_is_deterministic():
    rep = {"b": report.frac_str(F(1, 3)), "a": [1, 2]}
    assert report.dump_report(rep) == report.dump_report(dict(reversed(rep.items())))


def test_csv_rows_carry_decimal_column():
    text = report.rows_to_csv(["x", "exact", "approx"], [[1, F(1, 3)], ["2,4", F(1)]])
    assert text == 'x,exact,approx\n1,1/3,0.333333\n"2,4",1/1,1\n'
