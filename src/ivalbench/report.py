"""Stable JSON/CSV serialization for reports.

Rationals are rendered as ``"num/den"`` strings, never floats; CSV rows
additionally carry a decimal approximation column for plotting.  Report
dictionaries are dumped with sorted keys so identical inputs produce
byte-identical files (the wall-clock ``elapsed_seconds`` field is the one
intentional exception and is excluded from reproducibility comparisons).
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from ivalbench import lang, machine, sexpr
from ivalbench.coupling import CouplingWitness, Verdict
from ivalbench.ival import IndexedValuation


def frac_str(q) -> str:
    q = Fraction(q)
    return f"{sexpr.decimal(q.numerator)}/{sexpr.decimal(q.denominator)}"


def value_json(v):
    """Structural encoding of the finite value domains.

    Ints, bools and None map to themselves, tuples to lists; language
    values render as their concrete syntax under an ``expr`` key.
    """
    if isinstance(v, bool) or isinstance(v, int) or v is None:
        return v
    if isinstance(v, Fraction):
        return frac_str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return [value_json(x) for x in v]
    if isinstance(v, lang.Val):
        return {"expr": lang.unparse(lang.of_val(v))}
    if isinstance(v, lang.Expr):
        return {"expr": lang.unparse(v)}
    raise TypeError(f"cannot serialize value {v!r}")


def ival_json(m: IndexedValuation) -> dict:
    return {"entries": [[str(i), value_json(v), frac_str(p)]
                        for (i, v, p) in m.entries]}


def witness_json(w: CouplingWitness) -> dict:
    return {
        "joint": ival_json(w.joint),
        "rhs_pick": ival_json(w.rhs_pick),
        "predicate": w.predicate_name,
    }


def verdict_json(v: Verdict) -> dict:
    out = {
        "passed": v.passed,
        "failures": [{"clause": f.clause, "detail": f.detail} for f in v.failures],
    }
    if v.membership_certificates:
        certs = []
        for c in v.membership_certificates:
            if c.weights is not None:
                certs.append({"member": c.member_index,
                              "weights": [frac_str(w) for w in c.weights]})
            else:
                certs.append({"member": c.member_index,
                              "separating": [[value_json(v2), frac_str(q)]
                                             for (v2, q) in c.separating]})
        out["membership_certificates"] = certs
    return out


def config_json(c) -> dict:
    return {
        "threads": [lang.unparse(machine.plug(t)) for t in c.threads],
        "heap": {str(loc): lang.unparse(lang.of_val(v)) for (loc, v) in enumerate(c.state.cells)},
        "next_loc": len(c.state.cells),
    }


def trace_json(configs) -> dict:
    """A run, given as its sequence of configurations."""
    return {"configs": [config_json(c) for c in configs]}


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_report(report))


def rows_to_csv(header: list, rows: list) -> str:
    """Rows may contain Fractions; each gets an exact column and a decimal
    approximation column appended for plotting.  A cell holding a comma or
    a quote is quoted, as ``csv`` reads it back."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, Fraction):
                cells.append(frac_str(cell))
                cells.append(f"{float(cell):.6g}")
            else:
                cells.append(str(cell))
        writer.writerow(cells)
    return out.getvalue()
