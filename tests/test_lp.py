"""Exact feasibility LP: decisions and certificates."""

import random
from dataclasses import dataclass
from fractions import Fraction
from fractions import Fraction as F
from typing import Optional

import pytest

from ivalbench import ival, laws, lp, ndset


def key(vec):
    """A vector of Fractions as ``(den, nums)`` in lowest terms, the form
    ``convex_hull_membership`` reads."""
    return ival.over_common_denominator(vec)


def hull(point, gens):
    return lp.convex_hull_membership(key(point), [key(g) for g in gens])


def test_feasible_point_system():
    # x1 + x2 = 1, x1 - x2 = 0  =>  x = (1/2, 1/2)
    res = lp.solve_equality_feasibility(
        [[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)])
    assert res.feasible
    assert res.solution == [F(1, 2), F(1, 2)]


def test_floats_are_refused():
    # a float is a binary fraction, not the rational it was written as
    with pytest.raises(TypeError):
        lp.solve_equality_feasibility([[0.5, 1]], [0.25])
    with pytest.raises(TypeError):
        lp.solve_equality_feasibility([[F(1, 2), 1]], [0.25])
    assert lp.solve_equality_feasibility([[F(1, 2), 1]], [F(1, 4)]).feasible


def test_infeasible_produces_separating_certificate():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    res = lp.solve_equality_feasibility(
        [[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])
    assert not res.feasible
    y = res.certificate
    assert y[0] * 1 + y[1] * 2 > 0
    assert y[0] + y[1] <= 0


def test_negativity_requirement_detected():
    # x = -1 has no nonnegative solution
    res = lp.solve_equality_feasibility([[F(1)]], [F(-1)])
    assert not res.feasible
    assert res.certificate[0] * F(-1) > 0


def test_degenerate_zero_rhs():
    res = lp.solve_equality_feasibility([[F(1), F(-1)]], [F(0)])
    assert res.feasible
    assert res.solution[0] - res.solution[1] == 0


def test_hull_membership_inside():
    point = [F(1, 2), F(1, 2)]
    gens = [[F(1), F(0)], [F(0), F(1)]]
    res = hull(point, gens)
    assert res.feasible
    assert res.solution == [F(1, 2), F(1, 2)]


def test_hull_membership_outside():
    point = [F(2), F(-1)]
    gens = [[F(1), F(0)], [F(0), F(1)]]
    res = hull(point, gens)
    assert not res.feasible
    f = res.certificate[:2]
    score_point = f[0] * point[0] + f[1] * point[1]
    for g in gens:
        assert score_point + res.certificate[2] > 0
        assert f[0] * g[0] + f[1] * g[1] + res.certificate[2] <= 0


def test_hull_membership_vertex_and_midpoint_of_three():
    gens = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    assert hull([F(0), F(1), F(0)], gens).feasible
    mid = [F(1, 3)] * 3
    assert hull(mid, gens).feasible
    assert not hull([F(1, 2), F(1, 2), F(1, 2)], gens).feasible


def test_random_mixtures_stay_inside():
    rng = random.Random(4)
    for _ in range(150):
        dim = rng.randint(1, 4)
        gens = []
        for _ in range(rng.randint(1, 4)):
            w = [rng.randint(0, 5) for _ in range(dim)]
            t = sum(w) or 1
            gens.append([F(x, t) for x in w])
        lam = [rng.randint(0, 4) for _ in gens]
        lam[0] = max(lam[0], 1)  # mixing weights must sum to something positive
        t = sum(lam)
        point = [sum(F(lam[j], t) * gens[j][d] for j in range(len(gens)))
                 for d in range(dim)]
        assert hull(point, gens).feasible


# ---------------------------------------------------------------------------
# the Fraction simplex, kept as the oracle of the fraction-free one


@dataclass
class OracleResult:
    feasible: bool
    solution: Optional[list]
    certificate: Optional[list]


def oracle_solve(A: list, b: list) -> OracleResult:
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [[Fraction(x) for x in row] for row in A]
    rhs = [Fraction(x) for x in b]
    sign = [Fraction(1)] * m
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
            sign[i] = Fraction(-1)

    if m == 0:
        return OracleResult(True, [Fraction(0)] * n, None)

    # Tableau columns: n structural + m artificial + rhs.
    width = n + m
    tab = []
    for i in range(m):
        row = rows[i] + [Fraction(0)] * m + [rhs[i]]
        row[n + i] = Fraction(1)
        tab.append(row)
    basis = [n + i for i in range(m)]

    # Phase-1 objective: minimize the sum of artificials.  The reduced-cost
    # row starts as -(sum of constraint rows) on structural columns, with
    # objective value -(sum of rhs); entry j holds c_j - y.A_j.
    obj = [Fraction(0)] * (width + 1)
    for j in range(width + 1):
        s = Fraction(0)
        for i in range(m):
            s += tab[i][j]
        obj[j] = (Fraction(1) if n <= j < width else Fraction(0)) - s
    # Artificial columns start basic, reduced cost 0.
    for i in range(m):
        obj[n + i] = Fraction(0)

    while True:
        enter = -1
        for j in range(width):  # Bland: smallest eligible index
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise ArithmeticError("phase-1 objective unbounded; malformed tableau")
        oracle_pivot(tab, obj, leave, enter, width)
        basis[leave] = enter

    value = -obj[width]  # current objective value (sum of artificials)
    if value == 0:
        x = [Fraction(0)] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = tab[i][width]
        return OracleResult(True, x, None)

    # Infeasible: dual prices from reduced costs of the artificial columns,
    # mapped back through the row sign flips.
    y = []
    for i in range(m):
        yi = Fraction(1) - obj[n + i]
        y.append(sign[i] * yi)
    # Exactness self-check: the certificate must actually separate.
    ydotb = sum(y[i] * Fraction(b[i]) for i in range(m))
    if ydotb <= 0:
        raise ArithmeticError("separating certificate failed y.b > 0")
    for j in range(n):
        col = sum(y[i] * Fraction(A[i][j]) for i in range(m))
        if col > 0:
            raise ArithmeticError("separating certificate failed y.A <= 0")
    return OracleResult(False, None, y)


def oracle_pivot(tab: list, obj: list, leave: int, enter: int, width: int) -> None:
    piv = tab[leave][enter]
    tab[leave] = [x / piv for x in tab[leave]]
    for i in range(len(tab)):
        if i != leave and tab[i][enter] != 0:
            c = tab[i][enter]
            tab[i] = [tab[i][j] - c * tab[leave][j] for j in range(width + 1)]
    if obj[enter] != 0:
        c = obj[enter]
        for j in range(width + 1):
            obj[j] -= c * tab[leave][j]


# ---------------------------------------------------------------------------


def random_rational(rng):
    den = rng.choice([1, 1, 2, 3, 4, 6, 7, 9, 10, 12])
    return F(rng.randint(-6, 6), den) if rng.random() < 0.8 else F(0)


def random_system(rng, seen):
    """A random ``A x = b``, bent towards the cases a pivot rule can get
    wrong: zero and duplicate columns, proportional rows whose ratios tie,
    right-hand sides that are negative, zero, or a nonnegative mix of
    columns (feasible), and entries given as ints."""
    m = rng.randint(1, 4)
    n = rng.randint(1, 5)
    A = [[random_rational(rng) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.3:
        for row in A:
            row.insert(rng.randint(0, n), F(0))
        seen["zero column"] += 1
    if rng.random() < 0.3:
        j = rng.randrange(len(A[0]))
        for row in A:
            row.insert(rng.randint(0, len(row)), row[j])
        seen["duplicate column"] += 1
    if m > 1 and rng.random() < 0.3:
        k = F(rng.randint(1, 3), rng.randint(1, 3))
        A[rng.randrange(m)] = [k * x for x in A[0]]
    if rng.random() < 0.5:
        x = [F(rng.randint(0, 3), rng.randint(1, 3)) if rng.random() < 0.6 else F(0)
             for _ in A[0]]
        b = [sum(a * xj for (a, xj) in zip(row, x)) for row in A]
    else:
        b = [random_rational(rng) for _ in range(m)]
    if rng.random() < 0.2:
        b[rng.randrange(m)] = F(0)
    if rng.random() < 0.2:
        A = [[int(x) if x.denominator == 1 else x for x in row] for row in A]
    seen["negative rhs"] += any(v < 0 for v in b)
    return A, b


def test_fraction_free_simplex_agrees_with_the_fraction_oracle(monkeypatch):
    rng = random.Random(12)
    calls = {"new": 0, "oracle": 0, "ties": 0}
    new_pivot, old_pivot = lp.pivot, oracle_pivot

    def counted_pivot(*args):
        calls["new"] += 1
        return new_pivot(*args)

    def counted_oracle_pivot(tab, obj, leave, enter, width):
        calls["oracle"] += 1
        ratios = [tab[i][width] / tab[i][enter] for i in range(len(tab)) if tab[i][enter] > 0]
        calls["ties"] += ratios.count(min(ratios)) > 1
        return old_pivot(tab, obj, leave, enter, width)

    monkeypatch.setattr(lp, "pivot", counted_pivot)
    monkeypatch.setitem(globals(), "oracle_pivot", counted_oracle_pivot)
    seen = {"feasible": 0, "infeasible": 0, "zero column": 0, "duplicate column": 0,
            "negative rhs": 0, "ratio tie": 0}
    for _ in range(600):
        (A, b) = random_system(rng, seen)
        ties = calls["ties"]
        want = oracle_solve(A, b)
        got = lp.solve_equality_feasibility(A, b)
        assert (got.feasible, got.solution, got.certificate) == \
            (want.feasible, want.solution, want.certificate), (A, b)
        assert calls["new"] == calls["oracle"], (A, b)
        seen["feasible" if want.feasible else "infeasible"] += 1
        seen["ratio tie"] += calls["ties"] > ties
    assert min(seen.values()) >= 50, seen


# ---------------------------------------------------------------------------
# the integer hand-off of convex_hull_membership against the Fraction entry


def hull_agrees(point, gens, pivots):
    """``convex_hull_membership`` on the integer keys ``point`` and
    ``gens`` returns what ``solve_equality_feasibility`` returns on the
    same rows as Fractions, after as many pivots; returns its verdict."""
    before = pivots[0]
    got = lp.convex_hull_membership(point, gens)
    mid = pivots[0]
    rows = [[F(n[d], den) for (den, n) in gens] for d in range(len(point[1]))]
    want = lp.solve_equality_feasibility(
        rows + [[F(1)] * len(gens)], [F(n, point[0]) for n in point[1]] + [F(1)])
    assert (got.feasible, got.solution, got.certificate) == \
        (want.feasible, want.solution, want.certificate), (point, gens)
    assert mid - before == pivots[0] - mid, (point, gens)
    return got.feasible


def counted_pivots(monkeypatch) -> list:
    pivots = [0]
    pivot = lp.pivot

    def counted(*args):
        pivots[0] += 1
        return pivot(*args)

    monkeypatch.setattr(lp, "pivot", counted)
    return pivots


def test_hull_hand_off_agrees_on_the_c08_instances(monkeypatch):
    # the (a, b) pairs of laws.run_subset_p_agreement(500, 500, 13), drawn
    # in its order, falsifier functions included
    rng = laws.rng_for(13, "subsetp-agreement")
    solves = []
    solve = lp.convex_hull_membership
    monkeypatch.setattr(lp, "convex_hull_membership",
                        lambda point, gens: solves.append((point, gens)) or solve(point, gens))
    verdicts = []
    for _ in range(500):
        b = laws.gen_pset(rng, 3, 3)
        a = laws.dominated_by(rng, b) if rng.random() < 0.5 else laws.gen_pset(rng, 3, 3)
        (verdict, _) = ndset.subset_p_certified(a, b)
        verdicts.append(verdict)
        if verdict:
            domain = ndset.joint_support(ndset.union(a, b))
            for _ in range(500):
                laws.gen_fun_rational(rng, domain)
    assert (verdicts.count(True), verdicts.count(False)) == (255, 245)
    monkeypatch.setattr(lp, "convex_hull_membership", solve)
    pivots = counted_pivots(monkeypatch)
    feasible = [hull_agrees(point, gens, pivots) for (point, gens) in solves]
    assert True in feasible and False in feasible and pivots[0] > len(solves)


def test_hull_hand_off_agrees_on_random_systems(monkeypatch):
    # the columns of a random system are the generators, its right-hand
    # side the point
    rng = random.Random(14)
    pivots = counted_pivots(monkeypatch)
    seen = {"feasible": 0, "infeasible": 0, "zero column": 0, "duplicate column": 0,
            "negative rhs": 0}
    for _ in range(600):
        (A, b) = random_system(rng, seen)
        gens = [key([F(x) for x in col]) for col in zip(*A)]
        seen["feasible" if hull_agrees(key(b), gens, pivots) else "infeasible"] += 1
    assert min(seen.values()) >= 50, seen
