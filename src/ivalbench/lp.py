"""Exact rational linear-program feasibility (phase-1 simplex).

Solves ``A x = b, x >= 0`` exactly.  Used to decide convex-hull
membership of distributions: a distribution lies in the hull of a finite
family iff the mixing weights form a feasible point of such a system.

Infeasibility comes with a separating certificate ``y`` satisfying
``y . A_j <= 0`` for every column ``j`` and ``y . b > 0``.  By LP duality
this is exactly a hyperplane separating ``b`` from the cone/hull described
by the columns, and it is what the falsifying expectation functions in
``ndset.subset_p`` are built from.

Pivoting uses Bland's rule, which cannot cycle, and all arithmetic is
exact, so termination and decisions are guaranteed.

The arithmetic is on integers (fraction-free pivoting: Edmonds 1967,
Bareiss 1968).  With ``L`` the lcm of every denominator in ``A`` and
``b``, the tableau holds ``L A`` and ``L b`` beside unit artificial
columns, so the starting basis is the identity; it is kept as integers
``T`` over one divisor ``D``, starting at 1, and a pivot on ``a = T[r][e]``
replaces every other row ``T[i]`` by ``(a T[i] - T[i][e] T[r]) / D``, an
exact division, then sets ``D = a`` (the determinant of the basis).  The
ratio test compares ``T[i][rhs] / T[i][e]`` by cross-multiplication.  The
integer tableau is the Fraction tableau of ``A x = b`` with its structural
columns, right-hand side and basic rows scaled by positive factors, so
every sign, every ratio comparison, and hence Bland's choices are the same:
the same bases in the same order, the same solution
(``T[i][rhs] / D``) and the same certificate.

``solve_equality_feasibility`` takes Fractions.  ``convex_hull_membership``
takes integer ``(den, numerators)`` vectors in lowest terms and builds the
integer rows itself: the lcm of the vectors' ``den`` is the same ``L``.
Both run one integer simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from ivalbench.ival import as_rational


@dataclass
class FeasibilityResult:
    feasible: bool
    solution: Optional[list]  # x with A x = b, x >= 0
    certificate: Optional[list]  # y with y.A <= 0, y.b > 0


def solve_equality_feasibility(A: list, b: list) -> FeasibilityResult:
    """Decide whether ``A x = b`` has a solution with ``x >= 0``.

    ``A`` is a list of m rows, each a list of n Fractions; ``b`` has m
    Fractions.  Ints are taken as Fractions, and any other entry (a float)
    is a ``TypeError``.  Returns a feasible point or a separating
    certificate.
    """
    if not A:
        return FeasibilityResult(True, [], None)
    A = [[as_rational(x) for x in row] for row in A]
    b = [as_rational(x) for x in b]
    scale = lcm(*[x.denominator for row in A for x in row], *[x.denominator for x in b])
    rows = [[x.numerator * (scale // x.denominator) for x in row] for row in A]
    return _integer_feasibility(rows, [x.numerator * (scale // x.denominator) for x in b])


def _integer_feasibility(rows: list, rhs: list) -> FeasibilityResult:
    """The simplex of ``solve_equality_feasibility`` on the system it
    scaled to integers: ``rows`` (at least one) and ``rhs``."""
    (m, n) = (len(rows), len(rows[0]))

    # Tableau columns: n structural + m artificial + rhs; rows with a
    # negative right-hand side are negated.
    width = n + m
    sign = [-1 if r < 0 else 1 for r in rhs]
    tab = []
    for i in range(m):
        row = [sign[i] * x for x in rows[i]] + [0] * m + [sign[i] * rhs[i]]
        row[n + i] = 1
        tab.append(row)
    basis = [n + i for i in range(m)]

    # Phase-1 objective: minimize the sum of artificials.  The reduced-cost
    # row starts as -(sum of constraint rows) on structural columns, with
    # objective value -(sum of rhs); entry j holds c_j - y.A_j, and the
    # artificial columns start basic, reduced cost 0.
    obj = [-sum(col) for col in zip(*tab)]
    for i in range(m):
        obj[n + i] = 0

    den = 1
    while True:
        enter = -1
        for j in range(width):  # Bland: smallest eligible index
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # tab[i][width] / a against the best ratio, cross-multiplied
                (x, y) = (tab[i][width] * tab[leave][enter], tab[leave][width] * a)
                if x < y or (x == y and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise ArithmeticError("phase-1 objective unbounded; malformed tableau")
        den = pivot(tab, obj, leave, enter, den)
        basis[leave] = enter

    if obj[width] == 0:  # the sum of artificials is 0
        x = [Fraction(0)] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = Fraction(tab[i][width], den)
        return FeasibilityResult(True, x, None)

    # Infeasible: dual prices from reduced costs of the artificial columns,
    # mapped back through the row sign flips; y = ys / den.
    ys = [sign[i] * (den - obj[n + i]) for i in range(m)]
    # Exactness self-check on the scaled input: the certificate must
    # actually separate.
    if sum(ys[i] * rhs[i] for i in range(m)) <= 0:
        raise ArithmeticError("separating certificate failed y.b > 0")
    for j in range(n):
        if sum(ys[i] * rows[i][j] for i in range(m)) > 0:
            raise ArithmeticError("separating certificate failed y.A <= 0")
    return FeasibilityResult(False, None, [Fraction(y, den) for y in ys])


def pivot(tab: list, obj: list, leave: int, enter: int, den: int) -> int:
    """One fraction-free pivot on ``tab[leave][enter]``; returns the new
    divisor.  The tableau ``tab / den`` and objective ``obj / den`` become
    the pivoted ones: the pivot row stays, every other row ``r`` becomes
    ``(r * a - r[enter] * tab[leave]) // den`` with ``a`` the pivot, exactly
    divisible (Bareiss), and ``a`` is the new divisor."""
    top = tab[leave]
    a = top[enter]
    for (i, row) in enumerate(tab):
        if i != leave:
            c = row[enter]
            tab[i] = [(x * a - c * y) // den for (x, y) in zip(row, top)]
    c = obj[enter]
    obj[:] = [(x * a - c * y) // den for (x, y) in zip(obj, top)]
    return a


def convex_hull_membership(point: tuple, generators: list) -> FeasibilityResult:
    """Is ``point`` a convex combination of ``generators``?

    Every argument is a coordinate vector ``(den, nums)`` in lowest terms:
    integer numerators, all of one length, over a positive denominator.
    On success the solution gives the mixing weights; on failure the
    certificate's first ``dim`` coordinates give a linear function
    strictly larger on ``point`` than on every generator.
    """
    (pden, pnums) = point
    scale = lcm(pden, *[d for (d, _) in generators])
    rows = [[nums[k] * (scale // d) for (d, nums) in generators] for k in range(len(pnums))]
    rows.append([scale] * len(generators))
    return _integer_feasibility(rows, [n * (scale // pden) for n in pnums] + [scale])
