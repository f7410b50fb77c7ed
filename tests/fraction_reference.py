"""The Fraction route, the reference that ``ival``'s integer valuations
are checked against.

A valuation here is a tuple of ``(index, value, probability)`` entries
whose probabilities are Fractions, as ``IndexedValuation.entries`` shows
them, and each operation is the one ``ival`` ran when it stored
Fractions: every entry product builds a reduced Fraction, the canonical
form puts the positive probabilities over the lcm of all the entries'
denominators, and the collapsed distribution and the expectation sum
Fractions.  Continuations map a value (``bind``) or an index
(``bind_per_index``) to such entries.
"""

from fractions import Fraction
from math import lcm

from ivalbench.ival import as_rational, value_key


def pchoice(a, p, b):
    p = as_rational(p)
    return tuple([(("L", i), v, p * q) for (i, v, q) in a]
                 + [(("R", i), v, (1 - p) * q) for (i, v, q) in b])


def bind(a, f):
    return tuple(((i, j), w, p * q) for (i, v, p) in a if p != 0 for (j, w, q) in f(v))


def bind_per_index(m, sigma):
    return tuple(((i, j), w, p * q)
                 for (i, _, p) in m if p != 0 for (j, w, q) in sigma[i] if q != 0)


def map_values(g, a):
    return tuple((i, g(v), p) for (i, v, p) in a)


def canonical(a):
    den = lcm(*[p.denominator for (_, _, p) in a])
    return (den, tuple(sorted([(value_key(v), p.numerator * (den // p.denominator))
                               for (_, v, p) in a if p != 0])))


def to_distribution(a):
    """The sorted ``(value, Fraction)`` weights of the collapsed
    distribution."""
    acc = {}
    for (_, v, p) in a:
        if p != 0:
            k = value_key(v)
            acc[k] = (v, acc[k][1] + p) if k in acc else (v, p)
    return tuple(acc[k] for k in sorted(acc))


def expected_value(f, a):
    return sum((p * as_rational(f(v)) for (_, v, p) in a if p != 0), Fraction(0))
