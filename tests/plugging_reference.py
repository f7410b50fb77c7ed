"""The plugging stepper, the reference that ``machine``'s zipper threads
are checked against.

A step is decompose, rule, plug (Felleisen & Hieb 1992): ``decompose``
walks from the root of the thread's expression down its first evaluation
positions that are not values, keeping the context as a list of
``(node, k)`` frames, one per node passed, with the hole at ``k``;
``outcomes`` applies the redex's rule and ``plug`` rebuilds the whole
context around each contractum.  So every step costs O(depth), which the
zippers avoid.
"""

from ivalbench import machine
from ivalbench.lang import FORMS


def decompose(e):
    """``(frames, redex)`` with ``plug(frames, redex) is e``, or ``None``
    when ``e`` is a value or its next redex would be a variable."""
    frames = []
    while not e.is_val:
        for (k, c) in enumerate(FORMS[type(e)].evaluated(e)):
            if not c.is_val:
                frames.append((e, k))
                e = c
                break
        else:
            return (frames, e) if type(e) in machine.RULES else None
    return None


def plug(frames, e):
    """Fill the context ``frames`` with ``e``."""
    for (node, k) in reversed(frames):
        form = FORMS[type(node)]
        kids = form.kids(node)
        e = form.make(node, kids[:k] + (e,) + kids[k + 1:])
    return e


def outcomes(e, s):
    """Step outcomes of the thread ``e``: ``None`` if it is a value or is
    stuck in ``s``, else a list of (prob, expression, state, spawned
    expressions)."""
    split = decompose(e)
    if split is None:
        return None
    (frames, redex) = split
    res = machine.RULES[type(redex)](redex, s)
    if res is None:
        return None
    return [(p, plug(frames, r), s2, sp) for (p, r, s2, sp) in res]


def fused_successor(e, s, first):
    """The reference fused step: the thread's expression after its next
    step if the exact analysis fuses that step, else None.  Fused: an
    enabled thread-local step, except the one that turns the ``first``
    thread into a value."""
    split = decompose(e)
    if split is None or not FORMS[type(split[1])].local:
        return None
    res = outcomes(e, s)
    if res is None:
        return None  # stuck for good: a local side condition ignores the heap
    e2 = res[0][1]
    return None if first and e2.is_val else e2
