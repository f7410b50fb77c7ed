"""Law generators: pinned random streams and relabelling on forms."""

import hashlib
import random

from ivalbench import laws
from ivalbench.laws import gen_ival, relabel, relabel_form

# sha256 over every law of (label, the 20 verdicts, the next rng.random())
# at seed 7, computed when set premises were built by relabelling and
# mixing indexed valuations: building them on forms keeps every draw
LAW_STREAMS = "6afa7e10529bf7784cc8869dba8a9e0dd4a3d2a2b72dcf78062e1e82923d18aa"


def test_law_streams_pinned():
    h = hashlib.sha256()
    for (suite, name, fn) in laws.LAWS:
        rng = laws.rng_for(7, f"{suite}/{name}")
        verdicts = [fn(rng) for _ in range(20)]
        h.update(repr((f"{suite}/{name}", verdicts, rng.random())).encode())
    assert h.hexdigest() == LAW_STREAMS


def test_relabel_form_draws_as_relabel():
    rng = random.Random(11)
    pads = 0
    for _ in range(300):
        m = gen_ival(rng)
        state = rng.getstate()
        relabelled = relabel(rng, m)
        after = rng.getstate()
        rng.setstate(state)
        assert relabel_form(rng, m.canonical()) == relabelled.canonical()
        assert rng.getstate() == after
        pads += len(relabelled.entries) > len(m.canonical()[1])
    assert 0 < pads < 300  # both branches of the zero pad
