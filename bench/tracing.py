"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each function named in ``LAYERS`` by a timing
wrapper, in its own module and wherever another ``ivalbench`` module bound
it by name (``sched.config_step`` is ``machine.config_step``).  Every call
becomes a span (name, parent span, start, end) kept in flat arrays and
written out at the end.  A call a function makes to itself while it is the
innermost open span is folded into that span, so ``calls`` counts calls
from other layers, not recursion depth.  A layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from pathlib import Path

# traced layer -> (end-to-end metric it should move, on which workload)
LAYERS = {
    "sexpr.read": ("setup_s", "explore"),
    "lang.parse": ("setup_s", "explore"),
    "lang.subst": ("throughput_per_s", "explore, sample"),
    "machine.outcomes": ("throughput_per_s", "explore, sample"),
    "machine.config_step": ("latency_p50_s", "explore"),
    "machine.sample_run": ("throughput_per_s", "sample"),
    "sched.extremal_expectation": ("latency_p50_s", "explore"),
    "sched.enabled_threads": ("latency_p50_s", "explore"),
    "sched.evaluate_policy": ("latency_p50_s", "explore"),
    "sched.monte_carlo": ("throughput_per_s", "sample"),
    "ival.bind": ("throughput_per_s", "algebra"),
    "ival.IndexedValuation.__post_init__": ("throughput_per_s", "algebra, explore"),
    "ival.to_distribution": ("throughput_per_s", "algebra"),
    "ndset.bind": ("throughput_per_s", "algebra"),
    "ndset.dedup": ("throughput_per_s", "algebra"),
    "ndset.subset_p_certified": ("throughput_per_s", "algebra"),
    "comp.ex_max": ("throughput_per_s", "algebra"),
    "comp.materialize": ("throughput_per_s", "algebra"),
    "lp.convex_hull_membership": ("latency_tail_s", "algebra"),
    "lp.pivot": ("latency_tail_s", "algebra"),
    "coupling.check_witness": ("throughput_per_s", "algebra"),
}

# metrics derived from counts and results -> (unit, metric it should move, workload)
DERIVED = {
    "machine.outcomes.stuck_ratio": ("ratio", "latency_p50_s", "explore"),
    "sched.states": ("count", "latency_p50_s, peak_rss_mb", "explore"),
    "sched.steps_per_state": ("steps/state", "latency_p50_s, peak_rss_mb", "explore"),
    "sched.memo_probe_us": ("us", "latency_tail_s", "explore"),
    "sched.trials": ("count", "throughput_per_s", "sample"),
    "lp.pivots_per_solve": ("pivots/solve", "latency_tail_s", "algebra"),
    "trace.overhead_ratio": ("ratio", "none: traced over untraced wall time", "all"),
}

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list = []
        self.index: dict = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.open = [NO_PARENT]  # span ids, innermost last
        self.open_names = [NO_PARENT]
        self.stuck = 0  # outer machine.outcomes calls that returned None
        self.states = 0
        self.trials = 0
        self.memo_keys: list = []
        self.restore: list = []

    def name_id(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
        return self.index[name]

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.open[-1])
        self.end.append(0.0)
        self.open.append(sid)
        self.open_names.append(nid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.open.pop()
        self.open_names.pop()

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` as one span inside the open one, e.g. one item."""
        sid = self.begin(self.name_id(name))
        try:
            return fn(*args)
        finally:
            self.finish(sid)

    def wrap(self, layer: str, fn):
        nid = self.name_id(layer)
        on_result = self.result_hooks().get(layer)

        def traced(*args, **kwargs):
            if self.open_names[-1] == nid:
                return fn(*args, **kwargs)
            sid = self.begin(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.finish(sid)
            if on_result is not None:
                on_result(res)
            return res

        traced.__wrapped__ = fn
        return traced

    def result_hooks(self) -> dict:
        def outcomes(res):
            if res is None:
                self.stuck += 1

        def explored(res):
            self.states += res.explored_states
            self.memo_keys.extend(res.policy_lo)

        def sampled(res):
            self.trials += res.trials

        return {"machine.outcomes": outcomes,
                "sched.extremal_expectation": explored,
                "sched.monte_carlo": sampled}

    def install(self) -> None:
        """Wrap every layer in ``LAYERS``; ``uninstall`` puts them back."""
        modules = [m for (name, m) in sorted(sys.modules.items())
                   if name.startswith("ivalbench.") and m is not None]
        for layer in LAYERS:
            (mod, _, attr) = layer.partition(".")
            owner = sys.modules[f"ivalbench.{mod}"]
            if "." in attr:  # a method: ``Class.method``
                (cls, _, attr) = attr.partition(".")
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            traced = self.wrap(layer, original)
            targets = [owner] + [m for m in modules if m is not owner
                                 and getattr(m, attr, None) is original]
            for target in targets:
                setattr(target, attr, traced)
                self.restore.append((target, attr, original))

    def uninstall(self) -> None:
        for (target, attr, original) in reversed(self.restore):
            setattr(target, attr, original)
        self.restore.clear()

    # ------------------------------------------------------------------
    # results

    def self_times(self) -> dict:
        """Per span name: (calls, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p != NO_PARENT:
                child[p] += self.end[sid] - self.start[sid]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for sid in range(n):
            nid = self.name[sid]
            calls[nid] += 1
            self_s[nid] += self.end[sid] - self.start[sid] - child[sid]
        return {name: (calls[i], self_s[i]) for (i, name) in enumerate(self.names)}

    def calls_under(self, layer: str, parent_layer: str) -> int:
        nid, pid = self.index.get(layer), self.index.get(parent_layer)
        return sum(1 for sid in range(len(self.start)) if self.name[sid] == nid
                   and self.parent[sid] != NO_PARENT and self.name[self.parent[sid]] == pid)

    def summary(self) -> dict:
        """Raw counts and times, to be merged across workloads by
        ``layer_metrics``."""
        return {
            "layers": {name: list(ct) for (name, ct) in self.self_times().items()
                       if name in LAYERS},
            "stuck": self.stuck,
            "states": self.states,
            "steps": self.calls_under("machine.config_step", "sched.extremal_expectation"),
            "trials": self.trials,
            "memo_keys": len(self.memo_keys),
            "memo_probe_us": self.memo_probe_us(),
        }

    def memo_probe_us(self, repeats: int = 5) -> float:
        """Mean cost of one dict probe on the memo keys the traced
        analyses produced, replayed into a fresh dict (median of repeats)."""
        if not self.memo_keys:
            return 0.0
        memo = dict.fromkeys(self.memo_keys)
        probe = memo.get
        runs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for key in self.memo_keys:
                probe(key)
            runs.append((time.perf_counter() - t0) / len(self.memo_keys))
        runs.sort()
        return runs[len(runs) // 2] * 1e6

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: id, parent id, name, start, end (seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{names[self.name[sid]]}\t"
                         f"{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n")


def layer_metrics(summaries: list, overhead_ratio: float) -> dict:
    """Every per-layer metric over the merged ``summaries``, as
    {name: (value, unit)}; ``overhead_ratio`` is measured by the caller."""
    def total(key):
        return sum(s[key] for s in summaries)

    out = {}
    for layer in LAYERS:
        calls = sum(s["layers"].get(layer, (0, 0.0))[0] for s in summaries)
        self_s = sum(s["layers"].get(layer, (0, 0.0))[1] for s in summaries)
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    keys = total("memo_keys")
    derived = {
        "machine.outcomes.stuck_ratio": ratio(total("stuck"), out["machine.outcomes.calls"][0]),
        "sched.states": total("states"),
        "sched.steps_per_state": ratio(total("steps"), total("states")),
        "sched.memo_probe_us": ratio(sum(s["memo_probe_us"] * s["memo_keys"]
                                         for s in summaries), keys),
        "sched.trials": total("trials"),
        "lp.pivots_per_solve": ratio(out["lp.pivot.calls"][0],
                                     out["lp.convex_hull_membership.calls"][0]),
        "trace.overhead_ratio": overhead_ratio,
    }
    for (name, value) in derived.items():
        out[name] = (value, DERIVED[name][0])
    return out
