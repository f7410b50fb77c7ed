"""The package names the benchmark's tracer and workloads read.

``bench/`` lies outside the test paths, so these checks keep a refactor
of the package from breaking ``bench/run.py --trace`` unnoticed."""

import importlib
import importlib.util
from pathlib import Path

from ivalbench import machine, models, sched

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_layer_is_a_callable():
    tracing = load_tracing()
    assert tracing.LAYERS
    for layer in tracing.LAYERS:
        (mod, _, attr) = layer.partition(".")
        owner = importlib.import_module(f"ivalbench.{mod}")
        for name in attr.split("."):
            owner = getattr(owner, name)
        assert callable(owner), layer


def test_sched_binds_the_machine_step_functions():
    # the tracer wraps a layer wherever another module bound it by name
    assert sched.outcomes is machine.outcomes
    assert sched.config_step is machine.config_step


def test_tracer_reads_the_analysis_result():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    res = sched.extremal_expectation(models.unbiased_counter_program(2, max_value=2), 70,
                                     models.read_int)
    tracer.result_hooks()["sched.extremal_expectation"](res)
    assert tracer.states == res.explored_states == len(tracer.memo_keys) > 0
