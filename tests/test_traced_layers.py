"""The layers the benchmark tracer follows are the ones ``opdyn run`` calls.

``perfbench/tracer.py`` wraps package functions by name; a per-layer metric
reads 0 when the run computes that layer through some other function.  Each
seed-0 benchmark workload is run once under the tracer, loaded by path as
the benchmark worker loads it.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import opdyn
import opdyn.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """A perfbench module, loaded by path once (dataclasses need it in
    ``sys.modules`` while it runs)."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def traced_calls(scenario: str, out) -> Counter:
    """Calls per traced name during one ``opdyn run`` of ``scenario``."""
    tracer = load("tracer").Tracer()
    tracer.prepare(opdyn)
    tracer.begin_request()
    tracer.install()
    try:
        code = opdyn.cli.main(["run", scenario, "--out", str(out)])
    finally:
        tracer.uninstall()
    tracer.end_request()
    assert code in (0, 1)
    return Counter(tracer.names[i] for i in tracer.name)


#: Layer -> the workloads whose run must call it.
LAYERS = {
    "lattice.monomial_product_norm": ("families", "dual"),
    "lattice.shift_power_apply": ("families", "construct", "dual"),
    "lattice.unitary_power_apply": ("construct", "dual"),
}


@pytest.mark.parametrize("workload", ["families", "construct", "dual"])
def test_traced_layers_are_the_ones_the_run_calls(tmp_path, workload):
    spec = load("workloads").generate(workload, 0, str(tmp_path / "in"))
    calls = traced_calls(spec.scenario, tmp_path / "out")
    for layer, workloads in LAYERS.items():
        if workload in workloads:
            assert calls[layer] > 0, layer
    if workload == "construct":
        # one approximant per k, none built twice
        assert calls["constructor.construct_approximant"] == spec.params["k_max"]
