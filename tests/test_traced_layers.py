"""The layers the benchmark tracer follows are the ones ``opdyn run`` calls.

``perfbench/tracer.py`` wraps package functions by name; a per-layer metric
reads 0 when the run computes that layer through some other function.  Each
seed-0 benchmark workload is run once under the tracer, loaded by path as
the benchmark worker loads it.  The ``dual`` witness families must also stay
on ``shift_multiply``'s batched walk, not its product-by-product recompute.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import opdyn
import opdyn.cli
from _util import dict_of, dict_shift_chain
from opdyn import constructor, default_bundle, projection_matrix, shift_multiply
from opdyn.cli import _dual_instance
from opdyn.criteria import chain_factors, family_chains
from opdyn.scenario import load_scenario

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
    "elementary.apply_power": ("construct", "dual"),
    "finmat.shift_multiply": ("dual",),
    "duality.dual_apply_power": ("dual",),
}


@pytest.mark.parametrize("workload", ["families", "construct", "dual"])
def test_traced_layers_are_the_ones_the_run_calls(tmp_path, workload):
    spec = load("workloads").generate(workload, 0, str(tmp_path / "in"))
    calls = traced_calls(spec.scenario, tmp_path / "out")
    for layer, workloads in LAYERS.items():
        if workload in workloads:
            assert calls[layer] > 0, layer
    if workload == "construct":
        # every block of k is built, moved and normed as stacks: two pull-backs
        # and, in the rows of T1 and T2, three moves each, with no copy moved
        # alone.  A block takes as many k as keep their 3 * 17 * 17 products
        # within the bound (P_8 times dense 17 x 17 targets).
        per_block = constructor._BLOCK_PRODUCTS // (3 * 17 * 17)
        blocks = -(-spec.params["k_max"] // per_block)
        assert calls["elementary.apply_power"] == 8 * blocks
        assert calls["constructor.construct_approximant"] == 0
    if workload == "dual":
        # each pull-back of the eta_k and each row move is one call on the
        # stack of every k, with no copy moved alone
        assert calls["duality.dual_apply_power"] == calls["elementary.apply_power"] == 4


def test_the_dual_witness_families_take_the_batched_walk(tmp_path, monkeypatch):
    # the seed-0 dual workload's witness families: P_m moved by each chain at
    # every n_k in one call.  A trip of the batched walk's checks would move
    # each copy alone through _transport, which raises here.
    spec = load("workloads").generate("dual", 0, str(tmp_path))
    scenario = load_scenario(spec.scenario)
    inst = _dual_instance(scenario)
    ns = default_bundle(inst).n_values
    assert len(ns) == scenario.k_max
    pm = projection_matrix(inst.m)
    kw = dict(horizon=inst.horizon, window_cap=inst.window_cap)
    chains = []
    for chain in family_chains(inst.n_ops):
        per_n = [chain_factors(inst, chain[::-1], n) for n in ns]
        chains.append([(f[0][0], [p for _, p in f]) for f in zip(*per_n)])

    def no_transport(*args, **kwargs):
        raise AssertionError("shift_multiply left the batched walk")

    monkeypatch.setattr(opdyn.finmat, "_transport", no_transport)
    batched = [shift_multiply(pm, factors, "right", **kw) for factors in chains]
    monkeypatch.undo()
    for factors, products in zip(chains, batched):
        want = [
            dict_shift_chain(dict_of(pm), [(s, ps[k]) for s, ps in factors], "right", **kw)
            for k in range(len(ns))
        ]
        assert [dict(x.items()) for x in products] == want
