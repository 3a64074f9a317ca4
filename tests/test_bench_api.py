"""The package API that the benchmark in bench/ reads: its workloads'
set-up and output checks, and its layer tracer, run here at tiny sizes.
A change that removes a name or a ``CampaignConfig`` field the benchmark
uses then fails these tests, not only the benchmark run."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import factorbench
import factorbench.cli  # bench/run.py imports it with the package

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    """A module of bench/, by path, under its own name as bench/run.py
    imports it."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


workloads = load("workloads")
layertrace = load("layertrace")


def test_campaign_workload_builds_its_configs(tmp_path):
    campaign = workloads.Campaign()
    state = campaign.setup(factorbench, 1, {"entries": 1, "quota": 1, "n": (7,)}, tmp_path)
    configs = state["entries"][0]
    assert len(configs) == len(campaign.P_LIST)
    assert {config.cap_n for config in configs} == {12}
    assert campaign.header(state)["cells"] == len(configs[0].cells())


def test_tracer_wraps_every_layer_and_restores_it():
    originals = {
        (layer, name): getattr(getattr(factorbench, layer), name)
        for layer, names in layertrace.LAYERS.items()
        for name in names
    }
    with layertrace.Tracer(factorbench) as tracer:
        for (layer, name), fn in originals.items():
            wrapped = getattr(getattr(factorbench, layer), name)
            assert wrapped is not fn and wrapped.__wrapped__ is fn
        assert factorbench.factors.delta(factorbench.cycle_graph(4), [0], 2, 3) == 1
    assert tracer.metrics()["factors.delta.calls"] == (1, "count")
    for (layer, name), fn in originals.items():
        assert getattr(getattr(factorbench, layer), name) is fn


def test_sharpness_workload_checks_its_output(tmp_path):
    sharpness = workloads.Sharpness()
    state = sharpness.setup(factorbench, 1, {"params": [(1, 2, 3, 1)]}, tmp_path)
    state["entries"][0] += ["--budget", "500"]
    with contextlib.redirect_stdout(io.StringIO()):
        result = sharpness.run_pass(state, 0)
    problems, failed, _ = sharpness.check(state, result)
    assert not problems and not failed


def test_certify_workload_checks_and_crosschecks_its_queries(tmp_path):
    certify = workloads.Certify()
    sizes = {"per_kind": 2, "entries": 1, "crosscheck_per_kind": 1}
    state = certify.setup(factorbench, 1, sizes, tmp_path)
    assert state["crosscheck"]
    result = certify.run_pass(state, 0)
    problems, failed, _ = certify.check(state, result)
    assert not result.failed and not problems and not failed
