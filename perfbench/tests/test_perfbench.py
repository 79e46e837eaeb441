"""Tests of the benchmark itself (not part of the repository's suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each traced or untraced repetition here is one real input of a real
workload, so the module takes a minute or two.
"""

from __future__ import annotations

import importlib
import json
import math
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402
from perfbench.tracer import MODULE_PATCHES, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, fingerprints_match, input_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = bench.load_expected()
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

#: Run-phase seconds metrics of a flowsim workload whose sampler runs
#: inside ``run()`` (sp-stream streams its specs lazily).
FLOWSIM_RUN_SECONDS = (
    "workloads.sample_s",
    "routing.route_s",
    "routing.tree_s",
    "allocation.add_s",
    "allocation.remove_s",
    "allocation.search_s",
    "allocation.probe_s",
    "kernel.fill_s",
    "sinks.consume_s",
    "simulator.self_s",
)
#: Seconds of the flowsim layers (the sampler belongs to workloads).
FLOWSIM_LAYER_SECONDS = FLOWSIM_RUN_SECONDS[1:] + ("allocation.recompute_s",)


def _traced(workload, seed=0, index=0):
    tracer = Tracer()
    with tracer.installed():
        tracer.begin("setup")
        prepared = workload.setup(input_seed(seed, index), tracer)
        tracer.begin("run")
        result = workload.run(prepared, tracer)
    return tracer, result


@pytest.fixture(scope="module")
def traced_reps():
    """One traced repetition of input 0 of seed 0, per workload."""
    reps = {}
    for name, workload in WORKLOADS.items():
        tracer, result = _traced(workload)
        layers = bench.rep_layers(workload, tracer, result, span_cost=0.0)
        reps[name] = {
            "tracer": tracer,
            "fingerprint": workload.fingerprint(result),
            "metrics": bench.layer_metrics([layers], [layers["totals"]["trace.run_s"]]),
        }
    return reps


# ----------------------------------------------------------------------
# Wrappers restore what they patched
# ----------------------------------------------------------------------
def _module_originals():
    return {
        (module, attribute): getattr(importlib.import_module(module), attribute)
        for module, attribute, _ in MODULE_PATCHES
    }


def test_module_patches_are_installed_and_restored():
    before = _module_originals()
    tracer = Tracer()
    with tracer.installed():
        tracer.begin("run")
        during = _module_originals()
        assert all(during[key] is not before[key] for key in before)
    assert all(
        current is before[key] for key, current in _module_originals().items()
    )


def test_module_patches_are_restored_after_an_error():
    before = _module_originals()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("inside the trace")
    assert _module_originals() == before


def test_object_wrappers_are_restored():
    from repro import build_isp_topology, make_strategy
    from repro.chunksim.engine import make_engine
    from repro.flowsim.sinks import StreamingSink

    topo = build_isp_topology("exodus", seed=0)
    strategy = make_strategy("inrp", topo)
    sink = StreamingSink()
    engine = make_engine("modern")
    tracer = Tracer()
    with tracer.installed():
        tracer.begin("run")
        tracer.trace_strategy(strategy)
        tracer.trace_sink(sink)
        tracer.trace_engine(engine)
        allocator = strategy.incremental_allocator(kernel="vectorized")
        assert "route" in vars(strategy) and "recompute" in vars(allocator)
        assert "call_after" in vars(engine)
    for owner, attributes in (
        (strategy, ("route", "incremental_allocator")),
        (allocator, ("add_flow", "remove_flow", "recompute", "dirty_component_size")),
        (sink, ("consume",)),
        (engine, ("schedule", "call_after", "schedule_entry")),
    ):
        assert not set(attributes) & set(vars(owner)), owner
    source, destination = topo.nodes()[0], topo.nodes()[-1]
    assert strategy.route(0, source, destination)[-1] == destination


# ----------------------------------------------------------------------
# Tracing does not change results
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_fingerprints_are_identical(name, traced_reps):
    workload = WORKLOADS[name]
    untraced = workload.fingerprint(workload.run(workload.setup(input_seed(0, 0))))
    assert untraced == traced_reps[name]["fingerprint"]
    assert fingerprints_match(EXPECTED[name]["0"][0], untraced)
    assert workload.check(untraced) == []


# ----------------------------------------------------------------------
# Metric names and the layer partition
# ----------------------------------------------------------------------
def test_metric_names_are_well_formed_and_unique():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert {entry["name"] for entry in SPEC["workloads"]} == set(WORKLOADS)


def test_traced_run_reports_exactly_the_per_layer_metrics(traced_reps):
    declared = {entry["name"] for entry in SPEC["per_layer"]}
    for rep in traced_reps.values():
        assert set(rep["metrics"]) == declared
        assert all(math.isfinite(value) for value in rep["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_run_phase_self_times_partition_the_traced_run(name, traced_reps):
    run = traced_reps[name]["tracer"].phases["run"]
    assert set(run.self_s) <= set(bench.SPAN_METRIC) | {"run"}
    assert min(run.self_s.values()) >= 0.0
    assert sum(run.self_s.values()) == pytest.approx(run.total_s["run"], rel=1e-9)


def test_sp_stream_layer_seconds_add_up_to_run_s(traced_reps):
    metrics = traced_reps["sp-stream"]["metrics"]
    assert metrics["workloads.samples"] > 0  # the sampler runs inside run()
    assert sum(metrics[name] for name in FLOWSIM_RUN_SECONDS) == pytest.approx(
        metrics["trace.run_s"], rel=1e-9
    )


def test_chunk_engine_and_handlers_add_up_to_run_s(traced_reps):
    metrics = traced_reps["chunk-isp"]["metrics"]
    assert metrics["engine.self_s"] + metrics["protocol.handler_s"] == pytest.approx(
        metrics["trace.run_s"], rel=1e-9
    )


# ----------------------------------------------------------------------
# The layer split the workloads were chosen for
# ----------------------------------------------------------------------
def _share(metrics, names):
    return sum(metrics[name] for name in names) / metrics["trace.run_s"]


def test_routing_and_sampler_take_most_of_sp_stream(traced_reps):
    metrics = traced_reps["sp-stream"]["metrics"]
    shares = ("routing.route_s", "routing.tree_s", "workloads.sample_s")
    assert _share(metrics, shares) > 0.5


def test_allocation_takes_most_of_inrp_overload(traced_reps):
    metrics = traced_reps["inrp-overload"]["metrics"]
    allocation = (
        "allocation.add_s",
        "allocation.remove_s",
        "allocation.recompute_s",
        "allocation.probe_s",
    )
    assert _share(metrics, allocation) > 0.5
    assert _share(metrics, ("routing.route_s", "routing.tree_s")) < 0.05


def test_chunk_isp_records_no_flowsim_layer_time(traced_reps):
    metrics = traced_reps["chunk-isp"]["metrics"]
    assert all(metrics[name] == 0 for name in FLOWSIM_LAYER_SECONDS)
    assert metrics["protocol.handler_s"] > 0 and metrics["engine.events"] > 0


# ----------------------------------------------------------------------
# error_rate: wrong outputs and exceptions count as failed runs
# ----------------------------------------------------------------------
def _measure(name, **kwargs):
    return bench.measure(
        WORKLOADS[name], 0, 0.0, False, EXPECTED, inputs=1, log=lambda _: None, **kwargs
    )


def test_recorded_outputs_pass():
    metrics, attempted, failed, details = _measure("inrp-overload")
    assert (attempted, failed, details["error_rate"]) == (1, 0, 0.0)
    assert metrics["run_s"] > 0 and metrics["setup_s"] > 0


def test_timings_are_wall_times_scaled_by_the_yardstick_around_them():
    metrics, attempted, failed, details = _measure("inrp-overload")
    before, after = details["yardstick_s_samples"]
    speed = bench.REFERENCE_YARDSTICK_S / ((before + after) / 2)
    for name in ("run_s", "setup_s"):
        (wall,) = details[f"wall_{name}_samples"]
        assert math.isclose(metrics[name], wall * speed)


def test_a_perturbed_output_makes_error_rate_non_zero():
    def perturb(fingerprint):
        return {**fingerprint, "throughput": fingerprint["throughput"] * (1 + 1e-6)}

    metrics, attempted, failed, details = _measure("inrp-overload", perturb=perturb)
    assert (attempted, failed, details["error_rate"]) == (1, 1, 1.0)
    assert metrics is None


def test_an_exception_counts_as_a_failed_run(monkeypatch):
    import repro.flowsim.kernel as kernel

    def broken(*args, **kwargs):
        raise FloatingPointError("planted")

    monkeypatch.setattr(kernel, "inrp_fill", broken)
    metrics, attempted, failed, details = _measure("inrp-overload")
    assert (attempted, failed, metrics) == (1, 1, None)
