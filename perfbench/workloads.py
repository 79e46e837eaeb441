"""The benchmark's workloads.

Each workload is a fixed-size batch: a flow schedule with Poisson
arrivals in simulated time (staggered starts for chunksim), replayed
as fast as the host allows.  A benchmark seed expands into the
workload's ``inputs`` independent inputs (sub-seeds derived with
:func:`repro.rng.derive_seed`); a run cycles through them, so its
medians average over many draws of the workload rather than a few.
Batches are small enough that one repetition takes one to four seconds:
a run then holds enough repetitions for its medians to ride out the
host's slow spells.

Every workload runs with the defaults users get (``core="auto"``, the
modern chunk engine).  ``setup`` builds everything a user builds
before calling ``run()``; ``run`` is the timed call.  Both take an
optional :class:`~perfbench.tracer.Tracer`; without one they make the
same calls with no wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import FlowLevelSimulator, FlowWorkload, build_isp_topology, make_strategy
from repro.chunksim import ChunkNetwork
from repro.flowsim.sinks import MaterializingSink, StreamingSink
from repro.rng import derive_seed, make_rng
from repro.units import mbps
from repro.workloads import local_pairs, uniform_pairs

#: Relative tolerance for the floating-point fingerprint fields.
FLOAT_TOLERANCE = 1e-9


def input_seed(seed: int, index: int) -> int:
    """Sub-seed of input *index* of benchmark seed *seed*."""
    return derive_seed(seed, f"perfbench-input-{index}")


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


@dataclass(frozen=True)
class FlowPoint:
    """A flow-level operating point (the ``bench_flowsim.py`` vocabulary)."""

    isp: str
    strategy: str
    arrival_rate: float
    mean_size_mbit: float
    pairs: str
    max_hops: Optional[int]
    flows: int
    #: Stream specs lazily into the run (``iter_specs``) instead of
    #: materializing the schedule in setup.
    lazy: bool
    sink: str
    demand_mbps: float = 10.0


@dataclass(frozen=True)
class ChunkPoint:
    """A chunk-level INRPP run: finite transfers with staggered starts."""

    isp: str
    max_hops: int
    flows: int
    chunks: int
    mean_start_gap_s: float
    duration_s: float


@dataclass(frozen=True)
class Workload:
    """A named operating point with its setup, run and output checks."""

    name: str
    point: object
    #: Independent inputs a benchmark seed expands into, about as many
    #: as a run has repetitions, so that few repetitions repeat an input.
    inputs: int

    @property
    def kind(self) -> str:
        return "chunk" if isinstance(self.point, ChunkPoint) else "flow"

    def setup(self, seed: int, tracer=None):
        if self.kind == "chunk":
            return _chunk_setup(self.point, seed, tracer)
        return _flow_setup(self.point, seed, tracer)

    def run(self, prepared, tracer=None):
        return _call(tracer, "run", prepared.run)

    def fingerprint(self, result) -> dict:
        if self.kind == "chunk":
            return _chunk_fingerprint(result)
        return _flow_fingerprint(result)

    def check(self, fingerprint: dict) -> List[str]:
        """Invariants every input must satisfy (any seed)."""
        if self.kind == "chunk":
            return _chunk_invariants(self.point, fingerprint)
        return _flow_invariants(self.point, fingerprint)


# ----------------------------------------------------------------------
# flowsim
# ----------------------------------------------------------------------
@dataclass
class _FlowRun:
    simulator: FlowLevelSimulator

    def run(self):
        return self.simulator.run()


def _flow_setup(point: FlowPoint, seed: int, tracer) -> _FlowRun:
    topo = _call(tracer, "topology.build", build_isp_topology, point.isp, seed=0)
    if point.pairs == "local":
        sampler = local_pairs(topo, seed=seed + 1, max_hops=point.max_hops)
    else:
        sampler = uniform_pairs(topo, seed=seed + 1)
    if tracer is not None:
        sampler = tracer.trace_sampler(sampler)
    workload = FlowWorkload(
        topo,
        arrival_rate=point.arrival_rate,
        mean_size_bits=point.mean_size_mbit * 1e6,
        demand_bps=mbps(point.demand_mbps),
        seed=seed,
        pair_sampler=sampler,
    )
    if point.lazy:
        specs = workload.iter_specs(max_flows=point.flows)
    else:
        specs = workload.generate(max_flows=point.flows)
    strategy = make_strategy(point.strategy, topo)
    sink = StreamingSink() if point.sink == "streaming" else MaterializingSink()
    if tracer is not None:
        tracer.trace_strategy(strategy)
        tracer.trace_sink(sink)
    return _FlowRun(FlowLevelSimulator(topo, strategy, specs, sink=sink))


def _flow_fingerprint(result) -> dict:
    return {
        "completed": result.completed_count,
        "unfinished": result.unfinished,
        "recomputes": result.allocations,
        "switches": result.total_switches,
        "throughput": result.network_throughput,
        "mean_fct": result.mean_fct(),
        "p99_fct": result.fct_quantile(0.99),
    }


def _flow_invariants(point: FlowPoint, fp: dict) -> List[str]:
    problems = []
    if fp["completed"] + fp["unfinished"] != point.flows:
        problems.append(
            f"{fp['completed']} completed + {fp['unfinished']} unfinished "
            f"!= {point.flows} flows"
        )
    if fp["unfinished"]:
        problems.append(f"{fp['unfinished']} flows unfinished without a horizon")
    if not 0.0 < fp["throughput"] <= 1.0 + FLOAT_TOLERANCE:
        problems.append(f"throughput {fp['throughput']} outside (0, 1]")
    if not 0.0 < fp["mean_fct"] <= fp["p99_fct"] * (1.0 + FLOAT_TOLERANCE) or (
        fp["recomputes"] < 1
    ):
        problems.append("FCTs or recompute count implausible")
    return problems


# ----------------------------------------------------------------------
# chunksim
# ----------------------------------------------------------------------
@dataclass
class _ChunkRun:
    network: ChunkNetwork
    duration_s: float

    def run(self):
        return self.network.run(self.duration_s)


def _chunk_setup(point: ChunkPoint, seed: int, tracer) -> _ChunkRun:
    topo = _call(tracer, "topology.build", build_isp_topology, point.isp, seed=0)
    sampler = local_pairs(topo, seed=seed + 1, max_hops=point.max_hops)
    if tracer is not None:
        sampler = tracer.trace_sampler(sampler)
    starts = make_rng(seed, "perfbench-starts")
    network = ChunkNetwork(topo, mode="inrpp")
    start = 0.0
    for _ in range(point.flows):
        source, destination = sampler()
        network.add_flow(source, destination, point.chunks, start_time=start)
        start += float(starts.exponential(point.mean_start_gap_s))
    return _ChunkRun(network, point.duration_s)


def _chunk_fingerprint(report) -> dict:
    return {
        "events": report.events_processed,
        "drops": report.drops,
        "custody_events": report.custody_events,
        "detour_events": report.detour_events,
        "completed": sum(flow.completed for flow in report.flows),
        "received_chunks": [flow.received_chunks for flow in report.flows],
    }


def _chunk_invariants(point: ChunkPoint, fp: dict) -> List[str]:
    problems = []
    if fp["completed"] != point.flows:
        problems.append(f"{fp['completed']} of {point.flows} transfers completed")
    if fp["received_chunks"] != [point.chunks] * point.flows:
        problems.append("some transfer did not receive every chunk exactly")
    if fp["events"] < 1:
        problems.append("no events processed")
    return problems


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
# Why each workload exists, the layers it loads and what a change to
# another layer must not move: BENCHMARK.json and README.md.

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="sp-stream",
            point=FlowPoint(
                isp="sprint",
                strategy="sp",
                arrival_rate=1500.0,
                mean_size_mbit=0.25,
                pairs="local",
                max_hops=4,
                flows=300,
                lazy=True,
                sink="streaming",
            ),
            inputs=16,
        ),
        Workload(
            name="inrp-local",
            point=FlowPoint(
                isp="sprint",
                strategy="inrp",
                arrival_rate=800.0,
                mean_size_mbit=2.5,
                pairs="local",
                max_hops=3,
                flows=300,
                lazy=False,
                sink="materialize",
            ),
            inputs=12,
        ),
        Workload(
            name="inrp-overload",
            point=FlowPoint(
                isp="exodus",
                strategy="inrp",
                arrival_rate=400.0,
                mean_size_mbit=4.0,
                pairs="uniform",
                max_hops=None,
                flows=300,
                lazy=False,
                sink="materialize",
            ),
            inputs=8,
        ),
        Workload(
            name="chunk-isp",
            point=ChunkPoint(
                isp="exodus",
                max_hops=3,
                flows=100,
                chunks=200,
                mean_start_gap_s=0.005,
                # The slowest of 264 inputs tried (seeds 0-9, 20-30 and
                # 104729) finished its last transfer at 12.9 s simulated;
                # every transfer must finish inside the horizon.
                duration_s=20.0,
            ),
            inputs=12,
        ),
    )
}


def fingerprints_match(expected: dict, actual: dict) -> bool:
    """Counts and lists exactly; floats to :data:`FLOAT_TOLERANCE`."""
    if expected.keys() != actual.keys():
        return False
    for key, want in expected.items():
        got = actual[key]
        if isinstance(want, float) or isinstance(got, float):
            if want is None or got is None:
                return False
            if abs(got - want) > FLOAT_TOLERANCE * max(abs(want), abs(got)):
                return False
        elif want != got:
            return False
    return True

