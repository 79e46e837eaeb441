#!/usr/bin/env python
"""Flow-level simulator core benchmark: vectorized vs reference vs auto.

Runs a set of calibrated operating points through the
`FlowLevelSimulator` cores and reports wall-clock speedups plus
cross-core equivalence (per-flow completion times and delivered bits
within 1e-6 relative) and incremental-vs-scratch allocator verification
(re-checked every recompute on a bounded slice; must stay within 1e-9).

``speedup`` is reference seconds over vectorized seconds;
``auto_vs_best`` (overload only) is auto seconds over the better of
reference and vectorized.

Points:

``sp-calibrated``
    The PR-3 point: sprint map, SP, local pairs within 4 hops, rho < 1.
    Dirty max-min components are small; the event core wins big.
``inrp-calibrated``
    The paper's own strategy through the detour-closure allocator
    (`IncrementalInrp`): sprint, local pairs within 3 hops, rho < 1.
``inrp-overload``
    Deep overload (exodus, uniform pairs, arrivals far above the drain
    rate): the population snowballs into one spanning component where
    pure dirty-component search loses to full refills — the regime the
    adaptive ``core="auto"`` exists for, so this point runs all three
    cores and reports auto against the better of the other two.
``inrp-directed``
    The directed-substrate point: sprint with every reverse direction
    scaled to half capacity (``apply_capacity_asymmetry``) and
    bidirectional uniform pairs, so traffic genuinely exercises
    per-direction link state through the detour-closure allocator and
    the CSR kernel.
``inrp-pooled``
    The inrp-calibrated point with partial pooling
    (``pooling_fraction=0.5``): detours may borrow only half of each
    link, so the kernel's reserve saturations and primary-only columns
    are checked against the reference core and the scratch solver.

Unlike the pytest-benchmark drivers next door, this is a standalone
script so CI can run it and diff-check the JSON record against the
committed ``BENCH_flowsim.json``::

    python benchmarks/bench_flowsim.py --smoke --check-against BENCH_flowsim.json
    python benchmarks/bench_flowsim.py                  # the full sweep
    python benchmarks/bench_flowsim.py --points inrp-calibrated

Exit status is non-zero when equivalence, verification, an explicit
``--min-inrp-speedup`` / ``--max-auto-ratio`` bar, or the
``--check-against`` diff fails.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import FlowLevelSimulator, FlowWorkload, build_isp_topology, make_strategy
from repro.topology import apply_capacity_asymmetry
from repro.units import mbps
from repro.workloads import local_pairs, uniform_pairs

#: Relative tolerance for cross-core record equivalence.
TOLERANCE = 1e-6
#: Incremental-vs-scratch allocator verification bar.
VERIFY_TOLERANCE = 1e-9

#: The calibrated operating points.  ``flows_smoke`` sizes the CI run;
#: ``verify_flows`` bounds the (quadratic) from-scratch verification.
POINTS = {
    "sp-calibrated": dict(
        isp="sprint",
        strategy="sp",
        arrival_rate=1500.0,
        mean_size_mbit=2.5,
        demand_mbps=10.0,
        pairs="local",
        max_hops=4,
        seed=1,
        flows_full=10_000,
        flows_smoke=2_000,
        verify_flows=2_000,
        cores=("reference", "vectorized"),
    ),
    "inrp-calibrated": dict(
        isp="sprint",
        strategy="inrp",
        arrival_rate=800.0,
        mean_size_mbit=2.5,
        demand_mbps=10.0,
        pairs="local",
        max_hops=3,
        seed=1,
        flows_full=10_000,
        flows_smoke=2_000,
        verify_flows=600,
        cores=("reference", "vectorized"),
    ),
    "inrp-overload": dict(
        isp="exodus",
        strategy="inrp",
        arrival_rate=400.0,
        mean_size_mbit=4.0,
        demand_mbps=10.0,
        pairs="uniform",
        max_hops=None,
        seed=1,
        flows_full=1_500,
        flows_smoke=500,
        verify_flows=200,
        cores=("reference", "vectorized", "auto"),
    ),
    "inrp-directed": dict(
        isp="sprint",
        strategy="inrp",
        arrival_rate=500.0,
        mean_size_mbit=2.5,
        demand_mbps=10.0,
        pairs="local",
        max_hops=3,
        capacity_asymmetry=0.5,
        seed=1,
        flows_full=6_000,
        flows_smoke=800,
        verify_flows=400,
        cores=("reference", "vectorized"),
    ),
    "inrp-pooled": dict(
        isp="sprint",
        strategy="inrp",
        pooling_fraction=0.5,
        arrival_rate=800.0,
        mean_size_mbit=2.5,
        demand_mbps=10.0,
        pairs="local",
        max_hops=3,
        seed=1,
        flows_full=4_000,
        flows_smoke=800,
        verify_flows=400,
        cores=("reference", "vectorized"),
    ),
}


#: The streaming-pipeline memory benchmark: the ``load-sweep-xl``
#: operating point (sprint, SP, rho < 1 so the active set stays small
#: and a million arrivals drain in minutes).  Each measurement runs in
#: a fresh subprocess and reports its RSS growth (VmHWM peak minus the
#: post-import baseline), so sinks are compared on identical terms and
#: without tracemalloc's order-of-magnitude slowdown.  The full mode
#: pits a 1M-flow streaming run against a 100k-flow materialized run:
#: the streaming run must stay under the fixed ceiling AND under the
#: materialized run's footprint at a tenth of the scale.
MEMORY_POINT = dict(
    isp="sprint",
    strategy="sp",
    arrival_rate=1500.0,
    mean_size_mbit=0.25,
    demand_mbps=10.0,
    max_hops=4,
    seed=1,
    flows=dict(
        full=dict(streaming=1_000_000, materialize=100_000),
        smoke=dict(streaming=60_000, materialize=60_000),
    ),
    #: Peak-RSS-growth ceiling for the streaming run, in MB.
    ceiling_mb=dict(full=192, smoke=96),
)


def build_specs(point, num_flows):
    topo = build_isp_topology(point["isp"], seed=0)
    if point.get("capacity_asymmetry"):
        apply_capacity_asymmetry(topo, point["capacity_asymmetry"])
    seed = point["seed"]
    if point["pairs"] == "local":
        sampler = local_pairs(topo, seed=seed + 1, max_hops=point["max_hops"])
    else:
        sampler = uniform_pairs(topo, seed=seed + 1)
    workload = FlowWorkload(
        topo,
        arrival_rate=point["arrival_rate"],
        mean_size_bits=point["mean_size_mbit"] * 1e6,
        demand_bps=mbps(point["demand_mbps"]),
        seed=seed,
        pair_sampler=sampler,
    )
    return topo, workload.generate(max_flows=num_flows)


def run_core(point, topo, specs, core, verify=False, adaptive=None):
    strategy_kwargs = (
        {"pooling_fraction": point["pooling_fraction"]}
        if "pooling_fraction" in point
        else {}
    )
    strategy = make_strategy(point["strategy"], topo, **strategy_kwargs)
    sim = FlowLevelSimulator(
        topo,
        strategy,
        specs,
        core=core,
        verify_allocator=verify,
        **(adaptive or {}),
    )
    start = time.perf_counter()
    result = sim.run()
    return result, time.perf_counter() - start


def check_equivalence(reference, other):
    """Worst relative deviation between two cores' records."""
    worst = 0.0
    for ref, oth in zip(reference.records, other.records):
        if ref.flow_id != oth.flow_id or ref.completed != oth.completed:
            return math.inf
        if ref.completed:
            worst = max(worst, abs(ref.fct - oth.fct) / max(abs(ref.fct), 1e-12))
        worst = max(
            worst,
            abs(ref.delivered_bits - oth.delivered_bits) / max(ref.size_bits, 1.0),
        )
    worst = max(
        worst,
        abs(reference.network_throughput - other.network_throughput)
        / max(reference.network_throughput, 1e-12),
    )
    return worst


def run_point(name, point, num_flows, verify_flows, adaptive=None):
    topo, specs = build_specs(point, num_flows)
    print(
        f"[{name}] {point['isp']} ({topo.num_nodes} nodes), {num_flows} flows, "
        f"strategy={point['strategy']}, pairs={point['pairs']}",
        flush=True,
    )
    results, seconds, full_refills = {}, {}, {}
    for core in point["cores"]:
        results[core], seconds[core] = run_core(
            point, topo, specs, core, adaptive=adaptive
        )
        full_refills[core] = results[core].full_refills
        print(f"  {core:12s} core: {seconds[core]:8.2f}s", flush=True)

    worst = max(
        check_equivalence(results["reference"], results[core])
        for core in point["cores"]
        if core != "reference"
    )
    speedup = (
        seconds["reference"] / seconds["vectorized"]
        if seconds["vectorized"] > 0
        else math.inf
    )
    print(
        f"  speedup {speedup:.2f}x, worst record deviation {worst:.2e}",
        flush=True,
    )
    auto_vs_best = None
    if "auto" in seconds:
        best = min(seconds["reference"], seconds["vectorized"])
        auto_vs_best = seconds["auto"] / best if best > 0 else math.inf
        print(f"  auto vs best-of-others: {auto_vs_best:.2f}x", flush=True)

    # Every recompute of the event core re-checked against the
    # from-scratch solver (quadratic, so on a bounded slice).
    verify_core = "vectorized"
    verify_specs = specs[: min(len(specs), verify_flows)]
    verified, _ = run_core(point, topo, verify_specs, verify_core, verify=True)
    max_deviation = verified.max_verify_deviation or 0.0
    print(
        f"  {verify_core} allocator verified from scratch on "
        f"{len(verify_specs)} flows (max deviation {max_deviation:.2e})",
        flush=True,
    )

    reference = results["reference"]
    return {
        "params": {
            key: point[key]
            for key in (
                "isp",
                "strategy",
                "arrival_rate",
                "mean_size_mbit",
                "demand_mbps",
                "pairs",
                "max_hops",
                "capacity_asymmetry",
                "pooling_fraction",
                "seed",
            )
            if key in point
        },
        "num_flows": num_flows,
        "seconds": {core: round(value, 4) for core, value in seconds.items()},
        "speedup": round(speedup, 3),
        "auto_vs_best": None if auto_vs_best is None else round(auto_vs_best, 3),
        "worst_record_deviation": worst,
        "equivalent": worst <= TOLERANCE,
        "full_refills": full_refills,
        "verify": {
            "core": verify_core,
            "flows": len(verify_specs),
            "max_deviation": max_deviation,
            "ok": max_deviation <= VERIFY_TOLERANCE,
        },
        "result": {
            "completed": len(reference.completed_records),
            "unfinished": reference.unfinished,
            "allocations": reference.allocations,
            "network_throughput": reference.network_throughput,
            "mean_fct": reference.mean_fct(),
            "duration": reference.duration,
            "total_switches": reference.total_switches,
        },
    }


def _rss_kb(field):
    """Read a VmRSS/VmHWM field (kB) from /proc/self/status; 0 when
    the platform has no procfs (the memory bench then reports only
    what it can)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def memory_child(spec):
    """Run one sink measurement and print a JSON line (internal;
    invoked as ``--memory-child sink:num_flows`` in a fresh process)."""
    sink, _, num_flows = spec.partition(":")
    num_flows = int(num_flows)
    point = MEMORY_POINT
    topo = build_isp_topology(point["isp"], seed=0)
    workload = FlowWorkload(
        topo,
        arrival_rate=point["arrival_rate"],
        mean_size_bits=point["mean_size_mbit"] * 1e6,
        demand_bps=mbps(point["demand_mbps"]),
        seed=point["seed"],
        pair_sampler=local_pairs(
            topo, seed=point["seed"] + 1, max_hops=point["max_hops"]
        ),
    )
    baseline_kb = _rss_kb("VmRSS")
    start = time.perf_counter()
    if sink == "streaming":
        specs = workload.iter_specs(max_flows=num_flows)
    else:
        # The materialized schedule is part of that pipeline's
        # footprint, so it is generated inside the measured window.
        specs = workload.generate(max_flows=num_flows)
    result = FlowLevelSimulator(
        topo, make_strategy(point["strategy"], topo), specs, sink=sink
    ).run()
    seconds = time.perf_counter() - start
    peak_kb = _rss_kb("VmHWM")
    print(
        json.dumps(
            {
                "sink": sink,
                "num_flows": num_flows,
                "baseline_rss_kb": baseline_kb,
                "peak_rss_kb": peak_kb,
                "rss_growth_mb": round((peak_kb - baseline_kb) / 1024.0, 1),
                "seconds": round(seconds, 1),
                "completed": result.completed_count,
                "unfinished": result.unfinished,
                "network_throughput": result.network_throughput,
                "p99_fct": result.fct_quantile(0.99),
            }
        )
    )
    return 0


def run_memory(smoke):
    """Measure both sinks in fresh subprocesses and assert the
    streaming pipeline's bounded-memory contract."""
    mode = "smoke" if smoke else "full"
    sizes = MEMORY_POINT["flows"][mode]
    ceiling_mb = MEMORY_POINT["ceiling_mb"][mode]
    runs = {}
    for sink in ("streaming", "materialize"):
        num_flows = sizes[sink]
        print(
            f"[memory] {sink} sink, {num_flows} flows "
            f"({MEMORY_POINT['isp']}, {MEMORY_POINT['strategy']}) ...",
            flush=True,
        )
        child = subprocess.run(
            [sys.executable, __file__, "--memory-child", f"{sink}:{num_flows}"],
            capture_output=True,
            text=True,
        )
        if child.returncode != 0:
            raise RuntimeError(
                f"memory child ({sink}) failed:\n{child.stderr}"
            )
        runs[sink] = json.loads(child.stdout.strip().splitlines()[-1])
        measured = runs[sink]
        print(
            f"  peak RSS growth {measured['rss_growth_mb']:.1f} MB "
            f"in {measured['seconds']:.1f}s "
            f"({measured['completed']} completed)",
            flush=True,
        )
    streaming, materialized = runs["streaming"], runs["materialize"]
    scale = streaming["num_flows"] / materialized["num_flows"]
    checks = {
        # The headline contract: N-flow streaming peak under a fixed
        # ceiling, and no larger than materializing 1/scale as many.
        "streaming_under_ceiling": streaming["rss_growth_mb"] <= ceiling_mb,
        "streaming_below_materialized": (
            streaming["rss_growth_mb"] <= materialized["rss_growth_mb"] * 1.10
        ),
    }
    record = {
        "point": {
            key: MEMORY_POINT[key]
            for key in (
                "isp",
                "strategy",
                "arrival_rate",
                "mean_size_mbit",
                "demand_mbps",
                "max_hops",
                "seed",
            )
        },
        "ceiling_mb": ceiling_mb,
        "scale_ratio": scale,
        "streaming": streaming,
        "materialize": materialized,
        "checks": checks,
    }
    for name, passed in checks.items():
        print(f"  {name}: {'ok' if passed else 'FAIL'}", flush=True)
    return record


def check_against(record, committed_path):
    """Diff the fresh record against the committed trajectory file.

    Deterministic simulation outputs must agree tightly; wall-clock
    derived numbers (speedup, auto ratio) only generously — CI runners
    are noisy and share cores.
    """
    path = Path(committed_path)
    if not path.exists():
        return [
            f"committed trajectory file not found: {committed_path} "
            f"(generate it with --merge-into)"
        ]
    committed = json.loads(path.read_text())
    section = committed.get(record["mode"])
    if section is None:
        return [f"committed file has no '{record['mode']}' section"]
    failures = []
    if "memory" in record:
        baseline_memory = section.get("memory")
        if baseline_memory is None:
            failures.append(
                f"committed '{record['mode']}' section has no memory record"
            )
        else:
            fresh_memory = record["memory"]
            for sink in ("streaming", "materialize"):
                for field in ("num_flows", "completed", "unfinished"):
                    old = baseline_memory[sink][field]
                    new = fresh_memory[sink][field]
                    if old != new:
                        failures.append(
                            f"memory/{sink}: {field} changed {old} -> {new}"
                        )
            # RSS itself is machine-dependent; the binding constraints
            # are the fixed ceiling and the cross-sink comparison,
            # asserted as checks on the fresh run.
            for name, passed in fresh_memory["checks"].items():
                if not passed:
                    failures.append(f"memory: check '{name}' failed")
    for name, fresh in record.get("points", {}).items():
        baseline = section.get("points", {}).get(name)
        if baseline is None:
            failures.append(f"{name}: missing from committed record")
            continue
        for field in ("completed", "unfinished", "allocations"):
            if fresh["result"][field] != baseline["result"][field]:
                failures.append(
                    f"{name}: {field} changed "
                    f"{baseline['result'][field]} -> {fresh['result'][field]}"
                )
        for field in ("network_throughput", "mean_fct", "duration"):
            old, new = baseline["result"][field], fresh["result"][field]
            if old is None or new is None:
                if old != new:
                    failures.append(f"{name}: {field} changed {old} -> {new}")
                continue
            if abs(new - old) > 1e-6 * max(abs(old), 1e-12):
                failures.append(f"{name}: {field} changed {old} -> {new}")
        # Timing: generous floors, not equality.
        if fresh["speedup"] < 0.4 * baseline["speedup"]:
            failures.append(
                f"{name}: speedup regressed {baseline['speedup']}x -> "
                f"{fresh['speedup']}x (floor is 40% of committed)"
            )
        if baseline.get("auto_vs_best") and fresh.get("auto_vs_best"):
            ceiling = max(1.6, 1.8 * baseline["auto_vs_best"])
            if fresh["auto_vs_best"] > ceiling:
                failures.append(
                    f"{name}: auto_vs_best regressed "
                    f"{baseline['auto_vs_best']}x -> {fresh['auto_vs_best']}x "
                    f"(ceiling {ceiling:.2f}x)"
                )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--points",
        default=None,
        help="comma-separated subset of points (default: all)",
    )
    parser.add_argument("--flows", type=int, default=None, help="override sweep size")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run (per-point smoke sizes) with allocator verification",
    )
    parser.add_argument("--min-inrp-speedup", type=float, default=None)
    # Adaptive ``core="auto"`` policy knobs, passed through to the
    # simulator at every point so the sweep harness can explore them
    # (defaults: the simulator's own).
    parser.add_argument("--adaptive-threshold", type=float, default=None)
    parser.add_argument("--adaptive-patience", type=int, default=None)
    parser.add_argument("--adaptive-probe-every", type=int, default=None)
    parser.add_argument("--adaptive-min-active", type=int, default=None)
    parser.add_argument(
        "--max-auto-ratio",
        type=float,
        default=None,
        help="fail if auto exceeds this multiple of the better core at overload",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="run the streaming-pipeline memory benchmark (subprocess "
        "peak-RSS measurement per sink); core points are skipped unless "
        "--points names them explicitly",
    )
    parser.add_argument("--memory-child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--out", default=None, help="write the JSON record here")
    parser.add_argument(
        "--merge-into",
        default=None,
        help="insert this run under its mode key ('smoke'/'full') in a "
        "trajectory file holding both sections — how the committed "
        "BENCH_flowsim.json is (re)generated",
    )
    parser.add_argument(
        "--check-against",
        default=None,
        help="diff-check results against a committed BENCH_flowsim.json",
    )
    args = parser.parse_args(argv)

    if args.memory_child:
        return memory_child(args.memory_child)

    if args.points is not None:
        names = args.points.split(",")
    elif args.memory:
        names = []  # memory-only invocation
    else:
        names = list(POINTS)
    unknown = [name for name in names if name not in POINTS]
    if unknown:
        print(f"unknown point(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    adaptive = {
        key: value
        for key, value in (
            ("adaptive_threshold", args.adaptive_threshold),
            ("adaptive_patience", args.adaptive_patience),
            ("adaptive_probe_every", args.adaptive_probe_every),
            ("adaptive_min_active", args.adaptive_min_active),
        )
        if value is not None
    }
    record = {
        "bench": "flowsim-core",
        "mode": "smoke" if args.smoke else "full",
        "points": {},
    }
    if adaptive:
        record["adaptive"] = adaptive
    for name in names:
        point = POINTS[name]
        num_flows = args.flows or (
            point["flows_smoke"] if args.smoke else point["flows_full"]
        )
        verify_flows = min(point["verify_flows"], num_flows)
        record["points"][name] = run_point(
            name, point, num_flows, verify_flows, adaptive=adaptive
        )
    if args.memory:
        record["memory"] = run_memory(args.smoke)

    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}", flush=True)
    if args.merge_into:
        trajectory_path = Path(args.merge_into)
        trajectory = (
            json.loads(trajectory_path.read_text())
            if trajectory_path.exists()
            else {"bench": record["bench"]}
        )
        section = trajectory.setdefault(record["mode"], {})
        if record["points"]:
            section["points"] = record["points"]
        if "memory" in record:
            section["memory"] = record["memory"]
        trajectory_path.write_text(
            json.dumps(trajectory, indent=2, sort_keys=True) + "\n"
        )
        print(f"merged '{record['mode']}' section into {args.merge_into}", flush=True)

    status = 0
    for name, point_record in record["points"].items():
        if not point_record["equivalent"]:
            print(f"FAIL: {name}: cores diverged beyond {TOLERANCE}", file=sys.stderr)
            status = 1
        if not point_record["verify"]["ok"]:
            print(
                f"FAIL: {name}: incremental-vs-scratch deviation "
                f"{point_record['verify']['max_deviation']:.2e} exceeds "
                f"{VERIFY_TOLERANCE}",
                file=sys.stderr,
            )
            status = 1
    if "memory" in record:
        for name, passed in record["memory"]["checks"].items():
            if not passed:
                print(f"FAIL: memory check '{name}'", file=sys.stderr)
                status = 1
    if args.min_inrp_speedup is not None:
        inrp = record["points"].get("inrp-calibrated")
        if inrp and inrp["speedup"] < args.min_inrp_speedup:
            print(
                f"FAIL: INRP speedup {inrp['speedup']}x below "
                f"{args.min_inrp_speedup}x",
                file=sys.stderr,
            )
            status = 1
    if args.max_auto_ratio is not None:
        overload = record["points"].get("inrp-overload")
        if overload and overload["auto_vs_best"] > args.max_auto_ratio:
            print(
                f"FAIL: adaptive core {overload['auto_vs_best']}x of the better "
                f"core at overload (bar {args.max_auto_ratio}x)",
                file=sys.stderr,
            )
            status = 1
    if args.check_against:
        failures = check_against(record, args.check_against)
        for failure in failures:
            print(f"FAIL: trajectory check: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print(f"trajectory check against {args.check_against}: ok", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
