#!/usr/bin/env python3
"""The repository benchmark: one workload, one fresh process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sp-stream --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

A run repeats *setup then run()* of the workload's inputs (see
:mod:`perfbench.workloads`) until ``--seconds`` have passed, untraced
runs at least once per input.  Every repetition's simulated outputs are
checked: against the fingerprints recorded in ``expected.json`` when
the seed is recorded there, against the invariants every input must
satisfy, and against the first repetition of the same input.

``--trace 0`` reports the end-to-end metrics: medians of ``setup_s``
and ``run_s`` over the repetitions and the process's ``peak_rss_mb``.
Each repetition's times are scaled to a reference host speed by a
yardstick timed just before and after it (:func:`make_yardstick`).
``--trace 1`` pairs each traced repetition of an input with an untraced
one (alternating which goes first) and reports the per-layer metrics
of :func:`layer_metrics`.  The last line of standard output is the
result as one JSON object; the line before it carries the run's
details: every sample, unscaled wall times too, and the yardstick's
median time as ``calibration_s``.

``--workload all`` runs every workload in its own fresh process, one
after another, and prints each one's result line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"

_perf = time.perf_counter

#: Reported per-layer metric -> (phase part, span or counter, field).
#: ``phase part`` is "setup", "run" or "both" (summed).
_SPAN_SECONDS = {
    "topology.build_s": ("both", "topology.build", "self"),
    "workloads.sample_s": ("both", "workloads.sample", "self"),
    "routing.route_s": ("run", "routing.route", "self"),
    "routing.tree_s": ("both", "routing.tree", "self"),
    "routing.detour_table_s": ("both", "routing.detour_table", "self"),
    "routing.fib_s": ("both", "routing.fib", "self"),
    "allocation.add_s": ("run", "allocation.add", "self"),
    "allocation.remove_s": ("run", "allocation.remove", "self"),
    "allocation.recompute_s": ("run", "allocation.recompute", "total"),
    "allocation.search_s": ("run", "allocation.recompute", "self"),
    "allocation.probe_s": ("run", "allocation.probe", "self"),
    "kernel.fill_s": ("run", "kernel.fill", "self"),
    "sinks.consume_s": ("run", "sinks.consume", "self"),
    "protocol.handler_s": ("run", "protocol.handler", "self"),
    "trace.run_s": ("run", "run", "total"),
}
_SPAN_CALLS = {
    "workloads.samples": ("both", "workloads.sample"),
    "routing.route_calls": ("run", "routing.route"),
    "routing.tree_builds": ("both", "routing.tree"),
    "allocation.recomputes": ("run", "allocation.recompute"),
    "kernel.fills": ("run", "kernel.fill"),
    "sinks.records": ("run", "sinks.consume"),
}
_COUNTERS = ("allocation.full_refills", "allocation.switches")

#: Span name -> the per-layer seconds metric holding its self time.
#: Every span a traced run records maps to one of these, and the
#: run-phase self times add up to ``trace.run_s``.
SPAN_METRIC = {
    span: metric
    for metric, (_, span, field) in _SPAN_SECONDS.items()
    if field == "self"
}


def _phase_sum(tracer, part, table, key):
    phases = ("setup", "run") if part == "both" else (part,)
    return sum(getattr(tracer.phases[p], table)[key] for p in phases)


def rep_layers(workload, tracer, result, span_cost) -> dict:
    """Additive per-layer quantities and sample pools of one traced rep."""
    run = tracer.phases["run"]
    totals = {
        name: _phase_sum(tracer, part, f"{field}_s", span)
        for name, (part, span, field) in _SPAN_SECONDS.items()
    }
    totals.update(
        (name, _phase_sum(tracer, part, "calls", span))
        for name, (part, span) in _SPAN_CALLS.items()
    )
    totals.update((name, run.counts[name]) for name in _COUNTERS)
    totals["routing.path_misses"] = run.counts["routing.path_misses"]
    self_s = run.self_s["run"]
    if workload.kind == "chunk":
        totals.update(
            {
                "simulator.self_s": 0.0,
                "simulator.events": 0,
                "engine.self_s": self_s,
                "engine.events": result.events_processed,
                "protocol.custody_events": result.custody_events,
                "protocol.detour_events": result.detour_events,
                "protocol.drops": result.drops,
                "protocol.backpressure_signals": result.backpressure_signals,
            }
        )
    else:
        totals.update(
            {
                "simulator.self_s": self_s,
                # Arrivals (each is routed once) plus departures (each
                # finalized flow reaches the sink once).
                "simulator.events": run.calls["routing.route"]
                + run.calls["sinks.consume"],
                "engine.self_s": 0.0,
                "engine.events": 0,
                "protocol.custody_events": 0,
                "protocol.detour_events": 0,
                "protocol.drops": 0,
                "protocol.backpressure_signals": 0,
            }
        )
    totals["trace.bookkeeping_s"] = span_cost * run.spans
    pools = {
        "recompute": run.durations["allocation.recompute"],
        "fill": run.durations["kernel.fill"],
        "component": run.samples["allocation.component_flows"],
    }
    return {"totals": totals, "pools": pools}


def layer_metrics(reps, untraced_run_s) -> dict:
    """Per-layer metrics over traced reps: additive quantities as
    per-rep means (so seconds still partition ``trace.run_s``),
    percentiles and ratios over the pooled reps."""
    from perfbench.tracer import quantile

    count = len(reps)
    summed = {}
    for rep in reps:
        for name, value in rep["totals"].items():
            summed[name] = summed.get(name, 0.0) + value
    pools = {
        key: [value for rep in reps for value in rep["pools"][key]]
        for key in ("recompute", "fill", "component")
    }

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        name: value / count
        for name, value in summed.items()
        if name not in ("routing.path_misses", "trace.bookkeeping_s")
    }
    metrics.update(
        {
            "routing.path_cache_hit_ratio": ratio(
                summed["routing.route_calls"] - summed["routing.path_misses"],
                summed["routing.route_calls"],
            ),
            # Trees are looked up only on path-cache misses.
            "routing.tree_cache_hit_ratio": ratio(
                summed["routing.path_misses"] - summed["routing.tree_builds"],
                summed["routing.path_misses"],
            ),
            "allocation.recompute_p50_ms": 1e3 * quantile(pools["recompute"], 0.5),
            "allocation.recompute_p99_ms": 1e3 * quantile(pools["recompute"], 0.99),
            "allocation.component_flows_mean": ratio(
                sum(pools["component"]), len(pools["component"])
            ),
            "allocation.component_flows_p99": quantile(pools["component"], 0.99),
            "kernel.fill_p99_ms": 1e3 * quantile(pools["fill"], 0.99),
            "trace.overhead_ratio": ratio(
                summed["trace.run_s"], sum(untraced_run_s)
            ),
            "trace.unaccounted_share": ratio(
                summed["trace.bookkeeping_s"], summed["trace.run_s"]
            ),
        }
    )
    return metrics


#: About the time of :func:`make_yardstick`'s pass on the host the
#: workloads were sized on (2-vCPU Xeon VM, Python 3.11) at its usual
#: speed.  Timings are scaled to this host speed; see :func:`measure`.
REFERENCE_YARDSTICK_S = 0.03


def make_yardstick():
    """A timed pass of fixed work that touches none of the program:
    integer arithmetic, dict lookups in a scattered order and a small
    numpy sort.  The host slows it much as it slows the simulators, so
    the ratio of its time to :data:`REFERENCE_YARDSTICK_S` is the host's
    slowdown at that moment."""
    import numpy as np

    # About 3 MB in all, so peak_rss_mb stays the workload's.
    rng = np.random.default_rng(0)
    values = rng.random(100_000)
    order = rng.permutation(32_768).tolist()
    table = dict.fromkeys(range(32_768), 1)

    def yardstick_s() -> float:
        start = _perf()
        total = 0
        for _ in range(4):
            for key in order:
                total += table[key]
        for i in range(300_000):
            total += i * i
        for _ in range(5):
            np.sort(values)
        return _perf() - start

    return yardstick_s


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_expected(path: Path = EXPECTED) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    expected: dict,
    inputs: int = None,
    perturb=None,
    log=None,
):
    """Run the repetition loop; return ``(metrics, attempted, failed,
    details)``, with ``metrics`` None when no repetition succeeded.

    *perturb*, when given, is applied to every fingerprint before it is
    checked (tests use it to show a wrong output counts as a failure).
    """
    from perfbench.tracer import Tracer
    from perfbench.workloads import fingerprints_match, input_seed

    inputs = inputs or workload.inputs
    log = log or (lambda message: print(message, file=sys.stderr))
    recorded = expected.get(workload.name, {}).get(str(seed))
    first = {}
    attempted = failed = 0
    setup_s, run_s, untraced_pairs, traced_reps = [], [], [], []
    wall_setup_s, wall_run_s = [], []
    span_cost = Tracer().span_cost() if trace else 0.0
    yardstick_s = make_yardstick()
    # One yardstick pass before the first step and one after each step.
    yardsticks = [yardstick_s()]

    def rep(index, tracer):
        nonlocal attempted, failed
        attempted += 1
        try:
            if tracer is None:
                start = _perf()
                prepared = workload.setup(input_seed(seed, index))
                middle = _perf()
                result = workload.run(prepared)
                end = _perf()
            else:
                with tracer.installed():
                    tracer.begin("setup")
                    start = _perf()
                    prepared = workload.setup(input_seed(seed, index), tracer)
                    middle = _perf()
                    tracer.begin("run")
                    result = workload.run(prepared, tracer)
                    end = _perf()
            fingerprint = workload.fingerprint(result)
        except Exception as error:  # a failed run is counted, not fatal
            failed += 1
            log(f"perfbench: input {index} raised {type(error).__name__}: {error}")
            return None
        if perturb is not None:
            fingerprint = perturb(fingerprint)
        problems = workload.check(fingerprint)
        if recorded is not None and not fingerprints_match(
            recorded[index], fingerprint
        ):
            problems.append("outputs differ from the recorded fingerprint")
        if index in first:
            if not fingerprints_match(first[index], fingerprint):
                problems.append("outputs differ from an earlier run of this input")
        else:
            first[index] = fingerprint
        if problems:
            failed += 1
            log(f"perfbench: input {index}: " + "; ".join(problems))
            return None
        return middle - start, end - middle, result

    # Untraced runs cover every input at least once.  Traced steps cost
    # twice as much and feed unbounded metrics, so they need not.
    min_steps = 1 if trace else inputs
    begin = _perf()
    deadline = begin + seconds
    step_s = []
    step = 0
    while True:
        index = step % inputs
        step_start = _perf()
        tracer = Tracer() if trace else None
        if trace and step % 2:
            # Alternate which of a pair runs first, so neither gets the
            # warmer process every time.
            traced = rep(index, tracer)
            timed = rep(index, None)
        else:
            timed = rep(index, None)
            traced = rep(index, tracer) if trace else None
        yardsticks.append(yardstick_s())
        if timed is not None:
            # The host shares its cores: for seconds to minutes at a
            # time it runs at half its speed or less.  Scaling each
            # repetition by the slowdown the yardstick saw around it
            # reports every timing at the reference host speed.
            speed = REFERENCE_YARDSTICK_S / statistics.mean(yardsticks[-2:])
            setup_s.append(timed[0] * speed)
            run_s.append(timed[1] * speed)
            wall_setup_s.append(timed[0])
            wall_run_s.append(timed[1])
        if traced is not None and timed is not None:
            untraced_pairs.append(timed[1])
            traced_reps.append(rep_layers(workload, tracer, traced[2], span_cost))
        step += 1
        step_s.append(_perf() - step_start)
        if step >= min_steps and _perf() + statistics.median(step_s) > deadline:
            break

    details = {
        "workload": workload.name,
        "seed": seed,
        "inputs": inputs,
        "repetitions": step,
        "error_rate": failed / attempted,
        "calibration_s": statistics.median(yardsticks),
        "elapsed_s": _perf() - begin,
        "run_s_samples": run_s,
        "setup_s_samples": setup_s,
        "wall_run_s_samples": wall_run_s,
        "wall_setup_s_samples": wall_setup_s,
        "yardstick_s_samples": yardsticks,
    }
    if trace:
        metrics = layer_metrics(traced_reps, untraced_pairs) if traced_reps else None
    elif run_s:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.median(run_s),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        metrics = None
    return metrics, attempted, failed, details


def result_line(metrics, attempted, failed, section) -> dict:
    """The result object, with every metric of *section* of
    ``BENCHMARK.json`` in its declared unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in spec[section]
        },
    }


def _import_program() -> None:
    """Put the checkout's sources on the path, or stop."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}, all"
        )
    metrics, attempted, failed, details = measure(
        workload, args.seed, args.seconds, bool(args.trace), load_expected()
    )
    print("perfbench: " + json.dumps(details), flush=True)
    if metrics is None:
        print("perfbench: every repetition failed", file=sys.stderr)
        return 1
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps(result_line(metrics, attempted, failed, section)), flush=True)
    return 0


def _run_all(args, workloads) -> int:
    """Each workload in a fresh process, one at a time, so peak RSS is
    per workload and no two runs share the cores."""
    status = 0
    for name in workloads:
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else '(no output)'}", flush=True)
        status = status or child.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
