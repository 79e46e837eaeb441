"""Outside-in layer trace for the benchmark.

Nothing under ``src/`` knows about this module.  :class:`Tracer` wraps
the public entry points of each layer — module attributes the program
looks up at call time, and attributes of objects the benchmark itself
builds — in timing spans, and puts every original back when the
:meth:`Tracer.installed` context exits.

Spans nest: a span's *self* time is its duration minus the time of the
spans it caused (a Dijkstra tree built inside ``strategy.route``, a
kernel fill inside ``allocator.recompute``).  Self times therefore
partition the root span of each phase exactly, which is what lets
:func:`layer_metrics` report a set of layer seconds that adds up to
the traced ``run_s``.

Spans are aggregated as they close (count, self and total seconds,
plus the individual durations of the few spans whose percentiles are
reported) instead of being kept one by one: a chunk-level run
dispatches over a million handlers.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter

#: Module attributes the program resolves at call time, wrapped while
#: a tracer is installed: ``(module, attribute, span)``.
MODULE_PATCHES = (
    ("repro.flowsim.strategies", "dijkstra", "routing.tree"),
    ("repro.flowsim.strategies", "DetourTable", "routing.detour_table"),
    ("repro.flowsim.kernel", "maxmin_fill", "kernel.fill"),
    ("repro.flowsim.kernel", "inrp_fill", "kernel.fill"),
    ("repro.chunksim.network", "DetourTable", "routing.detour_table"),
    ("repro.chunksim.network", "iter_sp_next_hops", "routing.fib"),
    # Not a span: engines it makes dispatch through protocol.handler.
    ("repro.chunksim.network", "make_engine", None),
)

#: Spans whose individual durations are kept for percentiles.
_KEEP_DURATIONS = frozenset({"allocation.recompute", "kernel.fill"})


class Phase:
    """Aggregated spans of one phase (``setup`` or ``run``)."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: Per-layer counters recorded by the wrappers themselves.
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)

    @property
    def spans(self) -> int:
        return sum(self.calls.values())


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.phases: Dict[str, Phase] = {}
        self._phase: Optional[Phase] = None
        #: Child-time accumulators of the open spans (innermost last).
        self._stack: List[float] = [0.0]
        #: ``(owner, attribute, original, owned)`` of every patch, in
        #: order; ``owned`` is False when the original was found on
        #: the class rather than on the instance itself.
        self._patches: List[tuple] = []
        #: (source, destination) pairs routed so far in this phase.
        self._routed: set = set()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin(self, name: str) -> Phase:
        """Start a fresh phase; spans and counters go to it from now on."""
        phase = self._phase = self.phases[name] = Phase()
        self._routed = set()
        return phase

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        stack = self._stack
        stack.append(0.0)
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _perf() - start
            child = stack.pop()
            stack[-1] += elapsed
            phase = self._phase
            phase.calls[name] += 1
            phase.self_s[name] += elapsed - child
            phase.total_s[name] += elapsed
            if name in _KEEP_DURATIONS:
                phase.durations[name].append(elapsed)

    def timed(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped in a span called *name*."""
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute`` until :meth:`installed` exits."""
        owned = attribute in vars(owner)
        self._patches.append(
            (owner, attribute, getattr(owner, attribute), owned)
        )
        setattr(owner, attribute, replacement)

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Wrap ``owner.attribute`` in a span called *name*."""
        self.patch(owner, attribute, self.timed(name, getattr(owner, attribute)))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the module-level layer entry points for the duration."""
        try:
            for module_name, attribute, name in MODULE_PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
                if attribute == "make_engine":
                    replacement = self._tracing_engines(original)
                elif attribute == "iter_sp_next_hops":
                    replacement = self._drained(name, original)
                else:
                    replacement = self.timed(name, original)
                self.patch(module, attribute, replacement)
            yield self
        finally:
            self.restore()

    def _drained(self, name: str, generator: Callable) -> Callable:
        """Span around a generator function: the work happens while the
        caller iterates, so drain it inside the span (``ChunkNetwork``
        consumes every item anyway while filling its FIBs)."""

        def drained(*args):
            return iter(self.call(name, lambda: list(generator(*args))))

        return drained

    def _tracing_engines(self, make_engine: Callable) -> Callable:
        def traced_make_engine(name):
            engine = make_engine(name)
            self.trace_engine(engine)
            return engine

        return traced_make_engine

    # ------------------------------------------------------------------
    # Layer-specific wrappers of objects the benchmark builds
    # ------------------------------------------------------------------
    def trace_strategy(self, strategy) -> None:
        """Wrap ``route`` (counting first touches of each pair: the
        route cache misses, exact while its LRU never evicts) and the
        allocator factory."""
        route = strategy.route

        def traced_route(flow_id, source, destination):
            key = (source, destination)
            if key not in self._routed:
                self._routed.add(key)
                self._phase.counts["routing.path_misses"] += 1
            return self.call("routing.route", route, flow_id, source, destination)

        self.patch(strategy, "route", traced_route)
        factory = strategy.incremental_allocator

        def incremental_allocator(*args, **kwargs):
            allocator = factory(*args, **kwargs)
            if allocator is not None:
                self.trace_allocator(allocator)
            return allocator

        self.patch(strategy, "incremental_allocator", incremental_allocator)

    def trace_allocator(self, allocator) -> None:
        """Wrap ``add_flow``/``remove_flow``/``recompute`` (recording
        component sizes, full refills and switches) and the adaptive
        core's ``dirty_component_size`` probe."""
        self.wrap(allocator, "add_flow", "allocation.add")
        self.wrap(allocator, "remove_flow", "allocation.remove")
        self.wrap(allocator, "dirty_component_size", "allocation.probe")
        recompute = allocator.recompute

        def traced_recompute(full=False):
            result = self.call("allocation.recompute", recompute, full=full)
            counts = self._phase.counts
            if isinstance(result, tuple):  # multipath: (rates, splits, switches)
                rates, switches = result[0], result[2]
                counts["allocation.switches"] += switches
            else:
                rates = result
            self._phase.samples["allocation.component_flows"].append(len(rates))
            if full:
                counts["allocation.full_refills"] += 1
            return result

        self.patch(allocator, "recompute", traced_recompute)

    def trace_sink(self, sink) -> None:
        self.wrap(sink, "consume", "sinks.consume")

    def trace_sampler(self, sampler: Callable) -> Callable:
        return self.timed("workloads.sample", sampler)

    def trace_engine(self, engine) -> None:
        """Route every callback the engine will dispatch through a
        ``protocol.handler`` span.  The engine's scheduling methods are
        wrapped on the instance before the network binds them; the
        event loop itself runs unchanged."""
        call = self.call

        def handler(fn, *args):
            return call("protocol.handler", fn, *args)

        for attribute in ("schedule", "call_after", "schedule_entry"):
            schedule = getattr(engine, attribute)

            def traced(delay, fn, *args, _schedule=schedule):
                return _schedule(delay, handler, fn, *args)

            self.patch(engine, attribute, traced)

    # ------------------------------------------------------------------
    # Cost of the trace itself
    # ------------------------------------------------------------------
    def span_cost(self, spans: int = 20000) -> float:
        """Seconds one span adds around a call (median of 5 batches)."""
        saved = self._phase
        self.begin("calibration")
        noop = lambda: None  # noqa: E731
        traced = self.timed("calibration", noop)
        costs = []
        for _ in range(5):
            start = _perf()
            for _ in range(spans):
                noop()
            bare = _perf() - start
            start = _perf()
            for _ in range(spans):
                traced()
            costs.append(max(_perf() - start - bare, 0.0) / spans)
        del self.phases["calibration"]
        self._phase = saved
        costs.sort()
        return costs[len(costs) // 2]


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]
