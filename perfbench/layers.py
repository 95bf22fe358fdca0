"""Outside-in per-layer tracing for the traced benchmark run.

Nothing in ``src/`` is edited.  The traced run combines two sources:

* **Hot calls** -- every Python call made while the driver runs is
  timed by the standard library's deterministic profiler (``cProfile``),
  which keeps its own call stack in memory and aggregates per function.
  A function's self time is its span minus the spans of the functions
  it called.  :func:`fold_profile` maps each function to a layer by the
  module (and, where one module holds two layers, the qualified name)
  it is defined in; helper code that belongs to no layer -- the
  standard library, dataclass-generated ``__init__`` methods, packets,
  topology queries, the RNG -- is charged to the layers of its callers,
  in proportion to the time each caller spent in it.
* **Coarse boundaries** -- a handful of public entry points are wrapped
  at class level: ``Workload.run``, ``EventTransport.drive_all`` and
  ``Cluster`` construction become full spans (written as Chrome trace
  JSON), ``Simulator.run`` counts dispatched events, and the
  ``MemoryHierarchy`` / ``SwapManager`` constructors hand over their
  public ``StatsRegistry`` so hit, fill and fault counters can be read
  after the run.

On the compiled core the simulator's ``run`` is a C method stored on
the instance; the tracer wraps it in a Python frame charged to
``sim.engine``, so C dispatch time is not billed to whichever Python
function happened to call ``run``.
"""

from __future__ import annotations

import cProfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Longest-prefix module map (path under ``src/repro``) -> layer.
#: ``None`` charges the module's time to the layers of its callers.
MODULE_LAYERS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("experiments/", "experiments"),
    ("analysis/", "experiments"),
    ("workloads/", "workloads"),
    ("cpu/hierarchy.py", "cpu.hierarchy"),
    ("cpu/core.py", "cpu.core"),
    ("mem/cache.py", "mem.cache"),
    ("mem/memory_map.py", "mem.memory_map"),
    ("mem/dram.py", "mem.dram"),
    ("mem/prefetch.py", "mem.prefetch"),
    ("mem/swap.py", "mem.swap"),
    ("core/channels/", "channels"),  # split by qualname, see _channel_layer
    ("interconnects/", "channels.closed_form"),
    ("sim/stats.py", "sim.stats"),
    ("sim/rng.py", None),
    ("sim/", "sim.engine"),
    ("fabric/phy.py", "fabric.phy"),
    ("fabric/datalink.py", "fabric.datalink"),
    ("fabric/network.py", "fabric.network"),
    ("fabric/", None),  # packets, topology, router config
    ("runtime/", "runtime"),
    ("cluster/matchmaker.py", "cluster.matchmaker"),
    ("cluster/", "cluster"),
    ("core/", "system"),
    ("nic/", "system"),
    ("accel/", "system"),
)

#: Every layer a traced run reports a self time for.
LAYERS = ("experiments", "workloads", "cpu.hierarchy", "cpu.core",
          "mem.cache", "mem.memory_map", "mem.dram", "mem.prefetch",
          "mem.swap", "channels.closed_form", "channels.transport",
          "sim.stats", "sim.engine", "fabric.phy", "fabric.datalink",
          "fabric.network", "runtime", "cluster.matchmaker", "cluster",
          "system")

#: Transport-side qualname prefixes in ``core/channels/backend.py``.
_CLOSED_FORM_CLASSES = ("TransportBackend.", "ClosedFormBackend.",
                        "RetryPolicy.")


def _channel_layer(module: str, qualname: str) -> str:
    if module == "core/channels/backend.py":
        if qualname.startswith(_CLOSED_FORM_CLASSES):
            return "channels.closed_form"
        return "channels.transport"
    # Channel classes: submit_* issue event-fabric ops, the rest are
    # closed-form latency formulas.
    method = qualname.rsplit(".", 1)[-1]
    if method.startswith("submit_"):
        return "channels.transport"
    return "channels.closed_form"


class LayerMap:
    """Maps profiler code objects to layers (``None``: charge callers)."""

    def __init__(self, repro_root: Path):
        self.prefix = str(repro_root.resolve()) + "/"
        self.extra: Dict[object, str] = {}
        self._memo: Dict[object, Optional[str]] = {}

    def module_of(self, code) -> Optional[str]:
        filename = getattr(code, "co_filename", "")
        if filename.startswith(self.prefix):
            return filename[len(self.prefix):]
        return None

    def layer_of(self, code) -> Optional[str]:
        if code in self.extra:
            return self.extra[code]
        if code in self._memo:
            return self._memo[code]
        layer = None
        module = self.module_of(code)
        if module is not None:
            for prefix, mapped in MODULE_LAYERS:
                if module.startswith(prefix):
                    layer = mapped
                    break
            qualname = getattr(code, "co_qualname", code.co_name)
            if layer == "channels":
                layer = _channel_layer(module, qualname)
            elif qualname.split(".", 1)[0].endswith("Config"):
                # Parameter classes (e.g. the PHY's serialization
                # formula on LinkConfig) belong to whoever evaluates them.
                layer = None
        self._memo[code] = layer
        return layer


def fold_profile(stats, layer_map: LayerMap):
    """Fold ``cProfile`` entries into per-layer self time and call counts.

    Returns ``(self_s, calls, by_function)``: ``by_function`` maps
    ``"module:qualname"`` of every function with a layer of its own to
    its call count.
    """
    callers: Dict[object, List[Tuple[object, float, int]]] = defaultdict(list)
    for entry in stats:
        for sub in entry.calls or ():
            callers[sub.code].append((entry.code, sub.inlinetime, sub.callcount))

    shares: Dict[object, Dict[str, float]] = {}

    def share_of(code, active: set) -> Dict[str, float]:
        layer = layer_map.layer_of(code)
        if layer is not None:
            return {layer: 1.0}
        if code in shares:
            return shares[code]
        if code in active:  # recursion among helpers: no new information
            return {}
        active.add(code)
        edges = callers.get(code, ())
        weights = [t for _, t, _ in edges]
        if sum(weights) <= 0:
            weights = [float(n) for _, _, n in edges]
        total = sum(weights)
        result: Dict[str, float] = defaultdict(float)
        if total > 0:
            for (caller, _, _), weight in zip(edges, weights):
                for layer, fraction in share_of(caller, active).items():
                    result[layer] += fraction * weight / total
        active.discard(code)
        shares[code] = dict(result)
        return shares[code]

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    by_function: Dict[str, int] = defaultdict(int)
    for entry in stats:
        code = entry.code
        layer = layer_map.layer_of(code)
        if layer is not None:
            calls[layer] += entry.callcount
            module = layer_map.module_of(code)
            if module is not None:
                qualname = getattr(code, "co_qualname", code.co_name)
                by_function[f"{module}:{qualname}"] += entry.callcount
        for name, fraction in share_of(code, set()).items():
            self_s[name] += entry.inlinetime * fraction
    return dict(self_s), dict(calls), dict(by_function)


def _retag(func: Callable, tag: str) -> Callable:
    """Give ``func`` its own code object so the profiler keeps it apart."""
    func.__code__ = func.__code__.replace(co_name=tag, co_qualname=tag)
    return func


class Tracer:
    """Installs the coarse wrappers, profiles one driver call, folds it."""

    def __init__(self, repro_root: Path):
        self.layer_map = LayerMap(repro_root)
        self.spans: List[Dict[str, object]] = []
        self.events = 0
        self.hierarchy_stats: List[object] = []
        self.swap_stats: List[object] = []
        self.transport_totals: Dict[str, int] = defaultdict(int)
        self._transport = None
        self._patches: List[Tuple[object, str, object]] = []
        self._origin = time.perf_counter()
        self._run_depth = 0
        self.stats = None

    # -- wrappers ------------------------------------------------------
    def _patch(self, owner, attr: str, replacement, layer: str) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        self.layer_map.extra[replacement.__code__] = layer
        setattr(owner, attr, replacement)

    def _span(self, name: str, start: float) -> None:
        """Record a Chrome trace complete event from ``start`` to now."""
        end = time.perf_counter()
        self.spans.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                           "ts": (start - self._origin) * 1e6,
                           "dur": (end - start) * 1e6})

    def _span_wrapper(self, original, name: str, layer: str, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._span(name, start)
            if after is not None:
                after(args[0])
            return result
        return _retag(wrapper, f"traced[{name}]")

    def _run_wrapper(self, sim, run):
        """``run`` for one simulator, counting the events it dispatches.

        ``run`` is the Python method (unbound) on the pure-Python core
        and the C engine's bound method on the compiled core; in both
        cases the wrapper's own self time is dispatch time.
        """
        tracer = self

        def traced_run(*args, **kwargs):
            target = sim if sim is not None else args[0]
            tracer._run_depth += 1
            before = target.events_processed
            try:
                return run(*args, **kwargs)
            finally:
                tracer._run_depth -= 1
                if tracer._run_depth == 0:
                    tracer.events += target.events_processed - before
        self.layer_map.extra[traced_run.__code__] = "sim.engine"
        return traced_run

    def _fold_transport(self, transport) -> None:
        """Add a finished transport's public counters to the totals."""
        totals = self.transport_totals
        totals["timeouts"] += transport.ops_timed_out
        for key in sorted(transport.fabric.datalinks):
            counters = transport.fabric.datalinks[key].stats.counters
            for name in ("packets_sent", "replays"):
                counter = counters.get(name)
                if counter is not None:
                    totals[name] += counter.value

    def _track_transport(self, transport) -> None:
        # The churn driver builds one cluster (one transport) at a time;
        # a transport's counters are final once the next one shows up.
        if transport is not self._transport:
            if self._transport is not None:
                self._fold_transport(self._transport)
            self._transport = transport

    def install(self) -> None:
        from repro.cluster.cluster import Cluster
        from repro.core.channels.backend import EventTransport
        from repro.cpu.hierarchy import MemoryHierarchy
        from repro.mem.swap import SwapManager
        from repro.sim.engine import Simulator
        from repro.workloads.base import Workload

        def keep_stats(store: List[object]):
            def after(owner):
                store.append(owner.stats)
            return after

        self._patch(MemoryHierarchy, "__init__", self._span_wrapper(
            MemoryHierarchy.__init__, "MemoryHierarchy()", "cpu.hierarchy",
            after=keep_stats(self.hierarchy_stats)), "cpu.hierarchy")
        self._patch(SwapManager, "__init__", self._span_wrapper(
            SwapManager.__init__, "SwapManager()", "mem.swap",
            after=keep_stats(self.swap_stats)), "mem.swap")
        self._patch(Cluster, "__init__", self._span_wrapper(
            Cluster.__init__, "Cluster()", "cluster"), "cluster")
        self._patch(EventTransport, "drive_all", self._span_wrapper(
            EventTransport.drive_all, "EventTransport.drive_all",
            "channels.transport", after=self._track_transport),
            "channels.transport")
        # The driver module is imported before install(), and with it
        # every Workload subclass the driver runs.
        for cls in _subclasses(Workload):
            if "run" in cls.__dict__:
                self._patch(cls, "run", self._span_wrapper(
                    cls.__dict__["run"], f"{cls.__name__}.run", "workloads"),
                    "workloads")

        sim_cls = type(Simulator())  # the class the factory picks here
        if "run" in getattr(sim_cls, "__slots__", ()):
            # Compiled core: ``run`` is the C engine's bound method,
            # stored per instance by __init__; wrap it there.
            original_init = sim_cls.__init__

            def init(sim, *args, **kwargs):
                original_init(sim, *args, **kwargs)
                sim.run = self._run_wrapper(sim, sim.run)
            self._patch(sim_cls, "__init__", _retag(init, "traced[Simulator()]"),
                        "sim.engine")
        else:
            self._patch(sim_cls, "run", self._run_wrapper(None, sim_cls.run),
                        "sim.engine")

    def uninstall(self) -> None:
        if self._transport is not None:
            self._fold_transport(self._transport)
            self._transport = None
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- profiling -----------------------------------------------------
    def profile(self, func: Callable, *args):
        """Call ``func(*args)`` under the profiler; returns (result, wall)."""
        tracer = self

        def driver():
            start = time.perf_counter()
            try:
                return func(*args)
            finally:
                tracer._span("driver", start)
        _retag(driver, "traced[driver]")
        self.layer_map.extra[driver.__code__] = "experiments"
        profiler = cProfile.Profile(builtins=False)
        start = time.perf_counter()
        profiler.enable()
        try:
            result = driver()
        finally:
            profiler.disable()
        wall = time.perf_counter() - start
        self.stats = profiler.getstats()
        return result, wall

    def chrome_trace(self, metadata: Dict[str, object]) -> Dict[str, object]:
        return {"traceEvents": self.spans, "displayTimeUnit": "ms",
                "otherData": metadata}


#: Per-layer metric -> (unit, better).  ``BENCHMARK.json`` lists the same
#: names; the self-test checks the two agree.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "cpu.hierarchy.accesses": ("count", "lower"),
    "cpu.hierarchy.self_s": ("s", "lower"),
    "cpu.hierarchy.hit_ratio": ("ratio", "higher"),
    "cpu.hierarchy.prefetch_cover_ratio": ("ratio", "higher"),
    "cpu.core.calls": ("count", "lower"),
    "cpu.core.self_s": ("s", "lower"),
    "mem.cache.calls": ("count", "lower"),
    "mem.cache.self_s": ("s", "lower"),
    "mem.memory_map.calls": ("count", "lower"),
    "mem.memory_map.self_s": ("s", "lower"),
    "mem.dram.self_s": ("s", "lower"),
    "mem.prefetch.self_s": ("s", "lower"),
    "mem.swap.faults": ("count", "lower"),
    "mem.swap.self_s": ("s", "lower"),
    "channels.closed_form.calls": ("count", "lower"),
    "channels.closed_form.self_s": ("s", "lower"),
    "sim.stats.calls": ("count", "lower"),
    "sim.stats.self_s": ("s", "lower"),
    "sim.engine.events": ("count", "lower"),
    "sim.engine.self_s": ("s", "lower"),
    "sim.engine.events_per_s": ("1/s", "higher"),
    "fabric.phy.self_s": ("s", "lower"),
    "fabric.datalink.self_s": ("s", "lower"),
    "fabric.network.self_s": ("s", "lower"),
    "fabric.packets": ("count", "lower"),
    "fabric.events_per_packet": ("ratio", "lower"),
    "fabric.datalink.replay_ratio": ("ratio", "lower"),
    "channels.transport.ops": ("count", "lower"),
    "channels.transport.self_s": ("s", "lower"),
    "channels.transport.timeouts": ("count", "lower"),
    "channels.transport.retry_ratio": ("ratio", "lower"),
    "runtime.self_s": ("s", "lower"),
    "cluster.matchmaker.calls": ("count", "lower"),
    "cluster.matchmaker.self_s": ("s", "lower"),
    "cluster.self_s": ("s", "lower"),
    "system.self_s": ("s", "lower"),
    "workloads.self_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}

_TRANSPORT_SUBMITS = tuple(
    f"core/channels/backend.py:EventTransport.{name}"
    for name in ("submit_one_way", "submit_round_trip", "submit_occupancy",
                 "submit_stream"))
_RETRY_RELAUNCH = ("core/channels/backend.py:"
                   "EventTransport.submit_with_retry.<locals>.relaunch")
_STATS_CALLS = ("sim/stats.py:StatsRegistry.counter",
                "sim/stats.py:Counter.increment")


def _counter_sum(registries, *names: str) -> int:
    total = 0
    for registry in registries:
        for name in names:
            counter = registry.counters.get(name)
            if counter is not None:
                total += counter.value
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def raw_layer_metrics(tracer: Tracer, traced_wall: float) -> Dict[str, float]:
    """Every per-layer metric the traced run alone can give.

    ``trace.overhead`` and ``sim.engine.events_per_s`` need the untraced
    wall time as well; the parent process adds them.
    """
    self_s, calls, by_function = fold_profile(tracer.stats, tracer.layer_map)

    def fn_calls(names) -> int:
        return sum(by_function.get(name, 0) for name in names)

    hierarchy = tracer.hierarchy_stats
    accesses = fn_calls(("cpu/hierarchy.py:MemoryHierarchy.access",))
    fills = _counter_sum(hierarchy, "fills_dram", "fills_remote")
    ops = fn_calls(_TRANSPORT_SUBMITS)
    totals = tracer.transport_totals
    metrics = {
        "cpu.hierarchy.accesses": accesses,
        "cpu.hierarchy.hit_ratio": _ratio(_counter_sum(hierarchy, "cache_hits"),
                                          accesses),
        "cpu.hierarchy.prefetch_cover_ratio": _ratio(
            _counter_sum(hierarchy, "prefetch_covered_fills"), fills),
        "cpu.core.calls": calls.get("cpu.core", 0),
        "mem.cache.calls": calls.get("mem.cache", 0),
        "mem.memory_map.calls": calls.get("mem.memory_map", 0),
        "mem.swap.faults": _counter_sum(tracer.swap_stats, "faults"),
        "channels.closed_form.calls": calls.get("channels.closed_form", 0),
        "sim.stats.calls": fn_calls(_STATS_CALLS),
        "sim.engine.events": tracer.events,
        "fabric.packets": totals["packets_sent"],
        "fabric.events_per_packet": _ratio(tracer.events, totals["packets_sent"]),
        "fabric.datalink.replay_ratio": _ratio(totals["replays"],
                                               totals["packets_sent"]),
        "channels.transport.ops": ops,
        "channels.transport.timeouts": totals["timeouts"],
        "channels.transport.retry_ratio": _ratio(fn_calls((_RETRY_RELAUNCH,)), ops),
        "cluster.matchmaker.calls": calls.get("cluster.matchmaker", 0),
        "trace.coverage": _ratio(sum(self_s.get(layer, 0.0) for layer in LAYERS),
                                 traced_wall),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return {name: value for name, value in metrics.items() if name in PER_LAYER}


def _subclasses(cls) -> List[type]:
    found, stack = [], [cls]
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(current.__subclasses__())
    return found
