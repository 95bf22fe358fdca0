"""Figure 15: remote memory access performance, CRMA versus RDMA swap.

Setup from Section 7.1: each workload runs with 25 % of its memory
local and 75 % remote, supplied either directly (CRMA channel,
cacheline granularity) or as swap space (RDMA channel, page
granularity).  Results are normalised to the conventional configuration
where the missing 75 % is supplied by swapping to local storage; the
all-local (ideal) configuration is shown for reference.

Shape targets from the paper:

* memory is a critical resource: the ideal configuration is orders of
  magnitude faster than local swapping for the random-access in-memory
  database (403.8x), much less so for streaming workloads;
* with Venice support, remote memory is effective: slowdowns versus
  all-local stay in the 1.03x-2.5x range;
* access locality decides the best mode: random access favours CRMA
  (In-Mem DB, Graph500), contiguous access favours page-granularity
  RDMA swap (CC, Grep), and the gap between modes is non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict

from repro.analysis.metrics import speedup_versus
from repro.analysis.report import FigureReport
from repro.experiments.common import (
    ExperimentPlatform,
    compare_transport_backends,
    series_relative_deviations,
)
from repro.mem.swap import LocalDiskSwapDevice
from repro.workloads.connected_components import (
    ConnectedComponentsConfig,
    ConnectedComponentsWorkload,
)
from repro.workloads.graph500 import Graph500Config, Graph500Workload
from repro.workloads.grep import GrepConfig, GrepWorkload
from repro.workloads.kvstore import KeyValueConfig, KeyValueWorkload

#: Figure 15 values (performance normalised to local-swap).
PAPER_REFERENCE: Dict[str, Dict[str, float]] = {
    "all_local": {"inmem_db": 403.80, "cc": 1.13, "grep": 2.48, "graph500": 6.90},
    "crma": {"inmem_db": 159.00, "cc": 0.65, "grep": 1.07, "graph500": 4.86},
    "rdma_swap": {"inmem_db": 3.30, "cc": 1.10, "grep": 2.07, "graph500": 3.22},
}

#: Fraction of each workload's dataset that stays in local memory.
LOCAL_FRACTION = 0.25


@dataclass
class Fig15Config:
    """Scaled-down workload sizes."""

    inmem_db_dataset_bytes: int = 16 * 1024 * 1024
    inmem_db_queries: int = 4_000
    cc_vertices: int = 4_096
    cc_edges: int = 21_461
    cc_iterations: int = 2
    grep_dataset_bytes: int = 16 * 1024 * 1024
    graph500_scale: int = 11
    seed: int = 41

    @classmethod
    def tiny(cls) -> "Fig15Config":
        """Event-fabric-sized workloads (every remote access is packets)."""
        return cls(inmem_db_dataset_bytes=2 * 1024 * 1024,
                   inmem_db_queries=400,
                   cc_vertices=512, cc_edges=2_600, cc_iterations=1,
                   grep_dataset_bytes=2 * 1024 * 1024,
                   graph500_scale=8)


def _workload_factories(config: Fig15Config) -> Dict[str, Callable]:
    """Factory per workload returning (workload, dataset_bytes)."""

    def inmem_db():
        workload = KeyValueWorkload(KeyValueConfig(
            dataset_bytes=config.inmem_db_dataset_bytes,
            num_queries=config.inmem_db_queries,
            instructions_per_query=600,
            seed=config.seed,
        ))
        return workload, config.inmem_db_dataset_bytes

    def cc():
        workload = ConnectedComponentsWorkload(ConnectedComponentsConfig(
            num_vertices=config.cc_vertices,
            num_edges=config.cc_edges,
            iterations=config.cc_iterations,
            seed=config.seed,
        ))
        return workload, workload.config.dataset_bytes

    def grep():
        workload = GrepWorkload(GrepConfig(dataset_bytes=config.grep_dataset_bytes,
                                           stride_records=4))
        return workload, config.grep_dataset_bytes

    def graph500():
        workload = Graph500Workload(Graph500Config(scale=config.graph500_scale,
                                                   num_roots=1,
                                                   seed=config.seed))
        return workload, workload.config.dataset_bytes

    return {"inmem_db": inmem_db, "cc": cc, "grep": grep, "graph500": graph500}


def run_fig15(config: Fig15Config = None,
              platform: ExperimentPlatform = None) -> FigureReport:
    """Measure the Figure 15 performance ratios and return the report."""
    config = config or Fig15Config()
    platform = platform or ExperimentPlatform()
    factories = _workload_factories(config)

    series: Dict[str, Dict[str, float]] = {"all_local": {}, "crma": {}, "rdma_swap": {}}
    for name, factory in factories.items():
        # One workload per entry, run once for all four modes: the modes
        # differ only in how fills are priced, so they share its inputs
        # (edge list, CSR), its access stream and its cache simulation.
        workload, dataset_bytes = factory()
        local_bytes = max(4096, int(dataset_bytes * LOCAL_FRACTION))
        baseline_ns, all_local_ns, crma_ns, rdma_ns = (
            result.total_time_ns for result in platform.run_configurations(workload, (
                partial(platform.swap_core, dataset_bytes, local_bytes,
                        LocalDiskSwapDevice()),
                partial(platform.all_local_core, dataset_bytes),
                partial(platform.crma_core, dataset_bytes, local_bytes),
                partial(platform.rdma_swap_core, dataset_bytes, local_bytes),
            )))

        series["all_local"][name] = speedup_versus(all_local_ns, baseline_ns)
        series["crma"][name] = speedup_versus(crma_ns, baseline_ns)
        series["rdma_swap"][name] = speedup_versus(rdma_ns, baseline_ns)

    report = FigureReport(
        figure_id="fig15",
        title="Remote memory access performance with 75% remote / 25% local "
              "memory (performance normalised to local-storage swapping)",
        notes="shape target: random access favours CRMA, streaming favours "
              "RDMA swap, all-local dwarfs swapping for the in-memory DB",
    )
    for name, values in series.items():
        report.add_series(name, values, reference=PAPER_REFERENCE[name])
    return report


@dataclass
class Fig15ContendedConfig:
    """Parameters of the event-fabric (contended) Figure 15 run."""

    #: Workload sizes shared by the closed-form and event runs.
    workloads: Fig15Config = None
    #: Inject closed-loop cross-traffic on the requester/donor pair link.
    #: Few, large packets load the link as heavily as many small ones
    #: while costing far fewer simulator events per microsecond -- the
    #: contended run executes every workload access as packets, so noise
    #: event rate directly multiplies wall-clock time.
    cross_traffic: bool = True
    cross_payload_bytes: int = 1024
    cross_window: int = 2
    cross_turnaround_ns: int = 0

    def __post_init__(self) -> None:
        self.workloads = self.workloads or Fig15Config.tiny()


def run_fig15_contended(config: Fig15ContendedConfig = None) -> FigureReport:
    """Figure 15 over the event-driven fabric, versus its closed forms.

    The same scaled-down workloads run twice: once on the closed-form
    transport backend (the uncontended formulas) and once on the event
    backend, where every remote CRMA access and RDMA swap page is real
    credit-flow-controlled packets on one shared simulator -- optionally
    contended by closed-loop cross-traffic on the pair link.  With
    cross-traffic disabled the event ratios validate the closed forms
    (the ``max_rel_deviation_percent`` parity figure); with it enabled
    the deltas are pure queueing delay, which the closed forms cannot
    see.
    """
    config = config or Fig15ContendedConfig()
    closed, event, event_platform, driver = compare_transport_backends(
        run_fig15, config.workloads,
        cross_traffic=config.cross_traffic,
        cross_payload_bytes=config.cross_payload_bytes,
        cross_window=config.cross_window,
        cross_turnaround_ns=config.cross_turnaround_ns)

    mode = "contended" if config.cross_traffic else "uncontended"
    report = FigureReport(
        figure_id="fig15_contended",
        title="Remote memory performance over the event-driven fabric "
              f"({mode}) versus the closed-form transport backend",
        notes="shape target: the closed-form ordering (random access favours "
              "CRMA, streaming favours RDMA swap) survives on the real "
              "fabric; cross-traffic widens the event-vs-closed-form gap by "
              "pure queueing delay",
    )
    for name in ("all_local", "crma", "rdma_swap"):
        report.add_series(f"closed_form_{name}", closed.series[name],
                          reference=PAPER_REFERENCE[name])
        report.add_series(f"event_{name}", event.series[name])
    deviations = series_relative_deviations(closed, event)
    transport = event_platform.event_transport()
    report.add_series("fabric", {
        "max_rel_deviation_percent": 100.0 * max(deviations),
        "events_processed": float(transport.sim.events_processed),
        "transport_ops": float(transport.ops_completed),
        "cross_traffic_packets": float(driver.packets_sent if driver else 0),
    })
    return report


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_fig15().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
