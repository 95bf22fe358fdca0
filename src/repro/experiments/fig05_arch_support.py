"""Figure 5: impact of architectural support for remote memory access.

Setup from Section 4.2.1: the application's data (1 GB in the paper)
lives entirely in the memory of a directly connected remote node; five
ways of reaching it are compared, normalised to having all memory local:

* off-chip QPair        -- explicit request/response messaging through
  interface logic behind I/O buses and adapters (the legacy IB-style
  path);
* on-chip QPair         -- the same messaging with the queue-pair logic
  integrated on-chip;
* async on-chip QPair   -- the application rewritten in the
  Scale-out-NUMA asynchronous style, overlapping independent requests
  (only possible when the algorithm permits: PageRank yes, BerkeleyDB
  no, because each query's status must be checked before the next);
* off-chip CRMA         -- transparent cacheline fills through off-chip
  interface logic;
* on-chip CRMA          -- the Venice design point.

Scale-down: the remote dataset is 8 MB instead of 1 GB; compute per
operation keeps the paper's compute-to-communication balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.metrics import slowdown_versus
from repro.analysis.report import FigureReport
from repro.core.config import ChannelPlacement
from repro.cpu.core import TimingCore
from repro.experiments.common import ExperimentPlatform
from repro.mem.cache import Cache
from repro.workloads.kvstore import KeyValueConfig, TransactionalKeyValueWorkload
from repro.workloads.pagerank import PageRankConfig, PageRankWorkload

#: Figure 5 values (execution time normalised to all-local memory).
PAPER_REFERENCE_PAGERANK: Dict[str, float] = {
    "off_chip_qpair": 7.69,
    "on_chip_qpair": 5.96,
    "async_on_chip_qpair": 3.12,
    "off_chip_crma": 3.01,
    "on_chip_crma": 2.12,
}
PAPER_REFERENCE_BERKELEYDB: Dict[str, float] = {
    "off_chip_qpair": 11.92,
    "on_chip_qpair": 10.91,
    "async_on_chip_qpair": 10.83,
    "off_chip_crma": 3.43,
    "on_chip_crma": 2.48,
}

#: The five configurations in figure order.
CONFIGURATIONS = (
    "off_chip_qpair",
    "on_chip_qpair",
    "async_on_chip_qpair",
    "off_chip_crma",
    "on_chip_crma",
)


@dataclass
class Fig05Config:
    """Scaled-down experiment parameters."""

    remote_dataset_bytes: int = 8 * 1024 * 1024
    #: BerkeleyDB: transactions of five queries (4 gets + 1 put).
    kv_queries: int = 5_000
    kv_instructions_per_query: int = 2_400
    #: PageRank graph (rank arrays largely cache-resident, edge scan not).
    pagerank_vertices: int = 16_384
    pagerank_edges: int = 60_000
    pagerank_instructions_per_edge: int = 500
    seed: int = 23


def _pagerank(config: Fig05Config, asynchronous: bool,
              per_access_overhead_ns: int = 0) -> PageRankWorkload:
    return PageRankWorkload(PageRankConfig(
        num_vertices=config.pagerank_vertices,
        num_edges=config.pagerank_edges,
        instructions_per_edge=config.pagerank_instructions_per_edge,
        asynchronous=asynchronous,
        per_access_overhead_ns=per_access_overhead_ns,
        seed=config.seed,
    ))


def _berkeleydb(config: Fig05Config) -> TransactionalKeyValueWorkload:
    return TransactionalKeyValueWorkload(KeyValueConfig(
        dataset_bytes=config.remote_dataset_bytes,
        num_queries=config.kv_queries,
        instructions_per_query=config.kv_instructions_per_query,
        seed=config.seed,
    ))


def build_core(platform: ExperimentPlatform, configuration: str,
               dataset_bytes: int, through_router: bool = False,
               cache: Optional[Cache] = None) -> TimingCore:
    """Core whose memory is supplied per ``configuration``.

    One of the five :data:`CONFIGURATIONS`, or ``"all_local"`` (the
    baseline).
    """
    if configuration == "all_local":
        return platform.all_local_core(dataset_bytes, cache=cache)
    if configuration == "off_chip_qpair":
        return platform.qpair_memory_core(dataset_bytes, local_bytes=0,
                                          placement=ChannelPlacement.OFF_CHIP,
                                          through_router=through_router, cache=cache)
    if configuration in ("on_chip_qpair", "async_on_chip_qpair"):
        return platform.qpair_memory_core(dataset_bytes, local_bytes=0,
                                          placement=ChannelPlacement.ON_CHIP,
                                          through_router=through_router, cache=cache)
    if configuration == "off_chip_crma":
        return platform.crma_core(dataset_bytes, local_bytes=0,
                                  placement=ChannelPlacement.OFF_CHIP,
                                  through_router=through_router, cache=cache)
    if configuration == "on_chip_crma":
        return platform.crma_core(dataset_bytes, local_bytes=0,
                                  placement=ChannelPlacement.ON_CHIP,
                                  through_router=through_router, cache=cache)
    raise ValueError(f"unknown configuration {configuration!r}")


def measure_times(config: Fig05Config = None, platform: ExperimentPlatform = None,
                  configurations: Sequence[str] = ("all_local",) + CONFIGURATIONS,
                  router_settings: Sequence[bool] = (False,)
                  ) -> Dict[str, Dict[Tuple[str, bool], float]]:
    """Absolute execution times for both workloads.

    Returns ``{"pagerank": {...}, "berkeleydb": {...}}``, each keyed by
    ``(configuration, through_router)`` for every configuration and
    router setting asked for -- the Figure 6 driver asks for both router
    settings.  Each workload runs once for all of its cores.
    """
    config = config or Fig05Config()
    platform = platform or ExperimentPlatform()
    # The asynchronous rewrite replaces transparent loads with explicit
    # user-level QPair operations, so every access pays the post-send /
    # reap-completion software cost even though the fabric latency
    # itself is overlapped.  Its stream differs from the synchronous
    # one, so it runs on its own cores.
    qpair = platform.venice.qpair
    asynchronous_pagerank = _pagerank(
        config, asynchronous=True,
        per_access_overhead_ns=qpair.post_send_ns + qpair.completion_ns)
    runs = (
        ("pagerank", _pagerank(config, asynchronous=False),
         [name for name in configurations if name != "async_on_chip_qpair"]),
        ("pagerank", asynchronous_pagerank,
         [name for name in configurations if name == "async_on_chip_qpair"]),
        # BerkeleyDB cannot exploit asynchrony: the client checks each
        # query's return status before issuing the next one, so the
        # async configuration degenerates to the synchronous one.
        ("berkeleydb", _berkeleydb(config), list(configurations)),
    )
    times: Dict[str, Dict[Tuple[str, bool], float]] = {"pagerank": {}, "berkeleydb": {}}
    for name, workload, names in runs:
        keys = [(configuration, routed) for configuration in names
                for routed in router_settings]
        if not keys:
            continue
        results = platform.run_configurations(workload, [
            partial(build_core, platform, configuration,
                    config.remote_dataset_bytes, routed)
            for configuration, routed in keys])
        for key, result in zip(keys, results):
            times[name][key] = float(result.total_time_ns)
    return times


def run_fig05(config: Fig05Config = None,
              platform: ExperimentPlatform = None) -> FigureReport:
    """Measure the Figure 5 slowdowns and return the report."""
    times = measure_times(config, platform)
    report = FigureReport(
        figure_id="fig05",
        title="Relative performance of remote-memory access mechanisms "
              "(execution time normalised to all-local memory)",
        notes="remote dataset scaled to 8 MB; shape target: QPair messaging far "
              "slower than CRMA for the dependent key/value workload, asynchrony "
              "only helps PageRank, on-chip integration always helps",
    )
    for workload, reference in (("pagerank", PAPER_REFERENCE_PAGERANK),
                                ("berkeleydb", PAPER_REFERENCE_BERKELEYDB)):
        baseline = times[workload][("all_local", False)]
        slowdowns = {name: slowdown_versus(times[workload][(name, False)], baseline)
                     for name in CONFIGURATIONS}
        report.add_series(workload, slowdowns, reference=reference)
    return report


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_fig05().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
