"""Figures 13/14: the mini data-center memory-sharing case study.

One Venice node runs a Redis-style in-memory cache in front of a MySQL
server; donor nodes running Spark Connected Components contribute their
idle memory.  The Redis node keeps only 50 MB of local memory for the
cache and borrows the rest, and the experiment sweeps the total cache
memory from 70 MB to 350 MB in 70 MB steps, once with the extra memory
local (for reference) and once with it remote.

Paper observations reproduced here:

* execution time for 10 000 random queries drops ~15.7x across the
  sweep because the miss rate (and thus the MySQL penalty) collapses;
* using remote instead of local memory makes almost no difference until
  the miss rate is low (~5 %), where the local configuration is ~7 %
  faster;
* the donor nodes' own workload (CC) is essentially unaffected, because
  the sharing traffic is small compared to their local traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List

from repro.analysis.report import FigureReport
from repro.core.channels.crma import CrmaRemoteBackend
from repro.experiments.common import ExperimentPlatform
from repro.workloads.connected_components import (
    ConnectedComponentsConfig,
    ConnectedComponentsWorkload,
)
from repro.workloads.rediscache import (
    MysqlBackingStore,
    RedisCacheConfig,
    RedisCacheWorkload,
)

#: The memory sweep of Figure 14 (bytes).
MEMORY_SWEEP_BYTES = tuple((70 * step) * 1024 * 1024 for step in range(1, 6))

#: Reference values stated in the text (execution time in seconds for the
#: end points of the sweep, and the ~15.7x improvement across it).
PAPER_REFERENCE_SUMMARY: Dict[str, float] = {
    "speedup_70MB_to_350MB": 15.7,
    "local_advantage_at_350MB_percent": 7.0,
}


@dataclass
class Fig14Config:
    """Experiment parameters (memory sizes kept at paper scale)."""

    local_memory_bytes: int = 50 * 1024 * 1024
    num_queries: int = 10_000
    #: Number of distinct keys the clients draw from (sets the miss rate
    #: reachable at the top of the memory sweep: ~5% at 350 MB).
    key_space: int = 755_000
    record_bytes: int = 512
    mysql_miss_latency_ns: int = 6_000_000
    seed: int = 31


def _redis_workload(config: Fig14Config, capacity_bytes: int) -> RedisCacheWorkload:
    return RedisCacheWorkload(
        RedisCacheConfig(
            cache_capacity_bytes=capacity_bytes,
            key_space=config.key_space,
            record_bytes=config.record_bytes,
            num_queries=config.num_queries,
            seed=config.seed,
        ),
        backing_store=MysqlBackingStore(miss_latency_ns=config.mysql_miss_latency_ns),
    )


def _run_point(platform: ExperimentPlatform, config: Fig14Config,
               capacity_bytes: int):
    """One sweep point: ``(local, remote)`` Redis results."""
    local_bytes = min(config.local_memory_bytes, capacity_bytes)
    return platform.run_configurations(
        _redis_workload(config, capacity_bytes),
        (partial(platform.all_local_core, capacity_bytes),
         partial(platform.crma_core, capacity_bytes, local_bytes=local_bytes)))


def run_fig14(config: Fig14Config = None,
              platform: ExperimentPlatform = None) -> FigureReport:
    """Sweep cache memory for local and remote supply; return the report."""
    config = config or Fig14Config()
    platform = platform or ExperimentPlatform()

    labels: List[str] = []
    time_local: Dict[str, float] = {}
    time_remote: Dict[str, float] = {}
    miss_local: Dict[str, float] = {}
    miss_remote: Dict[str, float] = {}
    for capacity in MEMORY_SWEEP_BYTES:
        label = f"{capacity // (1024 * 1024)}MB"
        labels.append(label)
        local, remote = _run_point(platform, config, capacity)
        time_local[label] = float(local.total_time_ns)
        time_remote[label] = float(remote.total_time_ns)
        miss_local[label] = local.metric("miss_rate") * 100.0
        miss_remote[label] = remote.metric("miss_rate") * 100.0

    first, last = labels[0], labels[-1]
    summary = {
        "speedup_70MB_to_350MB": time_remote[first] / time_remote[last],
        "local_advantage_at_350MB_percent":
            (time_remote[last] - time_local[last]) / time_local[last] * 100.0,
    }

    report = FigureReport(
        figure_id="fig14",
        title="Mini data-center: Redis execution time and miss rate versus "
              "cache memory (local versus remote supply)",
        notes="shape target: execution time collapses with memory, local and "
              "remote supply are nearly identical until the miss rate is low",
    )
    report.add_series("execution_time_ns_local", time_local)
    report.add_series("execution_time_ns_remote", time_remote)
    report.add_series("miss_rate_percent_local", miss_local)
    report.add_series("miss_rate_percent_remote", miss_remote)
    report.add_series("summary", summary, reference=PAPER_REFERENCE_SUMMARY)
    return report


def run_donor_impact(config: Fig14Config = None,
                     platform: ExperimentPlatform = None) -> Dict[str, float]:
    """Impact of donating memory on the donor's CC workload.

    The donor keeps running Connected Components out of its own local
    memory; donating idle memory does not change its access latencies in
    the single-subscriber model, so the impact is limited to the (small)
    second-order effect of serving the recipient's CRMA traffic, modelled
    as zero here.  Returns the donor's CC runtime with and without the
    donation for completeness.
    """
    platform = platform or ExperimentPlatform()
    workload = ConnectedComponentsWorkload(ConnectedComponentsConfig())
    dataset = workload.config.dataset_bytes
    before = workload.run(platform.all_local_core(dataset)).total_time_ns
    after = ConnectedComponentsWorkload(ConnectedComponentsConfig()).run(
        platform.all_local_core(dataset)).total_time_ns
    return {"cc_time_ns_before_donation": float(before),
            "cc_time_ns_while_donating": float(after)}


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_fig14().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
