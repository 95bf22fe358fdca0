"""Figure 3: remote memory over commodity interconnects.

Setup from Section 4.1: a BerkeleyDB-style workload with a 6 GB array
against 4 GB of local memory, random accesses with an 80/20 read/write
ratio.  Remote memory is supplied four ways:

* 10 GbE  -- swap partition behind a vDisk driver;
* IB SRP  -- swap partition behind an SRP virtual block device;
* PCIe RDMA -- swap partition with DMA page transfers;
* PCIe LD/ST -- direct cacheline access through a commodity PCIe
  non-transparent bridge, both with the chip's crippling non-posted-read
  limitation (the measured 191x) and with it fixed (the estimated ~13x).

Scale-down: dataset and local memory are reduced by 256x (6 GB -> 24 MB,
4 GB -> 16 MB), preserving the 2:3 local-to-dataset ratio that sets the
page-fault / remote-access probability.  Execution time is normalised
to the all-local-memory configuration, exactly as in the figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict

from repro.analysis.metrics import slowdown_versus
from repro.analysis.report import FigureReport
from repro.experiments.common import ExperimentPlatform
from repro.interconnects.ethernet import EthernetSwapDevice
from repro.interconnects.infiniband import InfinibandSrpSwapDevice
from repro.interconnects.pcie import PcieLoadStoreBackend, PcieRdmaSwapDevice
from repro.workloads.kvstore import KeyValueConfig, KeyValueWorkload

#: Slowdowns reported in Figure 3 (execution time normalised to all-local).
PAPER_REFERENCE: Dict[str, float] = {
    "ethernet_swap": 42.0,
    "infiniband_srp": 19.0,
    "pcie_rdma": 12.0,
    "pcie_ldst_commodity": 191.0,
    "pcie_ldst_fixed": 13.0,
}


@dataclass
class Fig03Config:
    """Scaled-down experiment parameters."""

    dataset_bytes: int = 24 * 1024 * 1024
    local_bytes: int = 16 * 1024 * 1024
    num_queries: int = 6_000
    instructions_per_query: int = 900
    read_fraction: float = 0.8
    seed: int = 17


def _workload(config: Fig03Config) -> KeyValueWorkload:
    return KeyValueWorkload(KeyValueConfig(
        dataset_bytes=config.dataset_bytes,
        num_queries=config.num_queries,
        read_fraction=config.read_fraction,
        instructions_per_query=config.instructions_per_query,
        seed=config.seed,
    ))


def run_fig03(config: Fig03Config = None,
              platform: ExperimentPlatform = None) -> FigureReport:
    """Measure the Figure 3 slowdowns and return the report."""
    config = config or Fig03Config()
    platform = platform or ExperimentPlatform()

    dataset, local = config.dataset_bytes, config.local_bytes
    builders = {
        "all_local": partial(platform.all_local_core, dataset),
        "ethernet_swap": partial(platform.swap_core, dataset, local,
                                 EthernetSwapDevice()),
        "infiniband_srp": partial(platform.swap_core, dataset, local,
                                  InfinibandSrpSwapDevice()),
        "pcie_rdma": partial(platform.swap_core, dataset, local,
                             PcieRdmaSwapDevice()),
        # The load/store configurations place the whole array in the
        # remote window (a contiguous allocation cannot straddle the
        # local/remote boundary), which is what makes the commodity
        # chip's per-read penalty so punishing.
        "pcie_ldst_commodity": partial(
            platform.remote_backend_core, dataset, local_bytes=0,
            backend=PcieLoadStoreBackend(commodity_chip_limit=True)),
        "pcie_ldst_fixed": partial(
            platform.remote_backend_core, dataset, local_bytes=0,
            backend=PcieLoadStoreBackend(commodity_chip_limit=False)),
    }
    results = platform.run_configurations(_workload(config), tuple(builders.values()))
    times: Dict[str, int] = {name: result.total_time_ns
                             for name, result in zip(builders, results)}
    baseline_ns = times.pop("all_local")

    slowdowns = {name: slowdown_versus(value, baseline_ns)
                 for name, value in times.items()}

    report = FigureReport(
        figure_id="fig03",
        title="Remote memory efficiency with commodity interconnects "
              "(execution time normalised to all-local memory)",
        notes="dataset/local memory scaled 256x down from 6 GB/4 GB; "
              "shape target: Ethernet worst of the swap paths, IB better, PCIe RDMA "
              "best, commodity PCIe LD/ST off the chart, fixed LD/ST moderate",
    )
    report.add_series("slowdown_vs_all_local", slowdowns, reference=PAPER_REFERENCE)
    report.add_series("execution_time_ns",
                      {"all_local": float(baseline_ns),
                       **{name: float(value) for name, value in times.items()}})
    return report


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_fig03().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
