#!/usr/bin/env python3
"""Remote accelerator pooling (Figure 16a): offload FFT across the rack.

An application on node 0 needs FFT accelerators.  It asks the Monitor
Node for remote accelerators; the management middleware returns the
donor node and mailbox for each one, and the user-level library
dispatches blocks of the dataset to whichever accelerator frees up
first.  Input and output buffers move over the RDMA channel; the
mailbox start/completion flags move over CRMA (the exclusive-mapping
fast path).

Run with:  python examples/accelerator_pool.py [--dataset-mb N]
"""

import argparse
from dataclasses import replace

from repro.core.config import VeniceConfig
from repro.core.system import VeniceSystem
from repro.core.sharing.remote_accelerator import (
    AcceleratorPool,
    LocalAcceleratorTarget,
    RemoteAcceleratorTarget,
)
from repro.workloads.fft_offload import FftOffloadConfig, FftOffloadWorkload

MB = 1024 * 1024


def build_pool(system: VeniceSystem, num_remote: int) -> AcceleratorPool:
    """Local accelerator plus ``num_remote`` runtime-allocated remote ones."""
    requester = system.node(0)
    targets = [LocalAcceleratorTarget(requester.primary_accelerator(),
                                      dram=requester.dram)]
    for _ in range(num_remote):
        allocation = system.monitor.request_accelerator(requester=0)
        donor = system.node(allocation.donor)
        rdma = system.rdma_channel(0, allocation.donor)
        rdma.config = replace(rdma.config, stripe_lanes=4)
        targets.append(RemoteAcceleratorTarget(
            accelerator=donor.primary_accelerator(),
            mailbox=donor.mailboxes[0],
            rdma=rdma,
            crma=system.crma_channel(0, allocation.donor),
            exclusive_mapping=True,
        ))
    return AcceleratorPool(targets)


def makespan_seconds(system: VeniceSystem, pool: AcceleratorPool,
                     dataset_bytes: int) -> float:
    workload = FftOffloadWorkload(
        FftOffloadConfig(dataset_bytes=dataset_bytes, block_bytes=512 * 1024),
        targets=list(pool))
    core = system.node(0).build_core()
    return workload.run(core).total_time_s


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset-mb", type=int, default=64,
                        help="FFT dataset size in MB (default 64)")
    args = parser.parse_args()
    dataset = args.dataset_mb * MB

    print(f"offloading a {args.dataset_mb} MB FFT dataset in 512 KB blocks\n")
    print(f"{'configuration':>16} {'accelerators':>13} {'makespan':>11} {'speedup':>9}")
    baseline = None
    for num_remote in range(0, 4):
        system = VeniceSystem.build(VeniceConfig())
        pool = build_pool(system, num_remote)
        seconds = makespan_seconds(system, pool, dataset)
        if baseline is None:
            baseline = seconds
        label = "local only" if num_remote == 0 else f"LA+{num_remote}RA"
        print(f"{label:>16} {len(pool):>13} {seconds:>9.3f} s "
              f"{baseline / seconds:>8.2f}x")

    print("\nnear-linear scaling means the Venice fabric adds insignificant "
          "overhead to each offloaded task, as Figure 16a reports")


if __name__ == "__main__":
    main()
