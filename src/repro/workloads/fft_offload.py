"""SPLASH2-FFT accelerator-offload workload.

The Figure 16a experiment implements SPLASH2 FFT on Xilinx FFT
accelerators ("XFFT") and compares running with only the local
accelerator against adding one to three remote accelerators reached
through Venice.  The workload splits the input dataset into blocks and
dispatches each block to an accelerator; the per-task cost is the
accelerator's compute time plus the cost of moving the input and output
buffers to/from that accelerator (zero-ish for local, a channel
transfer for remote).

Accelerators are represented by *dispatch targets*: objects exposing
``task_latency_ns(input_bytes, output_bytes, elements)``.  The sharing
layer (:mod:`repro.core.sharing.remote_accelerator`) provides such
targets for both local and remote accelerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.cpu.core import TimingCore
from repro.workloads.base import Workload


@dataclass
class FftOffloadConfig:
    """Parameters of the FFT offload workload."""

    #: Total input dataset size (the paper uses 8 MB and 512 MB).
    dataset_bytes: int = 8 * 1024 * 1024
    #: Block size offloaded per accelerator task.
    block_bytes: int = 512 * 1024
    #: Bytes per complex element (two doubles).
    element_bytes: int = 16
    #: Host instructions per dispatched task (blocking, marshalling).
    instructions_per_task: int = 2_000

    def __post_init__(self) -> None:
        if self.dataset_bytes <= 0 or self.block_bytes <= 0 or self.element_bytes <= 0:
            raise ValueError("dataset, block and element sizes must be positive")
        if self.block_bytes > self.dataset_bytes:
            raise ValueError("block size cannot exceed the dataset size")

    @property
    def num_blocks(self) -> int:
        return max(1, self.dataset_bytes // self.block_bytes)

    @property
    def elements_per_block(self) -> int:
        return max(1, self.block_bytes // self.element_bytes)


class FftOffloadWorkload(Workload):
    """Dispatches FFT blocks round-robin over a pool of accelerators."""

    name = "fft-offload"

    def __init__(self, config: FftOffloadConfig = None,
                 targets: Sequence = ()):  # targets expose task_latency_ns(...)
        self.config = config or FftOffloadConfig()
        self.targets = list(targets)
        if not self.targets:
            raise ValueError("FFT offload needs at least one accelerator target")

    def _drive(self, core: TimingCore) -> Dict[str, float]:
        config = self.config
        # Busy-until time per accelerator target (they work in parallel).
        # Blocks are dispatched greedily to the target that will finish
        # soonest, as the user-level library load-balances across
        # accelerators of different effective speed (remote ones pay the
        # fabric transfer on top of compute).
        busy_until: List[float] = [0.0] * len(self.targets)
        dispatched = 0
        for _block_index in range(config.num_blocks):
            core.compute(config.instructions_per_task)
            target_index = min(range(len(self.targets)),
                               key=lambda index: busy_until[index])
            target = self.targets[target_index]
            task_ns = target.task_latency_ns(
                input_bytes=config.block_bytes,
                output_bytes=config.block_bytes,
                elements=config.elements_per_block,
            )
            start = max(core.now_ns, busy_until[target_index])
            busy_until[target_index] = start + task_ns
            dispatched += 1
        # The host waits for the last accelerator to finish.
        makespan = max(busy_until) if busy_until else core.now_ns
        if makespan > core.now_ns:
            core.stall(makespan - core.now_ns)
        return dict(blocks_dispatched=dispatched,
                    accelerators=len(self.targets))
