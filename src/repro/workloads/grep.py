"""Hadoop-Grep-style streaming scan workload.

The paper's Hadoop Grep job scans a 9.7 GB dataset.  The essential
access pattern is a single sequential pass over the input with a small
amount of per-record matching work -- a purely streaming, prefetch- and
page-friendly pattern, which is why Figure 15 shows Grep tolerating
page-granularity remote memory (RDMA swap) almost as well as the ideal
all-local configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

from repro.cpu.core import LockstepGroup, TimingCore
from repro.workloads.base import Workload


@dataclass
class GrepConfig:
    """Parameters of the streaming-scan workload."""

    dataset_bytes: int = 32 * 1024 * 1024
    #: Record (line) size scanned per match step.
    record_bytes: int = 128
    #: Instructions per record (pattern comparison).
    instructions_per_record: int = 60
    #: Stride with which records are sampled; the scan touches every
    #: ``stride``-th record so large datasets stay tractable while the
    #: sequential page/line access pattern is preserved.
    stride_records: int = 1

    def __post_init__(self) -> None:
        if self.dataset_bytes <= 0 or self.record_bytes <= 0:
            raise ValueError("dataset and record size must be positive")
        if self.stride_records <= 0:
            raise ValueError("stride must be positive")

    @property
    def num_records(self) -> int:
        return max(1, self.dataset_bytes // self.record_bytes)


class GrepWorkload(Workload):
    """Sequential scan with per-record matching compute."""

    name = "grep"

    def __init__(self, config: GrepConfig = None):
        self.config = config or GrepConfig()

    def _drive(self, core: TimingCore | LockstepGroup) -> Dict[str, float]:
        config = self.config
        records = range(0, config.num_records, config.stride_records)
        core.execute(self._scan(records, core.line_bytes))
        return dict(records_scanned=len(records),
                    bytes_scanned=len(records) * config.record_bytes)

    def _scan(self, records: range, line_bytes: int) -> Iterator[tuple]:
        """The scan's stream: match compute, then the record's lines."""
        config = self.config
        instructions = config.instructions_per_record
        offsets = range(0, max(1, config.record_bytes // line_bytes) * line_bytes,
                        line_bytes)
        for record_index in records:
            base = record_index * config.record_bytes
            before = instructions
            for offset in offsets:
                yield before, base + offset, False
                before = None
