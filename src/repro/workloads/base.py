"""Common workload interface.

A workload drives a :class:`repro.cpu.TimingCore` by calling its
execution primitives (compute / read / write / stall) and returns a
:class:`WorkloadResult` with the elapsed simulated time plus
workload-specific metrics (e.g. cache-hit rate of the Redis service).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.cpu.core import ExecutionResult, TimingCore


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    name: str
    execution: ExecutionResult
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def total_time_ns(self) -> int:
        return self.execution.total_time_ns

    @property
    def total_time_s(self) -> float:
        return self.execution.total_time_s

    def metric(self, key: str, default: float = 0.0) -> float:
        return self.metrics.get(key, default)


class Workload:
    """Base class for all workload generators.

    ``run`` is repeatable: a workload draws from an RNG seeded afresh
    for every run, so one instance can run on several cores with the
    same accesses.  The key/value, PageRank, CC, Grep and Graph500
    workloads send each run (or each iteration) as
    :meth:`TimingCore.execute` streams.
    """

    name = "workload"

    def run(self, core: TimingCore) -> WorkloadResult:
        """Execute the workload on ``core`` and return the result."""
        raise NotImplementedError

    def _finish(self, core: TimingCore, **metrics: float) -> WorkloadResult:
        """Helper: drain the core and package the result."""
        execution = core.result()
        return WorkloadResult(name=self.name, execution=execution, metrics=dict(metrics))


def record_address(index: int, record_bytes: int) -> int:
    """Byte address of record ``index`` in a densely packed array."""
    if index < 0 or record_bytes <= 0:
        raise ValueError("record index must be non-negative and record size positive")
    return index * record_bytes


def record_lines(record_bytes: int, line_bytes: int) -> range:
    """Offsets of the cache lines a record spans from its first byte."""
    lines = max(1, -(-record_bytes // line_bytes))
    return range(0, lines * line_bytes, line_bytes)


def touch_record(core: TimingCore, address: int, record_bytes: int, line_bytes: int,
                 is_write: bool = False, asynchronous: bool = False) -> None:
    """Access every cache line of a record starting at ``address``."""
    end = address + record_lines(record_bytes, line_bytes).stop
    core.access_many(range(address, end, line_bytes), is_write,
                     asynchronous=asynchronous)
