"""Common workload interface.

A workload drives a :class:`repro.cpu.TimingCore` -- or, through
:meth:`Workload.run_all`, a :class:`repro.cpu.LockstepGroup` of cores --
by calling its execution primitives (compute / stall / access_many /
execute / drain) and returns a :class:`WorkloadResult` per core with
the elapsed simulated time plus workload-specific metrics (e.g.
cache-hit rate of the Redis service).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.cpu.core import ExecutionResult, LockstepGroup, TimingCore


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

    A run is repeatable: a workload draws from an RNG seeded afresh for
    every run, so one instance can run on several cores with the same
    accesses.  The key/value, PageRank, CC, Grep and Graph500 workloads
    send each run (or each iteration) as :meth:`TimingCore.execute`
    streams.

    Subclasses implement :meth:`_drive`, which runs the workload on a
    core or a :class:`LockstepGroup` and returns its metrics.  A
    workload whose stream depends on timing reads the core's clock, so
    it runs on one core only and fails on a group.
    """

    name = "workload"

    def run(self, core: TimingCore) -> WorkloadResult:
        """Execute the workload on ``core`` and return the result."""
        return self.run_all((core,))[0]

    def run_all(self, cores: Sequence[TimingCore]) -> List[WorkloadResult]:
        """Execute the workload once for all ``cores``; one result per core.

        Several cores run as one :class:`LockstepGroup`, so they must
        share one cache; each result equals a solo :meth:`run` on that
        core, and the shared cache ends as a solo run leaves its cache.
        """
        cores = tuple(cores)
        metrics = self._drive(cores[0] if len(cores) == 1 else LockstepGroup(cores))
        return [WorkloadResult(name=self.name, execution=core.result(),
                               metrics=dict(metrics)) for core in cores]

    def _drive(self, core: TimingCore | LockstepGroup) -> Dict[str, float]:
        """Run the workload on ``core`` (or a group); return its metrics."""
        raise NotImplementedError


def record_address(index: int, record_bytes: int) -> int:
    """Byte address of record ``index`` in a densely packed array."""
    if index < 0 or record_bytes <= 0:
        raise ValueError("record index must be non-negative and record size positive")
    return index * record_bytes


def record_lines(record_bytes: int, line_bytes: int) -> range:
    """Offsets of the cache lines a record spans from its first byte."""
    lines = max(1, -(-record_bytes // line_bytes))
    return range(0, lines * line_bytes, line_bytes)


def touch_record(core: TimingCore | LockstepGroup, address: int, record_bytes: int, line_bytes: int,
                 is_write: bool = False, asynchronous: bool = False) -> None:
    """Access every cache line of a record starting at ``address``."""
    end = address + record_lines(record_bytes, line_bytes).stop
    core.access_many(range(address, end, line_bytes), is_write,
                     asynchronous=asynchronous)
