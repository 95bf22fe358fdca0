"""Lockstep heap-vs-calendar cross-check.

The engine's two scheduler backends must dispatch byte-identical
(time, seq) streams for the same workload; the determinism suite checks
end states, but when the backends *do* diverge an end-state diff says
nothing about where.  :func:`lockstep_cross_check` runs the same
workload builder once per backend with the sanitizer's dispatch trace
enabled and reports the first dispatch where the two streams disagree
-- the earliest observable point of divergence, which is where the bug
is, not where its consequences surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.sim.engine import Simulator

#: One dispatch-trace record: (time, seq, callback qualname).
TraceEntry = Tuple[int, int, str]


@dataclass(frozen=True)
class Divergence:
    """First dispatch where the heap and calendar traces disagree."""

    index: int
    heap_entry: Optional[TraceEntry]
    calendar_entry: Optional[TraceEntry]

    def render(self) -> str:
        def fmt(entry: Optional[TraceEntry]) -> str:
            if entry is None:
                return "<stream ended>"
            time, seq, name = entry
            return f"t={time} seq={seq} {name}"
        return (f"dispatch #{self.index}: "
                f"heap {fmt(self.heap_entry)} != "
                f"calendar {fmt(self.calendar_entry)}")


@dataclass
class CrossCheckResult:
    """Outcome of one lockstep run."""

    events_heap: int
    events_calendar: int
    divergence: Optional[Divergence]

    @property
    def ok(self) -> bool:
        return self.divergence is None


def lockstep_cross_check(build: Callable[[Simulator], None],
                         until: Optional[int] = None,
                         max_events: Optional[int] = None
                         ) -> CrossCheckResult:
    """Run ``build``'s workload on both backends and diff dispatch order.

    ``build`` receives a fresh sanitizing :class:`Simulator` and must
    set up the workload (schedule events, build a fabric, inject
    traffic); it is called twice, once per backend, so it must be a
    pure constructor -- any state it closes over is shared between the
    two runs.  Both simulators then run to idleness (or ``until`` /
    ``max_events``) with dispatch tracing on, and the traces are
    compared entry by entry.

    Traces record callback *qualnames*, not reprs, so logically
    identical callbacks from the two independently built workloads
    compare equal even though they are different objects.
    """
    traces: List[List[TraceEntry]] = []
    counts: List[int] = []
    for scheduler in ("heap", "calendar"):
        sim = Simulator(scheduler=scheduler, sanitize=True)
        trace = sim.enable_dispatch_trace()
        build(sim)
        sim.run(until=until, max_events=max_events)
        traces.append(trace)
        counts.append(sim.events_processed)
    heap_trace, calendar_trace = traces
    divergence = None
    length = max(len(heap_trace), len(calendar_trace))
    for index in range(length):
        heap_entry = heap_trace[index] if index < len(heap_trace) else None
        cal_entry = (calendar_trace[index]
                     if index < len(calendar_trace) else None)
        if heap_entry != cal_entry:
            divergence = Divergence(index=index, heap_entry=heap_entry,
                                    calendar_entry=cal_entry)
            break
    return CrossCheckResult(events_heap=counts[0], events_calendar=counts[1],
                            divergence=divergence)
