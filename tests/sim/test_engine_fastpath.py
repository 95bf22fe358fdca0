"""Tests for the engine's fast paths: ready queue, compaction, batching."""

import pytest

from repro.sim.engine import SimulationError, Simulator


# ----------------------------------------------------------------------
# drain_cancelled / heap compaction
# ----------------------------------------------------------------------
def test_drain_cancelled_shrinks_the_queue(sim):
    handles = [sim.schedule(1000 + index, lambda: None) for index in range(50)]
    sim.schedule(5, lambda: None)
    for handle in handles:
        sim.cancel(handle)
    assert len(sim) == 51
    removed = sim.drain_cancelled()
    assert removed == 50
    assert len(sim) == 1


def test_drain_cancelled_preserves_remaining_order(sim):
    fired = []
    sim.schedule(10, fired.append, "a")
    drop = sim.schedule(20, fired.append, "dropped")
    sim.schedule(30, fired.append, "b")
    sim.cancel(drop)
    assert sim.is_cancelled(drop)
    sim.drain_cancelled()
    sim.run_until_idle()
    assert fired == ["a", "b"]


def test_drain_cancelled_on_empty_simulator(sim):
    assert sim.drain_cancelled() == 0


def test_auto_drain_bounds_queue_growth(sim):
    # Schedule and immediately cancel far-future timers, with one
    # long-lived event keeping the sim busy; the queue must not grow
    # with the number of cancelled timers.
    sim.schedule(10_000_000, lambda: None)
    for index in range(10_000):
        sim.cancel(sim.schedule(1_000_000 + index, lambda: None))
    assert len(sim) < 2_000


def test_cancel_after_execution_is_a_noop(sim):
    fired = []
    handle = sim.schedule(5, fired.append, "ran")
    sim.run_until_idle()
    sim.cancel(handle)
    assert fired == ["ran"]
    assert sim.is_cancelled(handle)  # spent handles read as spent


def test_cancel_after_execution_keeps_accounting_clean():
    # White-box companion to the test above: the phantom-cancellation
    # counter is a Python-engine internal, so pin core="py".
    sim = Simulator(core="py")
    handle = sim.schedule(5, lambda: None)
    sim.run_until_idle()
    sim.cancel(handle)
    assert sim._cancelled == 0  # no phantom cancellation accounting


def test_call_after_rejects_negative_delay(sim):
    with pytest.raises(SimulationError):
        sim.call_after(-1, lambda _v: None)


def test_cancelled_ready_entry_does_not_fire(sim):
    fired = []
    handle = sim.schedule(0, fired.append, "cancelled")
    sim.schedule(0, fired.append, "kept")
    sim.cancel(handle)
    sim.run_until_idle()
    assert fired == ["kept"]


# ----------------------------------------------------------------------
# Ready-queue ordering semantics
# ----------------------------------------------------------------------
def test_zero_delay_events_run_in_scheduling_order_with_heap_events(sim):
    order = []

    def spawn_same_time(tag):
        order.append(tag)
        # Scheduled at the current timestamp while it is processed:
        # must run after every already-queued event at this timestamp.
        sim.schedule(0, order.append, f"{tag}.child")

    sim.schedule(100, spawn_same_time, "first")
    sim.schedule_at(100, spawn_same_time, "second")
    sim.run_until_idle()
    assert order == ["first", "second", "first.child", "second.child"]


def test_call_soon_and_call_after_interleave_by_creation_order(sim):
    order = []
    sim.call_after(10, order.append, "after10")
    sim.call_soon(order.append, "soon1")
    sim.call_soon(order.append, "soon2")
    sim.call_after(0, order.append, "after0")
    sim.run_until_idle()
    assert order == ["soon1", "soon2", "after0", "after10"]


def test_schedule_at_current_time_runs_before_later_events(sim):
    order = []
    sim.schedule(50, order.append, "later")
    sim.schedule_at(0, order.append, "now")
    sim.run_until_idle()
    assert order == ["now", "later"]


def test_run_until_does_not_execute_pending_ready_events_beyond_deadline(sim):
    fired = []
    sim.schedule(100, lambda: sim.schedule(0, fired.append, "child"))
    sim.schedule(100, fired.append, "sibling")
    # Stop exactly at the busy timestamp: the whole batch still runs.
    sim.run(until=100)
    assert fired == ["sibling", "child"]


def test_max_events_budget_exact_across_ready_and_heap(sim):
    fired = []
    sim.schedule(0, fired.append, 0)
    sim.schedule(10, fired.append, 1)
    sim.schedule(10, lambda: sim.schedule(0, fired.append, 3))
    sim.schedule(20, fired.append, 4)
    with pytest.raises(SimulationError):
        sim.run(max_events=3)
    assert fired == [0, 1]
    # The interrupted run left the remaining events intact.
    sim.run_until_idle()
    assert fired == [0, 1, 3, 4]


def test_events_processed_counts_ready_entries(sim):
    for _ in range(4):
        sim.call_soon(lambda _v: None)
    sim.schedule(10, lambda: None)
    sim.run_until_idle()
    assert sim.events_processed == 5


def test_len_counts_both_queues(sim):
    sim.schedule(0, lambda: None)
    sim.schedule(10, lambda: None)
    assert len(sim) == 2


def test_peek_sees_ready_entries(sim):
    sim.schedule(100, lambda: None)
    assert sim.peek() == 100
    sim.call_soon(lambda _v: None)
    assert sim.peek() == 0


def test_step_orders_heap_before_ready_at_same_time(sim):
    order = []
    sim.schedule(10, order.append, "heap-parent")

    def parent(_v=None):
        order.append("parent")
        sim.call_soon(order.append, "child")

    sim.schedule(10, parent)
    while sim.step():
        pass
    assert order == ["heap-parent", "parent", "child"]


def test_rearming_call_after_respects_run_until_deadline(sim):
    fired = []

    def rearm(value):
        fired.append((sim.now, value))
        sim.call_after(100, rearm, value + 1)

    sim.call_after(100, rearm, 0)
    sim.run(until=350)
    assert fired == [(100, 0), (200, 1), (300, 2)]
    assert sim.now == 350
    # The pending continuation survives the deadline and resumes.
    sim.run(until=500)
    assert fired[-1] == (500, 4)


def test_call_after_and_schedule_interleave_by_creation_order(sim):
    trace = []
    sim.call_after(10, trace.append, "after-1")
    sim.call_after(10, trace.append, "after-2")
    sim.schedule(10, trace.append, "plain-between")
    sim.call_after(10, trace.append, "after-3")
    sim.run_until_idle()
    # Global (time, seq) order: creation order at equal times.
    assert trace == ["after-1", "after-2", "plain-between", "after-3"]
