"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import engine
from repro.sim.engine import SimulationError, Simulator


@pytest.fixture(params=[
    "py",
    pytest.param("c", marks=pytest.mark.skipif(
        engine._load_ccore() is None,
        reason="compiled dispatch core not built "
               "(python -m repro.sim._ccore_build)")),
])
def core_sim(request) -> Simulator:
    """A fresh simulator on each dispatch core that is available."""
    return Simulator(core=request.param)


def test_initial_time_is_zero(sim):
    assert sim.now == 0
    assert sim.events_processed == 0


def test_schedule_and_run_single_callback(sim):
    fired = []
    sim.schedule(100, fired.append, "a")
    sim.run_until_idle()
    assert fired == ["a"]
    assert sim.now == 100


def test_callbacks_run_in_time_order(sim):
    order = []
    sim.schedule(300, order.append, "late")
    sim.schedule(100, order.append, "early")
    sim.schedule(200, order.append, "middle")
    sim.run_until_idle()
    assert order == ["early", "middle", "late"]


def test_same_time_callbacks_run_in_scheduling_order(sim):
    order = []
    for index in range(10):
        sim.schedule(50, order.append, index)
    sim.run_until_idle()
    assert order == list(range(10))


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_in_the_past_rejected(sim):
    sim.schedule(100, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.schedule_at(50, lambda: None)


def test_run_until_stops_at_deadline(sim):
    fired = []
    sim.schedule(100, fired.append, "early")
    sim.schedule(500, fired.append, "late")
    sim.run(until=200)
    assert fired == ["early"]
    assert sim.now == 200
    # The remaining event still runs on the next call.
    sim.run_until_idle()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_when_queue_drains_early(sim):
    sim.schedule(100, lambda: None)
    # The clock ends at the deadline regardless of whether later events
    # happen to exist in the queue.
    assert sim.run(until=200) == 200
    assert sim.now == 200


def test_run_until_in_the_past_never_moves_clock_backwards(sim):
    fired = []
    sim.schedule(100, fired.append, "first")
    sim.schedule(500, fired.append, "second")
    sim.run(until=200)
    assert sim.now == 200
    # A deadline earlier than the current time must not rewind the clock.
    sim.run(until=50)
    assert sim.now == 200
    assert fired == ["first"]
    sim.run_until_idle()
    assert fired == ["first", "second"]


def test_max_events_budget_is_exact(sim):
    fired = []
    for index in range(5):
        sim.schedule(index * 10, fired.append, index)
    # max_events=N must allow exactly N callbacks, not N+1.
    with pytest.raises(SimulationError):
        sim.run(max_events=3)
    assert fired == [0, 1, 2]
    assert sim.events_processed == 3
    # A budget equal to the queue length completes without raising.
    assert sim.run(max_events=2) == 40
    assert fired == [0, 1, 2, 3, 4]


def test_cancel_prevents_execution(sim):
    fired = []
    call = sim.schedule(100, fired.append, "cancelled")
    sim.schedule(200, fired.append, "kept")
    sim.cancel(call)
    sim.run_until_idle()
    assert fired == ["kept"]


def test_peek_returns_next_event_time(sim):
    assert sim.peek() is None
    sim.schedule(42, lambda: None)
    assert sim.peek() == 42


def test_step_executes_exactly_one_event(sim):
    fired = []
    sim.schedule(10, fired.append, 1)
    sim.schedule(20, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is True
    assert sim.step() is False


def test_callbacks_can_schedule_more_events(sim):
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 5:
            sim.schedule(10, chain, depth + 1)

    sim.schedule(0, chain, 0)
    sim.run_until_idle()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50


def test_max_events_guard_raises(sim):
    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=1000)


def test_events_processed_counter(sim):
    for index in range(7):
        sim.schedule(index, lambda: None)
    sim.run_until_idle()
    assert sim.events_processed == 7


# ----------------------------------------------------------------------
# Timer-queue ordering and cancellation, on every dispatch core
# ----------------------------------------------------------------------
def test_insertion_during_dispatch_stays_ordered(core_sim):
    # A callback inserts a timer that lands between already-pending ones.
    sim = core_sim
    order = []

    def parent(_v=None):
        order.append("parent")
        sim.call_after(20, lambda _v: order.append("child"))

    sim.call_after(64, parent)
    sim.call_after(70, lambda _v: order.append("sibling70"))
    sim.call_after(90, lambda _v: order.append("sibling90"))
    sim.run_until_idle()
    assert order == ["parent", "sibling70", "child", "sibling90"]
    assert sim.now == 90


def test_cancel_from_a_callback_skips_the_pending_timer(core_sim):
    sim = core_sim
    fired = []
    victim = sim.schedule(60, fired.append, "victim")

    def killer(_v=None):
        sim.cancel(victim)

    sim.call_after(50, killer)
    sim.schedule(70, fired.append, "survivor")
    sim.run_until_idle()
    assert fired == ["survivor"]


def test_mid_run_drain_counts_the_cancellation(core_sim):
    # drain_cancelled() called from a callback mid-run reports exactly
    # the cancellations still buried in the queue.
    sim = core_sim
    counts = []
    for delay in range(10, 15):
        sim.schedule(delay, lambda: None)
    victim = sim.schedule(100, lambda: None)

    def actor(_v=None):
        sim.cancel(victim)
        counts.append(sim.drain_cancelled())

    sim.schedule(50, actor)
    sim.run_until_idle()
    assert counts == [1]
    assert sim.events_processed == 6


def test_same_time_events_keep_scheduling_order_on_each_core(core_sim):
    sim = core_sim
    order = []
    for index in range(10):
        sim.schedule(50, order.append, index)
    sim.run_until_idle()
    assert order == list(range(10))


def test_timer_due_now_runs_before_ready_entries_on_each_core(core_sim):
    sim = core_sim
    order = []
    sim.schedule(10, order.append, "timer-parent")

    def parent(_v=None):
        order.append("parent")
        sim.call_soon(order.append, "child")

    sim.schedule(10, parent)
    sim.run_until_idle()
    assert order == ["timer-parent", "parent", "child"]


def test_cancellation_and_drain_on_each_core(core_sim):
    sim = core_sim
    fired = []
    keep = sim.schedule(1000, fired.append, "keep")
    drop = [sim.schedule(2000 + index, fired.append, "drop")
            for index in range(50)]
    for handle in drop:
        sim.cancel(handle)
    assert len(sim) == 51
    assert sim.drain_cancelled() == 50
    assert len(sim) == 1
    sim.run_until_idle()
    assert fired == ["keep"]
    sim.cancel(keep)  # late cancel is a no-op
    assert fired == ["keep"]


def test_peek_and_step_on_each_core(core_sim):
    sim = core_sim
    fired = []
    assert sim.peek() is None
    sim.schedule(42, fired.append, 1)
    sim.schedule(99, fired.append, 2)
    assert sim.peek() == 42
    assert sim.step() is True
    assert fired == [1]
    assert sim.peek() == 99
    assert sim.step() is True
    assert sim.peek() is None
    assert sim.step() is False


def test_run_until_deadline_then_reschedule_earlier_on_each_core(core_sim):
    # Stop at a deadline, then schedule a timer due before the one still
    # pending; the new entry must dispatch first.
    sim = core_sim
    order = []
    sim.schedule(500_000, order.append, "late")
    sim.run(until=1000)
    assert sim.now == 1000
    sim.schedule(100, order.append, "early")
    sim.run_until_idle()
    assert order == ["early", "late"]


def test_max_events_budget_exact_on_each_core(core_sim):
    sim = core_sim
    fired = []
    for index in range(5):
        sim.schedule(10 + index * 10, fired.append, index)
    with pytest.raises(SimulationError):
        sim.run(max_events=3)
    assert fired == [0, 1, 2]
    assert sim.run(max_events=2) == 50
    assert fired == [0, 1, 2, 3, 4]
