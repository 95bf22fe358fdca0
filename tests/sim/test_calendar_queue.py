"""Calendar-queue scheduler: equivalence with the heap backend.

The calendar backend must dispatch *exactly* the same event stream as
the heap backend -- identical (time, seq) order, identical final clock
and event counts -- for any mix of delays.  These tests drive both
backends with randomized delay mixes (property-style, seeded) and
compare the full dispatch traces, plus targeted cases for the calendar
internals: same-day insertion during dispatch, empty-rotation gaps, the
sparse long-horizon fallback, cancellation, and the ``auto`` adoption
heuristic.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import DeterministicRNG


def dispatch_trace(scheduler: str, plan):
    """Run a schedule plan and return the observed dispatch trace.

    ``plan`` is a list of (at, delay, tag, chain_delays) tuples: at time
    ``at`` schedule a callback after ``delay`` which records ``tag`` and
    chains further callbacks at each delay in ``chain_delays``.
    """
    sim = Simulator(scheduler=scheduler)
    trace = []

    def fire(tag, chain):
        trace.append((sim.now, tag))
        for index, delay in enumerate(chain):
            sim.call_after(delay, fire_single, (f"{tag}.c{index}", ()))

    def fire_single(payload):
        tag, chain = payload
        fire(tag, chain)

    for at, delay, tag, chain in plan:
        sim.schedule_at(at, fire, tag, chain)
        if delay:
            sim.schedule(delay, fire, f"{tag}.d", ())
    sim.run_until_idle()
    return trace, sim.now, sim.events_processed


def random_plan(seed: int, events: int = 300):
    """Randomized delay mix: dense short delays, bursts, and long gaps."""
    rng = DeterministicRNG(seed)
    plan = []
    at = 0
    for index in range(events):
        at += rng.choice([0, 0, 1, 7, 20, 50, 128, 1250, 65_536, 300_000])
        delay = rng.choice([0, 1, 20, 100, 1250, 4096])
        chain = tuple(
            rng.choice([1, 20, 50, 128, 1250])
            for _ in range(rng.uniform_int(0, 3))
        )
        plan.append((at, delay, f"e{index}", chain))
    return plan


@pytest.mark.parametrize("seed", range(8))
def test_randomized_delay_mixes_dispatch_identically(seed):
    plan = random_plan(seed)
    heap = dispatch_trace("heap", plan)
    calendar = dispatch_trace("calendar", plan)
    assert heap == calendar


def _run_script(script, scheduler):
    """Execute a schedule/cancel script; return the dispatch trace.

    Each script step is ``(delay, cancel_flag)``: a driver callback
    schedules one payload callback with that delay (0 goes to the ready
    deque), then -- when the flag is set -- cancels an earlier pending
    handle.  The driver re-arms itself with a small fixed delay, so
    repeated delays keep many same-delay timers in flight at once.
    Pinned to ``core="py"``: only the Python engine has a calendar
    backend of its own to compare.
    """
    sim = Simulator(scheduler=scheduler, core="py")
    trace = []
    handles = []

    def payload(index):
        trace.append((sim.now, index))

    def driver(index):
        if index >= len(script):
            return
        delay, do_cancel = script[index]
        handles.append(sim.call_after(delay, payload, index))
        if do_cancel and len(handles) >= 2:
            sim.cancel(handles[len(handles) // 2])
        sim.call_after(3, driver, index + 1)

    sim.call_after(1, driver, 0)
    sim.run_until_idle()
    assert len(sim) == 0
    return trace


_SCRIPT = st.lists(
    st.tuples(st.sampled_from([0, 5, 5, 7, 7, 13, 64]), st.booleans()),
    min_size=1, max_size=120)


@settings(max_examples=40, deadline=None)
@given(_SCRIPT)
def test_calendar_matches_heap_dispatch_order_with_cancellations(script):
    assert _run_script(script, "calendar") == _run_script(script, "heap")


def test_same_time_events_keep_scheduling_order_on_calendar():
    sim = Simulator(scheduler="calendar")
    order = []
    for index in range(10):
        sim.schedule(50, order.append, index)
    sim.run_until_idle()
    assert order == list(range(10))


def test_same_day_insertion_during_dispatch_stays_ordered():
    # A callback inserts a new timer 20 ns ahead -- almost always into
    # the bucket currently being dispatched, exercising the insort path.
    sim = Simulator(scheduler="calendar")
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


def test_timer_due_now_runs_before_ready_entries_on_calendar():
    sim = Simulator(scheduler="calendar")
    order = []
    sim.schedule(10, order.append, "timer-parent")

    def parent(_v=None):
        order.append("parent")
        sim.call_soon(order.append, "child")

    sim.schedule(10, parent)
    sim.run_until_idle()
    assert order == ["timer-parent", "parent", "child"]


def test_long_horizon_sparse_fallback():
    # Delays far beyond one full rotation (8192 buckets x 128 ns ~ 1 ms)
    # must still dispatch in order via the direct-minimum fallback.
    sim = Simulator(scheduler="calendar")
    order = []
    sim.schedule(50_000_000, order.append, "far")
    sim.schedule(10_000_000, order.append, "near")
    sim.schedule(100, order.append, "soon")
    sim.run_until_idle()
    assert order == ["soon", "near", "far"]
    assert sim.now == 50_000_000


def test_cancellation_and_drain_on_calendar():
    sim = Simulator(scheduler="calendar")
    fired = []
    keep = sim.schedule(1000, fired.append, "keep")
    drop = [sim.schedule(2000 + index, fired.append, "drop") for index in range(50)]
    for handle in drop:
        sim.cancel(handle)
    assert len(sim) == 51
    removed = sim.drain_cancelled()
    assert removed == 50
    assert len(sim) == 1
    sim.run_until_idle()
    assert fired == ["keep"]
    assert not sim.is_cancelled(keep) or fired  # spent after execution
    sim.cancel(keep)  # late cancel is a no-op
    assert fired == ["keep"]


def test_mid_run_drain_count_matches_heap_backend():
    # drain_cancelled() called from a callback mid-run must report the
    # same removal count on both backends -- the calendar's current-run
    # cursor lives in a loop local, so the count cannot be a len() delta.
    counts = {}
    for scheduler in ("heap", "calendar"):
        sim = Simulator(scheduler=scheduler)
        for delay in range(10, 15):
            sim.schedule(delay, lambda: None)
        victim = sim.schedule(100, lambda: None)

        def actor(_v=None, sim=sim, victim=victim, scheduler=scheduler):
            sim.cancel(victim)
            counts[scheduler] = sim.drain_cancelled()

        sim.schedule(50, actor)
        sim.run_until_idle()
    assert counts == {"heap": 1, "calendar": 1}


def test_cancel_inside_current_run_is_skipped():
    sim = Simulator(scheduler="calendar")
    fired = []
    victim = sim.schedule(60, fired.append, "victim")

    def killer(_v=None):
        sim.cancel(victim)

    sim.call_after(50, killer)  # same bucket as the victim
    sim.schedule(70, fired.append, "survivor")
    sim.run_until_idle()
    assert fired == ["survivor"]


def test_peek_and_step_on_calendar():
    sim = Simulator(scheduler="calendar")
    fired = []
    assert sim.peek() is None
    sim.schedule(42, fired.append, 1)
    sim.schedule(99, fired.append, 2)
    assert sim.peek() == 42
    assert sim.step() is True
    assert fired == [1]
    assert sim.peek() == 99
    assert sim.step() is True
    assert sim.step() is False


def test_run_until_deadline_then_reschedule_earlier_day():
    # Stop at a deadline, then schedule before the day the calendar had
    # already advanced to; the new entry must still dispatch first.
    sim = Simulator(scheduler="calendar")
    order = []
    sim.schedule(500_000, order.append, "late")
    sim.run(until=1000)
    assert sim.now == 1000
    sim.schedule(100, order.append, "early")
    sim.run_until_idle()
    assert order == ["early", "late"]


def test_max_events_budget_exact_on_calendar():
    sim = Simulator(scheduler="calendar")
    fired = []
    for index in range(5):
        sim.schedule(10 + index * 10, fired.append, index)
    with pytest.raises(SimulationError):
        sim.run(max_events=3)
    assert fired == [0, 1, 2]
    assert sim.run(max_events=2) == 50
    assert fired == [0, 1, 2, 3, 4]


def test_invalid_scheduler_configs_rejected():
    with pytest.raises(ValueError):
        Simulator(scheduler="wheel")
    with pytest.raises(ValueError):
        Simulator(calendar_bucket_ns=100)  # not a power of two
    with pytest.raises(ValueError):
        Simulator(calendar_buckets=1000)  # not a power of two


def test_auto_policy_adopts_calendar_for_dense_timers():
    sim = Simulator(scheduler="auto")
    assert sim.scheduler == "heap"
    for index in range(1000):
        sim.schedule(1 + (index % 500), lambda: None)
    sim.run_until_idle()
    assert sim.scheduler == "calendar"
    assert sim.scheduler_policy == "auto"


def test_auto_policy_keeps_heap_for_sparse_timers():
    sim = Simulator(scheduler="auto")
    for index in range(1000):
        sim.schedule(1 + index * 1_000_000, lambda: None)
    sim.run_until_idle()
    assert sim.scheduler == "heap"


def test_explicit_heap_policy_never_adopts():
    sim = Simulator(scheduler="heap")
    for index in range(1000):
        sim.schedule(1 + (index % 500), lambda: None)
    sim.run_until_idle()
    assert sim.scheduler == "heap"


def test_adoption_migrates_pending_entries_and_handles():
    sim = Simulator(scheduler="auto")
    fired = []
    handles = [sim.schedule(1 + (index % 600), fired.append, index)
               for index in range(800)]
    victim = handles[400]
    sim.cancel(victim)  # cancelled before migration
    sim.run_until_idle()
    assert sim.scheduler == "calendar"
    assert len(fired) == 799
    assert 400 not in fired
