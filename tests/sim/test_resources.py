"""Unit tests for one-shot events and credit pools."""

import pytest

from repro.sim.engine import SimulationError
from repro.sim.resources import CreditPool, SimEvent


# ----------------------------------------------------------------------
# SimEvent
# ----------------------------------------------------------------------
def test_event_wait_receives_value(sim):
    event = SimEvent(sim, name="data")
    got = []
    event.add_waiter(lambda value: got.append((value, sim.now)))
    sim.schedule(100, event.succeed, "payload")
    sim.run_until_idle()
    assert got == [("payload", 100)]


def test_waiting_on_already_triggered_event(sim):
    event = SimEvent(sim)
    event.succeed(7)
    got = []
    event.add_waiter(got.append)
    assert got == []  # runs through the scheduler, not inline
    sim.run_until_idle()
    assert got == [7]


def test_event_cannot_succeed_twice(sim):
    event = SimEvent(sim)
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


# ----------------------------------------------------------------------
# CreditPool
# ----------------------------------------------------------------------
def test_credit_take_and_replenish(sim):
    pool = CreditPool(sim, initial=2)
    assert pool.try_take() is True
    assert pool.try_take() is True
    assert pool.try_take() is False
    pool.replenish()
    assert pool.try_take() is True


def test_credit_take_blocks_until_replenished(sim):
    pool = CreditPool(sim, initial=0, maximum=4)
    got = []
    pool.take(2).add_waiter(lambda _value: got.append(sim.now))
    sim.schedule(300, pool.replenish, 2)
    sim.run_until_idle()
    assert got == [300]
    assert pool.stall_count == 1


def test_credit_pool_never_exceeds_maximum(sim):
    pool = CreditPool(sim, initial=2, maximum=3)
    pool.replenish(10)
    assert pool.available == 3


def test_credit_replenish_grants_waiters_before_clamping(sim):
    # Two senders are owed 4 credits in total against maximum=2.  A bulk
    # replenish must serve both before clamping; the buggy order clamped
    # to 2 first and silently destroyed the second sender's credits.
    pool = CreditPool(sim, initial=0, maximum=2)
    got = []
    for name in ("a", "b"):
        pool.take(2).add_waiter(lambda _value, name=name: got.append(name))
    sim.run_until_idle()
    assert got == []
    pool.replenish(4)
    sim.run_until_idle()
    assert got == ["a", "b"]
    assert pool.pending_waiters() == 0
    assert pool.available == 0
    assert pool.total_taken == pool.total_replenished == 4


def test_credit_take_more_than_maximum_raises(sim):
    pool = CreditPool(sim, initial=2)
    with pytest.raises(SimulationError):
        pool.take(3)


def test_credit_invalid_arguments(sim):
    with pytest.raises(ValueError):
        CreditPool(sim, initial=-1)
    pool = CreditPool(sim, initial=1)
    with pytest.raises(ValueError):
        pool.take(0)
    with pytest.raises(ValueError):
        pool.replenish(0)


@pytest.mark.parametrize("amount, error", [
    (0, ValueError),
    (-3, ValueError),
    (3, SimulationError),
])
def test_credit_try_take_validates_like_take(sim, amount, error):
    # A full pool: an unvalidated negative try_take would mint credits
    # beyond the maximum, and an oversized one would fail silently
    # forever where take() raises.
    pool = CreditPool(sim, initial=2, maximum=2)
    with pytest.raises(error):
        pool.take(amount)
    with pytest.raises(error):
        pool.try_take(amount)
    assert pool.available == 2
    assert pool.total_taken == 0
    pool.check_conservation()


def test_credit_waiters_served_fifo(sim):
    pool = CreditPool(sim, initial=0, maximum=2)
    order = []
    for name in ("first", "second"):
        pool.take(1).add_waiter(lambda _value, name=name: order.append(name))
    pool.replenish(2)
    sim.run_until_idle()
    assert order == ["first", "second"]
