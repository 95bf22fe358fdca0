"""Batched credit-return semantics (CreditPool.schedule_replenish).

The coalescing rules under test:

* N ``schedule_replenish`` calls inside one flush window ride a single
  flush event (one wakeup pass), never more.
* FIFO fairness: a coalesced flush grants blocked takers in exactly the
  order they queued, and never over-grants.
* No lost credits at the ``maximum`` clamp: waiters are served before
  clamping, and pool credits never exceed ``maximum`` afterwards.
* Flush-on-idle: pending credits always have a scheduled flush, so no
  waiter is left blocked when the simulation quiesces.
"""

import pytest

from repro.fabric.datalink import DataLink, DataLinkConfig
from repro.fabric.packet import Packet, PacketKind
from repro.fabric.phy import LinkConfig, PhysicalLink
from repro.sim.engine import Simulator
from repro.sim.resources import CreditPool


def waiter(sim, pool, log, tag, amount=1):
    pool.take(amount).add_waiter(lambda _value: log.append((tag, sim.now)))


# ----------------------------------------------------------------------
# CreditPool.schedule_replenish
# ----------------------------------------------------------------------
def test_coalesced_replenish_is_one_flush(sim):
    pool = CreditPool(sim, initial=0, maximum=8)
    for _ in range(5):
        pool.schedule_replenish(1, delay=100)
    assert pool.pending_replenish == 5
    sim.run_until_idle()
    assert pool.pending_replenish == 0
    assert pool.available == 5
    assert pool.total_replenished == 5
    assert pool.flush_count == 1  # five returns, one wakeup pass


def test_windows_after_a_flush_arm_a_new_flush(sim):
    pool = CreditPool(sim, initial=0, maximum=8)
    pool.schedule_replenish(1, delay=50)
    sim.run_until_idle()
    pool.schedule_replenish(2, delay=50)
    sim.run_until_idle()
    assert pool.available == 3
    assert pool.flush_count == 2


def test_fifo_fairness_under_coalesced_replenish(sim):
    pool = CreditPool(sim, initial=0, maximum=8)
    log = []
    for tag in ("first", "second", "third"):
        waiter(sim, pool, log, tag)
    sim.run(until=10)
    assert log == []  # everyone blocked
    for _ in range(3):
        pool.schedule_replenish(1, delay=90)
    sim.run_until_idle()
    # One flush granted all three, oldest first, at the flush time.
    assert [tag for tag, _at in log] == ["first", "second", "third"]
    assert {at for _tag, at in log} == {100}
    assert pool.available == 0
    assert pool.pending_waiters() == 0


def test_partial_batch_grants_in_order_and_keeps_fifo(sim):
    pool = CreditPool(sim, initial=0, maximum=8)
    log = []
    waiter(sim, pool, log, "big", amount=3)
    waiter(sim, pool, log, "small", amount=1)
    pool.schedule_replenish(2, delay=10)
    sim.run_until_idle()
    # Two credits cannot serve the 3-credit head waiter; FIFO order must
    # hold, so the later 1-credit taker must NOT jump the queue.
    assert log == []
    assert pool.pending_waiters() == 2
    pool.schedule_replenish(1, delay=10)
    sim.run_until_idle()
    assert [tag for tag, _at in log] == ["big"]
    assert pool.pending_waiters() == 1


def test_no_lost_credits_at_maximum_clamp(sim):
    pool = CreditPool(sim, initial=0, maximum=4)
    log = []
    waiter(sim, pool, log, "blocked", amount=4)
    # 6 credits coalesce into one flush against a maximum of 4: the
    # blocked waiter must be served from the un-clamped total first.
    for _ in range(6):
        pool.schedule_replenish(1, delay=20)
    sim.run_until_idle()
    assert [tag for tag, _at in log] == ["blocked"]
    # 6 in, 4 granted, remainder clamped to <= maximum.
    assert pool.available == 2
    assert pool.available <= pool.maximum


def test_flush_on_idle_no_waiter_left_blocked(sim):
    pool = CreditPool(sim, initial=0, maximum=8)
    log = []
    waiter(sim, pool, log, "only")
    pool.schedule_replenish(1, delay=1000)
    # Nothing else is scheduled: the flush event itself must drain the
    # batch before the simulation quiesces.
    sim.run_until_idle()
    assert [tag for tag, _at in log] == [("only", 1000)[0]]
    assert pool.pending_replenish == 0
    assert pool.pending_waiters() == 0


def test_schedule_replenish_rejects_non_positive_amounts(sim):
    pool = CreditPool(sim, initial=1)
    with pytest.raises(ValueError):
        pool.schedule_replenish(0)
    with pytest.raises(ValueError):
        pool.schedule_replenish(-2)


# ----------------------------------------------------------------------
# DataLink-level batched credit returns
# ----------------------------------------------------------------------
def build_datalink(sim, credits=8, queue_capacity=64):
    link = PhysicalLink(sim, LinkConfig(queue_capacity=queue_capacity))
    return DataLink(sim, link, DataLinkConfig(credits=credits))


def make_packet(payload=64):
    return Packet(src=0, dst=1, kind=PacketKind.QPAIR_DATA, payload_bytes=payload)


def test_backlogged_receiver_coalesces_credit_returns(sim):
    # Large packets serialize slower than the 20 ns receive processing,
    # so a burst backlogs the receiver... actually the reverse: tiny
    # processing drains arrivals one by one.  Force a backlog by
    # injecting a burst through a wide credit window and checking that
    # the pool saw fewer flushes than credits returned.
    datalink = build_datalink(sim, credits=16)
    datalink.connect(lambda packet: None)
    for _ in range(32):
        datalink.send_and_forget(make_packet(payload=0))
    sim.run_until_idle()
    returned = datalink.stats.counter("credits_returned").value
    assert returned == 32
    assert datalink.credits.available == 16  # every credit came home
    assert datalink.credits.total_replenished == 32
    # Batching must have coalesced at least some returns into shared
    # flush passes (payload-0 packets serialize in 25 ns > 20 ns
    # processing, keeping the receive pipeline busy enough to batch).
    assert datalink.credits.flush_count < returned


def test_clean_burst_loses_no_credits_with_batching(sim):
    datalink = build_datalink(sim, credits=2)
    received = []
    datalink.connect(received.append)
    for _ in range(20):
        datalink.send_and_forget(make_packet())
    sim.run_until_idle()
    assert len(received) == 20
    assert datalink.stats.counter("buffer_overflows").value == 0
    assert datalink.credits.available == 2
    assert datalink.credits.pending_replenish == 0


def test_tiny_credit_window_still_makes_progress(sim):
    # credits=1 clamps the batch threshold to 1: every credit flushes
    # immediately and the single-credit loop never deadlocks.
    datalink = build_datalink(sim, credits=1)
    received = []
    datalink.connect(received.append)
    for _ in range(10):
        datalink.send_and_forget(make_packet())
    sim.run_until_idle()
    assert len(received) == 10
    assert datalink.credits.available == 1
