"""Per-op deadlines, typed timeouts and retry on the event transport.

The zero-hang contract: every submitted op either delivers or fails
with a typed error.  A deadline arms a simulator timer, so even an
otherwise-idle fabric resolves the timeout (``run_until_idle`` cannot
hang on a lost packet); firing cancels exactly the op's own expected
handlers so the lifecycle books still balance, and
``submit_with_retry`` resubmits failed attempts with exponential
backoff.
"""


import pytest

from repro.core.channels.backend import (
    OpTimeoutError,
    RetryPolicy,
    TransportError,
)
from repro.core.config import VeniceConfig
from repro.core.system import VeniceSystem

LINE = 64


def _pair_system(sanitize=None):
    return VeniceSystem.build(
        VeniceConfig.pair(), transport_backend="event",
        sanitize=sanitize)


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
def test_generous_deadline_does_not_fire():
    system = _pair_system()
    transport = system.event_transport()
    op = system.crma_channel(0, 1).submit_read(LINE, deadline_ns=10_000_000)
    transport.drive_all([op])
    assert op.done and not op.failed
    assert transport.ops_timed_out == 0
    assert op.latency_ns > 0


def test_missed_deadline_fails_typed():
    system = _pair_system()
    transport = system.event_transport()
    # A one-cacheline CRMA read takes ~2 us; 100 ns cannot be met.
    op = system.crma_channel(0, 1).submit_read(LINE, deadline_ns=100)
    transport.drive_all([op])
    assert op.failed and not op.done
    assert isinstance(op.error, OpTimeoutError)
    assert transport.ops_timed_out == 1
    with pytest.raises(OpTimeoutError):
        op.latency_ns


def test_timeout_resolves_on_idle_fabric():
    # The deadline timer keeps the queue non-empty: nothing else is
    # scheduled, yet run_until_idle terminates with the op failed
    # instead of hanging forever on a packet that will never arrive.
    system = _pair_system()
    transport = system.event_transport()
    transport.fabric.links[(0, 1)].set_admin_down()
    op = system.crma_channel(0, 1).submit_read(LINE, deadline_ns=50_000)
    transport.sim.run_until_idle()
    assert op.failed
    assert isinstance(op.error, OpTimeoutError)


def test_timeout_cancels_expected_handlers_and_books_balance():
    # Sanitized lifecycle audit across a timeout: the fired deadline
    # cancels the op's handlers (counted in packets_timed_out); the
    # late delivery lands in `unmatched` and the ledger still balances
    # at idle.
    system = _pair_system(sanitize=True)
    transport = system.event_transport()
    op = system.crma_channel(0, 1).submit_read(LINE, deadline_ns=100)
    transport.drive_all([op])
    transport.sim.run_until_idle()
    assert transport.packets_timed_out >= 1
    assert transport.unmatched >= 1
    transport.check_packet_lifecycle()


def test_drive_until_raises_on_timed_out_op():
    system = _pair_system()
    transport = system.event_transport()
    op = system.crma_channel(0, 1).submit_read(LINE, deadline_ns=100)
    with pytest.raises(OpTimeoutError):
        transport.drive_until(op)


def test_deadline_must_be_positive():
    system = _pair_system()
    with pytest.raises(ValueError):
        system.crma_channel(0, 1).submit_read(LINE, deadline_ns=0)


def test_deadlines_apply_to_every_channel_kind():
    system = _pair_system()
    transport = system.event_transport()
    ops = [
        system.crma_channel(0, 1).submit_read(LINE, deadline_ns=100),
        system.qpair_channel(0, 1).submit_message(LINE, deadline_ns=100),
        system.qpair_channel(0, 1).submit_round_trip(16, LINE,
                                                     deadline_ns=100),
        system.rdma_channel(0, 1).submit_transfer(4096, deadline_ns=100),
    ]
    transport.drive_all(ops)
    assert all(op.failed for op in ops)
    assert all(isinstance(op.error, OpTimeoutError) for op in ops)
    assert transport.ops_timed_out == len(ops)


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
def test_retry_policy_backoff_is_exponential():
    retry = RetryPolicy(max_attempts=4, backoff_ns=1_000, multiplier=3)
    assert [retry.backoff_for(attempt) for attempt in (1, 2, 3)] == \
        [1_000, 3_000, 9_000]


def test_retry_policy_validates():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_ns=-1)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0)


def test_retry_succeeds_after_the_link_heals():
    # First attempt launches into a downed link and times out; the link
    # heals during the backoff window, so a resubmitted attempt lands.
    # The outer op is charged from the first submit -- surviving a flap
    # costs the flap.
    system = _pair_system(sanitize=True)
    transport = system.event_transport()
    sim = transport.sim
    link = transport.fabric.links[(0, 1)]
    link.set_admin_down()
    sim.schedule_at(120_000, link.set_admin_up)
    retry = RetryPolicy(max_attempts=5, backoff_ns=60_000, multiplier=2)
    op = transport.submit_with_retry(
        lambda: system.crma_channel(0, 1).submit_read(LINE,
                                                      deadline_ns=40_000),
        retry, label="flap-survivor")
    transport.drive_all([op])
    assert op.done
    assert op.attempts >= 1
    assert op.latency_ns > 120_000
    sim.run_until_idle()
    transport.check_packet_lifecycle()


def test_retry_gives_up_typed_after_max_attempts():
    system = _pair_system()
    transport = system.event_transport()
    transport.fabric.links[(0, 1)].set_admin_down()
    retry = RetryPolicy(max_attempts=3, backoff_ns=10_000)
    op = transport.submit_with_retry(
        lambda: system.crma_channel(0, 1).submit_read(LINE,
                                                      deadline_ns=20_000),
        retry, label="doomed")
    transport.drive_all([op])
    assert op.failed
    assert isinstance(op.error, OpTimeoutError)
    assert op.attempts == retry.max_attempts
    # Inner deadline firings were counted once each; the outer give-up
    # does not double-count.
    assert transport.ops_timed_out == retry.max_attempts


def test_ops_without_deadline_are_unchanged():
    system = _pair_system()
    transport = system.event_transport()
    op = system.crma_channel(0, 1).submit_read(LINE)
    transport.drive_all([op])
    assert op.done
    assert op.deadline_ns is None
    assert transport.ops_timed_out == 0
