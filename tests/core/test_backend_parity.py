"""Backend parity: event-measured channel ops versus the closed forms.

On an uncontended direct pair, every per-operation latency the event
backend measures must agree with the closed-form answer within
``TOLERANCE`` -- the closed forms intentionally omit the datalink
processing and credit machinery, so the event fabric reads slightly
*higher*, never lower, and never by more than the stated bound.

The event path must also be deterministic: identical op sequences give
identical measurements run-to-run and across dispatch cores (the
pure-Python engine versus the compiled core).
"""

import pytest

from repro.core.channels.backend import (
    ClosedFormBackend,
    CrossTrafficDriver,
    EventBackend,
    TransportError,
)
from repro.experiments.common import ExperimentPlatform
from repro.sim import engine

#: Stated parity bound: uncontended event measurements may exceed the
#: closed forms by at most this relative margin (the datalink/receive
#: processing and switch-ejection costs the formulas omit).
TOLERANCE = 0.15

LINE = 64
PAGE = 4096


def _event_platform():
    return ExperimentPlatform(backend="event")


def _op_table(platform):
    """(name, measured ns) for one op of every channel primitive."""
    crma = platform.crma_channel()
    rdma = platform.rdma_channel()
    qpair = platform.qpair_channel()
    return [
        ("crma_read", crma.read_latency_ns(LINE)),
        ("crma_small_write", crma.small_write_latency_ns(8)),
        ("rdma_page", rdma.transfer_latency_ns(PAGE)),
        ("rdma_bulk", rdma.transfer_latency_ns(16 * PAGE)),
        ("qpair_message", qpair.message_latency_ns(LINE)),
        ("qpair_round_trip", qpair.round_trip_latency_ns(16, LINE,
                                                         remote_handler_ns=5000)),
        ("qpair_occupancy", qpair.occupancy_ns(256)),
        # Last: the posted write's packet stays in flight (fire and
        # forget), which would contend with any op measured after it.
        ("crma_write", crma.write_latency_ns(LINE)),
    ]


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
def test_uncontended_event_ops_match_closed_forms_within_tolerance():
    closed = dict(_op_table(ExperimentPlatform()))
    event = dict(_op_table(_event_platform()))
    for name, closed_ns in closed.items():
        measured = event[name]
        assert measured >= closed_ns * 0.999, (
            f"{name}: event fabric measured {measured} ns, below the "
            f"closed form {closed_ns} ns -- the formulas are a lower bound")
        assert measured <= closed_ns * (1 + TOLERANCE), (
            f"{name}: event fabric measured {measured} ns, more than "
            f"{TOLERANCE:.0%} above the closed form {closed_ns} ns")


def test_channel_default_backend_is_closed_form():
    platform = ExperimentPlatform()
    for channel in (platform.crma_channel(), platform.rdma_channel(),
                    platform.qpair_channel()):
        assert isinstance(channel.backend, ClosedFormBackend)
        assert channel.backend.kind == "closed_form"


def test_event_platform_channels_share_one_transport():
    platform = _event_platform()
    crma = platform.crma_channel()
    qpair = platform.qpair_channel()
    assert isinstance(crma.backend, EventBackend)
    assert crma.backend.transport is qpair.backend.transport
    sim = platform.event_transport().sim
    before = sim.events_processed
    crma.read_latency_ns(LINE)
    assert sim.events_processed > before
    qpair.message_latency_ns(LINE)
    assert platform.event_transport().ops_completed == 2


def test_system_event_backend_shares_one_transport():
    from repro.core.config import VeniceConfig
    from repro.core.system import VeniceSystem

    system = VeniceSystem.build(VeniceConfig(num_nodes=8, topology="star"),
                                transport_backend="event")
    crma = system.crma_channel(0, 1)
    rdma = system.rdma_channel(2, 5)
    assert crma.backend.transport is rdma.backend.transport
    assert crma.read_latency_ns(LINE) > 0
    assert rdma.transfer_latency_ns(PAGE) > 0
    # Routes through the star hub pay more than the closed-form pair.
    assert crma.read_latency_ns(LINE) > 0


def test_unknown_backend_rejected():
    from repro.core.config import VeniceConfig
    from repro.core.system import VeniceSystem

    with pytest.raises(ValueError):
        VeniceSystem.build(VeniceConfig.pair(), transport_backend="quantum")
    with pytest.raises(ValueError):
        ExperimentPlatform(backend="quantum")


def test_event_platform_rejects_closed_form_only_knobs():
    from repro.core.config import ChannelPlacement

    platform = _event_platform()
    with pytest.raises(ValueError):
        platform.crma_channel(through_router=True)
    with pytest.raises(ValueError):
        platform.qpair_channel(placement=ChannelPlacement.OFF_CHIP)


def test_event_backend_rejects_closed_form_only_stream_knobs():
    from dataclasses import replace

    platform = _event_platform()
    striped = platform.rdma_channel()
    striped.config = replace(striped.config, stripe_lanes=4)
    with pytest.raises(ValueError):
        striped.transfer_latency_ns(PAGE)
    serialised = platform.rdma_channel()
    serialised.config = replace(serialised.config, double_buffering=False)
    with pytest.raises(ValueError):
        serialised.transfer_latency_ns(PAGE)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_event_measurements_identical_across_runs():
    baseline = _op_table(_event_platform())
    assert _op_table(_event_platform()) == baseline


@pytest.mark.skipif(engine._load_ccore() is None,
                    reason="compiled dispatch core not built "
                           "(python -m repro.sim._ccore_build)")
def test_event_measurements_identical_across_cores(monkeypatch):
    monkeypatch.setenv("SIM_CORE", "py")
    baseline = _op_table(_event_platform())
    monkeypatch.setenv("SIM_CORE", "c")
    assert _op_table(_event_platform()) == baseline


def test_contended_measurements_deterministic():
    def contended_run():
        platform = _event_platform()
        platform.start_cross_traffic(payload_bytes=512, window=4)
        crma = platform.crma_channel()
        return [crma.read_latency_ns(LINE) for _ in range(8)]

    first = contended_run()
    assert contended_run() == first
    # Contention strictly inflates the uncontended measurement.
    quiet = _event_platform().crma_channel().read_latency_ns(LINE)
    assert max(first) > quiet


# ----------------------------------------------------------------------
# Event-transport mechanics
# ----------------------------------------------------------------------
def test_posted_writes_load_the_fabric_without_blocking():
    platform = _event_platform()
    crma = platform.crma_channel()
    transport = platform.event_transport()
    posted = crma.write_latency_ns(LINE)
    # The posted packet is still queued (nothing drove the sim)...
    assert len(transport.sim) > 0
    # ...and is drained -- unmatched, it has no handler -- by the next op.
    crma.read_latency_ns(LINE)
    assert transport.unmatched == 1
    assert posted == ExperimentPlatform().crma_channel().write_latency_ns(LINE)


def test_cross_traffic_driver_start_stop():
    platform = _event_platform()
    driver = platform.start_cross_traffic(window=2)
    assert platform.event_transport().contended
    before = driver.packets_sent
    platform.crma_channel().read_latency_ns(LINE)
    assert driver.packets_sent > before
    driver.stop()
    assert not platform.event_transport().contended
    # Ops still complete once the noise drains.
    assert platform.crma_channel().read_latency_ns(LINE) > 0
    # Restarting tops flows back up to the window, never beyond it.
    driver.start()
    assert all(count <= driver.window
               for count in driver._in_flight.values())
    driver.stop()
    with pytest.raises(TransportError):
        platform.event_transport().remove_background_source()


def test_restarting_cross_traffic_replaces_the_previous_driver():
    platform = _event_platform()
    first = platform.start_cross_traffic(window=2)
    second = platform.start_cross_traffic(window=4, payload_bytes=512)
    assert not first.active and second.active
    # Exactly one background source is registered.
    platform.event_transport().remove_background_source()
    assert not platform.event_transport().contended


def test_far_future_timers_are_not_mistaken_for_a_stall():
    # Regression: slices that dispatch nothing are legitimate when every
    # pending event (long server turnaround, slow noise relaunch) sits
    # beyond the slice horizon -- the clock must keep advancing to them
    # instead of declaring the fabric dead.
    platform = _event_platform()
    platform.start_cross_traffic(window=1, turnaround_ns=40_000)
    latency = platform.qpair_channel().round_trip_latency_ns(
        16, 64, remote_handler_ns=100_000)
    assert latency > 100_000


def test_stalled_fabric_raises_transport_error():
    platform = _event_platform()
    transport = platform.event_transport()
    # A background source that never actually injects anything: the
    # slice loop must detect the dead fabric instead of spinning.
    transport.add_background_source()
    crma = platform.crma_channel()
    # Detach every sink so the op's packet vanishes at the destination.
    for switch in transport.fabric.switches.values():
        switch.attach_local_sink(lambda packet: None)
    with pytest.raises(TransportError):
        crma.read_latency_ns(LINE)
