"""Runtime sanitizer tests: invariants, dispatch trace, mutation detection.

The mutation tests re-introduce the three historical engine bugs at
class level (``__slots__`` forbids instance patching) and assert the
sanitizer catches each one -- the sanitizer's own regression suite.
"""

from heapq import heappush

import pytest

from repro.core.config import VeniceConfig
from repro.core.system import VeniceSystem
from repro.fabric.datalink import DataLink, DataLinkConfig
from repro.fabric.packet import Packet, PacketKind
from repro.fabric.phy import LinkConfig, PhysicalLink
from repro.sim.engine import SanitizerError, SimulationError, Simulator
from repro.sim.resources import CreditPool
from repro.sim.rng import DeterministicRNG


def _noop(_value=None):
    return None


# ----------------------------------------------------------------------
# Sanitizer plumbing
# ----------------------------------------------------------------------
def test_sanitize_off_by_default(monkeypatch):
    monkeypatch.delenv("SIM_SANITIZE", raising=False)
    assert Simulator().sanitize is False


def test_sanitize_env_var_enables(monkeypatch):
    monkeypatch.setenv("SIM_SANITIZE", "1")
    assert Simulator().sanitize is True
    monkeypatch.setenv("SIM_SANITIZE", "0")
    assert Simulator().sanitize is False
    monkeypatch.setenv("SIM_SANITIZE", "1")
    # An explicit argument beats the environment.
    assert Simulator(sanitize=False).sanitize is False


def test_dispatch_trace_requires_sanitize(monkeypatch):
    monkeypatch.delenv("SIM_SANITIZE", raising=False)
    with pytest.raises(SimulationError):
        Simulator().enable_dispatch_trace()


def test_sanitized_run_dispatches_in_total_order():
    sim = Simulator(sanitize=True)
    trace = sim.enable_dispatch_trace()
    fired = []
    for delay in (500, 100, 300, 100, 700, 200):
        sim.call_after(delay, fired.append)
    sim.run()
    assert len(trace) == 6
    keys = [(time, seq) for time, seq, _name in trace]
    assert keys == sorted(keys)
    assert [time for time, _seq, _name in trace] == [
        100, 100, 200, 300, 500, 700]


# ----------------------------------------------------------------------
# Mutation 1: backwards clock
# ----------------------------------------------------------------------
def test_mutation_backwards_clock_detected():
    sim = Simulator(sanitize=True)
    sim.call_after(100, _noop)
    sim.run()
    assert sim.now == 100
    # Mutation: a corrupted component bypasses schedule() and plants a
    # raw timer entry behind the current clock.
    heappush(sim._queue, [50, 10 ** 9, _noop, None, True, None])  # simlint: disable=SIM007 -- deliberate white-box corruption
    with pytest.raises(SanitizerError, match="backwards clock"):
        sim.run()


def test_unsanitized_run_misses_backwards_clock(monkeypatch):
    # The control: without the sanitizer the same corruption dispatches
    # silently -- which is exactly why the sanitizer exists.
    monkeypatch.delenv("SIM_SANITIZE", raising=False)
    # core="py": the corruption is planted by reaching into the Python
    # engine's raw heap list, which the compiled core does not have.
    sim = Simulator(core="py")
    sim.call_after(100, _noop)
    sim.run()
    heappush(sim._queue, [50, 10 ** 9, _noop, None, True, None])  # simlint: disable=SIM007 -- deliberate white-box corruption
    sim.run()
    # The clock silently jumped backwards -- the corruption the
    # sanitizer turns into a hard error.
    assert sim.now == 50


# ----------------------------------------------------------------------
# Mutation 2: replenish credit destruction (the PR 1 bug)
# ----------------------------------------------------------------------
def _buggy_replenish(self, amount=1):
    """Re-introduced bug: clamp to maximum *before* granting waiters."""
    self._credits = min(self.maximum, self._credits + amount)
    self.total_replenished += amount
    while self._waiters and self._credits >= self._waiters[0][1]:
        event, want = self._waiters.popleft()
        self._credits -= want
        self.total_taken += want
        event.succeed(None)


def test_mutation_credit_destruction_detected(monkeypatch):
    sim = Simulator(sanitize=True)
    pool = CreditPool(sim, initial=0, maximum=2)
    pool.take(2)
    pool.take(2)
    assert pool.pending_waiters() == 2
    monkeypatch.setattr(CreditPool, "replenish", _buggy_replenish)
    # The bulk return owes both takers 2 credits; the buggy order clamps
    # to 2 first and silently destroys the second taker's credits.  The
    # buggy code performs no checks itself -- the conservation ledger
    # catches the corruption at the next pool operation.
    pool.replenish(4)
    with pytest.raises(SanitizerError, match="conservation violated"):
        pool.try_take(1)


def test_conservation_check_passes_on_honest_pool(sim):
    pool = CreditPool(sim, initial=3, maximum=5)
    pool.try_take(2)
    pool.replenish(4)
    pool.check_conservation()
    assert pool.available == 5  # 3 - 2 + 4 clamped to maximum


def test_conservation_check_detects_out_of_range(sim):
    pool = CreditPool(sim, initial=1, maximum=2)
    pool._credits = 7
    with pytest.raises(SanitizerError, match="conservation violated"):
        pool.check_conservation()


# ----------------------------------------------------------------------
# Mutation 3: unpruned replay counters (the PR 2 bug)
# ----------------------------------------------------------------------
def _leaky_rx_done(self, packet):
    """Re-introduced bug: per-sequence replay tracking never pruned."""
    self._pending_replay.pop(packet.sequence, None)
    # (the _replay_attempts.pop(...) on delivery is gone)
    owed = self._credits_owed + 1
    self._ctr_credits_returned.value += 1
    queue = self._rx_queue
    if queue:
        if owed >= self._credit_batch:
            self._flush_credits(owed)
        else:
            self._credits_owed = owed
        self._call_after(self._processing_ns, self._rx_done, queue.popleft())
    else:
        self._flush_credits(owed)
        self._rx_busy = False
    if self._sink is not None:
        self._sink(packet)


def _lossy_datalink(sim):
    """A flow-controlled datalink whose wire corrupts ~half its packets."""
    wire_bits = (48 + 16) * 8  # payload + header bytes, in bits
    link = PhysicalLink(sim, LinkConfig(bit_error_rate=0.5 / wire_bits),
                        rng=DeterministicRNG(7))
    datalink = DataLink(sim, link, DataLinkConfig())
    datalink.connect(_noop)
    return datalink


def test_mutation_unpruned_replay_counters_detected(monkeypatch):
    sim = Simulator(sanitize=True)
    datalink = _lossy_datalink(sim)
    monkeypatch.setattr(DataLink, "_rx_done", _leaky_rx_done)
    with pytest.raises(SanitizerError, match="unpruned replay"):
        for index in range(200):
            datalink.send_and_forget(
                Packet(src=0, dst=1, kind=PacketKind.QPAIR_DATA,
                       payload_bytes=48))
            sim.run_until_idle()


def test_pruned_replay_tracking_stays_bounded():
    # The control: the real receive path prunes on delivery, so the same
    # lossy traffic keeps the tracking map within the credit window.
    sim = Simulator(sanitize=True)
    datalink = _lossy_datalink(sim)
    for index in range(200):
        datalink.send_and_forget(
            Packet(src=0, dst=1, kind=PacketKind.QPAIR_DATA,
                   payload_bytes=48))
        sim.run_until_idle()
    assert datalink.stats.counter("crc_errors").value > 0
    assert datalink.tracked_replay_sequences() <= DataLinkConfig().credits


# ----------------------------------------------------------------------
# Packet lifecycle accounting
# ----------------------------------------------------------------------
def _event_system():
    return VeniceSystem.build(config=VeniceConfig.pair(),
                              transport_backend="event", sanitize=True)


def test_transport_lifecycle_audit_passes_on_clean_run():
    transport = _event_system().event_transport()
    assert transport.sim.sanitize is True
    ops = [transport.submit_one_way(0, 1, 256, PacketKind.QPAIR_DATA),
           transport.submit_round_trip(1, 0, 64, 256, 500,
                                       PacketKind.CRMA_READ,
                                       PacketKind.CRMA_READ_RESP)]
    transport.drive_all(ops)  # runs the audit at idleness
    assert transport.packets_injected == transport.packets_delivered == 3
    transport.check_packet_lifecycle()


def test_transport_lifecycle_audit_detects_lost_packet():
    transport = _event_system().event_transport()
    transport.drive_all([
        transport.submit_one_way(0, 1, 256, PacketKind.QPAIR_DATA)])
    # Mutation: a packet evaporates between injection and delivery.
    transport.packets_injected += 1
    with pytest.raises(SanitizerError, match="packet lifecycle"):
        transport.check_packet_lifecycle()


def test_transport_lifecycle_audit_detects_handler_leak():
    transport = _event_system().event_transport()
    # A handler registered for a packet that is never injected survives
    # any number of idle drains: the stale-handler leak.
    orphan = Packet(src=0, dst=1, kind=PacketKind.QPAIR_DATA,
                    payload_bytes=64)
    transport.expect(orphan, _noop)
    with pytest.raises(SanitizerError, match="stale-handler leak"):
        transport.check_packet_lifecycle()
