"""Replay-tracking and backpressure behaviour of the datalink layer."""

from repro.fabric.datalink import DataLink, DataLinkConfig
from repro.fabric.packet import Packet, PacketKind
from repro.fabric.phy import LinkConfig, PhysicalLink
from repro.sim.rng import DeterministicRNG


def build_datalink(sim, credits=4, bit_error_rate=0.0, rng_seed=1,
                   queue_capacity=64):
    link = PhysicalLink(sim, LinkConfig(bit_error_rate=bit_error_rate,
                                        queue_capacity=queue_capacity),
                        rng=DeterministicRNG(rng_seed))
    return DataLink(sim, link, DataLinkConfig(credits=credits))


def make_packet(payload=256):
    return Packet(src=0, dst=1, kind=PacketKind.QPAIR_DATA, payload_bytes=payload)


def test_replay_attempt_tracking_is_pruned_on_delivery(sim):
    datalink = build_datalink(sim, bit_error_rate=1e-4, rng_seed=3)
    received = []
    datalink.connect(received.append)
    total = 60
    for _ in range(total):
        datalink.send_and_forget(make_packet())
    sim.run_until_idle()
    # Replays happened, every packet was recovered, and the per-sequence
    # attempt tracking was pruned as the packets were acknowledged --
    # it must not grow one entry per replayed packet forever.
    assert datalink.stats.counter("replays").value > 0
    assert len(received) == total
    assert datalink.tracked_replay_sequences() == 0


def test_no_per_sequence_counters_leak_into_stats(sim):
    datalink = build_datalink(sim, bit_error_rate=1e-4, rng_seed=3)
    datalink.connect(lambda packet: None)
    for _ in range(60):
        datalink.send_and_forget(make_packet())
    sim.run_until_idle()
    assert datalink.stats.counter("replays").value > 0
    leaked = [name for name in datalink.stats.counters
              if name.startswith("replay_attempts_")]
    assert leaked == []


def test_replay_attempts_query(sim):
    datalink = build_datalink(sim)
    assert datalink.replay_attempts(0) == 0


def test_sent_counter_matches_clean_traffic(sim):
    datalink = build_datalink(sim)
    datalink.connect(lambda packet: None)
    for _ in range(10):
        datalink.send_and_forget(make_packet(payload=64))
    sim.run_until_idle()
    assert datalink.stats.counter("packets_sent").value == 10
    assert datalink.stats.counter("packets_received").value == 10


def test_replays_survive_a_tiny_transmit_queue(sim):
    # Replays route through the physical link's transmit-queue
    # backpressure path; a one-slot queue forces them to wait rather
    # than being dropped or silently reordered into an ignored event.
    datalink = build_datalink(sim, credits=2, bit_error_rate=1e-4,
                              rng_seed=3, queue_capacity=1)
    received = []
    datalink.connect(received.append)
    total = 40
    for _ in range(total):
        datalink.send_and_forget(make_packet())
    sim.run_until_idle()
    assert datalink.stats.counter("crc_errors").value > 0
    assert len(received) == total
