#!/usr/bin/env python
"""Events/sec benchmark harness for the simulation engine.

Drives the full event-driven fabric (PHY + datalink + switch stacks
built by :meth:`VeniceSystem.build_event_fabric`) with deterministic
traffic over five workloads -- a directly connected pair, an 8-node
star, a 16-node fat-tree (all open-loop, pre-scheduled injections), a
closed-loop request/response workload (QPair-style: each delivered
request turns into a response, each response completes a round-trip
and launches the next request, with datalink credit feedback end to
end), a transport-channel workload (``channel_ops``: CRMA reads,
QPair round trips and messages, RDMA page streams executed as packets
through the event transport backend), and an overlapped-op workload
(``concurrent_ops``: six requesters submit CRMA/QPair/RDMA ops as
``PendingOp`` handles and each wave is driven with one ``drive_all``,
so measured packets from different requesters contend through the star
hub) -- and reports engine throughput as *events per second of wall
clock* plus total wall time per workload.

The workloads are budget-based (a fixed number of packets injected,
round-trips completed, or channel ops issued; the run ends when the
event queue drains), so the simulated work is byte-identical across
engine versions; only the wall clock changes.

Usage::

    PYTHONPATH=src python benchmarks/harness.py                 # print table
    PYTHONPATH=src python benchmarks/harness.py --json BENCH_engine.json \
        --baseline old.json                                      # write report
    PYTHONPATH=src python benchmarks/harness.py --workload fat_tree \
        --min-events-per-sec 150000                              # CI smoke gate
    PYTHONPATH=src python benchmarks/harness.py --profile        # cProfile top-20
    PYTHONPATH=src python benchmarks/harness.py --sanitize       # sanitizer on

See ``benchmarks/README.md`` for the BENCH_engine.json schema.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import VeniceConfig
from repro.core.system import VeniceSystem
from repro.fabric.packet import Packet, PacketKind
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRNG

SCHEMA = "bench-engine/v1"

#: Workload id -> spec.  Open-loop workloads pre-schedule
#: ``packets_per_node`` injections per compute node in ``rounds``
#: bursts; the closed-loop workload keeps ``window`` requests in
#: flight per node until ``requests_per_node`` round-trips complete.
WORKLOADS: Dict[str, dict] = {
    "pair": dict(num_nodes=2, topology="direct_pair", mode="open",
                 packets_per_node=1600, rounds=4),
    "star": dict(num_nodes=8, topology="star", mode="open",
                 packets_per_node=300, rounds=4),
    "fat_tree": dict(num_nodes=16, topology="fat_tree", mode="open",
                     packets_per_node=160, rounds=4),
    "closed_loop": dict(num_nodes=8, topology="star", mode="closed",
                        requests_per_node=250, window=4),
    "channel_ops": dict(num_nodes=2, topology="direct_pair", mode="channel",
                        ops=3000),
    "concurrent_ops": dict(num_nodes=8, topology="star", mode="concurrent",
                           ops=3000, requesters=6),
    "churn": dict(num_nodes=8, topology="fat_tree", mode="churn",
                  ops=2000),
    "mn_shard": dict(num_nodes=8, topology="fat_tree", mode="mn_shard",
                     ops=1500, shards=2),
}

#: Gap between injection rounds, ns (lets queues partially drain so the
#: workload exercises both contended and draining regimes).
ROUND_GAP_NS = 200_000

PAYLOAD_BYTES = 64

#: Stagger between the initial requests of a closed-loop client, ns.
CLIENT_STAGGER_NS = 1_000


@dataclass
class WorkloadResult:
    """One workload's measured engine throughput."""

    workload: str
    packets: int
    delivered: int
    events: int
    sim_ns: int
    wall_s: float
    events_per_sec: float
    core: str = "py"
    mean_rtt_ns: Optional[float] = None
    sanitize: bool = False

    def to_dict(self) -> dict:
        data = {
            "packets": self.packets,
            "delivered": self.delivered,
            "events": self.events,
            "sim_ns": self.sim_ns,
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            # Provenance: which dispatch core produced these numbers --
            # throughput differs per core, so cross-core comparisons
            # must be detectable in the JSON.
            "core": self.core,
        }
        if self.mean_rtt_ns is not None:
            data["mean_rtt_ns"] = round(self.mean_rtt_ns, 1)
        if self.sanitize:
            # Only stamped when on: sanitized numbers must never be
            # compared against production ones silently, and omitting
            # the key keeps sanitize-off reports byte-identical to
            # reports from before the sanitizer existed.
            data["sanitize"] = True
        return data


def build_fabric(workload: str, sanitize: Optional[bool] = None):
    """System + event fabric + delivery-counting sinks for one workload."""
    spec = WORKLOADS[workload]
    system = VeniceSystem.build(VeniceConfig(num_nodes=spec["num_nodes"],
                                             topology=spec["topology"]))
    fabric = system.build_event_fabric(
        sim=Simulator(sanitize=sanitize))
    # Sink cost is part of the measured wall clock: a bound list append
    # is the cheapest per-delivery accounting available in pure Python.
    delivered: List[Packet] = []
    for switch in fabric.switches.values():
        switch.attach_local_sink(delivered.append)
    return system, fabric, delivered


def inject_traffic(system, fabric, workload: str, packets_per_node: int,
                   seed: int = 2016) -> int:
    """Schedule deterministic all-to-all traffic; returns packets injected.

    Each compute node sends to destinations chosen by a seeded RNG, in
    ``rounds`` bursts separated by ``ROUND_GAP_NS`` of simulated time.
    """
    spec = WORKLOADS[workload]
    rounds = spec["rounds"]
    rng = DeterministicRNG(seed)
    compute = system.topology.compute_nodes
    per_round = max(1, packets_per_node // rounds)
    injected = 0
    for round_index in range(rounds):
        at = round_index * ROUND_GAP_NS
        for src in compute:
            for _ in range(per_round):
                dst = rng.choice([node for node in compute if node != src])
                packet = Packet(src=src, dst=dst, kind=PacketKind.QPAIR_DATA,
                                payload_bytes=PAYLOAD_BYTES)
                fabric.sim.schedule_at(at, fabric.switches[src].inject, packet)
                injected += 1
    return injected


class ClosedLoopDriver:
    """QPair-style request/response traffic over the event fabric.

    Every compute node is a client keeping ``window`` requests in
    flight towards seeded-random servers.  A request delivered at its
    server injects a response back at the same timestamp; the response
    arriving at the client completes one round-trip and immediately
    launches the next request.  Load is therefore *closed-loop*: the
    injection rate is set by measured round-trip completions (and the
    datalink credit machinery backpressures the whole loop), not by a
    pre-computed schedule.
    """

    def __init__(self, system, fabric, requests_per_node: int, window: int,
                 seed: int = 2016, payload_bytes: int = PAYLOAD_BYTES):
        self.fabric = fabric
        self.payload_bytes = payload_bytes
        self.completed = 0
        self.responses_sent = 0
        self.rtt_total_ns = 0
        self._rng = DeterministicRNG(seed)
        self._inject_time: Dict[int, int] = {}
        compute = list(system.topology.compute_nodes)
        self._peers = {src: [node for node in compute if node != src]
                       for src in compute}
        self._remaining = {src: requests_per_node for src in compute}
        self.total_requests = requests_per_node * len(compute)
        for switch in fabric.switches.values():
            switch.attach_local_sink(self._make_sink(switch.node_id))
        # Stagger the initial windows so the first wave does not collide
        # on a single timestamp at every switch.
        for index, src in enumerate(compute):
            for slot in range(window):
                at = index * CLIENT_STAGGER_NS + slot * (CLIENT_STAGGER_NS // 2)
                fabric.sim.schedule_at(at, self._launch, src)

    def _make_sink(self, node_id: int):
        def sink(packet: Packet, _node=node_id) -> None:
            if packet.kind is PacketKind.QPAIR_DATA:
                # Server side: turn the request into a response.
                response = Packet(src=_node, dst=packet.src,
                                  kind=PacketKind.QPAIR_ACK,
                                  payload_bytes=self.payload_bytes,
                                  payload=packet.packet_id)
                self.responses_sent += 1
                self.fabric.switches[_node].inject(response)
            elif packet.kind is PacketKind.QPAIR_ACK:
                # Client side: round-trip complete, launch the next one.
                started = self._inject_time.pop(packet.payload, None)
                if started is not None:
                    self.completed += 1
                    self.rtt_total_ns += self.fabric.sim.now - started
                self._launch(_node)
        return sink

    def _launch(self, src: int) -> None:
        if self._remaining[src] <= 0:
            return
        self._remaining[src] -= 1
        request = Packet(src=src, dst=self._rng.choice(self._peers[src]),
                         kind=PacketKind.QPAIR_DATA,
                         payload_bytes=self.payload_bytes)
        self._inject_time[request.packet_id] = self.fabric.sim.now
        self.fabric.switches[src].inject(request)

    @property
    def mean_rtt_ns(self) -> float:
        return self.rtt_total_ns / self.completed if self.completed else 0.0


class ChannelOpsDriver:
    """Transport-channel operations over the event backend.

    Exercises the full channel stack -- CRMA read round trips, QPair
    request/response and one-way messages, RDMA page streams -- as
    packets on a pair system's shared event fabric, the path the
    ``fig15_contended`` / ``fig16_contended`` experiments execute per
    workload access.  The op mix is deterministic and budget-based, so
    the event count is identical across engine versions.
    """

    #: (label, packets injected per op) in issue rotation order.
    OP_MIX = (("crma_read", 2), ("qpair_round_trip", 2),
              ("rdma_page", 1), ("qpair_message", 1))

    def __init__(self, system, ops: int):
        self.system = system
        self.ops = ops
        self.crma = system.crma_channel(0, 1)
        self.rdma = system.rdma_channel(0, 1)
        self.qpair = system.qpair_channel(0, 1)
        self.sim = system.event_transport().sim
        self._issue = (
            lambda: self.crma.read_latency_ns(64),
            lambda: self.qpair.round_trip_latency_ns(16, 64),
            lambda: self.rdma.transfer_latency_ns(4096),
            lambda: self.qpair.message_latency_ns(64),
        )
        self.packets = sum(self.OP_MIX[index % len(self.OP_MIX)][1]
                           for index in range(ops))
        self.completed = 0
        self.latency_total_ns = 0

    def run(self) -> None:
        issue = self._issue
        count = len(issue)
        for index in range(self.ops):
            self.latency_total_ns += issue[index % count]()
            self.completed += 1

    @property
    def mean_rtt_ns(self) -> float:
        return self.latency_total_ns / self.completed if self.completed else 0.0


class ConcurrentOpsDriver:
    """Overlapping transport ops from several requesters on one fabric.

    The submit/drive counterpart of :class:`ChannelOpsDriver`: per wave,
    every requester submits its next op (CRMA read, QPair round trip,
    RDMA page stream or QPair message, rotating deterministically) as a
    :class:`~repro.core.channels.backend.PendingOp` and one
    ``drive_all`` advances the shared simulator for the whole wave, so
    the measured packets of different requesters queue behind each
    other through the star hub -- the path the ``cluster_contended``
    sweep exercises per borrower access.  Budget-based: the op count
    (hence the event count) is identical across engine versions.
    """

    #: Packets injected per op, in submit rotation order (the response
    #: of a round trip counts; an RDMA 4 KiB page is one chunk).
    OP_PACKETS = (2, 2, 1, 1)

    def __init__(self, system, ops: int, requesters: int):
        self.system = system
        self.ops = ops
        self.transport = system.event_transport()
        self.sim = self.transport.sim
        compute = system.node_ids
        self._lanes = []
        for index in range(min(requesters, len(compute))):
            src = compute[index]
            dst = compute[(index + 1) % len(compute)]
            self._lanes.append((
                system.crma_channel(src, dst),
                system.qpair_channel(src, dst),
                system.rdma_channel(src, dst),
            ))
        self.packets = sum(self.OP_PACKETS[index % len(self.OP_PACKETS)]
                           for index in range(ops))
        self.completed = 0
        self.latency_total_ns = 0

    def _submit(self, lane: int, op_index: int):
        crma, qpair, rdma = self._lanes[lane]
        kind = op_index % 4
        if kind == 0:
            return crma.submit_read(64)
        if kind == 1:
            return qpair.submit_round_trip(16, 64)
        if kind == 2:
            return rdma.submit_transfer(4096)
        return qpair.submit_message(64)

    def run(self) -> None:
        lanes = len(self._lanes)
        index = 0
        while index < self.ops:
            batch = []
            for lane in range(lanes):
                if index >= self.ops:
                    break
                batch.append(self._submit(lane, index))
                index += 1
            self.transport.drive_all(batch)
            for op in batch:
                self.latency_total_ns += op.latency_ns
            self.completed += len(batch)

    @property
    def mean_rtt_ns(self) -> float:
        return self.latency_total_ns / self.completed if self.completed else 0.0


class ChurnOpsDriver:
    """Deadline-guarded reads under a seeded fault campaign.

    The recovery counterpart of :class:`ConcurrentOpsDriver`: every
    compute node of an event-backed fat-tree cluster borrows remote
    memory through the batched matchmaker, then issues waves of CRMA
    reads carrying per-op deadlines and an exponential-backoff retry
    policy while a :class:`~repro.runtime.churn.ChurnEngine` flaps
    links, fails a router and crashes a node against the same fabric
    (heartbeat detection and recovery run on the simulated clock).
    This is the hot path of the ``churn`` experiment: admin-down
    corruption feeding the datalink replay machinery, timeout firing
    and handler cancellation, retry resubmission, and the heartbeat
    pump.  Budget-based and fully seeded, so the simulated work is
    byte-identical across engine versions; only the wall clock changes.
    """

    #: Simulated idle gap between read waves, ns (moves the clock
    #: across the campaign so faults land between waves too).
    WAVE_GAP_NS = 15_000
    READ_DEADLINE_NS = 200_000

    def __init__(self, ops: int, sanitize: Optional[bool] = None,
                 seed: int = 2016):
        from repro.cluster.cluster import Cluster, ClusterConfig
        from repro.core.channels.backend import RetryPolicy
        from repro.runtime.churn import ChurnConfig, ChurnEngine
        from repro.runtime.fault import FaultHandler

        self.ops = ops
        self.cluster = Cluster(ClusterConfig(
            num_nodes=8, topology="fat_tree", transport_backend="event",
            sanitize=sanitize))
        self.shares = [share for batch in self.cluster.matchmaker.borrow_many(
            [(node, 1 << 20) for node in self.cluster.node_ids])
            for share in batch]
        self.transport = self.cluster.event_transport()
        self.sim = self.transport.sim
        self.retry = RetryPolicy(max_attempts=3, backoff_ns=50_000)
        self.engine = ChurnEngine(
            self.transport, self.cluster.monitor,
            FaultHandler(self.cluster.monitor),
            ChurnConfig(seed=seed, horizon_ns=4_000_000, link_flaps=2,
                        router_failures=1, node_crashes=1,
                        flap_duration_ns=400_000, router_down_ns=500_000,
                        crash_down_ns=1_200_000))
        self.completed = 0
        self.gave_up = 0
        self.latency_total_ns = 0

    def run(self) -> None:
        transport = self.transport
        sim = self.sim
        self.engine.start()
        index = 0
        while index < self.ops:
            batch = []
            for share in self.shares:
                if index >= self.ops:
                    break
                batch.append(transport.submit_with_retry(
                    lambda share=share: share.channel.submit_read(
                        PAYLOAD_BYTES, deadline_ns=self.READ_DEADLINE_NS),
                    self.retry, label=f"churn-n{share.requester}"))
                index += 1
            transport.drive_all(batch)
            for op in batch:
                if op.done:
                    self.completed += 1
                    self.latency_total_ns += op.latency_ns
                else:
                    self.gave_up += 1
            sim.run(until=sim.now + self.WAVE_GAP_NS)
        self.engine.stop()
        sim.run_until_idle()
        if sim.sanitize:
            transport.check_packet_lifecycle()

    @property
    def mean_rtt_ns(self) -> float:
        return self.latency_total_ns / self.completed if self.completed else 0.0


class MnShardOpsDriver:
    """Batched borrows through the sharded Monitor Node under crashes.

    The sharding counterpart of :class:`ChurnOpsDriver`: an 8-node
    event-backed fat-tree cluster runs with its Monitor Node split into
    two replicated leaf shards behind the coordinator, and every wave
    re-borrows remote memory for the whole fleet through the batched
    split-phase matchmaker (queue, plan across shards, execute), reads
    once per share, and releases -- while a seeded ``mn_crash``
    campaign kills shard primaries mid-run.  This is the hot path of
    the ``mn_failover`` experiment: coordinator routing and per-shard
    planning, replication of commits/releases to the standby, crash
    detection on the heartbeat pump, standby promotion and exactly-once
    in-flight ticket replay.  Budget-based and fully seeded, so the
    simulated work is byte-identical across engine versions; only the
    wall clock changes.
    """

    #: Simulated idle gap between borrow waves, ns (moves the clock
    #: across the campaign so crashes land between waves too).
    WAVE_GAP_NS = 15_000

    def __init__(self, ops: int, sanitize: Optional[bool] = None,
                 seed: int = 2016, shards: int = 2):
        from repro.cluster.cluster import Cluster, ClusterConfig
        from repro.runtime.churn import ChurnConfig, ChurnEngine
        from repro.runtime.fault import FaultHandler
        from repro.runtime.shard import ShardUnavailableError

        self._shard_error = ShardUnavailableError
        self.ops = ops
        self.cluster = Cluster(ClusterConfig(
            num_nodes=8, topology="fat_tree", monitor_shards=shards,
            transport_backend="event", sanitize=sanitize))
        self.transport = self.cluster.event_transport()
        self.sim = self.transport.sim
        monitor = self.cluster.monitor
        self.engine = ChurnEngine(
            self.transport, monitor,
            FaultHandler(monitor, reallocate_on_node_failure=False),
            ChurnConfig(seed=seed, horizon_ns=4_000_000, link_flaps=0,
                        router_failures=0, node_crashes=0,
                        mn_crashes=shards, mn_crash_down_ns=1_200_000))
        self.completed = 0
        self.deferred_waves = 0
        self.latency_total_ns = 0

    def run(self) -> None:
        matchmaker = self.cluster.matchmaker
        monitor = self.cluster.monitor
        transport = self.transport
        sim = self.sim
        self.engine.start()
        requests = [(node, 1 << 20) for node in self.cluster.node_ids]
        index = 0
        while index < self.ops:
            if monitor.queued_requests == 0:
                matchmaker.queue_requests(requests)
            try:
                batches = matchmaker.borrow_queued()
            except self._shard_error:
                # A primary is down; the next heartbeat pump promotes
                # the standby and replays the in-flight tickets.
                self.deferred_waves += 1
                sim.run(until=sim.now + self.WAVE_GAP_NS)
                continue
            batch_ops = []
            for batch in batches:
                for share in batch:
                    if index >= self.ops:
                        break
                    batch_ops.append(share.channel.submit_read(PAYLOAD_BYTES))
                    index += 1
            transport.drive_all(batch_ops)
            for op in batch_ops:
                self.completed += 1
                self.latency_total_ns += op.latency_ns
            for batch in reversed(batches):
                for share in reversed(batch):
                    matchmaker.release(share)
            sim.run(until=sim.now + self.WAVE_GAP_NS)
        self.engine.stop()
        sim.run_until_idle()
        if sim.sanitize:
            transport.check_packet_lifecycle()

    @property
    def mean_rtt_ns(self) -> float:
        return self.latency_total_ns / self.completed if self.completed else 0.0


def run_workload(workload: str, packets_per_node: Optional[int] = None,
                 seed: int = 2016, sanitize: bool = False) -> WorkloadResult:
    """Build, inject and run one workload under the wall-clock timer.

    ``sanitize=True`` runs the workload with the runtime sanitizer on
    (dispatch-order, credit-conservation and lifecycle checks); with the
    default ``False`` the ``SIM_SANITIZE`` environment variable still
    applies, matching the Simulator's own precedence.
    """
    spec = WORKLOADS[workload]
    # True opts in; None defers to SIM_SANITIZE so an env-sanitized
    # bench run is honestly stamped in its results.
    san = True if sanitize else None
    driver = None
    if spec["mode"] == "mn_shard":
        shard_driver = MnShardOpsDriver(ops=packets_per_node or spec["ops"],
                                        sanitize=san, seed=seed,
                                        shards=spec["shards"])
        start = time.perf_counter()
        shard_driver.run()
        wall = time.perf_counter() - start
        sim = shard_driver.sim
        return WorkloadResult(
            workload=workload,
            packets=shard_driver.ops,
            delivered=shard_driver.completed,
            events=sim.events_processed,
            sim_ns=sim.now,
            wall_s=wall,
            events_per_sec=sim.events_processed / wall if wall > 0 else 0.0,
            core=sim.core,
            mean_rtt_ns=shard_driver.mean_rtt_ns,
            sanitize=sim.sanitize,
        )
    if spec["mode"] == "churn":
        churn_driver = ChurnOpsDriver(ops=packets_per_node or spec["ops"],
                                      sanitize=san, seed=seed)
        start = time.perf_counter()
        churn_driver.run()
        wall = time.perf_counter() - start
        sim = churn_driver.sim
        return WorkloadResult(
            workload=workload,
            packets=churn_driver.ops,
            delivered=churn_driver.completed,
            events=sim.events_processed,
            sim_ns=sim.now,
            wall_s=wall,
            events_per_sec=sim.events_processed / wall if wall > 0 else 0.0,
            core=sim.core,
            mean_rtt_ns=churn_driver.mean_rtt_ns,
            sanitize=sim.sanitize,
        )
    if spec["mode"] == "concurrent":
        system = VeniceSystem.build(
            VeniceConfig(num_nodes=spec["num_nodes"],
                         topology=spec["topology"]),
            transport_backend="event", sanitize=san)
        concurrent_driver = ConcurrentOpsDriver(
            system, ops=packets_per_node or spec["ops"],
            requesters=spec["requesters"])
        start = time.perf_counter()
        concurrent_driver.run()
        wall = time.perf_counter() - start
        sim = concurrent_driver.sim
        return WorkloadResult(
            workload=workload,
            packets=concurrent_driver.packets,
            delivered=concurrent_driver.completed,
            events=sim.events_processed,
            sim_ns=sim.now,
            wall_s=wall,
            events_per_sec=sim.events_processed / wall if wall > 0 else 0.0,
            core=sim.core,
            mean_rtt_ns=concurrent_driver.mean_rtt_ns,
            sanitize=sim.sanitize,
        )
    if spec["mode"] == "channel":
        system = VeniceSystem.build(
            VeniceConfig(num_nodes=spec["num_nodes"],
                         topology=spec["topology"]),
            transport_backend="event", sanitize=san)
        channel_driver = ChannelOpsDriver(system,
                                          ops=packets_per_node or spec["ops"])
        start = time.perf_counter()
        channel_driver.run()
        wall = time.perf_counter() - start
        sim = channel_driver.sim
        return WorkloadResult(
            workload=workload,
            packets=channel_driver.packets,
            delivered=channel_driver.completed,
            events=sim.events_processed,
            sim_ns=sim.now,
            wall_s=wall,
            events_per_sec=sim.events_processed / wall if wall > 0 else 0.0,
            core=sim.core,
            mean_rtt_ns=channel_driver.mean_rtt_ns,
            sanitize=sim.sanitize,
        )
    if spec["mode"] == "closed":
        system = VeniceSystem.build(VeniceConfig(num_nodes=spec["num_nodes"],
                                                 topology=spec["topology"]))
        fabric = system.build_event_fabric(
            sim=Simulator(sanitize=san))
        driver = ClosedLoopDriver(
            system, fabric,
            requests_per_node=packets_per_node or spec["requests_per_node"],
            window=spec["window"], seed=seed)
    else:
        system, fabric, delivered = build_fabric(workload, sanitize=san)
        injected = inject_traffic(system, fabric, workload,
                                  packets_per_node or spec["packets_per_node"],
                                  seed=seed)
    start = time.perf_counter()
    fabric.sim.run_until_idle()
    wall = time.perf_counter() - start
    events = fabric.sim.events_processed
    return WorkloadResult(
        workload=workload,
        packets=(driver.total_requests + driver.responses_sent
                 if driver is not None else injected),
        delivered=driver.completed if driver is not None else len(delivered),
        events=events,
        sim_ns=fabric.sim.now,
        wall_s=wall,
        events_per_sec=events / wall if wall > 0 else 0.0,
        core=fabric.sim.core,
        mean_rtt_ns=driver.mean_rtt_ns if driver is not None else None,
        sanitize=fabric.sim.sanitize,
    )


def run_all(packets_per_node: Optional[int] = None,
            workloads: Optional[List[str]] = None,
            repeats: int = 1, sanitize: bool = False) -> Dict[str, WorkloadResult]:
    """Run the selected workloads, keeping the best of ``repeats`` runs."""
    results: Dict[str, WorkloadResult] = {}
    for workload in workloads or list(WORKLOADS):
        best: Optional[WorkloadResult] = None
        for _ in range(max(1, repeats)):
            result = run_workload(workload, packets_per_node,
                                  sanitize=sanitize)
            if best is None or result.events_per_sec > best.events_per_sec:
                best = result
        results[workload] = best
    return results


def profile_workloads(workloads: Optional[List[str]] = None,
                      top: int = 20) -> None:
    """Print the cProfile top-N cumulative hotspots per workload.

    Future perf PRs start from data: this is the same view the round-1
    and round-2 hot-path overhauls were driven by.
    """
    import cProfile
    import pstats

    for workload in workloads or list(WORKLOADS):
        profiler = cProfile.Profile()
        profiler.enable()
        result = run_workload(workload)
        profiler.disable()
        print(f"\n=== {workload}: top {top} by cumulative time "
              f"({result.events} events, core={result.core}) ===")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(top)


def make_report(results: Dict[str, WorkloadResult],
                baseline: Optional[dict] = None,
                label: str = "current") -> dict:
    """Assemble the BENCH_engine.json document.

    ``speedup_events_per_sec`` is the ratio of events/sec values; when
    the two sides executed different event counts for the same
    simulated work (an engine that needs fewer events per packet-hop),
    ``speedup_wall`` -- the wall-time ratio on the identical packet
    budget -- is the apples-to-apples throughput comparison and is
    emitted alongside.
    """
    report = {
        "schema": SCHEMA,
        "label": label,
        "workloads": {name: result.to_dict()
                      for name, result in results.items()},
    }
    if baseline is not None:
        base_workloads = baseline.get("workloads", baseline)
        report["baseline"] = {
            "label": baseline.get("label", "baseline"),
            "workloads": base_workloads,
        }
        speedup = {}
        speedup_wall = {}
        for name, result in results.items():
            base = base_workloads.get(name, {})
            base_eps = base.get("events_per_sec")
            if base_eps:
                speedup[name] = round(result.events_per_sec / base_eps, 2)
            base_wall = base.get("wall_s")
            if base_wall and result.wall_s > 0:
                speedup_wall[name] = round(base_wall / result.wall_s, 2)
        report["speedup_events_per_sec"] = speedup
        report["speedup_wall"] = speedup_wall
    return report


def print_table(report: dict) -> None:
    rows = [("workload", "events", "wall_s", "events/sec", "speedup", "wall-speedup")]
    speedups = report.get("speedup_events_per_sec", {})
    wall_speedups = report.get("speedup_wall", {})
    for name, data in report["workloads"].items():
        rows.append((name, str(data["events"]), f"{data['wall_s']:.3f}",
                     f"{data['events_per_sec']:,.0f}",
                     f"{speedups[name]:.2f}x" if name in speedups else "-",
                     f"{wall_speedups[name]:.2f}x" if name in wall_speedups else "-"))
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload(s) to run (default: all)")
    parser.add_argument("--packets-per-node", type=int, default=None,
                        help="override per-node packet/request budget")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload; the best events/sec is kept")
    parser.add_argument("--core", choices=("auto", "c", "py"), default=None,
                        help="dispatch core: 'c' requires the compiled "
                             "extension (repro.sim._ccore) and fails with a "
                             "clear error when it cannot be built; 'auto' "
                             "prefers it and falls back to 'py' silently. "
                             "Default: leave SIM_CORE (or auto) in charge")
    parser.add_argument("--label", default="current",
                        help="label recorded in the JSON report")
    parser.add_argument("--json", metavar="PATH",
                        help="write the report as JSON to PATH")
    parser.add_argument("--baseline", metavar="PATH",
                        help="baseline JSON to compute speedups against")
    parser.add_argument("--min-events-per-sec", type=float, default=None,
                        help="exit non-zero if any selected workload falls "
                             "below this floor (CI smoke gate)")
    parser.add_argument("--profile", action="store_true",
                        help="print cProfile top-20 cumulative hotspots per "
                             "workload instead of the benchmark table")
    parser.add_argument("--sanitize", action="store_true",
                        help="run with the runtime sanitizer on (dispatch-"
                             "order, credit-conservation and packet-lifecycle "
                             "checks); results are stamped \"sanitize\": true "
                             "-- see benchmarks/README.md for the overhead")
    args = parser.parse_args(argv)

    if args.core is not None:
        if args.core == "c":
            # Pre-flight instead of crashing mid-run: resolve (building
            # on demand) once, and report why the extension is missing.
            from repro.sim import engine as sim_engine

            if sim_engine._load_ccore(build=True) is None:
                reason = sim_engine._CCORE_STATE["error"] or "import failed"
                print(f"error: --core c requested but the compiled dispatch "
                      f"core is unavailable: {reason} (build it with "
                      f"`python -m repro.sim._ccore_build`, or use --core "
                      f"auto to fall back to the Python engine)",
                      file=sys.stderr)
                return 2
        # Workloads build their simulators many layers down: the
        # environment is the plumbing, exactly like SIM_SANITIZE.
        os.environ["SIM_CORE"] = args.core

    if args.profile:
        profile_workloads(workloads=args.workload)
        return 0

    baseline = None
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)

    results = run_all(packets_per_node=args.packets_per_node,
                      workloads=args.workload, repeats=args.repeats,
                      sanitize=args.sanitize)
    report = make_report(results, baseline=baseline, label=args.label)
    print_table(report)

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if args.min_events_per_sec is not None:
        slow = {name: result.events_per_sec
                for name, result in results.items()
                if result.events_per_sec < args.min_events_per_sec}
        if slow:
            for name, eps in slow.items():
                print(f"FAIL: {name} ran at {eps:,.0f} events/sec, below the "
                      f"floor of {args.min_events_per_sec:,.0f}", file=sys.stderr)
            return 1
        print(f"floor check passed (>= {args.min_events_per_sec:,.0f} events/sec)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
