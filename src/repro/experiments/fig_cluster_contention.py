"""Cluster contention: queueing delay measured on the event-driven fabric.

The cluster-scaling sweep (``fig_cluster_scaling``) answers every
latency query from the :class:`~repro.cluster.latency_cache
.ClusterLatencyCache` closed forms, which by construction model an
*uncontended* fabric.  This experiment runs the same cluster shapes
over the **event-driven** fabric (PHY + datalink + switch stacks from
:meth:`VeniceSystem.build_event_fabric`): probe packets are timed
end-to-end, once on an idle fabric and once while every node blasts
cross-traffic at the fleet, so the sweep separates three quantities
per cluster size:

* the closed-form one-way latency (what the latency cache predicts),
* the measured uncontended latency (event fabric, no load -- the delta
  to the closed form is the datalink/flow-control machinery the closed
  forms intentionally omit), and
* the measured contended latency (event fabric under cross-traffic --
  the delta to the uncontended measurement is pure queueing delay).

Link ``busy_fraction`` of the hottest link quantifies how loaded the
fabric actually was.  Running 2 -> 16 nodes over the event fabric is
only practical with the fast-path engine: a 16-node contended sweep
dispatches hundreds of thousands of events.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.report import FigureReport
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.latency_cache import ClusterLatencyCache
from repro.fabric.packet import Packet, PacketKind
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRNG


@dataclass
class ClusterContentionConfig:
    """Sweep parameters (node counts 2 -> 16 by default)."""

    node_counts: Tuple[int, ...] = (2, 4, 8, 16)
    #: "fat_tree" or "star"; the 2-node point is always the direct pair.
    topology: str = "fat_tree"
    #: Compute nodes per fat-tree leaf router.
    leaf_radix: int = 4
    #: Spine routers joining the leaves (fat-tree only).
    num_spines: int = 2
    #: Probe payload (a cacheline read response).
    payload_bytes: int = 64
    #: Timed probe packets injected per compute node.
    probes_per_node: int = 4
    #: Cross-traffic packets injected per compute node per probe wave.
    cross_traffic_per_node: int = 12
    #: Cross-traffic payload.
    cross_payload_bytes: int = 256
    #: Cross-traffic leads each probe by up to this many ns, so the noise
    #: occupies link queues while the probe transits (injecting noise at
    #: the probe's own timestamp would lose the race through the switch
    #: and leave the queues empty).
    cross_lead_ns: int = 30_000
    #: Gap between probe waves, ns (wide enough to drain an idle fabric).
    wave_gap_ns: int = 400_000
    #: RNG seed for destination choices (deterministic sweeps).
    seed: int = 2016
    #: Closed-loop mode: probes are request/response round-trips (the
    #: destination answers every probe with a same-sized response) and
    #: cross-traffic packets are acknowledged too, so the sweep measures
    #: real end-to-end round-trips with credit feedback on both legs
    #: instead of one-way deliveries.
    closed_loop: bool = False

    def __post_init__(self) -> None:
        if not self.node_counts or min(self.node_counts) < 2:
            raise ValueError("node counts must all be at least 2")
        if self.topology not in ("fat_tree", "star"):
            raise ValueError(f"unsupported contention topology {self.topology!r}")
        if self.probes_per_node < 1:
            raise ValueError("each node needs at least one probe")
        self.node_counts = tuple(sorted(set(self.node_counts)))


def _cluster_config(config: ClusterContentionConfig, num_nodes: int) -> ClusterConfig:
    if num_nodes == 2:
        return ClusterConfig(num_nodes=2, topology="direct_pair")
    return ClusterConfig(num_nodes=num_nodes, topology=config.topology,
                         leaf_radix=config.leaf_radix,
                         num_spines=config.num_spines)


def _probe_plan(cluster: Cluster, config: ClusterContentionConfig,
                rng: DeterministicRNG) -> List[Tuple[int, int]]:
    """(src, dst) pairs for the timed probes, biased to long routes."""
    compute = cluster.topology.compute_nodes
    pairs: List[Tuple[int, int]] = []
    for src in compute:
        others = [node for node in compute if node != src]
        # The farthest destination plus rng picks: the sweep times both
        # the worst route shape and a sample of the average ones.
        farthest = max(others, key=lambda dst: cluster.topology.hop_count(src, dst))
        pairs.append((src, farthest))
        for _ in range(config.probes_per_node - 1):
            pairs.append((src, rng.choice(others)))
    return pairs


class _FabricRun:
    """One event-fabric execution: probes (optionally plus cross-traffic).

    In closed-loop mode every delivered probe request is answered with a
    same-sized response injected at the destination (and cross-traffic
    is acknowledged the same way), so the recorded latencies are full
    round-trips over the contended fabric -- request and response both
    subject to credit flow control and queueing.
    """

    def __init__(self, cluster: Cluster, config: ClusterContentionConfig,
                 probes: List[Tuple[int, int]], contended: bool,
                 rng: DeterministicRNG):
        self.closed_loop = config.closed_loop
        self._probe_payload = config.payload_bytes
        self.fabric = cluster.system.build_event_fabric(
            sim=Simulator())
        self.latencies_ns: Dict[int, int] = {}
        self._inject_times: Dict[int, int] = {}
        compute = cluster.topology.compute_nodes
        sim = self.fabric.sim
        # Sorted attach order: sink attachment must not depend on the
        # fabric dict's construction history.
        for node_id in sorted(self.fabric.switches):
            self.fabric.switches[node_id].attach_local_sink(self._on_delivery)
        probe_kind = (PacketKind.CRMA_READ if config.closed_loop
                      else PacketKind.CRMA_READ_RESP)
        for wave, (src, dst) in enumerate(probes):
            at = (wave + 1) * config.wave_gap_ns
            probe = Packet(src=src, dst=dst, kind=probe_kind,
                           payload_bytes=config.payload_bytes, created_at=at)
            self._inject_times[probe.packet_id] = at
            sim.schedule_at(at, self.fabric.switches[src].inject, probe)
            if contended:
                for node in compute:
                    others = [n for n in compute if n != node]
                    for _ in range(config.cross_traffic_per_node):
                        noise = Packet(src=node, dst=rng.choice(others),
                                       kind=PacketKind.RDMA_CHUNK,
                                       payload_bytes=config.cross_payload_bytes)
                        noise_at = at - rng.uniform_int(1, config.cross_lead_ns)
                        sim.schedule_at(noise_at,
                                        self.fabric.switches[node].inject,
                                        noise)
        sim.run_until_idle()

    def _on_delivery(self, packet: Packet) -> None:
        if self.closed_loop:
            kind = packet.kind
            if kind is PacketKind.CRMA_READ:
                # Probe request reached its destination: answer it.
                response = Packet(src=packet.dst, dst=packet.src,
                                  kind=PacketKind.CRMA_READ_RESP,
                                  payload_bytes=self._probe_payload,
                                  payload=packet.packet_id)
                self.fabric.switches[packet.dst].inject(response)
                return
            if kind is PacketKind.RDMA_CHUNK:
                # Cross-traffic is acknowledged too: the reverse leg
                # carries load (and credit feedback) like real traffic.
                ack = Packet(src=packet.dst, dst=packet.src,
                             kind=PacketKind.RDMA_ACK, payload_bytes=64)
                self.fabric.switches[packet.dst].inject(ack)
                return
            if kind is PacketKind.CRMA_READ_RESP:
                injected_at = self._inject_times.get(packet.payload)
                if injected_at is not None:
                    self.latencies_ns[packet.payload] = (
                        self.fabric.sim.now - injected_at)
                return
            return
        injected_at = self._inject_times.get(packet.packet_id)
        if injected_at is not None:
            self.latencies_ns[packet.packet_id] = self.fabric.sim.now - injected_at

    @property
    def mean_latency_ns(self) -> float:
        return statistics.mean(self.latencies_ns.values())

    def max_busy_fraction(self) -> float:
        return max(link.busy_fraction() for link in self.fabric.links.values())

    def stats_dump(self) -> str:
        """Canonical JSON dump of every fabric component's statistics.

        Byte-identical across runs with the same seed; the determinism
        regression tests compare these dumps directly.
        """
        dump = {
            "sim": {"now": self.fabric.sim.now,
                    "events": self.fabric.sim.events_processed},
            "links": {name.name: name.stats.snapshot()
                      for name in self.fabric.links.values()},  # simlint: disable=SIM001 -- json.dumps(sort_keys=True) canonicalises
            "datalinks": {dl.name: dl.stats.snapshot()
                          for dl in self.fabric.datalinks.values()},  # simlint: disable=SIM001 -- json.dumps(sort_keys=True) canonicalises
            "switches": {sw.name: sw.stats.snapshot()
                         for sw in self.fabric.switches.values()},  # simlint: disable=SIM001 -- json.dumps(sort_keys=True) canonicalises
            "probe_latencies": sorted(self.latencies_ns.values()),
        }
        return json.dumps(dump, sort_keys=True)


def run_fig_cluster_contention(config: Optional[ClusterContentionConfig] = None
                               ) -> FigureReport:
    """Sweep node counts over the event fabric and report queueing delay."""
    config = config or ClusterContentionConfig()
    cache = ClusterLatencyCache()

    closed_form_ns: Dict[str, float] = {}
    uncontended_ns: Dict[str, float] = {}
    contended_ns: Dict[str, float] = {}
    queueing_delay_ns: Dict[str, float] = {}
    queueing_delay_pct: Dict[str, float] = {}
    model_delta_ns: Dict[str, float] = {}
    busy_fraction_pct: Dict[str, float] = {}
    events: Dict[str, float] = {}

    for num_nodes in config.node_counts:
        label = f"{num_nodes}_nodes"
        cluster = Cluster(_cluster_config(config, num_nodes),
                          latency_cache=cache)
        rng = DeterministicRNG(config.seed + num_nodes)
        probes = _probe_plan(cluster, config, rng)

        # Closed-loop probes pay the one-way latency twice (request and
        # same-sized response), so the comparable closed form doubles.
        legs = 2 if config.closed_loop else 1
        closed_form_ns[label] = statistics.mean(
            legs * cluster.path_between(src, dst).one_way_latency_ns(
                config.payload_bytes)
            for src, dst in probes)

        idle = _FabricRun(cluster, config, probes, contended=False,
                          rng=DeterministicRNG(config.seed + num_nodes))
        loaded = _FabricRun(cluster, config, probes, contended=True,
                            rng=DeterministicRNG(config.seed + num_nodes))

        uncontended_ns[label] = idle.mean_latency_ns
        contended_ns[label] = loaded.mean_latency_ns
        queueing_delay_ns[label] = loaded.mean_latency_ns - idle.mean_latency_ns
        queueing_delay_pct[label] = (
            100.0 * queueing_delay_ns[label] / idle.mean_latency_ns)
        model_delta_ns[label] = idle.mean_latency_ns - closed_form_ns[label]
        busy_fraction_pct[label] = 100.0 * loaded.max_busy_fraction()
        events[label] = float(idle.fabric.sim.events_processed
                              + loaded.fabric.sim.events_processed)

    mode = "closed-loop round-trips" if config.closed_loop else "one-way probes"
    report = FigureReport(
        figure_id="fig_cluster_contention",
        title="Queueing delay under cross-traffic versus the latency-cache "
              f"closed forms ({config.topology} fabric, {mode}, "
              "2-node pair baseline)",
        notes="shape target: queueing delay grows with cluster size while the "
              "closed forms stay load-blind; model_delta is the load-independent "
              "datalink/flow-control cost the closed forms omit",
    )
    report.add_series("closed_form_latency_ns", closed_form_ns)
    report.add_series("measured_uncontended_ns", uncontended_ns)
    report.add_series("measured_contended_ns", contended_ns)
    report.add_series("queueing_delay_ns", queueing_delay_ns)
    report.add_series("queueing_delay_percent", queueing_delay_pct)
    report.add_series("model_delta_ns_uncontended_vs_closed_form", model_delta_ns)
    report.add_series("hottest_link_busy_percent", busy_fraction_pct)
    report.add_series("events_processed", events)
    report.add_series("latency_cache", {
        "hit_rate_percent": 100.0 * cache.hit_rate,
        "lookups": float(cache.lookups),
        "entries": float(len(cache)),
    })
    return report


def run_fig_cluster_contention_closed_loop(
        config: Optional[ClusterContentionConfig] = None) -> FigureReport:
    """Closed-loop variant: contended request/response round-trips."""
    if config is None:
        config = ClusterContentionConfig(closed_loop=True)
    elif not config.closed_loop:
        config = replace(config, closed_loop=True)
    return run_fig_cluster_contention(config)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_fig_cluster_contention().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
