"""Cluster churn: deterministic fault campaigns over the event fabric.

The contended sweeps measure steady-state interference; this experiment
measures *recovery*.  An event-backed fleet is provisioned through the
batched matchmaker and driven with deadline-guarded CRMA reads plus
closed-loop cross-traffic, while a :class:`~repro.runtime.churn
.ChurnEngine` replays a seeded fault campaign against the same fabric:
links flap (packets in flight fault and exercise the datalink replay
path), routers fail (packets are dropped in the switch), and a compute
node crashes (its heartbeats stop).

Recovery is live, on the simulated clock:

* the churn engine's heartbeat pump detects the crash through
  :meth:`~repro.runtime.fault.FaultHandler.check_heartbeats`
  (``detection_ns``);
* orphaned borrowers re-borrow replacement memory through one batched
  :meth:`~repro.cluster.matchmaker.Matchmaker.borrow_many` call, and
  the re-borrow is charged at its first successful remote access over
  the recovering fabric (``reborrow_ns``);
* reads that miss their deadline fail with a typed
  :class:`~repro.core.channels.backend.OpTimeoutError` and are
  re-submitted under an exponential-backoff
  :class:`~repro.core.channels.backend.RetryPolicy`, so flap-window
  losses heal instead of hanging the sweep.

Each fault scale is compared against a fault-free baseline of the same
shape, yielding the replay-storm amplification (datalink replays under
churn over replays from BER alone) and the steady-state throughput
degradation.  For a fixed campaign seed the whole run -- campaign,
detection, re-borrows, retries -- is byte-identical across runs and
dispatch cores (:func:`churn_stats_dump` is the canonical
witness the determinism tests and the CI smoke compare).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.report import FigureReport
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.matchmaker import ResourceShare
from repro.core.channels.backend import RetryPolicy
from repro.runtime.churn import ChurnConfig, ChurnEngine
from repro.runtime.fault import FaultHandler


@dataclass
class ClusterChurnConfig:
    """Churn-campaign sweep parameters."""

    #: Fat-tree sizes to sweep (compute nodes).
    node_counts: Tuple[int, ...] = (8, 16)
    #: Campaign intensities: fault counts scale linearly with each
    #: entry, and every entry is compared against the fault-free
    #: baseline (scale 0) of the same cluster shape.
    fault_scales: Tuple[int, ...] = (1, 2)
    #: Compute nodes per fat-tree leaf router.
    leaf_radix: int = 4
    #: Spine routers joining the leaves.
    num_spines: int = 2
    #: Campaign seed; one seed fixes every fault, retry and re-borrow.
    seed: int = 11
    #: Simulated time the workload keeps running (ns).
    horizon_ns: int = 6_000_000
    #: Idle gap between read waves (ns): the clock keeps moving between
    #: waves so campaign events land between, not only inside, them.
    wave_gap_ns: int = 250_000
    #: CRMA read payload (one cacheline).
    read_bytes: int = 64
    #: Remote memory each borrower requests.
    memory_per_borrower: int = 1 << 20
    #: Per-attempt read deadline (ns); a read that cannot finish --
    #: e.g. its route is flapped down -- fails typed instead of hanging.
    deadline_ns: int = 250_000
    #: Resubmit policy for deadline-failed reads.
    retry_attempts: int = 3
    retry_backoff_ns: int = 100_000
    #: Heartbeat cadence of the churn engine's pump (ns).
    heartbeat_period_ns: int = 200_000
    #: Silence threshold before a node is declared dead (ns).
    heartbeat_timeout_ns: int = 700_000
    #: Link-flap / router-outage / crash durations (ns).
    flap_duration_ns: int = 600_000
    router_down_ns: int = 800_000
    crash_down_ns: int = 4_000_000

    def __post_init__(self) -> None:
        if not self.node_counts or min(self.node_counts) < 4:
            raise ValueError("churn needs fat-tree clusters (>= 4 nodes)")
        if not self.fault_scales or min(self.fault_scales) < 1:
            raise ValueError("fault scales must all be at least 1")
        if self.horizon_ns <= 0 or self.wave_gap_ns <= 0:
            raise ValueError("horizon and wave gap must be positive")
        if self.deadline_ns <= 0:
            raise ValueError("read deadline must be positive")
        self.node_counts = tuple(sorted(set(self.node_counts)))
        self.fault_scales = tuple(sorted(set(self.fault_scales)))


def _churn_config(config: ClusterChurnConfig, scale: int) -> ChurnConfig:
    return ChurnConfig(
        seed=config.seed + scale,
        horizon_ns=config.horizon_ns,
        link_flaps=2 * scale,
        router_failures=scale,
        node_crashes=1,
        flap_duration_ns=config.flap_duration_ns,
        router_down_ns=config.router_down_ns,
        crash_down_ns=config.crash_down_ns,
        heartbeat_period_ns=config.heartbeat_period_ns,
        heartbeat_timeout_ns=config.heartbeat_timeout_ns,
    )


def _total_counter(transport, name: str) -> int:
    return sum(link.stats.counter(name).value
               for link in transport.fabric.datalinks.values())


def _run_once(config: ClusterChurnConfig, num_nodes: int,
              scale: int) -> Dict[str, object]:
    """One fleet under one campaign (``scale == 0``: fault-free baseline)."""
    cluster = Cluster(ClusterConfig(
        num_nodes=num_nodes, topology="fat_tree",
        leaf_radix=config.leaf_radix, num_spines=config.num_spines,
        transport_backend="event"))
    matchmaker = cluster.matchmaker
    active: List[ResourceShare] = [
        share for batch in matchmaker.borrow_many(
            [(node, config.memory_per_borrower)
             for node in cluster.node_ids])
        for share in batch]
    transport = cluster.event_transport()
    sim = transport.sim
    noise = cluster.cross_traffic()
    # Donor-crash recovery goes through the matchmaker (channel and
    # grant rebuilt), not the monitor-side in-place reallocation.
    handler = FaultHandler(cluster.monitor, reallocate_on_node_failure=False)
    retry = RetryPolicy(max_attempts=config.retry_attempts,
                        backoff_ns=config.retry_backoff_ns)

    dead: set = set()
    pending_crashes: List[Tuple[int, int]] = []
    engine: Optional[ChurnEngine] = None
    if scale > 0:
        engine = ChurnEngine(
            transport, cluster.monitor, handler,
            _churn_config(config, scale),
            on_node_failure=lambda node, _plan: (
                dead.add(node), pending_crashes.append((node, sim.now))))
        engine.start()

    reads_ok = 0
    reads_gave_up = 0
    latency_total_ns = 0
    reborrow_latencies: List[int] = []

    def reborrow(node: int, detected_at: int) -> None:
        """Replace every share the dead node served (or consumed)."""
        lost = [share for share in active
                if share.donor == node or share.requester == node]
        for share in lost:
            # The fault handler already settled the Monitor Node's
            # books for these grants; only the matchmaker's share
            # tracking is retired here.
            share.released = True
            if share in matchmaker.shares:
                matchmaker.shares.remove(share)
            active.remove(share)
        requests = [(share.requester, share.amount) for share in lost
                    if share.requester not in dead]
        if not requests:
            return
        replacements = [share for batch in matchmaker.borrow_many(requests)
                        for share in batch]
        # The re-borrow is charged at its first successful access: the
        # batch is not "recovered" until data moves over the new routes.
        ops = [transport.submit_with_retry(
                   lambda share=share: share.channel.submit_read(
                       config.read_bytes, deadline_ns=config.deadline_ns),
                   retry, label=f"reborrow-n{share.requester}")
               for share in replacements]
        transport.drive_all(ops)
        reborrow_latencies.append(sim.now - detected_at)
        active.extend(replacements)

    while sim.now < config.horizon_ns:
        ops = [transport.submit_with_retry(
                   lambda share=share: share.channel.submit_read(
                       config.read_bytes, deadline_ns=config.deadline_ns),
                   retry, label=f"read-n{share.requester}")
               for share in active]
        transport.drive_all(ops)
        for op in ops:
            if op.done:
                reads_ok += 1
                latency_total_ns += op.latency_ns
            else:
                reads_gave_up += 1
        if pending_crashes:
            for node, detected_at in pending_crashes:
                reborrow(node, detected_at)
            pending_crashes.clear()
        sim.run(until=sim.now + config.wave_gap_ns)

    if engine is not None:
        engine.stop()
    noise.stop()
    sim.run_until_idle()
    if getattr(sim, "sanitize", False):
        # Zero-hang audit: every injected packet delivered, dropped or
        # timed out -- only meaningful when the lifecycle ledger is on.
        transport.check_packet_lifecycle()

    makespan_ns = sim.now
    detection = (list(engine.detection_latency_ns.values())
                 if engine is not None else [])
    return {
        "reads_ok": reads_ok,
        "reads_gave_up": reads_gave_up,
        "mean_read_ns": (latency_total_ns / reads_ok) if reads_ok else 0.0,
        "goodput_ops_per_ms": reads_ok / (makespan_ns / 1e6),
        "makespan_ns": makespan_ns,
        "ops_timed_out": transport.ops_timed_out,
        "packets_timed_out": transport.packets_timed_out,
        "replays": _total_counter(transport, "replays"),
        "link_faults": _total_counter(transport, "link_faults"),
        "detection_ns": detection,
        "reborrow_ns": list(reborrow_latencies),
        "engine": engine.stats_dict() if engine is not None else {},
        "events": sim.events_processed,
    }


def churn_stats_dump(config: Optional[ClusterChurnConfig] = None,
                     num_nodes: int = 8, scale: int = 1) -> str:
    """Canonical JSON witness of one churn run (determinism probe).

    Two calls with the same config are byte-identical, across runs and
    dispatch cores -- the acceptance gate the determinism tests and the
    CI churn smoke both check.
    """
    config = config or ClusterChurnConfig()
    return json.dumps(_run_once(config, num_nodes, scale), sort_keys=True)


def _mean(values: List[int]) -> float:
    return (sum(values) / len(values)) if values else 0.0


def run_fig_cluster_churn(
        config: Optional[ClusterChurnConfig] = None) -> FigureReport:
    """Sweep fault scales per cluster size; report recovery metrics."""
    config = config or ClusterChurnConfig()

    goodput: Dict[str, float] = {}
    degradation_pct: Dict[str, float] = {}
    replay_amplification: Dict[str, float] = {}
    detection_ns: Dict[str, float] = {}
    reborrow_ns: Dict[str, float] = {}
    recovery_ns: Dict[str, float] = {}
    timed_out: Dict[str, float] = {}
    gave_up: Dict[str, float] = {}

    for num_nodes in config.node_counts:
        baseline = _run_once(config, num_nodes, scale=0)
        goodput[f"{num_nodes}n_x0"] = baseline["goodput_ops_per_ms"]
        for scale in config.fault_scales:
            label = f"{num_nodes}n_x{scale}"
            churn = _run_once(config, num_nodes, scale)
            goodput[label] = churn["goodput_ops_per_ms"]
            degradation_pct[label] = 100.0 * (
                1.0 - churn["goodput_ops_per_ms"]
                / baseline["goodput_ops_per_ms"])
            replay_amplification[label] = (
                churn["replays"] / max(1, baseline["replays"]))
            detection_ns[label] = _mean(churn["detection_ns"])
            reborrow_ns[label] = _mean(churn["reborrow_ns"])
            recovery_ns[label] = detection_ns[label] + reborrow_ns[label]
            timed_out[label] = float(churn["ops_timed_out"])
            gave_up[label] = float(churn["reads_gave_up"])

    report = FigureReport(
        figure_id="fig_cluster_churn",
        title="Deterministic fault campaigns over the contended event "
              f"fabric (fat-tree, seed {config.seed}, "
              f"{config.horizon_ns / 1e6:.0f} ms horizon)",
        notes="shape target: replay amplification above 1.0 (flapped "
              "links fault in-flight packets into the replay path), "
              "crash recovery bounded by heartbeat timeout plus one "
              "batched re-borrow, and throughput degradation growing "
              "with fault scale while every lost read fails typed "
              "(no hangs) and retries heal the flap windows",
    )
    report.add_series("goodput_ops_per_ms", goodput)
    report.add_series("throughput_degradation_percent", degradation_pct)
    report.add_series("replay_amplification", replay_amplification)
    report.add_series("crash_detection_ns", detection_ns)
    report.add_series("reborrow_ns", reborrow_ns)
    report.add_series("recovery_ns", recovery_ns)
    report.add_series("ops_timed_out", timed_out)
    report.add_series("reads_gave_up", gave_up)
    return report


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_fig_cluster_churn().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
