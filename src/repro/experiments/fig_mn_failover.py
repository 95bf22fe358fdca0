"""Monitor-Node sharding: failover, throughput and contention sweeps.

Three questions about the sharded, replicated Monitor Node
(:mod:`repro.runtime.shard`), answered on one deterministic harness:

* **Does failover work, and how fast?**  Event-backed fat-tree fleets
  (8/16 nodes, shard counts 1/2/4) run waves of *batched* borrows
  through the split-phase matchmaker protocol (queue, plan, execute)
  while a churn campaign crashes shard primaries (``mn_crash``)
  between the phases.  The heartbeat pump promotes each standby and
  replays the in-flight tickets; the sweep reports the failover
  latency distribution, replayed-ticket counts and the
  allocations-lost ledger (zero by construction -- audited against the
  donor byte ledgers with the sanitizer on).
* **Does sharding buy throughput?**  A 64-node batched-borrow sweep
  compares the coordinator's modelled plan makespan (per-shard serial
  service, parallel across shards, plus routing/spill-forward costs)
  against the single-MN serial equivalent of the same batch.
* **Does measured contention steer donors better than distance?**  On
  a contended 16-node fleet whose near donors sit behind saturated
  leaf links, :class:`~repro.runtime.policies.ContentionAwarePolicy`
  (fed live ``busy_fraction`` telemetry) is swept against
  :class:`~repro.runtime.policies.DistanceFirstPolicy` and compared on
  per-borrower slowdown.

For a fixed seed every run -- campaign, promotions, replays, borrows
-- is byte-identical across repeats and across the Python and compiled
dispatch cores (:func:`mn_failover_stats_dump` is the canonical witness
the determinism tests and the CI churn smoke compare).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.report import FigureReport
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.matchmaker import ResourceShare
from repro.runtime.churn import ChurnConfig, ChurnEngine
from repro.runtime.fault import FaultHandler
from repro.runtime.monitor import AllocationError
from repro.runtime.shard import ShardUnavailableError
from repro.runtime.tables import ResourceKind


@dataclass
class MnFailoverConfig:
    """Sharded-monitor sweep parameters."""

    #: Fat-tree sizes for the failover runs (compute nodes).
    node_counts: Tuple[int, ...] = (8, 16)
    #: Shard counts swept per cluster size (clamped to the leaf count).
    shard_counts: Tuple[int, ...] = (1, 2, 4)
    #: Compute nodes per fat-tree leaf router.
    leaf_radix: int = 4
    #: Spine routers joining the leaves.
    num_spines: int = 2
    #: Campaign seed; one seed fixes every crash, promotion and replay.
    seed: int = 23
    #: Simulated time the borrow workload keeps running (ns).
    horizon_ns: int = 6_000_000
    #: Gap between the queue/plan/execute phases of each wave (ns):
    #: campaign events land *between* the synchronous phases, which is
    #: exactly the mid-batch crash window under test.
    wave_gap_ns: int = 150_000
    #: Remote memory each borrower requests per wave.
    memory_per_borrower: int = 1 << 20
    #: Heartbeat cadence of the churn engine's pump (ns).
    heartbeat_period_ns: int = 200_000
    #: Silence threshold before a node is declared dead (ns).
    heartbeat_timeout_ns: int = 700_000
    #: How long a crashed shard primary's host stays away (ns).
    mn_crash_down_ns: int = 1_500_000
    #: Cluster size for the coordinator-throughput sweep.
    throughput_nodes: int = 64
    #: Borrowers in the contention sweep read this many bytes per probe.
    probe_bytes: int = 65536
    #: Cross-traffic warm-up before contended borrows (ns).
    noise_warmup_ns: int = 400_000
    #: Cross-traffic intensity on the hot leaf (saturates its links).
    noise_payload_bytes: int = 4096
    noise_window: int = 8
    #: Runtime sanitizer for the event-backed runs (None defers to the
    #: ``SIM_SANITIZE`` environment variable).
    sanitize: Optional[bool] = None

    def __post_init__(self) -> None:
        if not self.node_counts or min(self.node_counts) < 8:
            raise ValueError(
                "failover sweeps need fat-tree clusters (>= 8 nodes)")
        if not self.shard_counts or min(self.shard_counts) < 1:
            raise ValueError("shard counts must all be at least 1")
        if self.horizon_ns <= 0 or self.wave_gap_ns <= 0:
            raise ValueError("horizon and wave gap must be positive")
        self.node_counts = tuple(sorted(set(self.node_counts)))
        self.shard_counts = tuple(sorted(set(self.shard_counts)))


# ----------------------------------------------------------------------
# Failover runs (event-backed, mn_crash campaign)
# ----------------------------------------------------------------------
def _failover_churn_config(config: MnFailoverConfig,
                           num_shards: int) -> ChurnConfig:
    """A campaign of *only* shard-primary crashes (one per shard)."""
    return ChurnConfig(
        seed=config.seed,
        horizon_ns=config.horizon_ns,
        link_flaps=0,
        router_failures=0,
        node_crashes=0,
        mn_crashes=num_shards,
        mn_crash_down_ns=config.mn_crash_down_ns,
        heartbeat_period_ns=config.heartbeat_period_ns,
        heartbeat_timeout_ns=config.heartbeat_timeout_ns,
    )


def _run_failover_once(config: MnFailoverConfig, num_nodes: int,
                       num_shards: int) -> Dict[str, object]:
    """One event-backed fleet borrowing in waves under mn_crash churn."""
    cluster = Cluster(ClusterConfig(
        num_nodes=num_nodes, topology="fat_tree",
        leaf_radix=config.leaf_radix, num_spines=config.num_spines,
        monitor_shards=num_shards,
        transport_backend="event", sanitize=config.sanitize))
    matchmaker = cluster.matchmaker
    monitor = cluster.monitor
    transport = cluster.event_transport()
    sim = transport.sim
    handler = FaultHandler(monitor, reallocate_on_node_failure=False)
    engine = ChurnEngine(transport, monitor, handler,
                         _failover_churn_config(config, monitor.num_shards))
    engine.start()

    borrows_ok = 0
    waves_completed = 0
    waves_deferred = 0     # plan refused: a primary was down
    waves_interrupted = 0  # execute aborted mid-batch by a crash
    requests = [(node, config.memory_per_borrower)
                for node in cluster.node_ids]

    def settle(batches: List[List[ResourceShare]]) -> int:
        count = 0
        for batch in batches:
            count += len(batch)
        for batch in reversed(batches):
            for share in reversed(batch):
                matchmaker.release(share)
        return count

    while sim.now < config.horizon_ns:
        if monitor.queued_requests == 0:
            matchmaker.queue_requests(requests)
        # Phase gap 1: a crash here lands between queue and plan.
        sim.run(until=sim.now + config.wave_gap_ns)
        try:
            entries = matchmaker.plan_queued()
        except ShardUnavailableError:
            # Queue intact; the next pump round promotes the standby.
            waves_deferred += 1
            sim.run(until=sim.now + config.heartbeat_period_ns)
            continue
        # Phase gap 2: a crash here lands between plan and allocation.
        sim.run(until=sim.now + config.wave_gap_ns)
        try:
            batches = matchmaker.execute_plan(entries)
        except ShardUnavailableError:
            # Created shares were unwound; the unfinished tickets stay
            # in flight and the promotion replays them onto the queue.
            waves_interrupted += 1
            sim.run(until=sim.now + config.heartbeat_period_ns)
            continue
        borrows_ok += settle(batches)
        waves_completed += 1
        sim.run(until=sim.now + config.wave_gap_ns)

    engine.stop()
    # Finish anything the last promotion replayed onto the queue.
    while monitor.queued_requests:
        try:
            borrows_ok += settle(matchmaker.borrow_queued())
            waves_completed += 1
        except AllocationError:
            break
    sim.run_until_idle()
    if getattr(sim, "sanitize", False):
        transport.check_packet_lifecycle()

    # Ledger audit: every grant released, every donor byte returned.
    active_allocations = len(monitor.rat.active())
    donated_bytes = sum(cluster.node(node).agent.donated_bytes
                        for node in cluster.node_ids)
    shard_stats = monitor.stats_dict()
    return {
        "num_nodes": num_nodes,
        "num_shards": monitor.num_shards,
        "borrows_ok": borrows_ok,
        "waves_completed": waves_completed,
        "waves_deferred": waves_deferred,
        "waves_interrupted": waves_interrupted,
        "failover_ns": [latency for _shard, latency
                        in sorted(engine.mn_failover_ns.items())],
        "tickets_replayed": monitor.tickets_replayed,
        "allocations_lost": monitor.allocations_lost,
        "allocations_recovered": monitor.allocations_recovered,
        "ledger_balanced": monitor.ledger_balanced(),
        "active_allocations_at_end": active_allocations,
        "donated_bytes_at_end": donated_bytes,
        "orphaned_releases": monitor.orphaned_releases,
        "engine": engine.stats_dict(),
        "shards": shard_stats,
        "events": sim.events_processed,
    }


def mn_failover_stats_dump(config: Optional[MnFailoverConfig] = None,
                           num_nodes: int = 8, num_shards: int = 2) -> str:
    """Canonical JSON witness of one failover run (determinism probe).

    Two calls with the same config are byte-identical, across runs and
    dispatch cores -- the acceptance gate the determinism tests and the
    CI churn smoke both check.
    """
    config = config or MnFailoverConfig()
    return json.dumps(_run_failover_once(config, num_nodes, num_shards),
                      sort_keys=True)


# ----------------------------------------------------------------------
# Coordinator-throughput sweep (modelled plan makespan, closed form)
# ----------------------------------------------------------------------
def _run_throughput_once(config: MnFailoverConfig,
                         num_shards: int) -> Dict[str, float]:
    """One 64-node batched-borrow wave; compare modelled plan costs."""
    cluster = Cluster(ClusterConfig(
        num_nodes=config.throughput_nodes, topology="fat_tree",
        leaf_radix=config.leaf_radix, num_spines=config.num_spines,
        monitor_shards=num_shards))
    matchmaker = cluster.matchmaker
    monitor = cluster.monitor
    batches = matchmaker.borrow_many(
        [(node, config.memory_per_borrower) for node in cluster.node_ids])
    for batch in reversed(batches):
        for share in reversed(batch):
            matchmaker.release(share)
    coordinator = monitor.coordinator
    planned = coordinator.requests_planned
    makespan_ns = coordinator.total_plan_makespan_ns
    # The single-MN equivalent serialises every request through one
    # server with no routing or spill-forward overhead.
    single_mn_ns = planned * coordinator.mn_service_ns
    return {
        "requests_planned": float(planned),
        "plan_makespan_ns": float(makespan_ns),
        "single_mn_ns": float(single_mn_ns),
        "spill_forwards": float(coordinator.spill_forwards),
        "throughput_x": single_mn_ns / makespan_ns if makespan_ns else 0.0,
    }


# ----------------------------------------------------------------------
# Contention sweep (distance-first vs contention-aware)
# ----------------------------------------------------------------------
def _contended_cluster(config: MnFailoverConfig) -> Cluster:
    """16-node fleet where the nearest donors sit behind hot links.

    Leaf 0's nodes (0-3) and leaf 1's nodes (4-7) are the only donors
    -- equidistant from every borrower on leaves 2/3 (nodes 8-15) --
    and intra-leaf-0 cross-traffic saturates leaf 0's links, so
    distance-first (node-id tie-break) piles borrowers onto the hot
    donors while a telemetry-fed policy should route around them.
    """
    cluster = Cluster(ClusterConfig(
        num_nodes=16, topology="fat_tree",
        leaf_radix=config.leaf_radix, num_spines=config.num_spines,
        transport_backend="event", sanitize=config.sanitize))
    for node in cluster.node_ids:
        agent = cluster.node(node).agent
        if node >= 8:
            # Borrowers: no idle memory to donate.
            agent.set_local_usage(agent.memory_capacity_bytes)
        else:
            # Donors: exactly two borrower-grants' worth of idle memory.
            idle = 2 * config.memory_per_borrower
            agent.set_local_usage(max(0, agent.memory_capacity_bytes
                                      - agent.reserve_bytes - idle))
    cluster.monitor.collect_heartbeats()
    return cluster


def _run_contention_once(config: MnFailoverConfig,
                         contention_aware: bool) -> Dict[str, float]:
    cluster = _contended_cluster(config)
    if contention_aware:
        cluster.enable_contention_telemetry()
    transport = cluster.event_transport()
    sim = transport.sim
    # Intra-leaf-0 ring: every flow crosses leaf 0's up/down links only.
    noise = cluster.cross_traffic(
        flows=[(0, 1), (1, 2), (2, 3), (3, 0)],
        payload_bytes=config.noise_payload_bytes,
        window=config.noise_window, turnaround_ns=0)
    sim.run(until=sim.now + config.noise_warmup_ns)

    matchmaker = cluster.matchmaker
    shares: List[ResourceShare] = []
    for borrower in range(8, 16):
        shares.extend(matchmaker.borrow_memory(
            borrower, config.memory_per_borrower))
    hot_donor_shares = sum(1 for share in shares if share.donor < 4)
    # Contended probe: all borrowers read concurrently with the noise.
    contended = matchmaker.touch_shares(shares,
                                        size_bytes=config.probe_bytes)
    noise.stop()
    sim.run_until_idle()
    # Baseline probe: the same reads serialised on a quiet fabric.
    baseline: Dict[ResourceShare, int] = {}
    for share in shares:
        op = share.channel.submit_read(config.probe_bytes)
        transport.drive_all([op])
        baseline[share] = op.latency_ns
    slowdowns = [contended[share] / baseline[share] for share in shares]
    if getattr(sim, "sanitize", False):
        transport.check_packet_lifecycle()
    for share in reversed(shares):
        matchmaker.release(share)
    return {
        "per_borrower_slowdown": sum(slowdowns) / len(slowdowns),
        "worst_slowdown": max(slowdowns),
        "hot_donor_shares": float(hot_donor_shares),
    }


def _mean(values: List[int]) -> float:
    return (sum(values) / len(values)) if values else 0.0


def run_fig_mn_failover(
        config: Optional[MnFailoverConfig] = None) -> FigureReport:
    """Sweep shard counts per cluster size; report failover metrics."""
    config = config or MnFailoverConfig()

    failover_ns: Dict[str, float] = {}
    failover_worst_ns: Dict[str, float] = {}
    tickets_replayed: Dict[str, float] = {}
    allocations_lost: Dict[str, float] = {}
    borrows_ok: Dict[str, float] = {}
    waves_interrupted: Dict[str, float] = {}
    for num_nodes in config.node_counts:
        for num_shards in config.shard_counts:
            run = _run_failover_once(config, num_nodes, num_shards)
            label = f"{num_nodes}n_s{run['num_shards']}"
            failover_ns[label] = _mean(run["failover_ns"])
            failover_worst_ns[label] = float(max(run["failover_ns"],
                                                 default=0))
            tickets_replayed[label] = float(run["tickets_replayed"])
            allocations_lost[label] = float(run["allocations_lost"])
            borrows_ok[label] = float(run["borrows_ok"])
            waves_interrupted[label] = float(run["waves_interrupted"]
                                             + run["waves_deferred"])

    throughput_x: Dict[str, float] = {}
    plan_makespan_ns: Dict[str, float] = {}
    for num_shards in config.shard_counts:
        sweep = _run_throughput_once(config, num_shards)
        label = f"{config.throughput_nodes}n_s{num_shards}"
        throughput_x[label] = sweep["throughput_x"]
        plan_makespan_ns[label] = sweep["plan_makespan_ns"]

    slowdown: Dict[str, float] = {}
    hot_donor_shares: Dict[str, float] = {}
    for aware, label in ((False, "distance_first"),
                         (True, "contention_aware")):
        run = _run_contention_once(config, contention_aware=aware)
        slowdown[label] = run["per_borrower_slowdown"]
        hot_donor_shares[label] = run["hot_donor_shares"]

    report = FigureReport(
        figure_id="fig_mn_failover",
        title="Sharded Monitor Node: crash failover, coordinator "
              f"throughput and contention-aware matchmaking (seed "
              f"{config.seed})",
        notes="shape target: failover latency bounded by one heartbeat "
              "period after the crash, zero allocations lost (replicated "
              "commit log + buffered releases), interrupted batches "
              "replayed exactly once; coordinator plan makespan dropping "
              "with shard count (>= 2x the single-MN serial cost at 4 "
              "shards on 64 nodes); contention-aware donor choice "
              "routing around measured-hot leaf links for a lower "
              "per-borrower slowdown than distance-first",
    )
    report.add_series("failover_mean_ns", failover_ns)
    report.add_series("failover_worst_ns", failover_worst_ns)
    report.add_series("tickets_replayed", tickets_replayed)
    report.add_series("allocations_lost", allocations_lost)
    report.add_series("borrows_ok", borrows_ok)
    report.add_series("waves_disrupted", waves_interrupted)
    report.add_series("coordinator_throughput_x", throughput_x)
    report.add_series("plan_makespan_ns", plan_makespan_ns)
    report.add_series("per_borrower_slowdown", slowdown)
    report.add_series("hot_donor_shares", hot_donor_shares)
    return report


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_fig_mn_failover().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
