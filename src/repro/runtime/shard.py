"""Sharded, replicated Monitor Node.

The single :class:`~repro.runtime.monitor.MonitorNode` is both the
fleet's throughput bottleneck at scale and the one component whose
crash the churn engine could not inject.  This module partitions the
MN's donor registry by fat-tree leaf into per-leaf shards behind a thin
coordinator, and replicates each shard so a primary crash is a
measured, recoverable fault instead of a total outage:

* :class:`MonitorShard`  -- one leaf-group's Monitor Node, run as a
  primary/standby pair.  Heartbeat ingests and allocation commits are
  applied to the standby as a deterministic log (table-level copies;
  agent handshakes run only on the primary), so at any instant the
  standby's RAT matches the primary's committed state.  A crash freezes
  the primary; releases arriving during the outage are buffered and
  applied at promotion, so no donor bytes are lost.
* :class:`ShardCoordinator` -- routes every request to the owning
  shard (requests by requester's leaf, pinned allocations and releases
  by donor's leaf), forwards cross-leaf spills, and merges batch plans
  against per-shard working copies so one batch never double-books a
  donor *across* shards.  It also tracks in-flight batch tickets: a
  ticket is retired when the caller confirms all its chunks, and every
  unconfirmed ticket is re-queued exactly once when a crashed shard's
  standby is promoted.
* :class:`ShardedMonitor` -- the drop-in MonitorNode facade: the
  matchmaker, fault handler and churn engine talk to it through the
  same API (plus aggregate RRT/RAT/TST views), so the whole runtime
  stack runs unchanged over one shard or many.

Planning cost is modelled, not wall-clocked: each shard is a serial
server charging ``mn_service_ns`` per request it plans, shards work in
parallel, and the coordinator charges ``route_ns`` per routed request
plus ``spill_forward_ns`` per cross-leaf forward.  A batch's makespan
is the coordinator's serial cost plus the busiest shard, which is what
the ``mn_failover`` experiment sweeps against the single-MN serial
cost.  All bookkeeping iterates sorted structures, so a fixed seed is
byte-identical across runs and dispatch cores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.fabric.topology import Topology
from repro.runtime.agent import HeartbeatReport, NodeAgent
from repro.runtime.monitor import (
    Allocation,
    AllocationError,
    BatchPlanEntry,
    BatchPlanError,
    MonitorNode,
    QueuedRequest,
)
from repro.runtime.policies import DistanceFirstPolicy, DonorSelectionPolicy
from repro.runtime.tables import (
    AllocationRecord,
    LinkStatus,
    ResourceKind,
    ResourceRecord,
    TopologyStatusTable,
)


class ShardUnavailableError(AllocationError):
    """The owning shard's primary is down and no standby was promoted yet."""


def leaf_groups(topology: Topology) -> List[List[int]]:
    """Compute nodes grouped by their attachment router, sorted.

    The fat-tree's leaf router is each compute node's single router
    neighbour; topologies without routers (a direct pair) collapse to
    one group.  Groups are ordered by router id, nodes within a group
    by node id -- the deterministic shard-partitioning key.
    """
    routers = set(topology.router_nodes)
    groups: Dict[int, List[int]] = {}
    for node in sorted(topology.compute_nodes):
        attached = sorted(neighbor for neighbor in topology.neighbors(node)
                          if neighbor in routers)
        key = attached[0] if attached else -1
        groups.setdefault(key, []).append(node)
    return [groups[key] for key in sorted(groups)]


@dataclass
class _InflightTicket:
    """One planned-but-unconfirmed batch ticket tracked for replay."""

    request: QueuedRequest
    #: ``[donor, amount, allocation_id-or-None]`` per planned chunk.
    chunks: List[list]


class MonitorShard:
    """One leaf-group's Monitor Node, replicated as primary/standby."""

    def __init__(self, shard_id: int, topology: Topology,
                 nodes: Sequence[int], policy: DonorSelectionPolicy,
                 heartbeat_timeout_ns: int):
        self.shard_id = shard_id
        self.topology = topology
        self.nodes = sorted(nodes)
        self.policy = policy
        self.heartbeat_timeout_ns = heartbeat_timeout_ns
        self.primary = self._fresh_monitor()
        self.standby: Optional[MonitorNode] = self._fresh_monitor()
        self.alive = True
        self.crashed_at_ns: Optional[int] = None
        #: Member agents (this shard's leaf group) and adopted foreign
        #: agents, kept so a rebuilt standby can be re-populated.
        self._members: Dict[int, NodeAgent] = {}  # simlint: disable=SIM006 -- bounded by the leaf group
        self._foreign: Dict[int, NodeAgent] = {}  # simlint: disable=SIM006 -- bounded by fleet size
        #: Releases that arrived while the primary was down; applied in
        #: arrival order at promotion.
        self.pending_releases: List[int] = []
        # Replication / failover ledger.
        self.crashes = 0
        self.promotions = 0
        self.standbys_rebuilt = 0
        self.commits_replicated = 0
        self.releases_replicated = 0
        self.releases_recovered = 0
        self.release_misses = 0
        self.allocations_recovered = 0
        self.allocations_lost = 0
        self.failover_latency_ns: List[int] = []

    def _fresh_monitor(self) -> MonitorNode:
        return MonitorNode(self.topology,
                           heartbeat_timeout_ns=self.heartbeat_timeout_ns,
                           policy=self.policy)

    def replicas(self) -> List[MonitorNode]:
        """Replicas the deterministic log is applied to, primary first."""
        out: List[MonitorNode] = []
        if self.alive:
            out.append(self.primary)
        if self.standby is not None:
            out.append(self.standby)
        return out

    @property
    def live(self) -> MonitorNode:
        """The replica serving table reads right now.

        The primary while it is up; the standby during the
        crash-to-promotion window (its books are the replicated truth);
        the frozen primary only if both are gone.
        """
        if self.alive:
            return self.primary
        if self.standby is not None:
            return self.standby
        return self.primary

    def _require_alive(self) -> None:
        if not self.alive:
            raise ShardUnavailableError(
                f"monitor shard {self.shard_id} has no live primary "
                "(crashed; standby not yet promoted)")

    # ------------------------------------------------------------------
    # Registration / heartbeats / time
    # ------------------------------------------------------------------
    def register_member(self, agent: NodeAgent) -> None:
        self._members[agent.node_id] = agent
        for monitor in self.replicas():
            monitor.register_agent(agent)

    def adopt_foreign(self, agent: NodeAgent) -> None:
        self._foreign[agent.node_id] = agent
        for monitor in self.replicas():
            monitor.adopt_agent(agent)

    def ingest_heartbeat(self, report: HeartbeatReport) -> None:
        for monitor in self.replicas():
            monitor.ingest_heartbeat(report)

    def ingest_agent_heartbeat(self, agent: NodeAgent,
                               now_ns: Optional[int] = None) -> None:
        """Report-free heartbeat fold into every live replica.

        One shared timestamp across replicas, like the report path
        (defaults to the primary-side clock of the first replica).
        """
        replicas = self.replicas()
        if now_ns is None and replicas:
            now_ns = replicas[0].now_ns
        for monitor in replicas:
            monitor.ingest_agent_heartbeat(agent, now_ns)

    def advance_time(self, delta_ns: int) -> None:
        for monitor in self.replicas():
            monitor.advance_time(delta_ns)

    def reconcile_orphaned_releases(self, node_id: int) -> int:
        settled = 0
        for monitor in self.replicas():
            settled += monitor.reconcile_orphaned_releases(node_id)
        return settled

    # ------------------------------------------------------------------
    # Replicated allocation log
    # ------------------------------------------------------------------
    def _replicate_commit(self, allocation: Allocation) -> None:
        if self.standby is None:
            return
        # Spelled-out copy instead of dataclasses.replace(): this runs
        # once per commit and replace()'s field introspection showed up
        # in the sharded-MN profile.
        record = allocation.record
        self.standby.rat.add(AllocationRecord(
            requester=record.requester, donor=record.donor,
            kind=record.kind, amount=record.amount,
            allocation_id=record.allocation_id,
            created_at_ns=record.created_at_ns,
            released=record.released))
        member = self._members.get(allocation.donor)
        if member is not None:
            self.standby.ingest_agent_heartbeat(member)
        self.commits_replicated += 1

    def _replicate_release(self, allocation_id: int, donor: int) -> None:
        if self.standby is None:
            return
        try:
            self.standby.rat.release(allocation_id)
        except KeyError:
            pass
        member = self._members.get(donor)
        if member is not None:
            self.standby.ingest_agent_heartbeat(member)
        self.releases_replicated += 1

    def request_memory(self, requester: int, size_bytes: int,
                       donor: Optional[int] = None) -> Allocation:
        self._require_alive()
        allocation = self.primary.request_memory(requester, size_bytes,
                                                 donor=donor)
        self._replicate_commit(allocation)
        return allocation

    def request_accelerator(self, requester: int) -> Allocation:
        self._require_alive()
        allocation = self.primary.request_accelerator(requester)
        self._replicate_commit(allocation)
        return allocation

    def request_nic(self, requester: int) -> Allocation:
        self._require_alive()
        allocation = self.primary.request_nic(requester)
        self._replicate_commit(allocation)
        return allocation

    def release(self, allocation: Allocation) -> bool:
        """Apply a release, or buffer it while the primary is down.

        Returns True when applied immediately; False when buffered for
        promotion (the caller's grant is torn down either way -- the
        donor's bytes come back when the standby takes over).
        """
        if not self.alive:
            self.pending_releases.append(allocation.record.allocation_id)
            return False
        self.primary.release(allocation)
        self._replicate_release(allocation.record.allocation_id,
                                allocation.record.donor)
        return True

    def rat_release(self, allocation_id: int) -> AllocationRecord:
        """Table-level release (fault-handler write-off path)."""
        if self.alive:
            record = self.primary.rat.release(allocation_id)
            self._replicate_release(allocation_id, record.donor)
            return record
        for record in self.live.rat.active():
            if record.allocation_id == allocation_id:
                self.pending_releases.append(allocation_id)
                return record
        raise KeyError(f"allocation {allocation_id} is not active")

    # ------------------------------------------------------------------
    # Crash / promotion / standby rebuild
    # ------------------------------------------------------------------
    def crash_primary(self, now_ns: int) -> None:
        """The primary stops: ops fail typed until promotion."""
        if not self.alive:
            return
        self.alive = False
        self.crashed_at_ns = now_ns
        self.crashes += 1

    def promote_standby(self, now_ns: int) -> int:
        """Promote the standby to primary; returns the failover latency.

        The promoted replica refreshes its RRT/TST from the live member
        agents (ground truth survives the MN crash), then the releases
        buffered during the outage are applied through its replicated
        RAT -- the allocations-lost ledger counts any committed record
        the log failed to carry over (zero by construction).
        """
        if self.alive or self.standby is None:
            raise ShardUnavailableError(
                f"monitor shard {self.shard_id} has nothing to promote")
        promoted = self.standby
        self.standby = None
        if promoted.now_ns < now_ns:
            promoted.advance_time(now_ns - promoted.now_ns)
        stale = set(promoted.dead_nodes())
        for node_id in self.nodes:
            if node_id in stale:
                continue
            promoted.ingest_heartbeat(
                self._members[node_id].heartbeat(promoted.now_ns))
        crashed_ids = {record.allocation_id
                       for record in self.primary.rat.active()}
        replicated_ids = {record.allocation_id
                          for record in promoted.rat.active()}
        self.allocations_recovered += len(crashed_ids & replicated_ids)
        self.allocations_lost += len(crashed_ids - replicated_ids)
        self.primary = promoted
        self.alive = True
        latency = now_ns - (self.crashed_at_ns or now_ns)
        self.failover_latency_ns.append(latency)
        self.crashed_at_ns = None
        for allocation_id in self.pending_releases:
            if self._release_by_id(promoted, allocation_id):
                self.releases_recovered += 1
            else:
                self.release_misses += 1
        self.pending_releases = []
        self.promotions += 1
        return latency

    @staticmethod
    def _release_by_id(monitor: MonitorNode, allocation_id: int) -> bool:
        for record in monitor.rat.active():
            if record.allocation_id == allocation_id:
                monitor.release(Allocation(record=record, donor=record.donor,
                                           amount=record.amount, hops=0))
                return True
        return False

    def rejoin_standby(self) -> None:
        """Rebuild the standby from the current primary's books.

        The crashed ex-primary's host rejoins as the new standby after
        its outage: agents re-register (their heartbeats rebuild the
        RRT/TST) and the active RAT is copied as the new replication
        base.  No-op when a standby already exists.
        """
        self._require_alive()
        if self.standby is not None:
            return
        standby = self._fresh_monitor()
        standby.advance_time(self.primary.now_ns)
        for node_id in sorted(self._foreign):
            standby.adopt_agent(self._foreign[node_id])
        for node_id in self.nodes:
            standby.register_agent(self._members[node_id])
        for record in sorted(self.primary.rat.active(),
                             key=lambda rec: rec.allocation_id):
            standby.rat.add(replace(record))
        self.standby = standby
        self.standbys_rebuilt += 1


# ----------------------------------------------------------------------
# Aggregate table views
# ----------------------------------------------------------------------
class _ShardedRRT:
    """Fleet-wide RRT view: routes writes, merges reads across shards."""

    def __init__(self, coordinator: "ShardCoordinator"):
        self._coordinator = coordinator

    def get(self, node_id: int, kind: ResourceKind) -> Optional[ResourceRecord]:
        shard = self._coordinator.shard_for_node(node_id, strict=False)
        if shard is None:
            return None
        return shard.live.rrt.get(node_id, kind)

    def register(self, record: ResourceRecord) -> None:
        shard = self._coordinator.shard_for_node(record.node_id)
        for monitor in shard.replicas():
            monitor.rrt.register(record)

    def records_of_kind(self, kind: ResourceKind) -> List[ResourceRecord]:
        records: List[ResourceRecord] = []
        for shard in self._coordinator.shards:
            records.extend(shard.live.rrt.records_of_kind(kind))
        return sorted(records, key=lambda record: record.node_id)

    def total_available(self, kind: ResourceKind) -> int:
        return sum(record.available for record in self.records_of_kind(kind))

    def nodes(self) -> List[int]:
        seen: Set[int] = set()
        for shard in self._coordinator.shards:
            seen.update(shard.live.rrt.nodes())
        return sorted(seen)

    def stale_nodes(self, now_ns: int, timeout_ns: int) -> List[int]:
        stale: Set[int] = set()
        for shard in self._coordinator.shards:
            stale.update(shard.live.rrt.stale_nodes(now_ns, timeout_ns))
        return sorted(stale)


class _ShardedRAT:
    """Fleet-wide RAT view: merges shard books, routes releases."""

    def __init__(self, coordinator: "ShardCoordinator"):
        self._coordinator = coordinator

    def active(self) -> List[AllocationRecord]:
        records: List[AllocationRecord] = []
        for shard in self._coordinator.shards:
            records.extend(shard.live.rat.active())
        return sorted(records, key=lambda record: record.allocation_id)

    def active_for_requester(self, requester: int) -> List[AllocationRecord]:
        return [record for record in self.active()
                if record.requester == requester]

    def active_for_donor(self, donor: int) -> List[AllocationRecord]:
        return [record for record in self.active()
                if record.donor == donor]

    def allocated_amount(self, donor: int, kind: ResourceKind) -> int:
        shard = self._coordinator.shard_for_node(donor, strict=False)
        if shard is None:
            return 0
        return shard.live.rat.allocated_amount(donor, kind)

    def release(self, allocation_id: int) -> AllocationRecord:
        for shard in self._coordinator.shards:
            for record in shard.live.rat.active():
                if record.allocation_id == allocation_id:
                    released = shard.rat_release(allocation_id)
                    self._coordinator.unmatch_commit(allocation_id)
                    return released
        raise KeyError(f"allocation {allocation_id} is not active")


class _ShardedTST:
    """Fleet-wide TST view: fans reports out, merges status reads."""

    def __init__(self, coordinator: "ShardCoordinator"):
        self._coordinator = coordinator
        self._master = TopologyStatusTable()

    def report(self, node_a: int, node_b: int, status: LinkStatus,
               now_ns: int = 0) -> None:
        self._master.report(node_a, node_b, status, now_ns=now_ns)
        for shard in self._coordinator.shards:
            for monitor in shard.replicas():
                monitor.tst.report(node_a, node_b, status, now_ns=now_ns)

    def _known(self) -> Dict[Tuple[int, int], LinkStatus]:
        # Shards first, master (externally reported faults) wins ties.
        merged: Dict[Tuple[int, int], LinkStatus] = {}
        for shard in self._coordinator.shards:
            for node_a, node_b, status in shard.live.tst.links():
                merged[(node_a, node_b)] = status
        for node_a, node_b, status in self._master.links():
            merged[(node_a, node_b)] = status
        return merged

    def status(self, node_a: int, node_b: int) -> LinkStatus:
        key = (node_a, node_b) if node_a <= node_b else (node_b, node_a)
        return self._known().get(key, LinkStatus.DOWN)

    def is_usable(self, node_a: int, node_b: int) -> bool:
        return self.status(node_a, node_b) in (LinkStatus.UP,
                                               LinkStatus.DEGRADED)

    def links(self) -> List[Tuple[int, int, LinkStatus]]:
        merged = self._known()
        return [(node_a, node_b, merged[(node_a, node_b)])
                for node_a, node_b in sorted(merged)]


class ShardCoordinator:
    """Routes requests to owning shards and merges cross-shard plans."""

    def __init__(self, shards: List[MonitorShard], topology: Topology,
                 policy: DonorSelectionPolicy, mn_service_ns: int,
                 route_ns: int, spill_forward_ns: int):
        self.shards = shards
        self.topology = topology
        self.policy = policy
        #: Modelled serial planning cost per request on one shard.
        self.mn_service_ns = mn_service_ns
        #: Modelled coordinator routing cost per request.
        self.route_ns = route_ns
        #: Modelled cost of forwarding one cross-leaf spill segment.
        self.spill_forward_ns = spill_forward_ns
        self._shard_of: Dict[int, int] = {}  # simlint: disable=SIM006 -- one entry per compute node, fixed at build
        for shard in shards:
            for node in shard.nodes:
                self._shard_of[node] = shard.shard_id
        self._inflight: Dict[int, _InflightTicket] = {}  # simlint: disable=SIM006 -- drained on completion/replay
        # Coordinator ledger.
        self.requests_routed = 0
        self.spill_forwards = 0
        self.requests_planned = 0
        self.tickets_completed = 0
        self.tickets_replayed = 0
        self.replayed_chunks_unwound = 0
        self.last_plan_makespan_ns = 0
        self.total_plan_makespan_ns = 0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_for_node(self, node_id: int,
                       strict: bool = True) -> Optional[MonitorShard]:
        index = self._shard_of.get(node_id)
        if index is None:
            if strict:
                raise AllocationError(
                    f"node {node_id} is not owned by any monitor shard")
            return None
        return self.shards[index]

    def require_quorum(self) -> None:
        """Batch planning needs every shard's primary up."""
        down = [shard.shard_id for shard in self.shards if not shard.alive]
        if down:
            raise ShardUnavailableError(
                f"monitor shard(s) {down} have no live primary; "
                "batch planning waits for failover")

    # ------------------------------------------------------------------
    # Cross-shard batch planning
    # ------------------------------------------------------------------
    def _availability(self) -> Dict[int, Dict[int, int]]:
        """Working copy of advertised idle memory, per shard."""
        available: Dict[int, Dict[int, int]] = {}
        for shard in self.shards:
            if not shard.alive:
                continue
            available[shard.shard_id] = {
                record.node_id: record.available
                for record in shard.live.rrt.records_of_kind(
                    ResourceKind.MEMORY)
            }
        return available

    def _foreign_candidates(self, requester: int, home: int,
                            available: Dict[int, Dict[int, int]],
                            minimum: int) -> List[ResourceRecord]:
        """Foreign-shard memory records with working availability."""
        candidates: List[ResourceRecord] = []
        for shard in self.shards:
            if shard.shard_id == home or shard.shard_id not in available:
                continue
            shard_avail = available[shard.shard_id]
            for record in shard.live.rrt.records_of_kind(ResourceKind.MEMORY):
                if (record.node_id != requester
                        and shard_avail.get(record.node_id, 0) >= minimum):
                    candidates.append(record)
        return candidates

    def plan_one(self, requester: int, size_bytes: int,
                 available: Dict[int, Dict[int, int]],
                 rat) -> Tuple[List[tuple], Set[int]]:
        """Plan one request: home shard first, cross-leaf spill after.

        Mirrors the single-MN semantics (one covering donor preferred,
        greedy spill otherwise) with the donor walk widened across
        shards: the home shard's policy-ordered donors are consulted
        first, then foreign donors -- policy-ordered over the merged
        candidate list -- cover a single-donor miss or the remainder.
        Returns ``(plan, shards_used)``; raises
        :class:`AllocationError` on an uncoverable shortfall (working
        copies untouched by the caller on failure).
        """
        home_shard = self.shard_for_node(requester)
        home = home_shard.shard_id
        if home not in available:
            raise ShardUnavailableError(
                f"monitor shard {home} (home of node {requester}) has no "
                "live primary")
        home_avail = available[home]
        home_monitor = home_shard.live
        single = next(
            (record for record
             in home_monitor._eligible_memory_donors(requester, home_avail)
             if home_avail[record.node_id] >= size_bytes),
            None)
        if single is not None:
            return [(single.node_id, size_bytes)], {home}
        # Cross-leaf single donor before any multi-donor split.
        for record in self.policy.order(
                requester, ResourceKind.MEMORY,
                self._foreign_candidates(requester, home, available,
                                         size_bytes),
                self.topology, rat):
            owner = self.shard_for_node(record.node_id)
            if owner.live._donor_eligible(requester, record):
                return [(record.node_id, size_bytes)], {home, owner.shard_id}
        # Greedy spill: drain the home shard, forward the remainder.
        plan, remaining = home_monitor.partial_memory_plan(
            requester, size_bytes, home_avail)
        used: Set[int] = {home}
        if remaining > 0:
            for record in self.policy.order(
                    requester, ResourceKind.MEMORY,
                    self._foreign_candidates(requester, home, available, 1),
                    self.topology, rat):
                if remaining <= 0:
                    break
                owner = self.shard_for_node(record.node_id)
                if not owner.live._donor_eligible(requester, record):
                    continue
                take = min(available[owner.shard_id][record.node_id],
                           remaining)
                if take <= 0:
                    continue
                plan.append((record.node_id, take))
                used.add(owner.shard_id)
                remaining -= take
        if remaining > 0:
            raise AllocationError(
                f"fleet cannot cover {size_bytes} bytes of memory for node "
                f"{requester}: {remaining} bytes short across "
                f"{len(plan)} donors in {len(used)} shard(s)")
        return plan, used

    def plan_batch(self, batch: List[QueuedRequest],
                   rat) -> List[BatchPlanEntry]:
        """Plan a whole batch across shards without double-booking.

        One working availability copy per shard is shared by the whole
        batch, so bytes planned for an earlier ticket -- on any shard --
        are gone for later ones.  Successful plans are registered as
        in-flight tickets for crash replay; the modelled makespan
        (coordinator serial cost + busiest shard) is accumulated for
        the throughput sweeps.
        """
        self.require_quorum()
        available = self._availability()
        busy = {shard.shard_id: 0 for shard in self.shards}
        route_total_ns = 0
        spill_total_ns = 0
        entries: List[BatchPlanEntry] = []
        for request in batch:
            route_total_ns += self.route_ns
            plan, used = self.plan_one(request.requester, request.size_bytes,
                                       available, rat)
            home = self._shard_of[request.requester]
            busy[home] += self.mn_service_ns
            for shard_id in sorted(used - {home}):
                busy[shard_id] += self.mn_service_ns
                spill_total_ns += self.spill_forward_ns
                self.spill_forwards += 1
            for donor, take in plan:
                available[self._shard_of[donor]][donor] -= take
            entries.append(BatchPlanEntry(ticket=request.ticket,
                                          requester=request.requester,
                                          plan=plan))
        for entry, request in zip(entries, batch):
            self._inflight[entry.ticket] = _InflightTicket(
                request=request,
                chunks=[[donor, take, None] for donor, take in entry.plan])
        makespan = (route_total_ns + spill_total_ns
                    + max(busy.values(), default=0))
        self.last_plan_makespan_ns = makespan
        self.total_plan_makespan_ns += makespan
        self.requests_planned += len(batch)
        return entries

    # ------------------------------------------------------------------
    # In-flight ticket tracking (crash replay)
    # ------------------------------------------------------------------
    def match_commit(self, requester: int, donor: int, amount: int,
                     allocation_id: int) -> None:
        """Bind a pinned per-chunk allocation to its in-flight ticket."""
        for ticket in sorted(self._inflight):
            entry = self._inflight[ticket]
            if entry.request.requester != requester:
                continue
            for chunk in entry.chunks:
                if (chunk[0] == donor and chunk[1] == amount
                        and chunk[2] is None):
                    chunk[2] = allocation_id
                    return

    def unmatch_commit(self, allocation_id: int) -> None:
        """A chunk's allocation was released (batch unwind)."""
        for ticket in sorted(self._inflight):
            for chunk in self._inflight[ticket].chunks:
                if chunk[2] == allocation_id:
                    chunk[2] = None
                    return

    def complete_ticket(self, ticket: int) -> None:
        if self._inflight.pop(ticket, None) is not None:
            self.tickets_completed += 1

    def replay_inflight(self) -> List[QueuedRequest]:
        """Re-queue every unconfirmed ticket exactly once (post-promotion).

        Chunks still holding a committed allocation (the caller never
        unwound them) are released through the owning shard first, so
        the replayed plan starts from settled books.  Returns the
        requests in original ticket order; the facade puts them back at
        the head of its queue under their original tickets.
        """
        replayed: List[QueuedRequest] = []
        for ticket in sorted(self._inflight):
            entry = self._inflight[ticket]
            for donor, _amount, allocation_id in entry.chunks:
                if allocation_id is None:
                    continue
                shard = self.shard_for_node(donor)
                if MonitorShard._release_by_id(shard.live, allocation_id):
                    shard._replicate_release(allocation_id, donor)
                    self.replayed_chunks_unwound += 1
            replayed.append(entry.request)
        self._inflight.clear()
        self.tickets_replayed += len(replayed)
        return replayed

    @property
    def inflight_tickets(self) -> List[int]:
        return sorted(self._inflight)


class ShardedMonitor:
    """Drop-in MonitorNode facade over per-leaf replicated shards."""

    def __init__(self, topology: Topology, num_shards: Optional[int] = None,
                 heartbeat_timeout_ns: int = 5_000_000_000,
                 policy: Optional[DonorSelectionPolicy] = None,
                 mn_service_ns: int = 2_000, route_ns: int = 150,
                 spill_forward_ns: int = 400):
        self.topology = topology
        self._policy = policy or DistanceFirstPolicy()
        self._heartbeat_timeout_ns = heartbeat_timeout_ns
        groups = leaf_groups(topology)
        if num_shards is None:
            num_shards = len(groups)
        if num_shards < 1:
            raise ValueError("a sharded monitor needs at least one shard")
        num_shards = min(num_shards, len(groups))
        shards: List[MonitorShard] = []
        for shard_id in range(num_shards):
            # Contiguous leaf groups per shard: leaves i*G/S .. keep
            # same-leaf nodes in one shard so the home shard serves
            # same-leaf donors without forwarding.
            nodes: List[int] = []
            for index, group in enumerate(groups):
                if index * num_shards // len(groups) == shard_id:
                    nodes.extend(group)
            shards.append(MonitorShard(shard_id, topology, nodes,
                                       self._policy, heartbeat_timeout_ns))
        self.coordinator = ShardCoordinator(
            shards, topology, self._policy, mn_service_ns=mn_service_ns,
            route_ns=route_ns, spill_forward_ns=spill_forward_ns)
        self.rrt = _ShardedRRT(self.coordinator)
        self.rat = _ShardedRAT(self.coordinator)
        self.tst = _ShardedTST(self.coordinator)
        self.now_ns = 0
        self.requests_handled = 0
        self._request_queue: List[QueuedRequest] = []
        self._next_ticket = 0

    # ------------------------------------------------------------------
    # Shard topology
    # ------------------------------------------------------------------
    @property
    def shards(self) -> List[MonitorShard]:
        return self.coordinator.shards

    @property
    def num_shards(self) -> int:
        return len(self.coordinator.shards)

    @property
    def shard_ids(self) -> List[int]:
        return [shard.shard_id for shard in self.coordinator.shards]

    def shard_of(self, node_id: int) -> int:
        return self.coordinator.shard_for_node(node_id).shard_id

    # ------------------------------------------------------------------
    # MonitorNode facade: knobs
    # ------------------------------------------------------------------
    @property
    def policy(self) -> DonorSelectionPolicy:
        return self._policy

    @policy.setter
    def policy(self, value: DonorSelectionPolicy) -> None:
        self._policy = value
        self.coordinator.policy = value
        for shard in self.coordinator.shards:
            shard.policy = value
            for monitor in shard.replicas():
                monitor.policy = value

    @property
    def heartbeat_timeout_ns(self) -> int:
        return self._heartbeat_timeout_ns

    @heartbeat_timeout_ns.setter
    def heartbeat_timeout_ns(self, value: int) -> None:
        self._heartbeat_timeout_ns = value
        for shard in self.coordinator.shards:
            shard.heartbeat_timeout_ns = value
            for monitor in shard.replicas():
                monitor.heartbeat_timeout_ns = value

    # ------------------------------------------------------------------
    # MonitorNode facade: registration / heartbeats / time
    # ------------------------------------------------------------------
    def register_agent(self, agent: NodeAgent) -> None:
        """Register with the owning shard; other shards adopt the agent."""
        owner = self.coordinator.shard_for_node(agent.node_id)
        for shard in self.coordinator.shards:
            if shard.shard_id == owner.shard_id:
                shard.register_member(agent)
            else:
                shard.adopt_foreign(agent)

    @property
    def registered_nodes(self) -> List[int]:
        nodes: List[int] = []
        for shard in self.coordinator.shards:
            nodes.extend(sorted(shard._members))
        return sorted(nodes)

    def agent(self, node_id: int) -> NodeAgent:
        return self.coordinator.shard_for_node(node_id).live.agent(node_id)

    def advance_time(self, delta_ns: int) -> None:
        if delta_ns < 0:
            raise ValueError("time cannot move backwards")
        self.now_ns += delta_ns
        for shard in self.coordinator.shards:
            shard.advance_time(delta_ns)

    def ingest_heartbeat(self, report: HeartbeatReport) -> None:
        self.coordinator.shard_for_node(report.node_id).ingest_heartbeat(
            report)

    def ingest_agent_heartbeat(self, agent: NodeAgent,
                               now_ns: Optional[int] = None) -> None:
        self.coordinator.shard_for_node(agent.node_id).ingest_agent_heartbeat(
            agent, self.now_ns if now_ns is None else now_ns)

    def collect_heartbeats(self) -> None:
        for node_id in self.registered_nodes:
            shard = self.coordinator.shard_for_node(node_id)
            shard.ingest_agent_heartbeat(shard._members[node_id],
                                         self.now_ns)

    def dead_nodes(self) -> List[int]:
        dead: Set[int] = set()
        for shard in self.coordinator.shards:
            dead.update(shard.live.dead_nodes())
        return sorted(dead)

    def reconcile_orphaned_releases(self, node_id: int) -> int:
        return self.coordinator.shard_for_node(
            node_id).reconcile_orphaned_releases(node_id)

    @property
    def orphaned_releases(self) -> int:
        return sum(monitor.orphaned_releases
                   for shard in self.coordinator.shards
                   for monitor in shard.replicas())

    @property
    def handshake_retries(self) -> int:
        return sum(shard.primary.handshake_retries
                   for shard in self.coordinator.shards)

    # ------------------------------------------------------------------
    # MonitorNode facade: batched request queue
    # ------------------------------------------------------------------
    def queue_memory_request(self, requester: int, size_bytes: int) -> int:
        if self.coordinator.shard_for_node(requester, strict=False) is None:
            raise AllocationError(
                f"requester node {requester} is not registered")
        if size_bytes <= 0:
            raise AllocationError("requested amount must be positive")
        ticket = self._next_ticket
        self._next_ticket += 1
        self._request_queue.append(
            QueuedRequest(ticket=ticket, requester=requester,
                          size_bytes=size_bytes))
        return ticket

    @property
    def queued_requests(self) -> int:
        return len(self._request_queue)

    def dequeue_tickets(self, tickets) -> int:
        drop = set(tickets)
        before = len(self._request_queue)
        self._request_queue = [queued for queued in self._request_queue
                               if queued.ticket not in drop]
        return before - len(self._request_queue)

    def plan_queued_requests(self) -> List[BatchPlanEntry]:
        """Plan the queue across shards (quorum required).

        A crashed shard fails the whole call typed
        (:class:`ShardUnavailableError`) with the queue untouched, so
        callers retry after failover without losing a ticket.  On a
        capacity shortfall the untouched tickets are re-queued exactly
        like the single-instance MN (:class:`BatchPlanError`).
        """
        self.coordinator.require_quorum()
        batch, self._request_queue = self._request_queue, []
        try:
            return self.coordinator.plan_batch(batch, self.rat)
        except ShardUnavailableError:
            self._request_queue = batch + self._request_queue
            raise
        except BatchPlanError:
            raise
        except AllocationError as error:
            failed = self._failed_request(batch, error)
            untouched = [queued for queued in batch
                         if queued.ticket != failed.ticket]
            self._request_queue = untouched + self._request_queue
            raise BatchPlanError(
                f"batched request (ticket {failed.ticket}): {error}",
                failed_request=failed,
                requeued_tickets=[q.ticket for q in untouched],
            ) from None

    @staticmethod
    def _failed_request(batch: List[QueuedRequest],
                        error: AllocationError) -> QueuedRequest:
        # plan_batch raises on the request it was planning; recover it
        # from the message's requester id (deterministic format).
        text = str(error)
        for queued in batch:
            if f"for node {queued.requester}:" in text:
                return queued
        return batch[-1]

    def complete_ticket(self, ticket: int) -> None:
        self.coordinator.complete_ticket(ticket)

    def memory_spill_plan(self, requester: int,
                          size_bytes: int) -> List[tuple]:
        """Cross-shard spill plan against live advertised idle memory."""
        if size_bytes <= 0:
            raise AllocationError("requested amount must be positive")
        plan, _used = self.coordinator.plan_one(
            requester, size_bytes, self.coordinator._availability(), self.rat)
        return plan

    # ------------------------------------------------------------------
    # MonitorNode facade: allocation entry points
    # ------------------------------------------------------------------
    def request_memory(self, requester: int, size_bytes: int,
                       donor: Optional[int] = None) -> Allocation:
        """Route an allocation: pinned by donor's shard, else home-first."""
        self.requests_handled += 1
        if donor is not None:
            shard = self.coordinator.shard_for_node(donor)
            allocation = shard.request_memory(requester, size_bytes,
                                              donor=donor)
            self.coordinator.match_commit(requester, donor, size_bytes,
                                          allocation.record.allocation_id)
            return allocation
        home = self.coordinator.shard_for_node(requester)
        if home.alive:
            try:
                return home.request_memory(requester, size_bytes)
            except ShardUnavailableError:
                raise
            except AllocationError:
                pass
        # Forward cross-leaf: policy-ordered foreign donors, each tried
        # as a pinned request (the owning shard re-validates and walks
        # its own handshake path).
        available = self.coordinator._availability()
        candidates = self.coordinator._foreign_candidates(
            requester, home.shard_id, available, size_bytes)
        for record in self._policy.order(requester, ResourceKind.MEMORY,
                                         candidates, self.topology, self.rat):
            owner = self.coordinator.shard_for_node(record.node_id)
            try:
                return owner.request_memory(requester, size_bytes,
                                            donor=record.node_id)
            except ShardUnavailableError:
                continue
            except AllocationError:
                continue
        raise AllocationError(
            f"no shard has {size_bytes} bytes of memory available for "
            f"node {requester}")

    def _request_unit(self, requester: int, method: str) -> Allocation:
        home = self.coordinator.shard_for_node(requester)
        order = [home] + [shard for shard in self.coordinator.shards
                          if shard.shard_id != home.shard_id]
        refused: Optional[AllocationError] = None
        for shard in order:
            if not shard.alive:
                continue
            try:
                return getattr(shard, method)(requester)
            except ShardUnavailableError:
                continue
            except AllocationError as error:
                refused = error
        raise refused or AllocationError(
            f"no shard could serve {method} for node {requester}")

    def request_accelerator(self, requester: int) -> Allocation:
        self.requests_handled += 1
        return self._request_unit(requester, "request_accelerator")

    def request_nic(self, requester: int) -> Allocation:
        self.requests_handled += 1
        return self._request_unit(requester, "request_nic")

    def release(self, allocation: Allocation) -> None:
        """Route a release to the donor's shard (buffered while down)."""
        shard = self.coordinator.shard_for_node(allocation.record.donor)
        shard.release(allocation)
        self.coordinator.unmatch_commit(allocation.record.allocation_id)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def shard_alive(self, shard_id: int) -> bool:
        return self.coordinator.shards[shard_id].alive

    def has_standby(self, shard_id: int) -> bool:
        return self.coordinator.shards[shard_id].standby is not None

    def crash_primary(self, shard_id: int) -> None:
        """Inject a shard-primary crash (the ``mn_crash`` fault)."""
        self.coordinator.shards[shard_id].crash_primary(self.now_ns)

    def rejoin_standby(self, shard_id: int) -> None:
        self.coordinator.shards[shard_id].rejoin_standby()

    def check_failover(self) -> List[Tuple[int, int]]:
        """Promote every detectable crashed shard (heartbeat-pump hook).

        Returns ``[(shard_id, failover_latency_ns), ...]`` for the
        promotions performed.  After the last promotion the in-flight
        tickets are replayed: re-queued at the head of the batch queue
        under their original tickets, exactly once.
        """
        promoted: List[Tuple[int, int]] = []
        for shard in self.coordinator.shards:
            if not shard.alive and shard.standby is not None:
                latency = shard.promote_standby(self.now_ns)
                promoted.append((shard.shard_id, latency))
        if promoted:
            replayed = self.coordinator.replay_inflight()
            self._request_queue = replayed + self._request_queue
        return promoted

    @property
    def tickets_replayed(self) -> int:
        return self.coordinator.tickets_replayed

    @property
    def allocations_lost(self) -> int:
        return sum(shard.allocations_lost for shard in self.coordinator.shards)

    @property
    def allocations_recovered(self) -> int:
        return sum(shard.allocations_recovered
                   for shard in self.coordinator.shards)

    @property
    def failover_latency_ns(self) -> Dict[int, List[int]]:
        return {shard.shard_id: list(shard.failover_latency_ns)
                for shard in self.coordinator.shards
                if shard.failover_latency_ns}

    def ledger_balanced(self) -> bool:
        """Every donor's agent ledger matches the fleet's active RAT."""
        donated: Dict[int, int] = {}
        for record in self.rat.active():
            if record.kind is ResourceKind.MEMORY:
                donated[record.donor] = (donated.get(record.donor, 0)
                                         + record.amount)
        for node_id in self.registered_nodes:
            agent = self.agent(node_id)
            if agent.donated_bytes != donated.get(node_id, 0):
                return False
        return True

    def stats_dict(self) -> Dict[str, object]:
        """Canonical (JSON-serialisable) shard/failover snapshot."""
        coordinator = self.coordinator
        return {
            "num_shards": self.num_shards,
            "shard_nodes": {str(shard.shard_id): list(shard.nodes)
                            for shard in coordinator.shards},
            "requests_handled": self.requests_handled,
            "requests_planned": coordinator.requests_planned,
            "spill_forwards": coordinator.spill_forwards,
            "tickets_completed": coordinator.tickets_completed,
            "tickets_replayed": coordinator.tickets_replayed,
            "replayed_chunks_unwound": coordinator.replayed_chunks_unwound,
            "total_plan_makespan_ns": coordinator.total_plan_makespan_ns,
            "crashes": sum(shard.crashes for shard in coordinator.shards),
            "promotions": sum(shard.promotions
                              for shard in coordinator.shards),
            "standbys_rebuilt": sum(shard.standbys_rebuilt
                                    for shard in coordinator.shards),
            "commits_replicated": sum(shard.commits_replicated
                                      for shard in coordinator.shards),
            "releases_recovered": sum(shard.releases_recovered
                                      for shard in coordinator.shards),
            "release_misses": sum(shard.release_misses
                                  for shard in coordinator.shards),
            "allocations_recovered": self.allocations_recovered,
            "allocations_lost": self.allocations_lost,
            "failover_latency_ns": {
                str(shard_id): latencies for shard_id, latencies
                in sorted(self.failover_latency_ns.items())},
            "orphaned_releases": self.orphaned_releases,
        }
