"""Sharded, replicated Monitor Node: partitioning, failover, replay.

The sharded MN must partition the runtime tables by fat-tree leaf,
plan batches across shards without double-booking, replicate every
commit to the standby, surface a crashed primary as a typed
:class:`ShardUnavailableError` (queue intact), promote the standby
with exactly-once replay of in-flight batch tickets, buffer releases
that arrive while the shard is down, and keep the fleet's donor byte
ledgers balanced through all of it -- including mid-batch crashes in
both windows (between queue and plan; between plan and execution) on
a sanitized event-backed cluster.
"""

import json

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.fabric.topology import build_fat_tree, build_star
from repro.runtime.agent import NodeAgent
from repro.runtime.monitor import AllocationError
from repro.runtime.shard import (
    ShardedMonitor,
    ShardUnavailableError,
    leaf_groups,
)
from repro.runtime.tables import ResourceKind

MB = 1024 * 1024
GB = 1024 * MB


def make_sharded(num_nodes=8, num_shards=2, capacity=1 * GB,
                 leaf_radix=4):
    topology = build_fat_tree(num_nodes, leaf_radix=leaf_radix)
    monitor = ShardedMonitor(topology, num_shards=num_shards)
    for node_id in topology.compute_nodes:
        agent = NodeAgent(node_id=node_id, memory_capacity_bytes=capacity,
                          neighbors=tuple(topology.neighbors(node_id)))
        monitor.register_agent(agent)
    monitor.collect_heartbeats()
    return monitor


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
def test_leaf_groups_partition_the_fat_tree():
    topology = build_fat_tree(16, leaf_radix=4)
    groups = leaf_groups(topology)
    assert len(groups) == 4
    assert sorted(node for group in groups for node in group) == list(range(16))
    assert all(len(group) == 4 for group in groups)


def test_shard_count_is_clamped_to_the_leaf_count():
    topology = build_fat_tree(8, leaf_radix=4)
    assert ShardedMonitor(topology, num_shards=64).num_shards == 2
    assert ShardedMonitor(topology, num_shards=1).num_shards == 1
    # Default: one shard per leaf.
    assert ShardedMonitor(topology).num_shards == 2


def test_every_node_is_owned_by_exactly_one_shard():
    monitor = make_sharded(num_nodes=16, num_shards=4)
    owners = {node: monitor.shard_of(node) for node in range(16)}
    assert set(owners.values()) == set(monitor.shard_ids)
    for shard in monitor.shards:
        members = [node for node, owner in owners.items()
                   if owner == shard.shard_id]
        # A shard's primary RRT advertises exactly its own members.
        assert shard.live.rrt.nodes() == sorted(members)


def test_star_topology_collapses_to_a_single_shard():
    topology = build_star(4)
    monitor = ShardedMonitor(topology, num_shards=4)
    assert monitor.num_shards == 1


# ----------------------------------------------------------------------
# Routing and cross-shard planning
# ----------------------------------------------------------------------
def test_requests_spill_to_foreign_shards_when_home_is_dry():
    monitor = make_sharded(num_nodes=8, num_shards=2)
    # Drain the requester's whole home leaf (nodes 0-3 share shard 0).
    for node in range(4):
        agent = monitor.agent(node)
        agent.set_local_usage(agent.memory_capacity_bytes)
    monitor.collect_heartbeats()
    allocation = monitor.request_memory(0, 64 * MB)
    assert monitor.shard_of(allocation.donor) != monitor.shard_of(0)
    monitor.release(allocation)
    assert monitor.rat.active() == []


def test_batch_plan_never_double_books_across_shards():
    monitor = make_sharded(num_nodes=8, num_shards=2, capacity=1 * GB)
    for node in range(8):
        agent = monitor.agent(node)
        agent.set_local_usage(agent.memory_capacity_bytes - 100 * MB)
    monitor.collect_heartbeats()
    for requester in range(6):
        monitor.queue_memory_request(requester, 100 * MB)
    entries = monitor.plan_queued_requests()
    booked = {}
    for entry in entries:
        for donor, take in entry.plan:
            assert donor != entry.requester
            booked[donor] = booked.get(donor, 0) + take
    assert all(amount <= 100 * MB for amount in booked.values())


def test_batch_plan_requeues_untouched_tickets_on_shortfall():
    monitor = make_sharded(num_nodes=8, num_shards=2)
    for node in range(8):
        agent = monitor.agent(node)
        agent.set_local_usage(agent.memory_capacity_bytes - 100 * MB)
    monitor.collect_heartbeats()
    ok = monitor.queue_memory_request(0, 50 * MB)
    bad = monitor.queue_memory_request(1, 10 * GB)
    later = monitor.queue_memory_request(2, 50 * MB)
    with pytest.raises(AllocationError):
        monitor.plan_queued_requests()
    # The failed request is dropped; everything else is re-queued in
    # FIFO order and plans cleanly on the next attempt.
    assert monitor.queued_requests == 2
    entries = monitor.plan_queued_requests()
    assert [entry.ticket for entry in entries] == [ok, later]
    assert bad not in [entry.ticket for entry in entries]


# ----------------------------------------------------------------------
# Crash, typed refusal, promotion, exactly-once replay
# ----------------------------------------------------------------------
def test_crash_surfaces_as_typed_error_with_queue_intact():
    monitor = make_sharded(num_nodes=8, num_shards=2)
    monitor.queue_memory_request(0, 8 * MB)
    monitor.queue_memory_request(5, 8 * MB)
    monitor.crash_primary(0)
    assert not monitor.shard_alive(0)
    with pytest.raises(ShardUnavailableError):
        monitor.plan_queued_requests()
    assert monitor.queued_requests == 2
    # Unpinned single requests degrade instead of failing: a foreign
    # shard serves the borrow while the home primary is down.
    allocation = monitor.request_memory(0, 8 * MB)
    assert monitor.shard_alive(monitor.shard_of(allocation.donor))
    # Pinned requests towards the dead shard stay refused, typed.
    with pytest.raises(ShardUnavailableError):
        monitor.request_memory(5, 8 * MB, donor=0)


def test_promotion_replays_inflight_tickets_exactly_once():
    monitor = make_sharded(num_nodes=8, num_shards=2)
    first = monitor.queue_memory_request(0, 8 * MB)
    second = monitor.queue_memory_request(5, 8 * MB)
    entries = monitor.plan_queued_requests()
    assert sorted(monitor.coordinator.inflight_tickets) == [first, second]
    # Primary of shard 0 dies after planning, before execution.
    monitor.crash_primary(0)
    monitor.advance_time(10 * monitor.heartbeat_timeout_ns)
    promoted = monitor.check_failover()
    assert [shard_id for shard_id, _latency in promoted] == [0]
    assert monitor.tickets_replayed == 2
    # The replayed requests are back on the queue under their original
    # tickets, and the in-flight registry is empty (exactly once).
    assert monitor.queued_requests == 2
    assert monitor.coordinator.inflight_tickets == []
    replanned = monitor.plan_queued_requests()
    assert sorted(entry.ticket for entry in replanned) == [first, second]
    # A second failover sweep finds nothing to do.
    assert monitor.check_failover() == []
    assert monitor.tickets_replayed == 2
    for entry in replanned:
        monitor.complete_ticket(entry.ticket)
    assert monitor.coordinator.inflight_tickets == []


def test_committed_chunks_of_replayed_tickets_are_unwound():
    monitor = make_sharded(num_nodes=8, num_shards=2)
    ticket = monitor.queue_memory_request(0, 8 * MB)
    (entry,) = monitor.plan_queued_requests()
    donor, amount = entry.plan[0]
    # The caller executes the first (and only) chunk as a pinned
    # allocation, then the donor's shard primary dies before the
    # ticket completes.
    monitor.request_memory(entry.requester, amount, donor=donor)
    assert monitor.rat.active_for_requester(0) != []
    monitor.crash_primary(monitor.shard_of(donor))
    monitor.advance_time(10 * monitor.heartbeat_timeout_ns)
    monitor.check_failover()
    # The half-committed chunk was released on the promoted standby's
    # books and the donor's byte ledger settled; the request is queued
    # again for a clean re-plan.
    assert monitor.rat.active() == []
    assert monitor.agent(donor).donated_bytes == 0
    assert monitor.coordinator.replayed_chunks_unwound == 1
    assert monitor.queued_requests == 1
    assert monitor.plan_queued_requests()[0].ticket == ticket
    assert monitor.ledger_balanced()


def test_release_while_shard_down_is_buffered_and_recovered():
    monitor = make_sharded(num_nodes=8, num_shards=2)
    allocation = monitor.request_memory(0, 16 * MB)
    donor = allocation.donor
    owner = monitor.shard_of(donor)
    monitor.crash_primary(owner)
    # The borrower returns the bytes while the owning primary is down:
    # the release is buffered, not lost and not silently dropped.
    monitor.release(allocation)
    assert monitor.agent(donor).donated_bytes == 16 * MB
    monitor.advance_time(10 * monitor.heartbeat_timeout_ns)
    monitor.check_failover()
    assert monitor.agent(donor).donated_bytes == 0
    assert monitor.rat.active() == []
    assert monitor.allocations_lost == 0
    assert monitor.ledger_balanced()


def test_standby_rebuilds_after_rejoin_and_survives_a_second_crash():
    monitor = make_sharded(num_nodes=8, num_shards=2)
    allocation = monitor.request_memory(0, 16 * MB)
    shard_id = monitor.shard_of(allocation.donor)
    monitor.crash_primary(shard_id)
    monitor.advance_time(10 * monitor.heartbeat_timeout_ns)
    monitor.check_failover()
    assert monitor.shard_alive(shard_id)
    assert not monitor.has_standby(shard_id)
    monitor.rejoin_standby(shard_id)
    assert monitor.has_standby(shard_id)
    # Crash the promoted primary too: the rebuilt standby must carry
    # the full allocation state forward.
    monitor.crash_primary(shard_id)
    monitor.advance_time(10 * monitor.heartbeat_timeout_ns)
    monitor.check_failover()
    assert monitor.shard_alive(shard_id)
    monitor.release(allocation)
    assert monitor.rat.active() == []
    assert monitor.allocations_lost == 0
    assert monitor.ledger_balanced()


def test_stats_dict_is_canonical_json():
    monitor = make_sharded(num_nodes=8, num_shards=2)
    monitor.request_memory(0, 8 * MB)
    first = json.dumps(monitor.stats_dict(), sort_keys=True)
    second = json.dumps(monitor.stats_dict(), sort_keys=True)
    assert first == second
    assert "allocations_lost" in json.loads(first)


# ----------------------------------------------------------------------
# Mid-batch crash windows on a sanitized event-backed cluster
# ----------------------------------------------------------------------
def _sharded_cluster():
    return Cluster(ClusterConfig(num_nodes=8, topology="fat_tree",
                                 monitor_shards=2,
                                 transport_backend="event",
                                 sanitize=True))


def _audit_clean(cluster):
    monitor = cluster.monitor
    assert monitor.allocations_lost == 0
    assert monitor.rat.active() == []
    assert monitor.ledger_balanced()
    for node_id in cluster.node_ids:
        assert cluster.node(node_id).agent.donated_bytes == 0
    cluster.event_transport().check_packet_lifecycle()


def test_mn_crash_between_queue_and_plan_replays_exactly_once():
    cluster = _sharded_cluster()
    monitor = cluster.monitor
    matchmaker = cluster.matchmaker
    requests = [(node, 1 * MB) for node in cluster.node_ids]
    tickets = matchmaker.queue_requests(requests)
    # Window 1: the primary dies after the batch is queued, before it
    # is planned.
    monitor.crash_primary(0)
    with pytest.raises(ShardUnavailableError):
        matchmaker.plan_queued()
    assert monitor.queued_requests == len(requests)
    monitor.advance_time(10 * monitor.heartbeat_timeout_ns)
    monitor.check_failover()
    # Nothing was in flight yet, so nothing replays -- the queued
    # batch simply plans on the promoted standby.
    assert monitor.tickets_replayed == 0
    batches = matchmaker.borrow_queued()
    planned = [entry for batch in batches for entry in batch]
    assert len(batches) == len(requests)
    assert sorted(t for t in tickets) == sorted(tickets)
    for batch in reversed(batches):
        for share in reversed(batch):
            matchmaker.release(share)
    _audit_clean(cluster)
    assert planned  # the batch really allocated


def test_mn_crash_between_plan_and_allocation_replays_exactly_once():
    cluster = _sharded_cluster()
    monitor = cluster.monitor
    matchmaker = cluster.matchmaker
    requests = [(node, 1 * MB) for node in cluster.node_ids]
    tickets = matchmaker.queue_requests(requests)
    entries = matchmaker.plan_queued()
    assert sorted(monitor.coordinator.inflight_tickets) == sorted(tickets)
    # Window 2: the primary dies after planning, before the per-chunk
    # pinned allocations execute.
    monitor.crash_primary(0)
    with pytest.raises(ShardUnavailableError):
        matchmaker.execute_plan(entries)
    # Partial shares were unwound; the tickets are still in flight.
    assert matchmaker.shares == []
    assert sorted(monitor.coordinator.inflight_tickets) == sorted(tickets)
    monitor.advance_time(10 * monitor.heartbeat_timeout_ns)
    monitor.check_failover()
    assert monitor.tickets_replayed == len(requests)
    assert monitor.coordinator.inflight_tickets == []
    # The replayed batch executes once, under the original tickets.
    batches = matchmaker.borrow_queued()
    assert len(batches) == len(requests)
    assert monitor.tickets_replayed == len(requests)  # not replayed again
    for batch in reversed(batches):
        for share in reversed(batch):
            matchmaker.release(share)
    _audit_clean(cluster)
