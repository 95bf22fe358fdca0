"""Batched matchmaking: MN request queue + borrow_many + touch_shares.

A batch of borrow requests must be planned against shared capacity as a
whole (no donor double-booking), keep the single-donor-then-spill
semantics of the unbatched path, unwind completely on failure, and --
on an event-backed cluster -- drive every borrower's first remote
access concurrently over the fleet fabric.
"""

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.runtime.monitor import AllocationError, BatchPlanError

MB = 1024 * 1024


def _limit_idle_memory(cluster, idle_bytes_by_node):
    """Pin each node's donatable memory by booking local usage."""
    for node_id, idle in idle_bytes_by_node.items():
        agent = cluster.node(node_id).agent
        agent.set_local_usage(agent.memory_capacity_bytes - idle)
    cluster.monitor.collect_heartbeats()


# ----------------------------------------------------------------------
# MN request queue
# ----------------------------------------------------------------------
def test_queue_validates_and_counts():
    cluster = Cluster(ClusterConfig(num_nodes=4, topology="star"))
    monitor = cluster.monitor
    assert monitor.queued_requests == 0
    first = monitor.queue_memory_request(0, 8 * MB)
    second = monitor.queue_memory_request(1, 8 * MB)
    assert second > first
    assert monitor.queued_requests == 2
    with pytest.raises(AllocationError):
        monitor.queue_memory_request(99, 8 * MB)
    with pytest.raises(AllocationError):
        monitor.queue_memory_request(0, 0)
    entries = monitor.plan_queued_requests()
    assert monitor.queued_requests == 0
    assert [entry.ticket for entry in entries] == [first, second]
    assert all(len(entry.plan) == 1 for entry in entries)


def test_plan_drops_only_the_failed_ticket_and_requeues_the_rest():
    cluster = Cluster(ClusterConfig(num_nodes=4, topology="star"))
    _limit_idle_memory(cluster, {n: 10 * MB for n in cluster.node_ids})
    cluster.monitor.queue_memory_request(0, 500 * MB)
    with pytest.raises(AllocationError):
        cluster.monitor.plan_queued_requests()
    # The lone (failed) request is dropped; nothing remains queued.
    assert cluster.monitor.queued_requests == 0


def test_mid_batch_failure_requeues_untouched_tickets():
    # A shortfall halfway through the batch must not eat the whole
    # queue: the failed ticket is dropped, everything else -- including
    # already-planned earlier tickets, whose plans were never executed
    # -- goes back in FIFO order, named in the BatchPlanError.
    cluster = Cluster(ClusterConfig(num_nodes=4, topology="star"))
    _limit_idle_memory(cluster, {n: 100 * MB for n in cluster.node_ids})
    monitor = cluster.monitor
    first = monitor.queue_memory_request(0, 50 * MB)
    doomed = monitor.queue_memory_request(1, 500 * MB)
    last = monitor.queue_memory_request(2, 50 * MB)
    with pytest.raises(BatchPlanError) as excinfo:
        monitor.plan_queued_requests()
    error = excinfo.value
    assert error.failed_ticket == doomed
    assert error.failed_request.requester == 1
    assert error.requeued_tickets == [first, last]
    assert monitor.queued_requests == 2
    # The survivors plan cleanly on retry, in their original order.
    entries = monitor.plan_queued_requests()
    assert [entry.ticket for entry in entries] == [first, last]


def test_borrow_many_retires_requeued_tickets_on_failure():
    # The matchmaker's atomic-batch contract: when its own batch dies
    # mid-plan it retires exactly the tickets the BatchPlanError
    # re-queued, leaving the queue clean for the next caller.
    cluster = Cluster(ClusterConfig(num_nodes=4, topology="star"))
    _limit_idle_memory(cluster, {n: 100 * MB for n in cluster.node_ids})
    with pytest.raises(AllocationError):
        cluster.matchmaker.borrow_many([(0, 50 * MB), (1, 500 * MB),
                                        (2, 50 * MB)])
    assert cluster.monitor.queued_requests == 0
    assert cluster.matchmaker.shares == []
    # A foreign parked request must survive someone else's failure.
    foreign = cluster.monitor.queue_memory_request(3, 8 * MB)
    with pytest.raises(AllocationError):
        cluster.matchmaker.borrow_many([(0, 8 * MB)])
    assert cluster.monitor.queued_requests == 1
    assert cluster.monitor.plan_queued_requests()[0].ticket == foreign


def test_batch_plan_never_double_books_a_donor():
    cluster = Cluster(ClusterConfig(num_nodes=4, topology="star"))
    # Exactly enough fleet capacity: each donor can cover one request.
    _limit_idle_memory(cluster, {n: 100 * MB for n in cluster.node_ids})
    for requester in (0, 1, 2):
        cluster.monitor.queue_memory_request(requester, 100 * MB)
    entries = cluster.monitor.plan_queued_requests()
    donors = [donor for entry in entries for donor, _take in entry.plan]
    # A planner that re-reads stale availability would hand every
    # ticket the same policy favourite; the batch must spread instead.
    assert len(set(donors)) == 3
    for entry in entries:
        assert all(donor != entry.requester for donor, _take in entry.plan)


# ----------------------------------------------------------------------
# borrow_many
# ----------------------------------------------------------------------
def test_borrow_many_returns_aligned_share_lists():
    cluster = Cluster(ClusterConfig(num_nodes=8))
    requests = [(0, 32 * MB), (3, 16 * MB), (5, 8 * MB)]
    batches = cluster.matchmaker.borrow_many(requests)
    assert len(batches) == len(requests)
    for (requester, size), shares in zip(requests, batches):
        assert sum(share.amount for share in shares) == size
        assert all(share.requester == requester for share in shares)
    assert cluster.node(0).borrowed_memory_bytes == 32 * MB
    cluster.matchmaker.release_all()
    assert cluster.matchmaker.shares == []


def test_borrow_many_spills_only_when_no_single_donor_covers():
    cluster = Cluster(ClusterConfig(num_nodes=4, topology="star"))
    _limit_idle_memory(cluster, {n: 64 * MB for n in cluster.node_ids})
    batches = cluster.matchmaker.borrow_many([(0, 32 * MB), (1, 128 * MB)])
    assert len(batches[0]) == 1
    # 128 MB exceeds any single donor's 64 MB: the second request spills.
    assert len(batches[1]) == 2
    assert sum(share.amount for share in batches[1]) == 128 * MB
    with pytest.raises(AllocationError):
        cluster.matchmaker.borrow_many([(2, 80 * MB)], spill=False)


def test_borrow_many_rejects_a_non_empty_request_queue():
    # Planning consumes the whole queue: a foreign parked request would
    # be allocated under this batch's name and misalign the results, so
    # borrow_many must refuse instead.
    cluster = Cluster(ClusterConfig(num_nodes=4, topology="star"))
    cluster.monitor.queue_memory_request(2, 8 * MB)
    with pytest.raises(AllocationError):
        cluster.matchmaker.borrow_many([(0, 8 * MB)])
    # The foreign request is still parked, untouched.
    assert cluster.monitor.queued_requests == 1
    assert cluster.matchmaker.shares == []


def test_batched_and_unbatched_requests_handled_counts_match():
    # Planning is not an allocation: a batched single-donor borrow must
    # bump the MN's request counter exactly as much as the unbatched
    # path does (once per executed chunk).
    batched = Cluster(ClusterConfig(num_nodes=4, topology="star"))
    batched.matchmaker.borrow_many([(0, 8 * MB), (1, 8 * MB)])
    unbatched = Cluster(ClusterConfig(num_nodes=4, topology="star"))
    unbatched.matchmaker.borrow_memory(0, 8 * MB)
    unbatched.matchmaker.borrow_memory(1, 8 * MB)
    assert (batched.monitor.requests_handled
            == unbatched.monitor.requests_handled)


def test_borrow_many_unwinds_the_whole_batch_on_shortfall():
    cluster = Cluster(ClusterConfig(num_nodes=4, topology="star"))
    _limit_idle_memory(cluster, {n: 100 * MB for n in cluster.node_ids})
    # First request is satisfiable, second exceeds the whole fleet.
    with pytest.raises(AllocationError):
        cluster.matchmaker.borrow_many([(0, 50 * MB), (1, 500 * MB)])
    assert cluster.matchmaker.shares == []
    assert cluster.monitor.queued_requests == 0
    for node_id in cluster.node_ids:
        assert cluster.node(node_id).borrowed_memory_bytes == 0
        assert cluster.node(node_id).agent.donated_bytes == 0


# ----------------------------------------------------------------------
# Concurrent first accesses over the fleet fabric
# ----------------------------------------------------------------------
def test_touch_shares_drives_first_accesses_concurrently():
    cluster = Cluster(ClusterConfig(num_nodes=8, topology="fat_tree",
                                    transport_backend="event"))
    batches = cluster.matchmaker.borrow_many(
        [(node, 4 * MB) for node in cluster.node_ids[:4]])
    shares = [share for batch in batches for share in batch]
    transport = cluster.event_transport()
    latencies = cluster.matchmaker.touch_shares(shares)
    assert set(latencies) == set(shares)
    assert all(latency > 0 for latency in latencies.values())
    # One drive_all advanced the shared simulator once for everyone:
    # the makespan is materially below the sum of the access latencies.
    assert transport.sim.now < 0.5 * sum(latencies.values())


def test_event_transport_requires_event_backend():
    cluster = Cluster(ClusterConfig(num_nodes=4, topology="star"))
    with pytest.raises(ValueError):
        cluster.event_transport()
    with pytest.raises(ValueError):
        cluster.cross_traffic()


def test_cluster_cross_traffic_defaults_to_a_compute_ring():
    cluster = Cluster(ClusterConfig(num_nodes=4, topology="star",
                                    transport_backend="event"))
    driver = cluster.cross_traffic(window=1)
    assert sorted(driver.flows) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert cluster.event_transport().contended
    driver.stop()
    cluster.event_transport().drain_quiet()
