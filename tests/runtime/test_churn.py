"""Churn engine: campaign determinism, apply/heal, detection latency.

The campaign generator must be a pure function of ``(config, topology)``
-- same seed, same faults, on any machine and either dispatch core --
and the engine must leave the fabric clean whenever it stops: every
fault it applied is healed, every timer it installed is cancelled.
Detection is *measured*: a crashed node is found by the heartbeat pump
within one timeout plus a couple of pump periods, never instantly.
"""

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.fabric.topology import build_fat_tree, build_star
from repro.runtime.churn import (
    ChurnConfig,
    ChurnEngine,
    FaultKind,
    generate_campaign,
)
from repro.runtime.fault import FaultHandler
from repro.runtime.tables import LinkStatus
from repro.sim import engine


def _cluster(num_nodes=4, topology="star"):
    return Cluster(ClusterConfig(
        num_nodes=num_nodes, topology=topology,
        transport_backend="event"))


def _engine(cluster, config):
    transport = cluster.event_transport()
    handler = FaultHandler(cluster.monitor)
    return ChurnEngine(transport, cluster.monitor, handler, config)


# ----------------------------------------------------------------------
# Campaign generation
# ----------------------------------------------------------------------
def test_campaign_is_deterministic_for_a_seed():
    topology = build_fat_tree(8, leaf_radix=4, num_spines=2)
    config = ChurnConfig(seed=7, link_flaps=3, router_failures=2)
    assert generate_campaign(config, topology) == \
        generate_campaign(config, topology)


def test_campaign_changes_with_the_seed():
    topology = build_fat_tree(8, leaf_radix=4, num_spines=2)
    first = generate_campaign(ChurnConfig(seed=1), topology)
    second = generate_campaign(ChurnConfig(seed=2), topology)
    assert first != second


def test_campaign_counts_and_bounds():
    topology = build_star(4)
    config = ChurnConfig(seed=3, link_flaps=4, router_failures=2,
                         node_crashes=2, horizon_ns=1_000_000)
    campaign = generate_campaign(config, topology)
    kinds = [event.kind for event in campaign]
    assert kinds.count(FaultKind.LINK_FLAP) == 4
    assert kinds.count(FaultKind.ROUTER_FAIL) == 2
    assert kinds.count(FaultKind.NODE_CRASH) == 2
    # Sorted by injection time; every injection inside the horizon.
    assert campaign == sorted(campaign,
                              key=lambda event: (event.at_ns, event.index))
    assert all(0 < event.at_ns <= config.horizon_ns for event in campaign)
    # One crash per node per campaign.
    crashed = [event.target[0] for event in campaign
               if event.kind is FaultKind.NODE_CRASH]
    assert len(crashed) == len(set(crashed))
    assert all(node in topology.compute_nodes for node in crashed)


def test_campaign_crashes_cap_at_the_fleet_size():
    topology = build_star(4)
    config = ChurnConfig(link_flaps=0, router_failures=0, node_crashes=99)
    campaign = generate_campaign(config, topology)
    assert len(campaign) == len(topology.compute_nodes)


def test_churn_config_validates():
    with pytest.raises(ValueError):
        ChurnConfig(horizon_ns=0)
    with pytest.raises(ValueError):
        ChurnConfig(link_flaps=-1)
    with pytest.raises(ValueError):
        ChurnConfig(flap_duration_ns=0)
    with pytest.raises(ValueError):
        ChurnConfig(heartbeat_timeout_ns=100, heartbeat_period_ns=100)


# ----------------------------------------------------------------------
# Engine apply / heal lifecycle
# ----------------------------------------------------------------------
def test_engine_applies_and_heals_the_whole_campaign():
    cluster = _cluster()
    config = ChurnConfig(seed=5, horizon_ns=2_000_000, link_flaps=2,
                         router_failures=1, node_crashes=1,
                         flap_duration_ns=300_000, router_down_ns=300_000,
                         crash_down_ns=600_000)
    engine = _engine(cluster, config)
    engine.start()
    sim = engine.sim
    sim.run(until=4_000_000)
    engine.stop()
    sim.run_until_idle()
    assert engine.flaps_applied == 2
    assert engine.routers_failed == 1
    assert engine.nodes_crashed == 1
    assert engine.heals_applied == 4
    # The fabric is clean: every link and switch back admin-up.
    transport = cluster.event_transport()
    assert all(link.admin_up for link in transport.fabric.links.values())
    assert all(switch.admin_up
               for switch in transport.fabric.switches.values())


def test_stop_heals_outstanding_faults_early():
    cluster = _cluster()
    config = ChurnConfig(seed=5, horizon_ns=2_000_000, link_flaps=2,
                         router_failures=1, node_crashes=1,
                         flap_duration_ns=300_000, router_down_ns=300_000,
                         crash_down_ns=600_000)
    engine = _engine(cluster, config)
    engine.start()
    sim = engine.sim
    # Stop at the first injection: its heal is still scheduled, so the
    # fault is outstanding and stop() must heal it on the spot.
    first = engine.campaign[0]
    sim.run(until=first.at_ns + 1)
    assert (engine.flaps_applied + engine.routers_failed
            + engine.nodes_crashed) >= 1
    engine.stop()
    transport = cluster.event_transport()
    assert all(link.admin_up for link in transport.fabric.links.values())
    assert all(switch.admin_up
               for switch in transport.fabric.switches.values())
    assert not engine._down_links and not engine._down_routers
    assert not engine._crashed
    # All engine timers were cancelled: the queue drains.
    sim.run_until_idle()


def test_link_flap_reaches_the_tst_and_the_agents():
    cluster = _cluster()
    config = ChurnConfig(seed=5, horizon_ns=2_000_000, link_flaps=1,
                         router_failures=0, node_crashes=0,
                         flap_duration_ns=500_000)
    engine = _engine(cluster, config)
    engine.start()
    sim = engine.sim
    flap = engine.campaign[0]
    node_a, node_b = flap.target
    sim.run(until=flap.at_ns + 1)
    assert cluster.monitor.tst.status(node_a, node_b) is LinkStatus.DOWN
    # Heartbeats during the outage must not heal the TST entry: the
    # endpoint agents' link views were synced with the fault.
    for node in cluster.monitor.registered_nodes:
        cluster.monitor.ingest_heartbeat(
            cluster.monitor.agent(node).heartbeat(cluster.monitor.now_ns))
    assert cluster.monitor.tst.status(node_a, node_b) is LinkStatus.DOWN
    sim.run(until=flap.at_ns + flap.duration_ns + 1)
    assert cluster.monitor.tst.status(node_a, node_b) is LinkStatus.UP
    engine.stop()


# ----------------------------------------------------------------------
# Heartbeat detection on the simulated clock
# ----------------------------------------------------------------------
def _crash_only_config():
    return ChurnConfig(seed=9, horizon_ns=2_000_000, link_flaps=0,
                       router_failures=0, node_crashes=1,
                       crash_down_ns=5_000_000,
                       heartbeat_period_ns=100_000,
                       heartbeat_timeout_ns=400_000)


def test_crash_detected_within_heartbeat_bounds_with_traffic_in_flight():
    cluster = _cluster(num_nodes=8, topology="fat_tree")
    config = _crash_only_config()
    detected = []
    transport = cluster.event_transport()
    handler = FaultHandler(cluster.monitor)
    engine = ChurnEngine(
        transport, cluster.monitor, handler, config,
        on_node_failure=lambda node, plan: detected.append((node, plan)))
    engine.start()
    sim = engine.sim
    crash = engine.campaign[0]
    (victim,) = crash.target
    # Keep reads in flight across the crash window so detection is
    # measured against a busy fabric, not an idle queue.
    pairs = [(src, dst) for src in cluster.node_ids[:4]
             for dst in cluster.node_ids[4:]
             if victim not in (src, dst)]
    while sim.now < crash.at_ns + config.heartbeat_timeout_ns \
            + 3 * config.heartbeat_period_ns:
        ops = [cluster.crma_channel(src, dst).submit_read(
                   64, deadline_ns=300_000) for src, dst in pairs[:3]]
        transport.drive_all(ops)
        sim.run(until=sim.now + config.heartbeat_period_ns)
    assert [node for node, _plan in detected] == [victim]
    latency = engine.detection_latency_ns[victim]
    # The victim's last heartbeat is at most one pump period before the
    # crash; the sweep that finds it runs on period boundaries.
    assert config.heartbeat_timeout_ns - config.heartbeat_period_ns \
        <= latency <= config.heartbeat_timeout_ns \
        + 3 * config.heartbeat_period_ns
    engine.stop()
    sim.run_until_idle()


def test_detection_fires_the_failure_hook_exactly_once():
    cluster = _cluster(num_nodes=8, topology="fat_tree")
    config = _crash_only_config()
    calls = []
    engine = ChurnEngine(
        cluster.event_transport(), cluster.monitor,
        FaultHandler(cluster.monitor), config,
        on_node_failure=lambda node, plan: calls.append(node))
    engine.start()
    sim = engine.sim
    # Run long past detection: many more pump rounds follow the sweep
    # that found the crash, none of which may re-fire the hook.
    sim.run(until=engine.campaign[0].at_ns
            + config.heartbeat_timeout_ns + 10 * config.heartbeat_period_ns)
    assert len(calls) == 1
    assert engine.stats_dict()["recovery_plans"].count(
        f"node{calls[0]}-failure") == 1
    engine.stop()
    sim.run_until_idle()


# ----------------------------------------------------------------------
# Cross-core determinism of the engine itself
# ----------------------------------------------------------------------
def _campaign_outcome():
    cluster = _cluster(num_nodes=8, topology="fat_tree")
    config = ChurnConfig(seed=13, horizon_ns=2_000_000, link_flaps=2,
                         router_failures=1, node_crashes=1,
                         flap_duration_ns=300_000, router_down_ns=300_000,
                         crash_down_ns=900_000,
                         heartbeat_period_ns=100_000,
                         heartbeat_timeout_ns=400_000)
    engine = _engine(cluster, config)
    engine.start()
    engine.sim.run(until=4_000_000)
    engine.stop()
    engine.sim.run_until_idle()
    return engine.stats_dict()


@pytest.mark.skipif(engine._load_ccore() is None,
                    reason="compiled dispatch core not built "
                           "(python -m repro.sim._ccore_build)")
def test_engine_stats_identical_across_cores(monkeypatch):
    monkeypatch.setenv("SIM_CORE", "py")
    pure = _campaign_outcome()
    monkeypatch.setenv("SIM_CORE", "c")
    assert _campaign_outcome() == pure


# ----------------------------------------------------------------------
# Monitor-shard crashes (mn_crash)
# ----------------------------------------------------------------------
def test_mn_crash_campaign_is_deterministic_and_covers_each_shard_once():
    topology = build_fat_tree(16, leaf_radix=4, num_spines=2)
    config = ChurnConfig(seed=11, mn_crashes=4, link_flaps=0,
                         router_failures=0, node_crashes=0)
    first = generate_campaign(config, topology, shard_ids=[0, 1, 2, 3])
    second = generate_campaign(config, topology, shard_ids=[0, 1, 2, 3])
    assert first == second
    crashes = [event for event in first if event.kind is FaultKind.MN_CRASH]
    assert len(crashes) == 4
    # One crash per shard: no shard is double-crashed in one campaign.
    assert sorted(shard for event in crashes
                  for shard in event.target) == [0, 1, 2, 3]


def test_mn_crash_requires_shard_ids():
    topology = build_fat_tree(8, leaf_radix=4, num_spines=2)
    config = ChurnConfig(seed=3, mn_crashes=2, link_flaps=0,
                         router_failures=0, node_crashes=0)
    # Without a sharded monitor there is nothing to crash.
    campaign = generate_campaign(config, topology)
    assert [e for e in campaign if e.kind is FaultKind.MN_CRASH] == []


def test_churn_config_validates_mn_crash_down():
    with pytest.raises(ValueError):
        ChurnConfig(mn_crashes=-1)
    with pytest.raises(ValueError):
        ChurnConfig(mn_crashes=1, mn_crash_down_ns=0)


def test_engine_crashes_promotes_and_rejoins_monitor_shards():
    cluster = Cluster(ClusterConfig(
        num_nodes=8, topology="fat_tree", monitor_shards=2,
        transport_backend="event"))
    monitor = cluster.monitor
    shares = [share for batch in cluster.matchmaker.borrow_many(
        [(node, 1024 * 1024) for node in cluster.node_ids])
        for share in batch]
    config = ChurnConfig(seed=9, horizon_ns=3_000_000, link_flaps=0,
                         router_failures=0, node_crashes=0,
                         mn_crashes=2, mn_crash_down_ns=800_000)
    engine = _engine(cluster, config)
    engine.start()
    sim = engine.sim
    sim.run(until=6_000_000)
    engine.stop()
    sim.run_until_idle()
    assert engine.mn_crashes_applied == 2
    # Every crashed primary was detected by the pump and its standby
    # promoted, with a measured (positive) failover latency.
    assert sorted(engine.mn_failover_ns) == [0, 1]
    assert all(latency > 0 for latency in engine.mn_failover_ns.values())
    assert engine.mn_standbys_rejoined == 2
    assert all(monitor.shard_alive(shard_id)
               for shard_id in monitor.shard_ids)
    assert all(monitor.has_standby(shard_id)
               for shard_id in monitor.shard_ids)
    # No allocation was lost across the failovers.
    assert monitor.allocations_lost == 0
    for share in reversed(shares):
        cluster.matchmaker.release(share)
    assert monitor.rat.active() == []
    assert monitor.ledger_balanced()
    stats = engine.stats_dict()
    assert stats["mn_crashes_applied"] == 2
    assert stats["mn_standbys_rejoined"] == 2
    assert set(stats["mn_failover_ns"]) == {"0", "1"}
