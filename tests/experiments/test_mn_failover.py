"""mn_failover experiment: determinism, zero loss, throughput, policy.

The acceptance gates of the sharded-MN PR live here: the failover run
is byte-identical across repeats and across the Python and compiled
dispatch cores for a fixed seed; no allocation is lost across crashes
(with the sanitizer on); the 4-shard coordinator clears the 64-node
batched-borrow sweep at >= 2x the single-MN serial cost; and the
contention-aware policy measurably beats distance-first on the
contended 16-node sweep.
"""

import json

import pytest

from repro.experiments.fig_mn_failover import (
    MnFailoverConfig,
    _run_contention_once,
    _run_failover_once,
    _run_throughput_once,
    mn_failover_stats_dump,
    run_fig_mn_failover,
)
from repro.sim import engine


def _config(**overrides):
    return MnFailoverConfig(**overrides)


def test_failover_run_is_byte_identical_across_repeats():
    first = mn_failover_stats_dump(_config())
    assert mn_failover_stats_dump(_config()) == first


@pytest.mark.skipif(engine._load_ccore() is None,
                    reason="compiled dispatch core not built "
                           "(python -m repro.sim._ccore_build)")
def test_failover_run_is_byte_identical_across_cores(monkeypatch):
    monkeypatch.setenv("SIM_CORE", "py")
    pure = mn_failover_stats_dump(_config())
    monkeypatch.setenv("SIM_CORE", "c")
    assert mn_failover_stats_dump(_config()) == pure


def test_failover_loses_no_allocations_and_balances_the_ledger():
    # Sanitizer on: the packet-lifecycle and conservation checks run
    # against the same fleet the crashes hit.
    run = _run_failover_once(_config(sanitize=True), num_nodes=8,
                             num_shards=2)
    assert run["allocations_lost"] == 0
    assert run["ledger_balanced"] is True
    assert run["active_allocations_at_end"] == 0
    assert run["donated_bytes_at_end"] == 0
    assert run["orphaned_releases"] == 0
    # Both shard primaries crashed; each failover was measured.
    assert run["shards"]["crashes"] == 2
    assert len(run["failover_ns"]) == 2
    assert all(latency > 0 for latency in run["failover_ns"])
    # The mid-batch crash genuinely interrupted work that was then
    # replayed -- the scenario under test, not a quiet run.
    assert run["tickets_replayed"] > 0
    assert run["borrows_ok"] > 0


def test_failover_latency_bounded_by_detection_window():
    config = _config()
    run = _run_failover_once(config, num_nodes=16, num_shards=4)
    # Detection is pump-driven: the latency from crash to promotion is
    # bounded by the heartbeat timeout plus a few pump periods (plus
    # the wave gaps the workload sleeps between phases).
    bound = (config.heartbeat_timeout_ns + 4 * config.heartbeat_period_ns
             + 4 * config.wave_gap_ns)
    assert all(latency <= bound for latency in run["failover_ns"])


def test_four_shard_coordinator_clears_twice_single_mn_throughput():
    single = _run_throughput_once(_config(), num_shards=1)
    quad = _run_throughput_once(_config(), num_shards=4)
    assert quad["requests_planned"] == 64
    assert quad["throughput_x"] >= 2.0
    # Sharding must actually shrink the makespan, not just re-label it.
    assert quad["plan_makespan_ns"] < single["plan_makespan_ns"]


def test_contention_aware_beats_distance_first_when_donors_are_hot():
    config = _config()
    distance = _run_contention_once(config, contention_aware=False)
    aware = _run_contention_once(config, contention_aware=True)
    # Distance-first ties on hops and piles onto the saturated leaf;
    # the telemetry-fed policy routes around it entirely...
    assert distance["hot_donor_shares"] == 8
    assert aware["hot_donor_shares"] == 0
    # ...and that shows up as a measurably lower per-borrower slowdown.
    assert aware["per_borrower_slowdown"] < distance["per_borrower_slowdown"]


def test_report_assembles_all_series():
    report = run_fig_mn_failover(_config(node_counts=(8,),
                                         shard_counts=(1, 2)))
    for series in ("failover_mean_ns", "tickets_replayed",
                   "allocations_lost", "coordinator_throughput_x",
                   "per_borrower_slowdown", "hot_donor_shares"):
        assert series in report.series
    assert all(value == 0 for value
               in report.series["allocations_lost"].values())
    assert report.series["per_borrower_slowdown"]["contention_aware"] < \
        report.series["per_borrower_slowdown"]["distance_first"]


def test_stats_dump_is_valid_canonical_json():
    dump = mn_failover_stats_dump(_config())
    data = json.loads(dump)
    assert data["allocations_lost"] == 0
    assert json.dumps(data, sort_keys=True) == dump
