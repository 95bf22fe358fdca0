"""Tests for the concurrent-borrower cluster sweep (cluster_contended)."""

import pytest

from repro.experiments.fig_cluster_contended import (
    ClusterContendedConfig,
    run_fig_cluster_contended,
)

SERIES = ("serialized_read_ns", "concurrent_read_ns",
          "per_borrower_slowdown", "overlap_speedup",
          "hottest_link_busy_percent", "events_processed")


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterContendedConfig(node_counts=(1, 2))
    with pytest.raises(ValueError):
        ClusterContendedConfig(topology="mesh3d")
    with pytest.raises(ValueError):
        ClusterContendedConfig(reads_per_borrower=0)
    config = ClusterContendedConfig(node_counts=(8, 2, 8))
    assert config.node_counts == (2, 8)


def test_overlap_speedup_grows_with_borrower_count():
    report = run_fig_cluster_contended(ClusterContendedConfig(
        node_counts=(2, 4), reads_per_borrower=2))
    for name in SERIES:
        assert set(report.series[name]) == {"2_nodes", "4_nodes"}
    speedup = report.series["overlap_speedup"]
    # Overlapping N borrowers' ops must share sim time: well above 1,
    # growing with the borrower count.
    assert speedup["2_nodes"] > 1.5
    assert speedup["4_nodes"] > speedup["2_nodes"]
    # Concurrent per-op latency can only be inflated by interference,
    # never deflated below the serialized measurement.
    for label, value in report.series["per_borrower_slowdown"].items():
        assert value >= 0.999, label


def test_shared_hub_produces_slowdown_serialized_driver_cannot():
    report = run_fig_cluster_contended(ClusterContendedConfig(
        node_counts=(8,), topology="star", reads_per_borrower=4))
    # Every borrower's response leaves its donor through the star hub:
    # measured ops queue behind other measured ops, which the
    # one-op-at-a-time driver can never show.
    assert report.series["per_borrower_slowdown"]["8_nodes"] > 1.01
    assert (report.series["concurrent_read_ns"]["8_nodes"]
            > report.series["serialized_read_ns"]["8_nodes"])


def test_deterministic_across_runs():
    config = ClusterContendedConfig(node_counts=(4,), reads_per_borrower=2)
    first = run_fig_cluster_contended(config).series
    second = run_fig_cluster_contended(config).series
    assert first == second
