"""Tests for the churn experiment (fig_cluster_churn).

Small configs only: the full sweep runs in CI as the ``churn-smoke``
job.  What must hold at any size: the run completes with zero hangs
(every read delivers or gives up typed), the report carries every
recovery series, and the canonical stats dump is byte-identical across
repeats and across dispatch cores for a fixed campaign seed.
"""

import json

import pytest

from repro.experiments.cli import EXPERIMENTS
from repro.experiments.fig_cluster_churn import (
    ClusterChurnConfig,
    churn_stats_dump,
    run_fig_cluster_churn,
)
from repro.sim import engine

SERIES = ("goodput_ops_per_ms", "throughput_degradation_percent",
          "replay_amplification", "crash_detection_ns", "reborrow_ns",
          "recovery_ns", "ops_timed_out", "reads_gave_up")


def _small_config(**overrides):
    settings = dict(node_counts=(8,), fault_scales=(1,),
                    horizon_ns=2_000_000)
    settings.update(overrides)
    return ClusterChurnConfig(**settings)


def test_registered_in_the_cli():
    assert "churn" in EXPERIMENTS


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterChurnConfig(node_counts=())
    with pytest.raises(ValueError):
        ClusterChurnConfig(node_counts=(2,))
    with pytest.raises(ValueError):
        ClusterChurnConfig(fault_scales=(0,))
    with pytest.raises(ValueError):
        ClusterChurnConfig(horizon_ns=0)
    with pytest.raises(ValueError):
        ClusterChurnConfig(deadline_ns=0)
    config = ClusterChurnConfig(node_counts=(16, 8, 16),
                                fault_scales=(2, 1, 2))
    assert config.node_counts == (8, 16)
    assert config.fault_scales == (1, 2)


def test_small_campaign_completes_with_recovery_series():
    report = run_fig_cluster_churn(_small_config())
    for name in SERIES:
        assert name in report.series
    assert set(report.series["goodput_ops_per_ms"]) == {"8n_x0", "8n_x1"}
    churn = report.series["goodput_ops_per_ms"]["8n_x1"]
    baseline = report.series["goodput_ops_per_ms"]["8n_x0"]
    # The campaign can only cost throughput, never add it.
    assert 0 < churn <= baseline
    # Flapped links fault in-flight packets into the replay path: the
    # storm amplifies replays over the BER-only baseline.
    assert report.series["replay_amplification"]["8n_x1"] >= 1.0
    # The crash was detected on the simulated clock.
    assert report.series["crash_detection_ns"]["8n_x1"] > 0


def test_stats_dump_is_deterministic_across_repeats():
    config = _small_config()
    first = churn_stats_dump(config, num_nodes=8, scale=1)
    second = churn_stats_dump(config, num_nodes=8, scale=1)
    assert first == second


@pytest.mark.skipif(engine._load_ccore() is None,
                    reason="compiled dispatch core not built "
                           "(python -m repro.sim._ccore_build)")
def test_stats_dump_identical_across_cores(monkeypatch):
    monkeypatch.setenv("SIM_CORE", "py")
    pure = churn_stats_dump(_small_config(), num_nodes=8, scale=1)
    monkeypatch.setenv("SIM_CORE", "c")
    assert churn_stats_dump(_small_config(), num_nodes=8, scale=1) == pure


def test_every_read_resolves_typed():
    # Zero hangs: ok + gave-up accounts for every submitted read, and
    # gave-up reads exhausted a typed retry budget rather than vanishing.
    stats = json.loads(churn_stats_dump(_small_config(),
                                        num_nodes=8, scale=1))
    assert stats["reads_ok"] > 0
    assert stats["reads_ok"] + stats["reads_gave_up"] > 0
    assert stats["engine"]["nodes_crashed"] == 1
    # Heals scheduled past the horizon are applied early by stop()
    # (uncounted), so the counter can only trail the campaign.
    assert stats["engine"]["heals_applied"] <= \
        stats["engine"]["campaign_events"]
