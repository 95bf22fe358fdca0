"""Determinism regression guard for the fast-path engine rewrite.

The engine optimisations (fused dispatch loop, ready-queue fast path,
callback-chain receive path, batched credit returns) must preserve
event ordering exactly: the same ``DeterministicRNG`` seed over the
same fleet has to produce byte-identical statistics, run after run --
and **across dispatch cores**: the compiled core dispatches in exactly
the same (time, seq) order as the pure-Python engine, so their stats
dumps must match byte for byte too.  These tests drive a 16-node star
sweep over the full event fabric -- the heaviest deterministic
workload in the suite -- and compare canonical JSON dumps of every
component's statistics.
"""

from dataclasses import replace

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.experiments.fig_cluster_contention import (
    ClusterContentionConfig,
    _FabricRun,
    _probe_plan,
    run_fig_cluster_contention,
)
from repro.sim import engine
from repro.sim.rng import DeterministicRNG

requires_ccore = pytest.mark.skipif(
    engine._load_ccore() is None,
    reason="compiled dispatch core not built (python -m repro.sim._ccore_build)")

STAR16 = ClusterContentionConfig(
    node_counts=(16,),
    topology="star",
    probes_per_node=2,
    cross_traffic_per_node=6,
)


def star16_dump(seed: int, contended: bool = True,
                closed_loop: bool = False) -> str:
    config = replace(STAR16, closed_loop=closed_loop)
    cluster = Cluster(ClusterConfig(num_nodes=16, topology="star"))
    probes = _probe_plan(cluster, config, DeterministicRNG(seed))
    run = _FabricRun(cluster, config, probes, contended=contended,
                     rng=DeterministicRNG(seed))
    return run.stats_dump()


def test_same_seed_star16_sweep_is_byte_identical():
    first = star16_dump(seed=7)
    second = star16_dump(seed=7)
    assert first == second


def test_same_seed_star16_uncontended_is_byte_identical():
    assert star16_dump(seed=7, contended=False) == star16_dump(
        seed=7, contended=False)


def _dumps_per_core(monkeypatch, **kwargs):
    """The star16 dump on the Python core, then on the compiled core."""
    dumps = []
    for core in ("py", "c"):
        monkeypatch.setenv("SIM_CORE", core)
        dumps.append(star16_dump(seed=7, **kwargs))
    return dumps


@requires_ccore
def test_python_and_compiled_cores_are_byte_identical(monkeypatch):
    # The compiled core must preserve exact (time, seq) dispatch order:
    # the same seed on either core yields the same stats dump.
    pure, compiled = _dumps_per_core(monkeypatch)
    assert pure == compiled


@requires_ccore
def test_python_and_compiled_cores_identical_uncontended(monkeypatch):
    pure, compiled = _dumps_per_core(monkeypatch, contended=False)
    assert pure == compiled


@requires_ccore
def test_python_and_compiled_cores_identical_closed_loop(monkeypatch):
    pure, compiled = _dumps_per_core(monkeypatch, closed_loop=True)
    assert pure == compiled


def test_same_seed_closed_loop_is_byte_identical():
    first = star16_dump(seed=7, closed_loop=True)
    second = star16_dump(seed=7, closed_loop=True)
    assert first == second


def test_closed_loop_differs_from_open_loop():
    # The responses double the traffic, so the dumps must differ.
    assert star16_dump(seed=7) != star16_dump(seed=7, closed_loop=True)


def test_different_seed_changes_the_sweep():
    # Sanity check that the dump actually captures the traffic pattern
    # (otherwise the byte-identity assertions above would be vacuous).
    assert star16_dump(seed=7) != star16_dump(seed=8)


def test_contention_report_is_reproducible():
    config = ClusterContentionConfig(node_counts=(2, 4), probes_per_node=2,
                                     cross_traffic_per_node=4)
    first = run_fig_cluster_contention(config)
    second = run_fig_cluster_contention(config)
    assert first.series == second.series


def test_closed_loop_report_is_reproducible():
    config = ClusterContentionConfig(node_counts=(2, 4), probes_per_node=2,
                                     cross_traffic_per_node=4,
                                     closed_loop=True)
    first = run_fig_cluster_contention(config)
    second = run_fig_cluster_contention(config)
    assert first.series == second.series
