"""Integration tests for the experiment drivers.

Every driver runs with a reduced-size configuration so the whole module
stays fast; the assertions check the *shape* of each result (orderings,
sign of effects), which is the reproduction target.  Full-size runs live
in ``benchmarks/``.
"""

import pytest

from repro.experiments.common import ExperimentPlatform
from repro.experiments.fig03_commodity import Fig03Config, run_fig03
from repro.experiments.fig05_arch_support import Fig05Config, run_fig05
from repro.experiments.fig06_router import run_fig06
from repro.experiments.fig14_redis_memory import Fig14Config, run_fig14, run_donor_impact
from repro.experiments.fig15_remote_memory import (
    Fig15Config,
    Fig15ContendedConfig,
    run_fig15,
    run_fig15_contended,
)
from repro.experiments.fig16_accel_nic import Fig16Config, run_fig16a, run_fig16b
from repro.experiments.fig17_channels import (
    Fig17Config,
    adaptive_selection_matches_best,
    run_fig17,
)
from repro.experiments.fig18_flow_control import Fig18Config, run_fig18
from repro.experiments.hardware_cost import run_hardware_cost

MB = 1024 * 1024


@pytest.fixture(scope="module")
def fig03_report():
    return run_fig03(Fig03Config(dataset_bytes=6 * MB, local_bytes=4 * MB,
                                 num_queries=800))


@pytest.fixture(scope="module")
def fig05_config():
    return Fig05Config(remote_dataset_bytes=2 * MB, kv_queries=600,
                       pagerank_vertices=4096, pagerank_edges=8000)


@pytest.fixture(scope="module")
def fig05_report(fig05_config):
    return run_fig05(fig05_config)


def test_fig03_commodity_interconnects_ordering(fig03_report):
    slowdowns = fig03_report.series["slowdown_vs_all_local"]
    # Every commodity path is much slower than all-local memory.
    assert all(value > 3.0 for value in slowdowns.values())
    # Figure 3 ordering: Ethernet > IB SRP > PCIe RDMA among swap paths,
    # and the commodity LD/ST chip is the worst of everything.
    assert slowdowns["ethernet_swap"] > slowdowns["infiniband_srp"] > \
        slowdowns["pcie_rdma"]
    assert slowdowns["pcie_ldst_commodity"] > slowdowns["ethernet_swap"]
    assert slowdowns["pcie_ldst_fixed"] < slowdowns["pcie_ldst_commodity"] / 5


def test_fig05_architectural_support_ordering(fig05_report):
    for workload in ("pagerank", "berkeleydb"):
        series = fig05_report.series[workload]
        # Remote memory always costs something.
        assert all(value > 1.0 for value in series.values())
        # On-chip integration beats off-chip for both channel types.
        assert series["on_chip_crma"] < series["off_chip_crma"]
        assert series["on_chip_qpair"] < series["off_chip_qpair"]
        # CRMA hardware support beats explicit QPair messaging.
        assert series["on_chip_crma"] < series["on_chip_qpair"]
    # Asynchrony helps PageRank but not the dependent key/value queries.
    assert fig05_report.series["pagerank"]["async_on_chip_qpair"] < \
        fig05_report.series["pagerank"]["on_chip_qpair"]
    assert fig05_report.series["berkeleydb"]["async_on_chip_qpair"] == \
        pytest.approx(fig05_report.series["berkeleydb"]["on_chip_qpair"], rel=0.02)


@pytest.fixture(scope="module")
def fig06_report(fig05_config):
    return run_fig06(fig05_config)


def test_fig06_router_overhead_shape(fig06_report):
    report = fig06_report
    for workload in ("pagerank", "berkeleydb"):
        overheads = report.series[workload]
        assert all(value > 0 for value in overheads.values())
        # The faster the configuration, the more the extra hop hurts.
        assert overheads["on_chip_crma"] > overheads["on_chip_qpair"]
    # Latency-tolerant code barely notices the router.
    assert report.series["pagerank"]["async_on_chip_qpair"] < \
        report.series["pagerank"]["on_chip_crma"]


@pytest.fixture(scope="module")
def fig14_report():
    return run_fig14(Fig14Config(num_queries=1_500))


def test_fig14_memory_sweep_shape(fig14_report):
    report = fig14_report
    remote_times = list(report.series["execution_time_ns_remote"].values())
    miss_rates = list(report.series["miss_rate_percent_remote"].values())
    # More memory -> monotonically lower miss rate and execution time.
    assert all(later <= earlier for earlier, later in zip(miss_rates, miss_rates[1:]))
    assert all(later < earlier for earlier, later in zip(remote_times, remote_times[1:]))
    # Local and remote supply are close at every point (within 20%).
    for label, remote_time in report.series["execution_time_ns_remote"].items():
        local_time = report.series["execution_time_ns_local"][label]
        assert remote_time == pytest.approx(local_time, rel=0.2)
    assert report.series["summary"]["speedup_70MB_to_350MB"] > 3.0


def test_fig14_donor_impact_negligible():
    impact = run_donor_impact()
    assert impact["cc_time_ns_while_donating"] == \
        pytest.approx(impact["cc_time_ns_before_donation"], rel=0.01)


@pytest.fixture(scope="module")
def fig15_report():
    return run_fig15(Fig15Config(inmem_db_dataset_bytes=4 * MB, inmem_db_queries=800,
                                 grep_dataset_bytes=4 * MB, graph500_scale=9,
                                 cc_iterations=1))


@pytest.fixture(scope="module")
def fig15_contended_report():
    """fig15 on the event transport backend under cross-traffic."""
    return run_fig15_contended(Fig15ContendedConfig(workloads=Fig15Config(
        inmem_db_dataset_bytes=1 * MB, inmem_db_queries=100,
        cc_vertices=256, cc_edges=1_200, cc_iterations=1,
        grep_dataset_bytes=512 * 1024, graph500_scale=7)))


def test_fig15_remote_memory_shape(fig15_report):
    report = fig15_report
    all_local = report.series["all_local"]
    crma = report.series["crma"]
    rdma = report.series["rdma_swap"]
    # The ideal configuration is the best for every workload.
    for name in all_local:
        assert all_local[name] >= crma[name]
        assert all_local[name] >= rdma[name]
    # Random access favours CRMA; streaming favours page-granularity RDMA.
    assert crma["inmem_db"] > rdma["inmem_db"]
    assert rdma["grep"] > crma["grep"]
    # Memory capacity matters enormously for the random-access database.
    assert all_local["inmem_db"] > 20.0


@pytest.fixture(scope="module")
def fig16a_report():
    return run_fig16a(Fig16Config(small_dataset_bytes=4 * MB,
                                  large_dataset_bytes=16 * MB))


def test_fig16a_accelerator_scaling(fig16a_report):
    report = fig16a_report
    # Series labels follow the configured dataset sizes.
    for series_name in ("speedup_4MB", "speedup_16MB"):
        speedups = list(report.series[series_name].values())
        # Monotonic scaling, roughly linear: 3 remote accelerators give
        # at least 2.5x over the local-only baseline.
        assert all(later > earlier for earlier, later in zip(speedups, speedups[1:]))
        assert speedups[-1] > 2.5


def test_fig16b_nic_scaling_and_utilisation():
    report = run_fig16b()
    for label in ("speedup_4B", "speedup_256B"):
        speedups = list(report.series[label].values())
        assert all(later > earlier for earlier, later in zip(speedups, speedups[1:]))
    utilization = report.series["utilization_percent_LN+3RN"]
    assert utilization["256B"] > utilization["4B"]
    assert 20.0 < utilization["4B"] < 70.0
    assert 60.0 < utilization["256B"] <= 100.0


@pytest.fixture(scope="module")
def fig17_report():
    return run_fig17(Fig17Config(dataset_bytes=2 * MB, kv_queries=600))


def test_fig17_each_channel_wins_its_scenario(fig17_report):
    assert fig17_report.series["inmem_db_random"]["crma"] == 100.0
    assert fig17_report.series["cc_contiguous"]["rdma"] == 100.0
    assert fig17_report.series["iperf_messaging"]["qpair"] == 100.0
    # And no channel is best everywhere.
    winners = {max(series, key=series.get) for series in fig17_report.series.values()}
    assert winners == {"crma", "rdma", "qpair"}


def test_fig17_adaptive_library_picks_winners():
    outcome = adaptive_selection_matches_best(Fig17Config(dataset_bytes=2 * MB,
                                                          kv_queries=400))
    assert all(outcome.values())


def test_fig18_flow_control_improvement():
    report = run_fig18(Fig18Config())
    improvements = report.series["improvement_percent"]
    assert all(value > 0 for value in improvements.values())
    assert improvements["4B_word"] >= improvements["128B_quad_cacheline"]
    # Paper range: 28-51%; allow a generous band around it.
    assert all(15.0 <= value <= 65.0 for value in improvements.values())


def test_hardware_cost_report():
    report = run_hardware_cost()
    cost = report.series["hardware_cost"]
    assert cost["fraction_of_host_die_percent"] < 3.0
    assert cost["qpair_to_crma_logic_ratio"] == pytest.approx(2.0, rel=0.3)
    assert 25.0 <= cost["sram_kb"] <= 45.0


def test_reports_render_to_text(fig03_report, fig05_report, fig17_report):
    for report in (fig03_report, fig05_report, fig17_report):
        text = report.to_text()
        assert report.figure_id in text
        assert "paper" in text


#: sha256 of each report's full-precision canonical JSON at the sizes
#: above.  The analytic memory-hierarchy figures must stay byte-identical
#: through refactors of the access path; a deliberate model change
#: updates these together with the reason.  ``fig15_contended`` runs
#: every remote fill and swap page as packets on the event backend, so
#: a closed-form latency memo applied there would change its digest.
PINNED_REPORT_DIGESTS = {
    "fig03": "9b4b6168065718b74d56cc405cbbf91588506b6bc28e948dd60c1465e0b9afae",
    "fig05": "9c4d0f377e4bb1980d52399329399d17a1cb9088ea3721c846d12b44ae537336",
    "fig06": "1b996b7bb4ffd62fa2b6bc732840ad07c9c9c0550c54ce749c51e2ee42eaad70",
    "fig14": "e36aaac553ecaf429f6fd2a11877103fea8fa22fca6e19337e624d6b8fe6691a",
    "fig15": "00a9b8efc5fc62c0be1e703a43ff13373b60a2cd632cf7004a5fb7536bb7b0d5",
    "fig15_contended": "568c13980e1daabb71705558a780b232dec434bf55e46b50904c18c2deb99c28",
    "fig16a": "cc97074505643746d2a11bcf6703dcb160694198f6cce611e76bbc78bc4f2c00",
    "fig17": "ee0a2ccc4585af032d2425a9b0abe4bb0939a4a05fd70cf689a7caf54c160230",
}


@pytest.mark.parametrize("figure", sorted(PINNED_REPORT_DIGESTS))
def test_report_matches_pinned_digest(figure, request):
    report = request.getfixturevalue(f"{figure}_report")
    assert report.digest() == PINNED_REPORT_DIGESTS[figure]
