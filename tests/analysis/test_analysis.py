"""Unit tests for metrics, report formatting and the hardware cost model."""

import pytest

from repro.analysis.hardware_cost import (
    ChannelCost,
    TechnologyParameters,
    VeniceHardwareCostModel,
    default_components,
)
from repro.analysis.metrics import (
    geometric_mean,
    normalize_to,
    percent_overhead,
    slowdown_versus,
    speedup_versus,
)
from repro.analysis.report import FigureReport, format_table


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_slowdown_and_speedup_are_inverses():
    assert slowdown_versus(200, 100) == pytest.approx(2.0)
    assert speedup_versus(100, 200) == pytest.approx(2.0)
    assert slowdown_versus(150, 100) * speedup_versus(150, 100) == pytest.approx(1.0)


def test_percent_overhead():
    assert percent_overhead(120, 100) == pytest.approx(20.0)
    assert percent_overhead(100, 100) == pytest.approx(0.0)


def test_metric_validation():
    with pytest.raises(ValueError):
        slowdown_versus(100, 0)
    with pytest.raises(ValueError):
        speedup_versus(0, 100)


def test_normalize_to_baseline():
    values = {"a": 10.0, "b": 20.0, "c": 5.0}
    normalised = normalize_to(values, "a")
    assert normalised == {"a": 1.0, "b": 2.0, "c": 0.5}
    with pytest.raises(KeyError):
        normalize_to(values, "missing")


def test_geometric_mean():
    assert geometric_mean([1, 4, 16]) == pytest.approx(4.0)
    assert geometric_mean([]) == 0.0
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def test_format_table_alignment():
    text = format_table([["a", "1"], ["bbbb", "22"]], header=["name", "value"])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")


def test_figure_report_round_trip():
    report = FigureReport(figure_id="figX", title="demo")
    report.add_series("slowdown", {"cfg1": 2.0, "cfg2": 3.0},
                      reference={"cfg1": 2.5})
    assert report.value("slowdown", "cfg1") == 2.0
    assert report.labels("slowdown") == ["cfg1", "cfg2"]
    text = report.to_text()
    assert "figX" in text and "cfg1" in text and "2.5" in text


def test_figure_report_without_reference():
    report = FigureReport(figure_id="figY", title="demo", notes="a note")
    report.add_series("raw", {"x": 1.0})
    assert "a note" in report.to_text()


def test_figure_report_digest_is_full_precision_and_order_free():
    def report(values):
        built = FigureReport(figure_id="figZ", title="demo")
        built.add_series("raw", values)
        return built

    digest = report({"x": 1.0, "y": 2.0}).digest()
    assert len(digest) == 64
    # Label order does not matter; the last bit of a value does.
    assert report({"y": 2.0, "x": 1.0}).digest() == digest
    assert report({"x": 1.0, "y": 2.0 + 2.0 ** -51}).digest() != digest


# ----------------------------------------------------------------------
# Hardware cost model (Section 7.3)
# ----------------------------------------------------------------------
def test_cost_model_matches_paper_scale():
    model = VeniceHardwareCostModel()
    assert 2.0 <= model.logic_area_mm2() <= 4.0          # paper: 2.73 mm^2
    assert 25.0 <= model.total_sram_kb() <= 45.0          # paper: 32 KB
    assert model.phy_area_mm2() == pytest.approx(3.5)     # paper: ~3.5 mm^2
    assert model.fraction_of_host_die() < 0.03            # paper: ~2 %


def test_qpair_costs_about_twice_crma():
    model = VeniceHardwareCostModel()
    assert 1.5 <= model.qpair_to_crma_logic_ratio() <= 2.5
    # "tens of kilobytes more SRAM"
    assert model.qpair_extra_sram_kb() >= 10.0


def test_more_queue_pairs_cost_more_sram():
    small = VeniceHardwareCostModel(components=default_components(num_queue_pairs=128))
    large = VeniceHardwareCostModel(components=default_components(num_queue_pairs=1024))
    assert large.total_sram_kb() > small.total_sram_kb()


def test_breakdown_covers_all_components():
    model = VeniceHardwareCostModel()
    breakdown = model.breakdown()
    assert set(breakdown) == set(default_components())
    assert sum(breakdown.values()) == pytest.approx(model.logic_area_mm2())


def test_cost_model_validation():
    with pytest.raises(ValueError):
        TechnologyParameters(phy_mm2=0)
    with pytest.raises(ValueError):
        ChannelCost(name="bad", kluts=-1, sram_kb=0)
    with pytest.raises(ValueError):
        VeniceHardwareCostModel(num_phy_lanes=0)
