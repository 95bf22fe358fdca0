"""Figure 6: performance impact of an off-chip router on the path.

Section 4.2.2 repeats the Figure 5 experiment with a one-level external
router inserted between the two nodes and reports the *additional*
overhead (in percent) each configuration suffers.  The headline
observations: the faster a configuration is, the more the extra hop
hurts (over 20 % for on-chip CRMA), except when the software already
hides latency (the asynchronous PageRank version barely notices).
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.metrics import percent_overhead
from repro.analysis.report import FigureReport
from repro.experiments.common import ExperimentPlatform
from repro.experiments.fig05_arch_support import (
    CONFIGURATIONS,
    Fig05Config,
    measure_times,
)

#: Figure 6 values (percent overhead added by the router).
PAPER_REFERENCE_PAGERANK: Dict[str, float] = {
    "off_chip_qpair": 11.70,
    "on_chip_qpair": 13.42,
    "async_on_chip_qpair": 2.02,
    "off_chip_crma": 13.92,
    "on_chip_crma": 22.72,
}
PAPER_REFERENCE_BERKELEYDB: Dict[str, float] = {
    "off_chip_qpair": 7.66,
    "on_chip_qpair": 7.33,
    "async_on_chip_qpair": 7.39,
    "off_chip_crma": 11.08,
    "on_chip_crma": 16.13,
}


def run_fig06(config: Fig05Config = None,
              platform: ExperimentPlatform = None) -> FigureReport:
    """Measure router-induced overheads and return the report."""
    config = config or Fig05Config()
    platform = platform or ExperimentPlatform()
    times = measure_times(config, platform, CONFIGURATIONS,
                          router_settings=(False, True))

    report = FigureReport(
        figure_id="fig06",
        title="Performance impact of one-level external router "
              "(percent overhead versus direct chip-to-chip connection)",
        notes="shape target: overhead grows with configuration performance; the "
              "asynchronous PageRank version is nearly immune",
    )
    for workload, reference in (("pagerank", PAPER_REFERENCE_PAGERANK),
                                ("berkeleydb", PAPER_REFERENCE_BERKELEYDB)):
        overheads = {
            name: percent_overhead(times[workload][(name, True)],
                                   times[workload][(name, False)])
            for name in CONFIGURATIONS
        }
        report.add_series(workload, overheads, reference=reference)
    return report


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_fig06().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
