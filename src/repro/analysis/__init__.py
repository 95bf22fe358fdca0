"""Analysis helpers: metric math, report formatting, the hardware cost
model of Section 7.3, and the simlint static analysis.
"""

from repro.analysis.metrics import (
    normalize_to,
    slowdown_versus,
    speedup_versus,
    percent_overhead,
    geometric_mean,
)
from repro.analysis.report import FigureReport, format_table
from repro.analysis.hardware_cost import (
    ChannelCost,
    VeniceHardwareCostModel,
    TechnologyParameters,
)

__all__ = [
    "normalize_to",
    "slowdown_versus",
    "speedup_versus",
    "percent_overhead",
    "geometric_mean",
    "FigureReport",
    "format_table",
    "ChannelCost",
    "VeniceHardwareCostModel",
    "TechnologyParameters",
]
