"""Report formatting for experiment drivers.

Every experiment returns a :class:`FigureReport`: a named set of series
(configuration -> value, or x -> y) plus the paper's reference values
where the paper states them, so the bench harness can print
paper-versus-measured side by side.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional


def format_table(rows: List[List[str]], header: Optional[List[str]] = None) -> str:
    """Render rows as a fixed-width text table."""
    all_rows = ([header] if header else []) + rows
    if not all_rows:
        return ""
    widths = [max(len(str(row[col])) for row in all_rows)
              for col in range(len(all_rows[0]))]

    def render(row: List[str]) -> str:
        return "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))

    lines = []
    if header:
        lines.append(render(header))
        lines.append("  ".join("-" * width for width in widths))
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)


@dataclass
class FigureReport:
    """Reproduction output for one paper table/figure."""

    figure_id: str
    title: str
    #: series name -> {label -> measured value}
    series: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: series name -> {label -> value reported in the paper}, where known.
    paper_reference: Dict[str, Dict[str, float]] = field(default_factory=dict)
    notes: str = ""

    def add_series(self, name: str, values: Mapping[str, float],
                   reference: Optional[Mapping[str, float]] = None) -> None:
        """Record one measured series (and optionally the paper's numbers)."""
        self.series[name] = dict(values)
        if reference is not None:
            self.paper_reference[name] = dict(reference)

    def labels(self, series_name: str) -> List[str]:
        return list(self.series[series_name].keys())

    def value(self, series_name: str, label: str) -> float:
        return self.series[series_name][label]

    def digest(self) -> str:
        """sha256 of the id, series and paper references at full precision.

        The canonical form is sorted-key JSON, so two reports share a
        digest exactly when every measured and reference value is equal.
        """
        canonical = json.dumps({"figure_id": self.figure_id,
                                "series": self.series,
                                "paper_reference": self.paper_reference},
                               sort_keys=True, allow_nan=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def to_text(self) -> str:
        """Human-readable report: one block per series."""
        blocks = [f"{self.figure_id}: {self.title}"]
        for name, values in self.series.items():
            reference = self.paper_reference.get(name, {})
            rows = []
            for label, measured in values.items():
                paper_value = reference.get(label)
                rows.append([
                    label,
                    f"{measured:.3g}",
                    f"{paper_value:.3g}" if paper_value is not None else "-",
                ])
            blocks.append(f"[{name}]")
            blocks.append(format_table(rows, header=["config", "measured", "paper"]))
        if self.notes:
            blocks.append(f"notes: {self.notes}")
        return "\n".join(blocks)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()
