"""Workload table and report checks of the end-to-end benchmark.

Each workload is one public experiment driver run at a fixed benchmark
scale on a pinned dispatch core.  This module imports nothing from
``repro`` at import time, so the parent process (``run.py``) can read
the table without paying for, or depending on, the simulator's imports;
:meth:`Spec.resolve` imports the driver inside the worker process.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: Benchmark seeds map onto this many vetted driver seeds (``seed mod
#: SEED_TABLE_SIZE``); every entry has a committed golden digest.
SEED_TABLE_SIZE = 32
#: Bench seed whose figures were never looked at while the benchmark
#: was tuned; claims must also hold on it.
HELDOUT_BENCH_SEED = SEED_TABLE_SIZE - 1


@dataclass(frozen=True)
class Spec:
    """One benchmark workload: a driver, its config and its core."""

    name: str
    #: ``module:function`` of the public experiment driver.
    driver: str
    #: ``module:Class`` of the driver's config dataclass.
    config: str
    #: Config overrides at benchmark scale (the seed is added per run).
    params: Dict[str, object]
    #: Config overrides at self-test scale.
    tiny: Dict[str, object]
    #: ``SIM_CORE`` the worker runs under ("py" or "c").
    core: str
    #: Key of the golden seed table; workloads that run one driver on
    #: two cores share a table, so both must produce the same reports.
    golden: str
    #: True when the driver takes an ``ExperimentPlatform`` built during
    #: set-up; otherwise the driver builds its own clusters.
    platform: bool

    def resolve(self):
        """Import and return ``(driver, config_class)`` (worker only)."""
        return _load(self.driver), _load(self.config)

    def make_config(self, config_cls, driver_seed: int, tiny: bool = False):
        params = dict(self.tiny if tiny else self.params)
        return config_cls(seed=driver_seed, **params)


def _load(target: str):
    module, _, attr = target.partition(":")
    return getattr(importlib.import_module(module), attr)


_FIG14 = "repro.experiments.fig14_redis_memory"
_FIG15 = "repro.experiments.fig15_remote_memory"
_CHURN = "repro.experiments.fig_cluster_churn"
_MIB = 1024 * 1024

_CHURN_TINY = {"node_counts": (8,), "fault_scales": (1,),
               "horizon_ns": 1_000_000}

SPECS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec(name="redis_sweep",
         driver=f"{_FIG14}:run_fig14", config=f"{_FIG14}:Fig14Config",
         params={"num_queries": 1_000}, tiny={"num_queries": 20},
         core="py", golden="redis_sweep", platform=True),
    Spec(name="swap_mix",
         driver=f"{_FIG15}:run_fig15", config=f"{_FIG15}:Fig15Config",
         params={"inmem_db_dataset_bytes": 4 * _MIB,
                 "inmem_db_queries": 1_000, "cc_vertices": 1_024,
                 "cc_edges": 5_365, "cc_iterations": 2,
                 "grep_dataset_bytes": 4 * _MIB, "graph500_scale": 9},
         tiny={"inmem_db_dataset_bytes": _MIB, "inmem_db_queries": 100,
               "cc_vertices": 256, "cc_edges": 1_300, "cc_iterations": 1,
               "grep_dataset_bytes": _MIB, "graph500_scale": 7},
         core="py", golden="swap_mix", platform=True),
    Spec(name="churn_py",
         driver=f"{_CHURN}:run_fig_cluster_churn",
         config=f"{_CHURN}:ClusterChurnConfig",
         params={}, tiny=_CHURN_TINY,
         core="py", golden="churn", platform=False),
    Spec(name="churn_c",
         driver=f"{_CHURN}:run_fig_cluster_churn",
         config=f"{_CHURN}:ClusterChurnConfig",
         params={}, tiny=_CHURN_TINY,
         core="c", golden="churn", platform=False),
)}


# ----------------------------------------------------------------------
# Report digests and checks
# ----------------------------------------------------------------------
def canonical_report(report) -> str:
    """Full-precision canonical JSON of a report's measured and paper values.

    ``json`` writes floats with ``repr``, which round-trips exactly, so
    any drift in any digit of any series changes the digest (the
    3-significant-figure ``to_text()`` would hide it).
    """
    return json.dumps({"figure_id": report.figure_id,
                       "series": report.series,
                       "paper_reference": report.paper_reference},
                      sort_keys=True, allow_nan=True)


def report_digest(report) -> str:
    return hashlib.sha256(canonical_report(report).encode()).hexdigest()[:20]


def paper_deviation_pct(report):
    """Mean |measured - paper| / |paper| in percent, or None without references."""
    deviations = []
    for name, reference in report.paper_reference.items():
        measured = report.series.get(name, {})
        for label, paper in reference.items():
            if label in measured and paper:
                deviations.append(abs(measured[label] - paper) / abs(paper))
    if not deviations:
        return None
    return 100.0 * sum(deviations) / len(deviations)


def report_problems(report) -> List[str]:
    """Structural problems that make a report unusable as a golden."""
    problems = []
    if not report.series:
        problems.append("report has no series")
    for name, values in report.series.items():
        for label, value in values.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{name}/{label} is not a finite number: {value!r}")
    return problems


def perturb(report) -> None:
    """Change one series value in its last digits (self-test only)."""
    name = sorted(report.series)[0]
    label = sorted(report.series[name])[0]
    value = report.series[name][label]
    report.series[name][label] = math.nextafter(value, math.inf)


# ----------------------------------------------------------------------
# Golden seed tables
# ----------------------------------------------------------------------
def load_golden() -> Dict[str, object]:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def golden_entry(golden: Dict[str, object], spec: Spec,
                 bench_seed: int) -> Dict[str, object]:
    """The vetted ``{"driver_seed", "digest"}`` entry for ``bench_seed``.

    Raises ``LookupError`` when the committed table is missing or was
    made with other config parameters than the spec's.
    """
    table = golden.get("tables", {}).get(spec.golden)
    if table is None:
        raise LookupError(f"no golden table {spec.golden!r}; "
                          "regenerate with run.py --write-golden")
    if _normalise(table["params"]) != _normalise(spec.params):
        raise LookupError(f"golden table {spec.golden!r} was made with "
                          f"params {table['params']}, the spec has "
                          f"{spec.params}; regenerate it")
    entries = table["entries"]
    return entries[bench_seed % len(entries)]


def _normalise(params: Dict[str, object]) -> str:
    return json.dumps(params, sort_keys=True, default=list)
