"""Command-line runner for the experiment drivers.

``python -m repro.experiments fig05 fig18`` runs the named drivers and
prints their paper-versus-measured reports; with no arguments it lists
what is available, and ``--all`` runs everything (the same content the
benchmark harness produces, without pytest).
"""

from __future__ import annotations

import argparse
import importlib
from typing import Dict, List, Tuple

_PKG = "repro.experiments"

#: Experiment id -> (description, ``module:function`` of its driver).  A
#: driver's module is imported only when that experiment runs.
EXPERIMENTS: Dict[str, Tuple[str, str]] = {
    "fig03": ("remote memory over commodity interconnects",
              f"{_PKG}.fig03_commodity:run_fig03"),
    "fig05": ("impact of architectural support for remote access",
              f"{_PKG}.fig05_arch_support:run_fig05"),
    "fig06": ("overhead of a one-level external router",
              f"{_PKG}.fig06_router:run_fig06"),
    "fig14": ("mini data-center Redis memory sweep",
              f"{_PKG}.fig14_redis_memory:run_fig14"),
    "fig15": ("CRMA versus RDMA-swap remote memory",
              f"{_PKG}.fig15_remote_memory:run_fig15"),
    "fig16a": ("remote accelerator sharing",
               f"{_PKG}.fig16_accel_nic:run_fig16a"),
    "fig16b": ("remote NIC sharing", f"{_PKG}.fig16_accel_nic:run_fig16b"),
    "fig15_contended": ("fig15 workloads over the contended event fabric "
                        "(event transport backend + cross-traffic)",
                        f"{_PKG}.fig15_remote_memory:run_fig15_contended"),
    "fig16_contended": ("fig16 sharing over the contended event fabric "
                        "(event transport backend + cross-traffic)",
                        f"{_PKG}.fig16_accel_nic:run_fig16_contended"),
    "fig17": ("channel comparison per access pattern",
              f"{_PKG}.fig17_channels:run_fig17"),
    "fig18": ("credit flow control over CRMA",
              f"{_PKG}.fig18_flow_control:run_fig18"),
    "cluster": ("N-node cluster scaling over the fat-tree fabric",
                f"{_PKG}.fig_cluster_scaling:run_fig_cluster_scaling"),
    "contention": ("queueing delay under cross-traffic on the event fabric",
                   f"{_PKG}.fig_cluster_contention:run_fig_cluster_contention"),
    "contention_closed": ("contended request/response round-trips over the "
                          "event fabric (closed-loop)",
                          f"{_PKG}.fig_cluster_contention:"
                          "run_fig_cluster_contention_closed_loop"),
    "cluster_contended": ("concurrent borrowers' measured reads on the "
                          "shared fleet fabric vs the serialized op driver",
                          f"{_PKG}.fig_cluster_contended:"
                          "run_fig_cluster_contended"),
    "churn": ("deterministic fault campaigns with live recovery over the "
              "contended event fabric",
              f"{_PKG}.fig_cluster_churn:run_fig_cluster_churn"),
    "mn_failover": ("sharded Monitor Node crash failover, coordinator "
                    "throughput and contention-aware matchmaking",
                    f"{_PKG}.fig_mn_failover:run_fig_mn_failover"),
    "hwcost": ("Section 7.3 hardware cost",
               f"{_PKG}.hardware_cost:run_hardware_cost"),
}


def available_experiments() -> List[str]:
    """Identifiers accepted by :func:`main`, in figure order."""
    return list(EXPERIMENTS)


def run_experiment(name: str):
    """Run one experiment by id and return its FigureReport."""
    try:
        _description, target = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}"
        ) from None
    module, _, function = target.partition(":")
    return getattr(importlib.import_module(module), function)()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the Venice (HPCA 2016) evaluation figures.",
    )
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help="experiment ids to run (e.g. fig03 fig17); "
                             "omit to list the available experiments")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    return parser


def main(argv: List[str] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.all:
        selected = available_experiments()
    else:
        selected = args.experiments
    if not selected:
        print("available experiments:")
        for name, (description, _target) in EXPERIMENTS.items():
            print(f"  {name:<8} {description}")
        print("\nrun with: python -m repro.experiments <ids...> | --all")
        return 0
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    for name in selected:
        report = run_experiment(name)
        print(report.to_text())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - module entry point
    raise SystemExit(main())
