"""Fast self-test of the benchmark at tiny sizes.

Run from the checkout root::

    python3 perfbench/run.py --selftest

Checks that:

* ``BENCHMARK.json`` names exactly the workloads in ``specs.SPECS``,
  the end-to-end metrics in ``run.END_TO_END`` and the per-layer
  metrics in ``layers.PER_LAYER``, with the same units;
* every workload emits every end-to-end metric untraced and every
  per-layer metric traced, with its unit, and the traced report digest
  equals the untraced one;
* ``trace.coverage`` is at least 0.95 on every workload, and the layer
  predictions hold: no engine events on the analytic workloads, no
  hierarchy accesses on churn, swap faults only on ``swap_mix``;
* a deliberately perturbed report is counted as failed;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from typing import List

import run
import specs
from layers import PER_LAYER

MIN_COVERAGE = 0.95


def _bench(spec: specs.Spec, trace: bool, perturb: bool = False) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        result, _code = run.bench(spec, seed=0, seconds=0.0, trace=trace,
                                  tiny=True, perturb=perturb)
    return result


def _units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def check_manifest(failures: List[str]) -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in manifest["workloads"]]
    if names != list(specs.SPECS):
        failures.append(f"BENCHMARK.json workloads {names} != specs {list(specs.SPECS)}")
    end_to_end = {metric["name"]: metric["unit"] for metric in manifest["end_to_end"]}
    if end_to_end != run.END_TO_END:
        failures.append(f"end_to_end {end_to_end} != run.END_TO_END {run.END_TO_END}")
    per_layer = {metric["name"]: (metric["unit"], metric["better"])
                 for metric in manifest["per_layer"]}
    if per_layer != PER_LAYER:
        failures.append("per_layer in BENCHMARK.json differs from layers.PER_LAYER")


def check_workload(spec: specs.Spec, failures: List[str]) -> None:
    plain = _bench(spec, trace=False)
    if not plain["correct"] or plain["failed"]:
        failures.append(f"{spec.name}: untraced tiny run failed: {plain}")
    elif _units(plain) != run.END_TO_END:
        failures.append(f"{spec.name}: end-to-end metrics {_units(plain)}")
    elif min(metric["value"] for metric in plain["metrics"].values()) <= 0:
        failures.append(f"{spec.name}: an end-to-end metric is not positive")

    traced = _bench(spec, trace=True)
    if not traced["correct"]:
        failures.append(f"{spec.name}: traced run failed or its digest "
                        f"differs from the untraced one: {traced}")
        return
    if _units(traced) != {name: unit for name, (unit, _) in PER_LAYER.items()}:
        failures.append(f"{spec.name}: per-layer metrics {sorted(_units(traced))}")
        return
    value = {name: metric["value"] for name, metric in traced["metrics"].items()}
    if value["trace.coverage"] < MIN_COVERAGE:
        failures.append(f"{spec.name}: trace.coverage {value['trace.coverage']:.3f}")
    analytic = spec.platform
    predictions = {
        "sim.engine.events is 0 on analytic workloads":
            not analytic or value["sim.engine.events"] == 0,
        "cpu.hierarchy.accesses is 0 on churn":
            analytic or value["cpu.hierarchy.accesses"] == 0,
        "mem.swap.faults > 0 only on swap_mix":
            (value["mem.swap.faults"] > 0) == (spec.name == "swap_mix"),
        "engine events on churn": analytic or value["sim.engine.events"] > 0,
    }
    for claim, holds in predictions.items():
        if not holds:
            failures.append(f"{spec.name}: prediction failed: {claim}")


def check_perturbed(failures: List[str]) -> None:
    result = _bench(specs.SPECS["redis_sweep"], trace=False, perturb=True)
    if result["correct"] or result["failed"] != 1:
        failures.append(f"a perturbed report was not counted as failed: {result}")


def check_bare_directory(failures: List[str]) -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "redis_sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("a bare directory produced a result or exit code 0")


def main() -> int:
    failures: List[str] = []
    check_manifest(failures)
    for spec in specs.SPECS.values():
        check_workload(spec, failures)
        print(f"selftest: {spec.name} done", flush=True)
    check_perturbed(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0
