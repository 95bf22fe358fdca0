"""End-to-end benchmark of the Venice reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload redis_sweep --seed 1 --seconds 25 --trace 0

Each repetition is a fresh ``worker.py`` process running one public
experiment driver (see ``specs.py``); the benchmark repeats until
``--seconds`` have passed (at least three repetitions) and reports the
median ``wall_s``, ``setup_s`` and ``peak_rss_mb``.  Both times are in
seconds at the reference host speed (see ``hostspeed.py``).  Every
repetition's report digest is
checked against the committed golden table, and its record -- digest,
paper deviation, resolved core, scheduler, Python version, ``nproc`` --
is printed as one JSON line.  The last line of standard output is the
result::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics instead (see ``layers.py``); a Chrome trace of
the coarse spans is written under ``.perfbench-out/``.

Other modes: ``--selftest`` (fast tiny-size self-test),
``--experiments`` (informational wall time of every experiment id on
both cores), ``--write-golden`` (regenerate every table of
``golden.json``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import specs
from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: End-to-end metric -> unit (all lower-is-better).
END_TO_END: Dict[str, str] = {"wall_s": "s", "setup_s": "s",
                              "peak_rss_mb": "MB"}
#: Fewest repetitions a run makes, whatever ``--seconds`` says.
MIN_REPS = 3
#: Set-up-only worker starts after each untraced repetition.
SETUP_PROBES = 2
#: A run starts no repetition it expects to end after this many seconds,
#: keeping the whole invocation well inside three minutes.
TIME_CAP_S = 150.0


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
def worker_env(core: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SIM_CORE"] = core
    env.pop("SIM_SANITIZE", None)  # the sanitizer would force the py core
    return env


def run_worker(args: List[str], core: str,
               timeout: float) -> Tuple[Optional[dict], Optional[str]]:
    """Run ``worker.py`` once; returns ``(record, error)``."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(command, env=worker_env(core), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    record = None
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    if proc.returncode != 0 or record is None or "error" in record:
        detail = (record or {}).get("error") or proc.stderr.strip()[-500:]
        return None, f"worker exited {proc.returncode}: {detail}"
    return record, None


def prepare(spec: specs.Spec) -> Optional[str]:
    """One-off set-up outside the timed repetitions; returns a failure reason.

    Byte-compiles the sources (users run with warm ``__pycache__``) and,
    for compiled-core workloads, builds the extension through the public
    ``repro.sim._ccore_build.ensure_built()``.
    """
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    if spec.core != "c":
        return None
    build = ("from repro.sim._ccore_build import ensure_built, CCoreBuildError\n"
             "try:\n    ensure_built()\n"
             "except CCoreBuildError as error:\n"
             "    raise SystemExit(f'compiled core unavailable: {error}')\n")
    try:
        proc = subprocess.run([sys.executable, "-c", build], env=worker_env("c"),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
    except subprocess.TimeoutExpired:
        return "compiled core build timed out"
    if proc.returncode != 0:
        return proc.stderr.strip()[-500:] or "compiled core build failed"
    return None


def check_core(spec: specs.Spec, record: dict) -> List[str]:
    if record.get("core") != spec.core:
        return [f"ran on core {record.get('core')!r}, not {spec.core!r}"]
    return []


def check_rep(spec: specs.Spec, record: dict, expected_digest: str) -> List[str]:
    """Reasons this repetition counts as failed (empty when it passed)."""
    reasons = list(record.get("problems", [])) + check_core(spec, record)
    if record.get("digest") != expected_digest:
        reasons.append(f"digest {record.get('digest')} != golden {expected_digest}")
    return reasons


# ----------------------------------------------------------------------
# The benchmark proper
# ----------------------------------------------------------------------
def _emit(line: dict) -> None:
    print(json.dumps(line), flush=True)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def bench(spec: specs.Spec, seed: int, seconds: float, trace: bool,
          tiny: bool = False, perturb: bool = False) -> Tuple[dict, int]:
    """Run one benchmark invocation; returns ``(result, exit_code)``."""
    start = time.perf_counter()
    golden = specs.load_golden()
    try:
        entry = specs.golden_entry(golden, spec, seed)
    except LookupError as error:
        return _failed(str(error)), 1
    failure = prepare(spec)
    if failure is not None:
        # Never fall back to another core: the run is counted failed.
        return _failed(failure), 1

    driver_seed = entry["driver_seed"]
    expected = entry["digest"]
    if tiny:
        expected = None  # no golden at self-test sizes; reps must agree
    # Untraced runs interleave set-up probes with full repetitions, so
    # setup_s is a median over many more samples than wall_s.
    cycle = ("plain", "traced") if trace else ("plain",) + ("setup",) * SETUP_PROBES
    samples: Dict[str, List[dict]] = {kind: [] for kind in ("plain", "traced", "setup")}
    attempted = failed = plain_attempts = 0
    while True:
        cycle_start = time.perf_counter()
        for kind in cycle:
            args = ["--workload", spec.name, "--driver-seed", str(driver_seed)]
            if tiny:
                args.append("--tiny")
            if kind == "setup":
                args.append("--setup-only")
            if kind == "traced":
                args += ["--trace", str(OUT / f"trace-{spec.name}-seed{seed}.json")]
            if kind == "plain":
                plain_attempts += 1
                if perturb and plain_attempts == 2:
                    args.append("--perturb")
            # A worker may overrun the cap a little, never the 180 s limit.
            remaining = TIME_CAP_S + 25.0 - (time.perf_counter() - start)
            record, error = run_worker(args, spec.core, remaining)
            attempted += 1
            if kind != "setup" and record is not None and expected is None:
                expected = record["digest"]
            if error:
                reasons = [error]
            elif kind == "setup":
                reasons = check_core(spec, record)
            else:
                reasons = check_rep(spec, record, expected)
            if reasons:
                failed += 1
            else:
                samples[kind].append(record)
            if kind != "setup" or reasons:
                line = {"rep": attempted, "workload": spec.name, "seed": seed,
                        "kind": kind, "golden": expected,
                        "ok": not reasons, "reasons": reasons}
                line.update({key: value for key, value in (record or {}).items()
                             if key not in ("layers", "problems")})
                _emit(line)
        elapsed = time.perf_counter() - start
        enough = bool(samples["traced"]) if trace else len(samples["plain"]) >= MIN_REPS
        if failed == attempted >= MIN_REPS:
            break  # nothing works; more attempts would only repeat it
        if enough and elapsed >= seconds:
            break
        if elapsed + (time.perf_counter() - cycle_start) > TIME_CAP_S:
            break

    plain = samples["plain"]
    result = {"correct": failed == 0 and bool(plain),
              "attempted": attempted, "failed": failed}
    if trace:
        result["metrics"] = per_layer_metrics(plain, samples["traced"])
    else:
        values = {name: [rep[name] for rep in plain] for name in END_TO_END}
        values["setup_s"] += [probe["setup_s"] for probe in samples["setup"]]
        result["metrics"] = {
            name: {"value": _median(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()}
    _emit({"summary": spec.name, "seed": seed, "driver_seed": driver_seed,
           "reps": {kind: len(records) for kind, records in samples.items()},
           "host_wall_s_median": _median([rep["host_wall_s"] for rep in plain]),
           "paper_dev_pct": plain[0].get("paper_dev_pct") if plain else None,
           **({key: plain[0][key] for key in ("core", "scheduler", "python",
                                                "nproc")} if plain else {})})
    return result, 0 if result["correct"] else 1


def per_layer_metrics(plain: List[dict], traced: List[dict]) -> Dict[str, dict]:
    untraced_wall = _median([rep["host_wall_s"] for rep in plain])
    traced_wall = _median([rep["host_wall_s"] for rep in traced])
    values: Dict[str, float] = {}
    for name, (unit, _better) in PER_LAYER.items():
        samples = [rep["layers"][name] for rep in traced if name in rep["layers"]]
        # Counts repeat exactly across traced repetitions; keep them whole.
        pick = statistics.median_low if unit == "count" else _median
        values[name] = pick(samples) if samples else 0
    values["trace.overhead"] = traced_wall / untraced_wall if untraced_wall else 0.0
    values["sim.engine.events_per_s"] = (values["sim.engine.events"] / untraced_wall
                                         if untraced_wall else 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()}


def _failed(reason: str) -> dict:
    print(f"perfbench: {reason}", file=sys.stderr)
    _emit({"error": reason})
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


# ----------------------------------------------------------------------
# Informational and maintenance modes
# ----------------------------------------------------------------------
def _import_repro():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def experiments_table(cores: List[str]) -> int:
    """Time every experiment id once per core (not gated)."""
    _import_repro()
    from repro.experiments.cli import available_experiments

    if "c" in cores and prepare(specs.SPECS["churn_c"]) is not None:
        print("compiled core unavailable; skipping core c", file=sys.stderr)
        cores = [core for core in cores if core != "c"]
    rows: Dict[str, Dict[str, dict]] = {}
    # Cores alternate per experiment, so host-speed drift over the
    # minutes the table takes does not land on one core only.
    for experiment in available_experiments():
        row = rows[experiment] = {}
        for core in cores:
            record, error = run_worker(["--experiment", experiment], core, 900)
            row[core] = record or {"error": error}
        digests = {record.get("digest") for record in row.values()}
        print(f"{experiment:<18} " + "  ".join(
            f"{core} {row[core].get('wall_s', float('nan')):7.2f} s"
            for core in cores)
              + ("" if len(digests) == 1 else "  REPORTS DIFFER"), flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "experiments.json").write_text(json.dumps(rows, indent=1))
    total = {core: sum(row[core].get("wall_s", 0.0) for row in rows.values()
                       if core in row) for core in cores}
    print(json.dumps({"total_wall_s": total}))
    return 0


def write_golden() -> int:
    """Vet driver seeds and record their digests in ``golden.json``."""
    _import_repro()
    golden = specs.load_golden()
    golden["digest"] = ("sha256 (first 20 hex digits) of the canonical JSON "
                        "of FigureReport.figure_id, series and "
                        "paper_reference; see specs.canonical_report")
    golden["heldout_bench_seed"] = specs.HELDOUT_BENCH_SEED
    all_tables = golden.setdefault("tables", {})
    for key in dict.fromkeys(spec.golden for spec in specs.SPECS.values()):
        spec = next(spec for spec in specs.SPECS.values() if spec.golden == key)
        if prepare(spec) is not None:
            raise SystemExit(f"cannot prepare {spec.name}")
        first_seed = spec.resolve()[1]().seed
        entries, skipped = [], []
        driver_seed = first_seed
        while len(entries) < specs.SEED_TABLE_SIZE:
            record, error = run_worker(
                ["--workload", spec.name, "--driver-seed", str(driver_seed)],
                spec.core, 900)
            if error is None and record["problems"]:
                error = "; ".join(record["problems"])
            if error is None:
                entries.append({"bench_seed": len(entries),
                                "driver_seed": driver_seed,
                                "digest": record["digest"],
                                "paper_dev_pct": record["paper_dev_pct"]})
            else:
                skipped.append({"driver_seed": driver_seed,
                                "error": error.splitlines()[-1][:300]})
            print(key, driver_seed, error or record["digest"], flush=True)
            driver_seed += 1
        all_tables[key] = {"workloads": [name for name, s in specs.SPECS.items()
                                         if s.golden == key],
                           "params": spec.params, "made_on_core": spec.core,
                           "entries": entries, "skipped": skipped}
    specs.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the Venice "
                    "reproduction (run from the checkout root).")
    parser.add_argument("--workload", choices=sorted(specs.SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--experiments", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no simulator sources at {SRC / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest
        return selftest.main()
    if args.experiments:
        return experiments_table(["py", "c"])
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")
    result, code = bench(specs.SPECS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    _emit(result)
    return code


if __name__ == "__main__":
    sys.exit(main())
