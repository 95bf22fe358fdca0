"""One benchmark repetition in a fresh process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and ``SIM_CORE`` set to the workload's core.  Prints one JSON
record as its last line of standard output:

* ``setup_s`` -- from this script's first statement through the
  simulator imports, platform construction and dispatch-core load;
* ``wall_s`` -- the driver call, from its first simulated op to the
  finished report;
* ``peak_rss_mb`` -- this process's resident-memory high-water mark;
* the report digest, the paper deviation and the run's provenance.

Both times are read from a :class:`hostspeed.SpeedClock` started at the
first statement, so they are in seconds at the reference host speed;
``host_setup_s`` and ``host_wall_s`` carry the same spans in host
seconds, without the clock's own samples.

With ``--trace PATH`` the driver runs under :class:`layers.Tracer`; the
record then carries the raw per-layer metrics and a Chrome trace is
written to ``PATH``.  ``--experiment ID`` instead times one entry of
``repro.experiments.cli.EXPERIMENTS`` (the informational table).
"""

import hostspeed

CLOCK = hostspeed.SpeedClock()
CLOCK.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform as host_platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import specs  # noqa: E402


def peak_rss_mb() -> float:
    """Resident high-water mark of this process (``VmHWM``), in MiB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(core: str, scheduler: str) -> dict:
    return {"core": core, "scheduler": scheduler,
            "python": host_platform.python_version(),
            "nproc": os.cpu_count()}


def timed(function, *args):
    """``(result, reference_s, host_s)`` of one call."""
    start, host_start = CLOCK.read()
    result = function(*args)
    end, host_end = CLOCK.read()
    return result, end - start, host_end - host_start


def run_workload(args) -> dict:
    spec = specs.SPECS[args.workload]
    driver, config_cls = spec.resolve()
    from repro.sim.engine import Simulator

    platform = None
    if spec.platform:
        from repro.experiments.common import ExperimentPlatform
        platform = ExperimentPlatform()
    core = Simulator().core  # resolves SIM_CORE, loading the compiled core
    setup_s, host_setup_s = CLOCK.read()
    record = {"core": core, "setup_s": setup_s, "host_setup_s": host_setup_s}
    if args.setup_only:
        return record

    config = spec.make_config(config_cls, args.driver_seed, tiny=args.tiny)
    call_args = (config, platform) if spec.platform else (config,)
    record.update(provenance(core, getattr(config, "scheduler", "n/a")),
                  driver_seed=args.driver_seed)
    if args.trace:
        # The profiler would time the clock's samples too; the traced
        # run reports host seconds only.
        CLOCK.stop()
        tracer = layers.Tracer(Path(specs.__file__).resolve().parents[1]
                               / "src" / "repro")
        tracer.install()
        try:
            report, host_wall_s = tracer.profile(driver, *call_args)
        finally:
            tracer.uninstall()
        record["layers"] = layers.raw_layer_metrics(tracer, host_wall_s)
        trace_path = Path(args.trace)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(tracer.chrome_trace(
            {"workload": spec.name, "traced_wall_s": host_wall_s, **record})))
    else:
        report, wall_s, host_wall_s = timed(driver, *call_args)
        record["wall_s"] = wall_s
    if args.perturb:
        specs.perturb(report)
    record.update(host_wall_s=host_wall_s, peak_rss_mb=peak_rss_mb(),
                  digest=specs.report_digest(report),
                  paper_dev_pct=specs.paper_deviation_pct(report),
                  problems=specs.report_problems(report))
    return record


def run_experiment(experiment: str) -> dict:
    from repro.experiments.cli import run_experiment as run_one
    from repro.sim.engine import Simulator

    core = Simulator().core
    report, wall_s, host_wall_s = timed(run_one, experiment)
    record = provenance(core, "auto")
    record.update(experiment=experiment, wall_s=wall_s, host_wall_s=host_wall_s,
                  peak_rss_mb=peak_rss_mb(), digest=specs.report_digest(report))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(specs.SPECS))
    parser.add_argument("--driver-seed", type=int)
    parser.add_argument("--experiment")
    parser.add_argument("--trace", metavar="PATH",
                        help="profile per layer; write a Chrome trace to PATH")
    parser.add_argument("--setup-only", action="store_true",
                        help="measure set-up and exit without running the driver")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes instead of benchmark sizes")
    parser.add_argument("--perturb", action="store_true",
                        help="alter one report value before digesting "
                             "(self-test of the failure accounting)")
    args = parser.parse_args(argv)
    try:
        if args.experiment:
            record = run_experiment(args.experiment)
        else:
            if args.workload is None or args.driver_seed is None:
                parser.error("--workload and --driver-seed are required")
            record = run_workload(args)
    except Exception as error:  # reported to the parent, which counts it failed
        traceback.print_exc()
        print(json.dumps({"error": f"{type(error).__name__}: {error}"}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        CLOCK.stop()  # a timer signal at shutdown would kill the interpreter
    sys.exit(code)
