"""Unit tests for the experiment command-line runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import EXPERIMENTS, available_experiments, main, run_experiment


def test_every_paper_result_has_an_experiment_id():
    ids = available_experiments()
    assert {"fig03", "fig05", "fig06", "fig14", "fig15",
            "fig16a", "fig16b", "fig17", "fig18", "cluster",
            "contention", "contention_closed", "cluster_contended",
            "fig15_contended", "fig16_contended",
            "hwcost"} <= set(ids)


def test_run_experiment_returns_a_report():
    report = run_experiment("hwcost")
    assert report.figure_id == "sec7.3"
    assert "hardware_cost" in report.series


def test_run_experiment_unknown_id():
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_main_lists_experiments_when_no_args(capsys):
    assert main([]) == 0
    output = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in output


def test_main_runs_selected_experiments(capsys):
    assert main(["hwcost", "fig18"]) == 0
    output = capsys.readouterr().out
    assert "sec7.3" in output
    assert "fig18" in output


def test_main_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["not-a-figure"])


def _repro_modules_loaded_by(module):
    """The ``repro`` modules a fresh interpreter holds after importing ``module``."""
    src = Path(__file__).resolve().parents[2] / "src"
    code = (f"import json, sys, {module}; print(json.dumps(sorted("
            "name for name in sys.modules if name.split('.')[0] == 'repro')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_drivers_load_only_their_own_layers():
    driver = "repro.experiments.fig14_redis_memory"
    loaded = _repro_modules_loaded_by(driver)
    unrelated_packages = {f"repro.{package}" for package in
                          ("runtime", "cluster", "nic", "accel", "interconnects")}
    unrelated = [name for name in loaded
                 if ".".join(name.split(".")[:2]) in unrelated_packages]
    assert unrelated == []
    other_drivers = [name for name in loaded if name != driver
                     and name.startswith("repro.experiments.fig")]
    assert other_drivers == []
    assert len(loaded) <= 40, loaded
    cli_loaded = _repro_modules_loaded_by("repro.experiments.cli")
    assert [name for name in cli_loaded if name.startswith("repro.experiments.")
            and name != "repro.experiments.cli"] == []
