"""Harness plumbing for the compiled dispatch core (--core flag).

The benchmark harness must expose the core choice on its CLI, stamp
the core that actually ran into the results JSON, and refuse an
explicit ``--core c`` with a readable error -- not a traceback -- when
the extension cannot be imported or built.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.sim import engine

_HARNESS_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "harness.py"
_spec = importlib.util.spec_from_file_location("bench_harness", _HARNESS_PATH)
harness = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_harness", harness)
_spec.loader.exec_module(harness)

requires_ccore = pytest.mark.skipif(
    engine._load_ccore() is None,
    reason="compiled dispatch core not built (python -m repro.sim._ccore_build)")


def _run_pair(tmp_path, monkeypatch, core: str) -> dict:
    # Seed SIM_CORE so monkeypatch restores whatever the environment
    # had after main() overwrites it.
    monkeypatch.setenv("SIM_CORE", "auto")
    out = tmp_path / "bench.json"
    rc = harness.main(["--workload", "pair", "--packets-per-node", "40",
                       "--core", core, "--json", str(out)])
    assert rc == 0
    return json.loads(out.read_text())["workloads"]["pair"]


def test_core_py_is_stamped_in_results(tmp_path, monkeypatch):
    result = _run_pair(tmp_path, monkeypatch, "py")
    assert result["core"] == "py"


@requires_ccore
def test_core_c_is_stamped_in_results(tmp_path, monkeypatch):
    monkeypatch.delenv("SIM_SANITIZE", raising=False)
    result = _run_pair(tmp_path, monkeypatch, "c")
    assert result["core"] == "c"


@requires_ccore
def test_same_core_same_events_across_cores(tmp_path, monkeypatch):
    # The simulated work is byte-identical across cores: same packets,
    # same events, same simulated time -- only the wall clock differs.
    pure = _run_pair(tmp_path, monkeypatch, "py")
    compiled = _run_pair(tmp_path, monkeypatch, "c")
    for key in ("packets", "delivered", "events", "sim_ns"):
        assert pure[key] == compiled[key]


def test_core_c_unavailable_is_a_clear_error(monkeypatch, capsys):
    monkeypatch.setenv("SIM_CORE", "auto")
    monkeypatch.setattr(engine, "_load_ccore", lambda build=False: None)
    monkeypatch.setitem(engine._CCORE_STATE, "error", "no C compiler found")
    rc = harness.main(["--workload", "pair", "--core", "c"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unavailable" in err
    assert "no C compiler found" in err
    assert "_ccore_build" in err  # the fix is spelled out
    assert "Traceback" not in err
