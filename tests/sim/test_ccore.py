"""Compiled dispatch core: parity with the Python engine, and fallback.

Three layers of assurance for ``repro.sim._ccore``:

* randomized property tests -- seeded storms and plans of schedules,
  cancels and callback-driven rescheduling must produce the exact same
  dispatch trace and accounting on the C core as on the pure-Python
  reference engine;
* the star16 contended sweep dumps byte-identical statistics on both
  cores (here under a second seed; ``tests/integration/
  test_determinism.py`` checks seed 7 and the other sweep variants);
* fallback policy -- a missing extension must degrade to the Python
  engine *silently* under ``core="auto"`` (the no-compiler scenario),
  a broken or ABI-mismatched extension warns exactly once, and an
  explicit ``core="c"`` raises a clear error instead of crashing.
"""

import importlib
import itertools
import random
import sys
import types
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import engine
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import DeterministicRNG

_ccore_available = engine._load_ccore() is not None

requires_ccore = pytest.mark.skipif(
    not _ccore_available,
    reason="compiled dispatch core not built (python -m repro.sim._ccore_build)")


# ----------------------------------------------------------------------
# Randomized property tests: C core vs the reference Python heap
# ----------------------------------------------------------------------
def _storm_trace(core: str, seed: int) -> dict:
    """Drive one seeded schedule/cancel storm; return its full trace.

    The RNG is consumed inside callbacks too, so the streams only stay
    aligned between two runs if the engines dispatch in the exact same
    total order -- any divergence cascades into a loud trace mismatch.
    """
    sim = Simulator(core=core)
    rng = random.Random(seed)
    tags = itertools.count()
    trace = []
    handles = []

    def fire(tag):
        trace.append((sim.now, tag))
        roll = rng.random()
        if roll < 0.35:
            handles.append(sim.call_after(rng.randrange(1, 400), fire,
                                          next(tags)))
        elif roll < 0.45:
            handles.append(sim.schedule(rng.randrange(0, 300), fire,
                                        next(tags)))
        elif roll < 0.50:
            handles.append(sim.call_soon(fire, next(tags)))
        elif roll < 0.60 and handles:
            victim = handles.pop(rng.randrange(len(handles)))
            sim.cancel(victim)

    for _ in range(150):
        handles.append(sim.schedule(rng.randrange(0, 1000), fire, next(tags)))
    # A burst of one repeated delay: many equal-time timers whose order
    # rests on the sequence number alone.
    for _ in range(80):
        handles.append(sim.call_after(64, fire, next(tags)))
    executed = sim.run()
    return {
        "trace": trace,
        "executed": executed,
        "now": sim.now,
        "events_processed": sim.events_processed,
        "pending": len(sim),
    }


@requires_ccore
@pytest.mark.parametrize("seed", [1, 7, 2016])
def test_storm_matches_reference_engine(seed):
    reference = _storm_trace("py", seed)
    compiled = _storm_trace("c", seed)
    assert compiled == reference


@requires_ccore
def test_storm_is_repeatable_on_c_core():
    assert _storm_trace("c", 7) == _storm_trace("c", 7)


def _plan_trace(core: str, plan):
    """Run a schedule plan and return the observed dispatch trace.

    ``plan`` is a list of (at, delay, tag, chain_delays) tuples: at time
    ``at`` schedule a callback after ``delay`` which records ``tag`` and
    chains further callbacks at each delay in ``chain_delays``.
    """
    sim = Simulator(core=core)
    trace = []

    def fire(tag, chain):
        trace.append((sim.now, tag))
        for index, delay in enumerate(chain):
            sim.call_after(delay, fire_single, (f"{tag}.c{index}", ()))

    def fire_single(payload):
        tag, chain = payload
        fire(tag, chain)

    for at, delay, tag, chain in plan:
        sim.schedule_at(at, fire, tag, chain)
        if delay:
            sim.schedule(delay, fire, f"{tag}.d", ())
    sim.run_until_idle()
    return trace, sim.now, sim.events_processed


def _random_plan(seed: int, events: int = 300):
    """Randomized delay mix: dense short delays, bursts, and long gaps."""
    rng = DeterministicRNG(seed)
    plan = []
    at = 0
    for index in range(events):
        at += rng.choice([0, 0, 1, 7, 20, 50, 128, 1250, 65_536, 300_000])
        delay = rng.choice([0, 1, 20, 100, 1250, 4096])
        chain = tuple(
            rng.choice([1, 20, 50, 128, 1250])
            for _ in range(rng.uniform_int(0, 3))
        )
        plan.append((at, delay, f"e{index}", chain))
    return plan


@requires_ccore
@pytest.mark.parametrize("seed", range(8))
def test_randomized_delay_mixes_match_across_cores(seed):
    plan = _random_plan(seed)
    assert _plan_trace("c", plan) == _plan_trace("py", plan)


def _cancel_script_trace(core: str, script):
    """Execute a schedule/cancel script; return the dispatch trace.

    Each script step is ``(delay, cancel_flag)``: a driver callback
    schedules one payload callback with that delay (0 goes to the ready
    queue), then -- when the flag is set -- cancels an earlier pending
    handle.  The driver re-arms itself with a small fixed delay, so
    repeated delays keep many same-delay timers in flight at once.
    """
    sim = Simulator(core=core)
    trace = []
    handles = []

    def payload(index):
        trace.append((sim.now, index))

    def driver(index):
        if index >= len(script):
            return
        delay, do_cancel = script[index]
        handles.append(sim.call_after(delay, payload, index))
        if do_cancel and len(handles) >= 2:
            sim.cancel(handles[len(handles) // 2])
        sim.call_after(3, driver, index + 1)

    sim.call_after(1, driver, 0)
    sim.run_until_idle()
    assert len(sim) == 0
    return trace


_SCRIPT = st.lists(
    st.tuples(st.sampled_from([0, 5, 5, 7, 7, 13, 64]), st.booleans()),
    min_size=1, max_size=120)


@requires_ccore
@settings(max_examples=40, deadline=None)
@given(_SCRIPT)
def test_cancel_scripts_dispatch_identically_across_cores(script):
    assert _cancel_script_trace("c", script) == \
        _cancel_script_trace("py", script)


@requires_ccore
def test_stepwise_peek_and_accounting_parity():
    sims = [Simulator(core="py"), Simulator(core="c")]
    logs = [[], []]
    for sim, log in zip(sims, logs):
        handles = [sim.schedule(delay, log.append, tag)
                   for tag, delay in enumerate([5, 0, 9, 5, 3, 0, 7])]
        sim.cancel(handles[2])
        sim.cancel(handles[4])
        while True:
            log.append(("peek", sim.peek(), "len", len(sim)))
            if not sim.step():
                break
        log.append(("drained", sim.drain_cancelled(),
                    "events", sim.events_processed, "now", sim.now))
    assert logs[0] == logs[1]


@requires_ccore
def test_error_parity_on_bad_delays():
    for core in ("py", "c"):
        sim = Simulator(core=core)
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)
        with pytest.raises(SimulationError):
            sim.call_after(-5, lambda value: None, None)
        with pytest.raises(SimulationError):
            sim.schedule_at(-1, lambda: None)


@requires_ccore
def test_run_until_and_max_events_budgets_match():
    results = []
    for core in ("py", "c"):
        sim = Simulator(core=core)
        fired = []
        for delay in range(1, 30):
            sim.schedule(delay * 10, fired.append, delay)
        ran = sim.run(until=145)
        # Exhausting max_events trips the livelock guard on both cores,
        # with the budget's worth of events executed before the raise.
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=5)
        ran += sim.run()
        results.append((fired[:], ran, sim.now, len(sim)))
    assert results[0] == results[1]


def _star16_dump(seed: int) -> str:
    from repro.cluster.cluster import Cluster, ClusterConfig
    from repro.experiments.fig_cluster_contention import (
        ClusterContentionConfig, _FabricRun, _probe_plan)

    config = ClusterContentionConfig(
        node_counts=(16,), topology="star", probes_per_node=2,
        cross_traffic_per_node=6)
    cluster = Cluster(ClusterConfig(num_nodes=16, topology="star"))
    probes = _probe_plan(cluster, config, DeterministicRNG(seed))
    run = _FabricRun(cluster, config, probes, contended=True,
                     rng=DeterministicRNG(seed))
    return run.stats_dump()


@requires_ccore
def test_star16_dump_byte_identical_across_cores(monkeypatch):
    monkeypatch.setenv("SIM_CORE", "py")
    pure = _star16_dump(seed=2016)
    monkeypatch.setenv("SIM_CORE", "c")
    compiled = _star16_dump(seed=2016)
    assert pure == compiled


# ----------------------------------------------------------------------
# Core resolution and fallback policy
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_ccore_state():
    """Run with a forgotten import cache; restore it afterwards."""
    engine._reset_ccore_state()
    yield
    engine._reset_ccore_state()


def _block_ccore_import(monkeypatch, error: BaseException) -> None:
    """Make the ``_ccore`` import raise ``error`` (and only that import).

    The loader goes through ``importlib.import_module`` (deliberately:
    a from-import would mask ModuleNotFoundError), and import_module
    answers from ``sys.modules`` first -- so the cached module is
    dropped for the duration of the test (monkeypatch restores it).
    """
    monkeypatch.delitem(sys.modules, "repro.sim._ccore", raising=False)
    real_import_module = importlib.import_module

    def fake_import_module(name, package=None):
        if name == "repro.sim._ccore":
            raise error
        return real_import_module(name, package)

    monkeypatch.setattr(importlib, "import_module", fake_import_module)


def test_missing_extension_auto_falls_back_silently(fresh_ccore_state,
                                                    monkeypatch):
    # The no-compiler scenario: the extension was never built.  auto
    # must pick the Python engine without a peep and simulation must
    # behave normally.
    monkeypatch.delenv("SIM_CORE", raising=False)
    _block_ccore_import(monkeypatch, ModuleNotFoundError(
        "No module named 'repro.sim._ccore'"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning fails the test
        sim = Simulator(core="auto")
        assert sim.core == "py"
        seen = []
        sim.schedule(10, seen.append, "a")
        sim.schedule(5, seen.append, "b")
        sim.run()
    assert seen == ["b", "a"]
    assert sim.now == 10


def test_broken_extension_warns_once_and_falls_back(fresh_ccore_state,
                                                    monkeypatch):
    monkeypatch.delenv("SIM_CORE", raising=False)
    monkeypatch.delenv("SIM_SANITIZE", raising=False)
    _block_ccore_import(monkeypatch, ImportError(
        "undefined symbol: simulated_abi_drift"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = Simulator(core="auto")
        second = Simulator(core="auto")
    assert first.core == "py" and second.core == "py"
    runtime_warnings = [w for w in caught
                        if issubclass(w.category, RuntimeWarning)]
    assert len(runtime_warnings) == 1
    assert "_ccore" in str(runtime_warnings[0].message)


def test_explicit_c_core_unavailable_raises_clear_error(fresh_ccore_state,
                                                        monkeypatch):
    from repro.sim import _ccore_build

    monkeypatch.delenv("SIM_CORE", raising=False)
    monkeypatch.delenv("SIM_SANITIZE", raising=False)
    _block_ccore_import(monkeypatch, ModuleNotFoundError(
        "No module named 'repro.sim._ccore'"))

    def no_compiler():
        raise _ccore_build.CCoreBuildError("no C compiler found")

    monkeypatch.setattr(_ccore_build, "ensure_built", no_compiler)
    with pytest.raises(SimulationError) as excinfo:
        Simulator(core="c")
    message = str(excinfo.value)
    assert "unavailable" in message
    assert "_ccore_build" in message  # tells the user how to fix it


def test_sim_core_env_is_honoured(monkeypatch):
    monkeypatch.setenv("SIM_CORE", "py")
    assert Simulator().core == "py"
    monkeypatch.setenv("SIM_CORE", "bogus")
    with pytest.raises(ValueError):
        Simulator()


@requires_ccore
def test_explicit_core_argument_beats_env(monkeypatch):
    monkeypatch.delenv("SIM_SANITIZE", raising=False)
    monkeypatch.setenv("SIM_CORE", "c")
    assert Simulator(core="py").core == "py"
    monkeypatch.setenv("SIM_CORE", "py")
    assert Simulator(core="c").core == "c"


@requires_ccore
def test_sanitize_forces_python_core(monkeypatch):
    monkeypatch.setenv("SIM_CORE", "c")
    sim = Simulator(sanitize=True)
    assert sim.core == "py"
    assert sim.sanitize


@requires_ccore
def test_auto_prefers_compiled_core(monkeypatch):
    monkeypatch.delenv("SIM_SANITIZE", raising=False)
    assert Simulator(core="auto").core == "c"


def _stub_ccore_with_version(monkeypatch, version) -> None:
    """Serve a stand-in ``_ccore`` module whose ABI version is ``version``."""
    stub = types.ModuleType("repro.sim._ccore")
    stub.CCORE_API_VERSION = version
    monkeypatch.setitem(sys.modules, "repro.sim._ccore", stub)


def test_abi_mismatch_warns_once_and_falls_back(fresh_ccore_state,
                                                monkeypatch):
    # A stale build of the extension (older Engine signature) imports
    # fine but reports the wrong CCORE_API_VERSION: auto must fall back
    # to the Python engine with one warning, never construct it.
    monkeypatch.delenv("SIM_CORE", raising=False)
    monkeypatch.delenv("SIM_SANITIZE", raising=False)
    _stub_ccore_with_version(monkeypatch, 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = Simulator(core="auto")
        second = Simulator(core="auto")
    assert first.core == "py" and second.core == "py"
    runtime_warnings = [w for w in caught
                        if issubclass(w.category, RuntimeWarning)]
    assert len(runtime_warnings) == 1
    assert "CCORE_API_VERSION=1" in str(runtime_warnings[0].message)


def test_abi_mismatch_under_explicit_c_core_raises_clear_error(
        fresh_ccore_state, monkeypatch):
    from repro.sim import _ccore_build

    monkeypatch.delenv("SIM_CORE", raising=False)
    monkeypatch.delenv("SIM_SANITIZE", raising=False)
    _stub_ccore_with_version(monkeypatch, 1)
    # The on-demand build is a no-op here: the stub stays the module.
    monkeypatch.setattr(_ccore_build, "ensure_built", lambda: None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SimulationError) as excinfo:
            Simulator(core="c")
    message = str(excinfo.value)
    assert "unavailable" in message
    assert "ABI mismatch" in message
    assert "_ccore_build" in message
