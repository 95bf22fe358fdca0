"""simlint rule, suppression, baseline and CLI tests."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.simlint import (
    diff_against_baseline,
    lint_paths,
    lint_source,
    load_baseline,
    write_baseline,
)
from repro.analysis.simlint.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _lint(source, rel_posix="src/repro/runtime/module.py"):
    return lint_source(textwrap.dedent(source), Path(rel_posix),
                       rel_posix=rel_posix)


def _rules(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# SIM001: unordered dict/set-view iteration in order-sensitive modules
# ----------------------------------------------------------------------
def test_sim001_flags_view_iteration_in_scheduling_module():
    findings = _lint("""
        def broadcast(agents, sim):
            for agent in agents.values():
                sim.call_soon(agent.tick)
    """)
    assert _rules(findings) == ["SIM001"]


def test_sim001_ignores_modules_that_never_schedule():
    findings = _lint("""
        def tally(agents):
            out = []
            for agent in agents.values():
                out.append(agent.name)
            return out
    """)
    assert findings == []


def test_sim001_sorted_iteration_is_clean():
    findings = _lint("""
        def broadcast(agents, sim):
            for node_id in sorted(agents):
                sim.call_soon(agents[node_id].tick)
    """)
    assert findings == []


def test_sim001_order_insensitive_fold_is_exempt():
    findings = _lint("""
        def depth(queues, sim):
            sim.call_soon(print)
            return sum(len(q) for q in queues.values())
    """)
    assert findings == []


def test_sim001_comprehension_feeding_list_is_flagged():
    findings = _lint("""
        def plan_order(pools):
            return [p.name for p in pools.values()]
    """)
    # "plan" in the function name marks the module order-sensitive.
    assert _rules(findings) == ["SIM001"]


# ----------------------------------------------------------------------
# SIM002: nondeterministic stdlib imports outside sim/rng.py
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stmt", ["import random",
                                  "from random import choice",
                                  "import time",
                                  "from datetime import datetime"])
def test_sim002_flags_nondeterministic_imports(stmt):
    assert _rules(_lint(stmt)) == ["SIM002"]


def test_sim002_allows_rng_module_itself():
    findings = _lint("import random", rel_posix="src/repro/sim/rng.py")
    assert findings == []


def test_sim002_unrelated_import_is_clean():
    assert _lint("import itertools") == []


# ----------------------------------------------------------------------
# SIM003: loop-variable capture in scheduled callbacks
# ----------------------------------------------------------------------
def test_sim003_flags_lambda_capturing_loop_variable():
    findings = _lint("""
        def arm(sim, items):
            for item in items:
                sim.call_after(10, lambda _v=None: item.fire())
    """)
    assert "SIM003" in _rules(findings)


def test_sim003_default_bound_lambda_is_clean():
    findings = _lint("""
        def arm(sim, items):
            for item in items:
                sim.call_after(10, lambda _v=None, item=item: item.fire())
    """)
    assert findings == []


def test_sim003_flags_nested_def_capture():
    findings = _lint("""
        def arm(sim, items):
            for item in items:
                def fire(_v=None):
                    item.fire()
                sim.call_after(10, fire)
    """)
    assert "SIM003" in _rules(findings)


def test_sim003_args_passed_positionally_are_clean():
    findings = _lint("""
        def arm(sim, items):
            for item in items:
                sim.call_after(10, print, item)
    """)
    assert findings == []


# ----------------------------------------------------------------------
# SIM004: missing __slots__ on hot-path classes
# ----------------------------------------------------------------------
def test_sim004_flags_slotless_class_in_sim_tree():
    findings = _lint("""
        class Arbiter:
            def __init__(self):
                self.queue = []
    """, rel_posix="src/repro/sim/arbiter.py")
    assert _rules(findings) == ["SIM004"]


def test_sim004_slots_class_is_clean():
    findings = _lint("""
        class Arbiter:
            __slots__ = ("queue",)

            def __init__(self):
                self.queue = []
    """, rel_posix="src/repro/sim/arbiter.py")
    assert findings == []


def test_sim004_dataclass_slots_is_clean():
    findings = _lint("""
        from dataclasses import dataclass

        @dataclass(slots=True)
        class Entry:
            time: int
    """, rel_posix="src/repro/fabric/entry.py")
    assert findings == []


def test_sim004_config_and_error_classes_are_exempt():
    findings = _lint("""
        class ArbiterConfig:
            def __init__(self):
                self.depth = 4

        class ArbiterError(Exception):
            pass
    """, rel_posix="src/repro/sim/arbiter.py")
    assert findings == []


def test_sim004_outside_hot_tree_is_clean():
    findings = _lint("""
        class Report:
            def __init__(self):
                self.rows = []
    """, rel_posix="src/repro/analysis/report2.py")
    assert findings == []


# ----------------------------------------------------------------------
# SIM005: float arithmetic on ns-time values
# ----------------------------------------------------------------------
def test_sim005_flags_true_division_into_ns_name():
    findings = _lint("""
        def mean_gap(total, count):
            gap_ns = total / count
            return gap_ns
    """, rel_posix="src/repro/sim/timing.py")
    assert _rules(findings) == ["SIM005"]


def test_sim005_floor_division_is_clean():
    findings = _lint("""
        def mean_gap(total, count):
            gap_ns = total // count
            return gap_ns
    """, rel_posix="src/repro/sim/timing.py")
    assert findings == []


def test_sim005_int_round_launders_float_taint():
    findings = _lint("""
        def mean_gap(total, count):
            gap_ns = int(round(total / count))
            return gap_ns
    """, rel_posix="src/repro/sim/timing.py")
    assert findings == []


def test_sim005_only_applies_to_time_scoped_trees():
    findings = _lint("""
        def mean_gap(total, count):
            gap_ns = total / count
            return gap_ns
    """, rel_posix="src/repro/analysis/metrics2.py")
    assert findings == []


# ----------------------------------------------------------------------
# SIM006: add-only registry heuristic
# ----------------------------------------------------------------------
ADD_ONLY_CLASS = """
    class Tracker:
        def __init__(self):
            self._seen = {}

        def record(self, key, value):
            self._seen[key] = value
"""


def test_sim006_flags_add_only_dict_attribute():
    assert _rules(_lint(ADD_ONLY_CLASS)) == ["SIM006"]


def test_sim006_pruned_dict_is_clean():
    findings = _lint("""
        class Tracker:
            def __init__(self):
                self._seen = {}

            def record(self, key, value):
                self._seen[key] = value

            def retire(self, key):
                self._seen.pop(key, None)
    """)
    assert findings == []


# ----------------------------------------------------------------------
# SIM007: engine dispatch internals touched outside sim/
# ----------------------------------------------------------------------
def test_sim007_flags_queue_access_outside_sim_tree():
    findings = _lint("""
        def drain_by_hand(sim):
            while sim._queue:
                sim._queue.pop()
    """, rel_posix="src/repro/runtime/shard.py")
    assert _rules(findings) == ["SIM007", "SIM007"]
    assert "_queue" in findings[0].message


def test_sim007_flags_ready_deque_and_c_core_state():
    findings = _lint("""
        def snoop(sim):
            return len(sim._ready) + len(sim._eng)
    """, rel_posix="src/repro/fabric/switch2.py")
    assert _rules(findings) == ["SIM007", "SIM007"]


def test_sim007_allows_engine_package_itself():
    findings = _lint("""
        def migrate(old, new):
            new._queue = old._queue
    """, rel_posix="src/repro/sim/engine2.py")
    assert findings == []


def test_sim007_allows_a_classs_own_private_state():
    # ``self._queue`` is any class's own business -- the rule targets
    # reaching into *another* object's dispatch structures.
    findings = _lint("""
        class Mailbox:
            def __init__(self):
                self._queue = []
            def push(self, item):
                self._queue.append(item)
            def drain(self):
                while self._queue:
                    yield self._queue.pop()
    """, rel_posix="src/repro/runtime/mailbox.py")
    assert findings == []


def test_sim007_public_api_is_clean():
    findings = _lint("""
        def drain(sim):
            while sim.peek() is not None:
                sim.step()
            return sim.drain_cancelled()
    """, rel_posix="src/repro/runtime/shard.py")
    assert findings == []


def test_sim007_suppression_is_honoured():
    findings = _lint("""
        def corrupt(sim, entry):
            sim._queue.append(entry)  # simlint: disable=SIM007 -- white-box test
    """, rel_posix="tests/analysis/helper.py")
    assert findings == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_inline_suppression_silences_named_rule():
    findings = _lint("""
        class Tracker:
            def __init__(self):
                self._seen = {}  # simlint: disable=SIM006 -- bounded by config
            def record(self, key, value):
                self._seen[key] = value
    """)
    assert findings == []


def test_suppression_for_other_rule_does_not_apply():
    findings = _lint("""
        class Tracker:
            def __init__(self):
                self._seen = {}  # simlint: disable=SIM001
            def record(self, key, value):
                self._seen[key] = value
    """)
    assert _rules(findings) == ["SIM006"]


def test_suppression_list_covers_multiple_rules():
    findings = _lint("""
        def broadcast(agents, sim):
            for agent in agents.values():  # simlint: disable=SIM001,SIM003
                sim.call_soon(agent.tick)
    """)
    assert findings == []


def test_syntax_error_becomes_sim000():
    findings = _lint("def broken(:\n    pass")
    assert _rules(findings) == ["SIM000"]


# ----------------------------------------------------------------------
# Baseline round trip
# ----------------------------------------------------------------------
def _tracker_tree(tmp_path):
    root = tmp_path / "proj"
    pkg = root / "src"
    pkg.mkdir(parents=True)
    (pkg / "tracker.py").write_text(textwrap.dedent(ADD_ONLY_CLASS))
    return root


def test_baseline_round_trip(tmp_path):
    root = _tracker_tree(tmp_path)
    findings = lint_paths([root / "src"], root=root)
    assert _rules(findings) == ["SIM006"]

    baseline_path = tmp_path / "baseline.json"
    write_baseline(findings, baseline_path)
    baseline = load_baseline(baseline_path)
    new, fixed = diff_against_baseline(findings, baseline)
    assert new == [] and fixed == 0

    # A second, unbaselined copy of the registry is a new finding ...
    source = (root / "src" / "tracker.py").read_text()
    (root / "src" / "tracker.py").write_text(
        source + textwrap.dedent(ADD_ONLY_CLASS).replace(
            "Tracker", "OtherTracker"))
    new, fixed = diff_against_baseline(
        lint_paths([root / "src"], root=root), baseline)
    assert len(new) == 1 and fixed == 0

    # ... and fixing the original shows up as a fixed count.
    (root / "src" / "tracker.py").write_text("x = 1\n")
    new, fixed = diff_against_baseline(
        lint_paths([root / "src"], root=root), baseline)
    assert new == [] and fixed == 1


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(ValueError):
        load_baseline(path)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exits_nonzero_on_findings(tmp_path, capsys):
    root = _tracker_tree(tmp_path)
    assert main([str(root / "src"), "--no-baseline"]) == 1
    assert "SIM006" in capsys.readouterr().out


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    root = _tracker_tree(tmp_path)
    (root / "src" / "tracker.py").write_text("x = 1\n")
    assert main([str(root / "src"), "--no-baseline"]) == 0


def test_cli_write_then_check_baseline(tmp_path, capsys):
    root = _tracker_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert main([str(root / "src"), "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    assert main([str(root / "src"), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


# ----------------------------------------------------------------------
# The repository itself
# ----------------------------------------------------------------------
def test_repo_src_is_clean_against_committed_baseline():
    findings = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    baseline = load_baseline(REPO_ROOT / "simlint_baseline.json")
    new, _fixed = diff_against_baseline(findings, baseline)
    assert new == [], "\n".join(f.render() for f in new)
