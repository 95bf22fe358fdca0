"""simlint rules: AST checks for the event engine's correctness contracts.

Each rule encodes one bug class this codebase has actually hit (or is
structurally exposed to):

========  ==============================================================
SIM001    Iteration over unordered ``dict``/``set`` views in modules
          that schedule events or plan donor batches.  Dict iteration
          order is insertion order, i.e. construction *history*; when it
          feeds event scheduling or donor selection, two runs that build
          the same logical state along different paths diverge.
SIM002    ``random`` / ``time.time()`` / ``datetime.now()`` outside
          ``sim/rng.py``.  All stochastic behaviour must flow through
          :class:`~repro.sim.rng.DeterministicRNG`; wall-clock reads are
          nondeterminism by definition.
SIM003    Loop-variable capture in scheduled callbacks.  A ``lambda``
          (or nested ``def``) handed to the scheduler from inside a loop
          closes over the loop *variable*, not its current value; every
          callback fires with the final iteration's value.
SIM004    Missing ``__slots__`` on hot-path classes in ``sim/`` /
          ``fabric/``.  Per-instance ``__dict__`` costs memory and
          attribute-lookup time on the per-packet path, and open
          instance dicts invite monkeypatched state the engine cannot
          replay.
SIM005    Float arithmetic on ns-time values.  Simulated time is an
          integer nanosecond count; float intermediates introduce
          platform-dependent rounding, which is nondeterminism.
SIM006    Add-only registry heuristic: an instance dict that gains keys
          but never loses them -- the shape of the PR 2
          ``replay_attempts_{seq}`` counter leak.
SIM007    Direct access to ``Simulator`` dispatch internals
          (``_queue``, ``_ready``, the C-core ``_eng``) outside
          ``sim/``.  Those structures are an implementation detail of
          the *Python* engine; the compiled core keeps its timers in C
          storage, so outside pokes silently see an empty queue or
          corrupt only one of the two engines.  Go through the public
          API (``schedule``/``cancel``/``peek``/``step``/``len``).
========  ==============================================================

All rules are heuristics tuned to this tree; per-line suppressions
(``# simlint: disable=SIMnnn -- reason``) and the committed baseline
handle the deliberate exceptions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Call names whose presence marks a module as *order-sensitive*: it
#: schedules events or plans donor batches, so any unordered iteration
#: can leak construction history into event order (SIM001 scope).
ORDER_SENSITIVE_CALLS = frozenset({
    "schedule", "schedule_at", "call_soon", "call_after", "_call_after",
    "_call_soon", "schedule_replenish", "inject", "send_and_forget",
    "offer",
})

#: Function-name fragments that mark a module as order-sensitive even
#: without direct scheduling calls (the Monitor Node's batch planners).
ORDER_SENSITIVE_DEF_FRAGMENTS = ("plan", "donor")

#: Reducers whose result does not depend on iteration order; dict-view
#: comprehensions feeding these are exempt from SIM001.
ORDER_INSENSITIVE_SINKS = frozenset({
    "sum", "len", "any", "all", "min", "max", "set", "sorted", "frozenset",
})

#: Dict/set view methods whose iteration order is insertion history.
UNORDERED_VIEW_METHODS = frozenset({"values", "keys", "items"})

#: Callback-accepting entry points: scheduling calls plus the local
#: callback registration points of the fabric/transport layers (SIM003
#: scope -- anywhere a closure outlives the loop iteration).
CALLBACK_SINKS = ORDER_SENSITIVE_CALLS | frozenset({"add_waiter", "expect"})

#: Modules whose import anywhere outside ``sim/rng.py`` is a
#: determinism hazard (SIM002).
NONDETERMINISTIC_MODULES = frozenset({"random", "time", "datetime"})

#: ``Simulator`` dispatch-state attributes (timer heap, ready deque and
#: the C-core shadow).  Touching
#: these from outside ``sim/`` couples callers to one engine's layout
#: (SIM007 scope); names are specific enough that collisions with other
#: classes' private state are unlikely.
ENGINE_INTERNAL_ATTRS = frozenset({
    "_queue", "_ready", "_eng",
})

#: Base-class names that exempt a class from SIM004 (not hot-path
#: instance state: enums, exceptions, typing constructs).
SLOTS_EXEMPT_BASES = frozenset({
    "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag", "Exception",
    "BaseException", "RuntimeError", "ValueError", "TypeError",
    "NamedTuple", "Protocol", "TypedDict", "ABC",
})


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    line_text: str

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Location-stable identity used by the baseline.

        Line *text* rather than line *number*: edits above a finding
        must not make it read as new, and a genuinely new copy of an
        already-baselined line shows up as an increased count.
        """
        return (self.path, self.rule, self.line_text)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _call_name(node: ast.Call) -> Optional[str]:
    """Callee name of a call: ``foo(...)`` or ``obj.foo(...)`` -> ``foo``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_unordered_view_call(node: ast.AST) -> Optional[str]:
    """Return the view method name when ``node`` is ``<expr>.values()`` etc."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in UNORDERED_VIEW_METHODS
            and not node.args and not node.keywords):
        return node.func.attr
    return None


def _free_names(node: ast.AST, bound: Set[str]) -> Set[str]:
    """Names loaded inside ``node`` that are not locally ``bound``."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            if child.id not in bound:
                names.add(child.id)
    return names


def _lambda_params(node: ast.Lambda) -> Set[str]:
    args = node.args
    params = [a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs)]
    if args.vararg:
        params.append(args.vararg.arg)
    if args.kwarg:
        params.append(args.kwarg.arg)
    return set(params)


def _target_names(target: ast.AST) -> Set[str]:
    """All plain names bound by a loop/assignment target."""
    names: Set[str] = set()
    for child in ast.walk(target):
        if isinstance(child, ast.Name):
            names.add(child.id)
    return names


class ModuleLinter(ast.NodeVisitor):
    """One linting pass over one module's AST."""

    def __init__(self, path: str, source: str, tree: ast.Module,
                 is_rng_module: bool, hot_path_module: bool,
                 time_value_module: bool, sim_module: bool = False):
        self.path = path
        self.lines = source.splitlines()
        self.tree = tree
        self.is_rng_module = is_rng_module
        self.hot_path_module = hot_path_module
        self.time_value_module = time_value_module
        self.sim_module = sim_module
        self.findings: List[Finding] = []
        self.order_sensitive = self._module_is_order_sensitive(tree)
        #: Stack of loop-target name sets for SIM003.
        self._loop_targets: List[Set[str]] = []
        #: Parents of every node, for sink-context queries.
        self._parent: Dict[ast.AST, ast.AST] = {}  # simlint: disable=SIM006 -- bounded by the module AST, one pass per module
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parent[child] = parent

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _module_is_order_sensitive(tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in ORDER_SENSITIVE_CALLS:
                    return True
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lowered = node.name.lower()
                if any(fragment in lowered
                       for fragment in ORDER_SENSITIVE_DEF_FRAGMENTS):
                    return True
        return False

    def _line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        lineno = getattr(node, "lineno", 1)
        self.findings.append(Finding(
            path=self.path, line=lineno,
            col=getattr(node, "col_offset", 0) + 1, rule=rule,
            message=message, line_text=self._line_text(lineno)))

    # ------------------------------------------------------------------
    # SIM001 -- unordered iteration in order-sensitive modules
    # ------------------------------------------------------------------
    def _feeds_order_insensitive_sink(self, node: ast.AST) -> bool:
        """True when a comprehension's result is reduced order-insensitively."""
        parent = self._parent.get(node)
        # GeneratorExp passed bare: sum(x for ...) -- the genexp's parent
        # IS the call.  Comprehensions: sum([...]) / sum({...}).
        if isinstance(parent, ast.Call):
            name = _call_name(parent)
            if name in ORDER_INSENSITIVE_SINKS:
                return True
        return False

    def _check_unordered_iter(self, iter_node: ast.AST,
                              context: ast.AST) -> None:
        if not self.order_sensitive:
            return
        view = _is_unordered_view_call(iter_node)
        if view is None:
            return
        if self._feeds_order_insensitive_sink(context):
            return
        self._report(
            iter_node, "SIM001",
            f"iteration over dict .{view}() in an event-scheduling/"
            "donor-planning module depends on insertion history; iterate "
            "a sorted() or explicitly ordered sequence")

    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iter(node.iter, node)
        self._loop_targets.append(_target_names(node.target))
        self._check_loop_captures(node)
        self.generic_visit(node)
        self._loop_targets.pop()

    def visit_While(self, node: ast.While) -> None:
        self._loop_targets.append(set())
        self.generic_visit(node)
        self._loop_targets.pop()

    def _visit_comprehension_node(self, node) -> None:
        for comp in node.generators:
            self._check_unordered_iter(comp.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_node
    visit_SetComp = _visit_comprehension_node
    visit_DictComp = _visit_comprehension_node
    visit_GeneratorExp = _visit_comprehension_node

    # ------------------------------------------------------------------
    # SIM002 -- wall-clock / unseeded randomness
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        if not self.is_rng_module:
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in NONDETERMINISTIC_MODULES:
                    self._report(
                        node, "SIM002",
                        f"import of {root!r} outside sim/rng.py: draw from "
                        "DeterministicRNG / simulated time instead")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self.is_rng_module and node.module:
            root = node.module.split(".")[0]
            if root in NONDETERMINISTIC_MODULES:
                self._report(
                    node, "SIM002",
                    f"import from {root!r} outside sim/rng.py: draw from "
                    "DeterministicRNG / simulated time instead")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # SIM003 -- loop-variable capture in scheduled callbacks
    # ------------------------------------------------------------------
    def _check_loop_captures(self, loop: ast.For) -> None:
        loop_vars = self._loop_targets[-1]
        if not loop_vars:
            return
        nested_defs: Dict[str, ast.FunctionDef] = {}
        for child in ast.walk(loop):
            if isinstance(child, ast.FunctionDef):
                nested_defs[child.name] = child
        for child in ast.walk(loop):
            if not isinstance(child, ast.Call):
                continue
            if _call_name(child) not in CALLBACK_SINKS:
                continue
            for arg in list(child.args) + [kw.value for kw in child.keywords]:
                captured = self._captured_loop_vars(arg, loop_vars,
                                                   nested_defs)
                if captured:
                    names = ", ".join(sorted(captured))
                    self._report(
                        arg, "SIM003",
                        f"callback captures loop variable(s) {names} by "
                        "reference; every firing sees the last iteration's "
                        "value -- bind with a default argument "
                        "(lambda v=v: ...) or pass via scheduler args")

    @staticmethod
    def _captured_loop_vars(arg: ast.AST, loop_vars: Set[str],
                            nested_defs: Dict[str, ast.FunctionDef]
                            ) -> Set[str]:
        if isinstance(arg, ast.Lambda):
            # Params with defaults (lambda v=v: ...) bind at definition
            # time -- the safe idiom -- and params are excluded from the
            # free set either way.
            return _free_names(arg.body, _lambda_params(arg)) & loop_vars
        if isinstance(arg, ast.Name) and arg.id in nested_defs:
            fdef = nested_defs[arg.id]
            args = fdef.args
            bound = {a.arg for a in
                     (args.posonlyargs + args.args + args.kwonlyargs)}
            if args.vararg:
                bound.add(args.vararg.arg)
            if args.kwarg:
                bound.add(args.kwarg.arg)
            free = set()
            for stmt in fdef.body:
                free |= _free_names(stmt, bound)
            return free & loop_vars
        return set()

    # ------------------------------------------------------------------
    # SIM004 -- missing __slots__ on hot-path classes
    # ------------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.hot_path_module and not self._slots_exempt(node):
            has_slots = any(
                isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets)
                for stmt in node.body)
            if not has_slots:
                self._report(
                    node, "SIM004",
                    f"hot-path class {node.name!r} has no __slots__; "
                    "per-instance __dict__ costs memory and lookup time "
                    "on the per-packet path")
        self.generic_visit(node)

    @staticmethod
    def _slots_exempt(node: ast.ClassDef) -> bool:
        name = node.name
        if name.endswith(("Config", "Error", "Exception", "Warning")):
            return True
        for base in node.bases:
            base_name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else None)
            if base_name in SLOTS_EXEMPT_BASES:
                return True
            if base_name and base_name.endswith(("Error", "Exception",
                                                 "Warning")):
                return True
        for decorator in node.decorator_list:
            if (isinstance(decorator, ast.Call)
                    and _call_name(decorator) == "dataclass"):
                for kw in decorator.keywords:
                    if (kw.arg == "slots"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True):
                        return True
        return False

    # ------------------------------------------------------------------
    # SIM005 -- float arithmetic on ns-time values
    # ------------------------------------------------------------------
    @staticmethod
    def _is_ns_target(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Name) and target.id.endswith("_ns"):
            return target.id
        if isinstance(target, ast.Attribute) and target.attr.endswith("_ns"):
            return target.attr
        return None

    @classmethod
    def _float_taint(cls, node: ast.AST) -> bool:
        """True when the expression can produce a float.

        ``int(...)`` / ``round(...)`` conversions launder the taint: the
        rule is about float values *escaping into* time arithmetic, not
        about using division to derive a duration.
        """
        if isinstance(node, ast.Call):
            if _call_name(node) in ("int", "round"):
                return False
            return any(cls._float_taint(arg) for arg in node.args)
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return cls._float_taint(node.left) or cls._float_taint(node.right)
        return any(cls._float_taint(child)
                   for child in ast.iter_child_nodes(node))

    def _check_ns_assignment(self, node, targets: Sequence[ast.AST],
                             value: Optional[ast.AST]) -> None:
        if not self.time_value_module or value is None:
            return
        for target in targets:
            name = self._is_ns_target(target)
            if name and self._float_taint(value):
                self._report(
                    node, "SIM005",
                    f"float arithmetic assigned to ns-time value "
                    f"{name!r}; simulated time must stay integral "
                    "(use //, or wrap in int(round(...)))")
                return

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_ns_assignment(node, node.targets, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        taints = self._float_taint(node.value) or isinstance(node.op, ast.Div)
        if (self.time_value_module and self._is_ns_target(node.target)
                and taints):
            self._report(
                node, "SIM005",
                "float arithmetic folded into an ns-time value; simulated "
                "time must stay integral (use //, or wrap in int(round(...)))")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_ns_assignment(node, [node.target], node.value)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # SIM007 -- engine dispatch internals touched outside sim/
    # ------------------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        # ``self._queue`` is a class's own private state (any class may
        # name an attribute that way); the hazard is reaching *into*
        # another object's dispatch structures from outside sim/.
        if (not self.sim_module
                and node.attr in ENGINE_INTERNAL_ATTRS
                and self._self_attr(node) is None):
            self._report(
                node, "SIM007",
                f"direct access to engine internal .{node.attr} outside "
                "sim/; the compiled core does not share the Python "
                "engine's dispatch structures -- use the public API "
                "(schedule/cancel/peek/step/len)")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # SIM006 -- add-only registry heuristic
    # ------------------------------------------------------------------
    def check_add_only_registries(self) -> None:
        """Flag instance dicts that gain keys but never lose them.

        Scans each class: an attribute initialised to ``{}``/``dict()``
        in ``__init__`` that is written through subscript/``setdefault``
        somewhere in the class, with no ``del``/``pop``/``popitem``/
        ``clear``/reassignment anywhere, is the replay-counter-leak
        shape -- unbounded growth proportional to traffic, not to
        configuration.
        """
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                self._check_class_registries(node)

    def _check_class_registries(self, cls_node: ast.ClassDef) -> None:
        init = next((stmt for stmt in cls_node.body
                     if isinstance(stmt, ast.FunctionDef)
                     and stmt.name == "__init__"), None)
        if init is None:
            return
        candidates: Dict[str, ast.AST] = {}
        for stmt in ast.walk(init):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            value = stmt.value
            if value is None or not self._is_empty_dict(value):
                continue
            for target in targets:
                attr = self._self_attr(target)
                if attr is not None:
                    candidates[attr] = stmt
        if not candidates:
            return
        inserted: Set[str] = set()
        removed: Set[str] = set()
        for node in ast.walk(cls_node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        attr = self._self_attr(target.value)
                        if attr:
                            inserted.add(attr)
            if isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        attr = self._self_attr(target.value)
                        if attr:
                            removed.add(attr)
            if isinstance(node, ast.Call) and isinstance(node.func,
                                                         ast.Attribute):
                if node.func.attr in ("pop", "popitem", "clear"):
                    attr = self._self_attr(node.func.value)
                    if attr:
                        removed.add(attr)
                if node.func.attr == "setdefault":
                    attr = self._self_attr(node.func.value)
                    if attr:
                        inserted.add(attr)
        for attr in sorted((inserted - removed) & set(candidates)):
            self._report(
                candidates[attr], "SIM006",
                f"registry self.{attr} only ever gains keys (no del/pop/"
                "clear anywhere in the class); if growth tracks traffic "
                "rather than configuration this is the replay-counter "
                "leak shape")

    @staticmethod
    def _is_empty_dict(node: ast.AST) -> bool:
        if isinstance(node, ast.Dict) and not node.keys:
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "dict" and not node.args
                and not node.keywords)

    @staticmethod
    def _self_attr(node: ast.AST) -> Optional[str]:
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr
        return None

    # ------------------------------------------------------------------
    def run(self) -> List[Finding]:
        self.visit(self.tree)
        self.check_add_only_registries()
        self.findings.sort(key=lambda f: (f.line, f.col, f.rule))
        return self.findings
