"""Core discrete-event simulation loop.

The :class:`Simulator` owns the virtual clock and a priority queue of
scheduled callbacks.  Higher-level abstractions (events, credit pools,
the fabric's callback chains) are built on top of its scheduling calls.

Hot-path design notes
---------------------
Queue entries are plain lists ``[time, seq, callback, args, single]``
rather than objects with an ``__lt__`` method: the timer heap
(``heapq``) compares entries with C-level list comparison (time first,
then the unique sequence number, never reaching the callback), which
removes a Python-level method call per comparison.

Zero-delay events -- event wake-ups and other
callbacks scheduled *at the current timestamp while it is being
processed* -- bypass the timer queue entirely and go to a FIFO *ready*
deque.  This preserves the global (time, seq) execution order: every
timer entry due at the current timestamp was created strictly earlier
(the clock had not reached that time yet) and therefore carries a
smaller sequence number than any ready entry, so draining timer entries
at the current time first and the ready deque second is exactly seq
order.

Cancellation clears the callback slot in place (``entry[2] = None``);
cancelled entries are purged lazily when they surface, and
:meth:`drain_cancelled` compacts eagerly when cancellations pile up.
:meth:`run` dispatches in a single pass -- one traversal per event
instead of a ``peek()`` + ``step()`` pair -- and batches
same-timestamp callbacks without re-checking the deadline between them.
"""

from __future__ import annotations

import importlib
import os
import warnings
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, List, Optional, Tuple

#: Queue-entry field indices.  Entries are ``[time, seq, callback, args,
#: single]``: ``single`` is True when ``args`` is one bare positional
#: argument (the trampoline fast paths), False when it is a tuple; the
#: unique ``seq`` at index 1 guarantees list comparison never reaches
#: the callback.
_TIME, _SEQ, _CALLBACK, _ARGS, _SINGLE = 0, 1, 2, 3, 4

#: ``drain_cancelled`` runs automatically once at least this many
#: cancelled entries are buried in the queues *and* they outnumber the
#: live entries (see :meth:`Simulator.cancel`).
_AUTO_DRAIN_MIN_CANCELLED = 512


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


class SanitizerError(SimulationError):
    """Raised when a runtime sanitizer invariant check fails.

    Sanitizer checks (enabled with ``Simulator(sanitize=True)`` or the
    ``SIM_SANITIZE=1`` environment variable) guard invariants that the
    normal dispatch loops assume rather than verify: a monotonic clock,
    total (time, seq) dispatch order, credit conservation and bounded
    in-flight tracking maps.  A :class:`SanitizerError` therefore always
    indicates an engine or component bug, never a modelling error.
    """


# ----------------------------------------------------------------------
# Compiled dispatch core (repro.sim._ccore) loading
# ----------------------------------------------------------------------
#: Loader memo: ``module`` is the imported extension (or None),
#: ``checked`` marks that an import was attempted, ``error`` keeps the
#: reason the compiled core is unavailable for the core="c" error
#: message, ``warned`` dedupes the broken-extension warning.
_CCORE_STATE = {"checked": False, "module": None, "error": None,
                "warned": False}


def _reset_ccore_state() -> None:
    """Forget the cached ``_ccore`` import outcome (test hook)."""
    _CCORE_STATE.update(checked=False, module=None, error=None, warned=False)


def _load_ccore(build: bool = False):
    """Import (optionally building) the compiled core, or return ``None``.

    Fallback policy:

    * extension simply not built (``ModuleNotFoundError``) -- silent:
      the pure-Python engine is a first-class peer, not a degraded mode;
    * extension present but broken (ABI drift, truncated ``.so``) --
      one ``RuntimeWarning`` per process, then the Python engine;
    * ``build=True`` (an explicit ``core="c"`` request) additionally
      attempts an on-demand gcc build first; build failures land in
      ``_CCORE_STATE["error"]`` for the caller's error message.
    """
    state = _CCORE_STATE
    if state["module"] is not None:
        return state["module"]
    if state["checked"] and not build:
        return None
    state["checked"] = True
    if build:
        try:
            from repro.sim import _ccore_build
            _ccore_build.ensure_built()
        except Exception as error:  # CCoreBuildError or worse
            state["error"] = str(error)
    try:
        # import_module, not ``from repro.sim import _ccore``: the
        # from-import wraps a missing submodule in a plain ImportError
        # ("cannot import name ..."), which would be indistinguishable
        # from a *broken* extension; import_module keeps the
        # ModuleNotFoundError that makes not-built silent.
        _ccore = importlib.import_module("repro.sim._ccore")
    except ModuleNotFoundError as error:
        if state["error"] is None:
            state["error"] = str(error)
        return None
    except Exception as error:
        state["error"] = str(error)
        if not state["warned"]:
            state["warned"] = True
            warnings.warn(
                "repro.sim._ccore exists but failed to import "
                f"({error}); using the pure-Python engine "
                "(rebuild with `python -m repro.sim._ccore_build`)",
                RuntimeWarning, stacklevel=3)
        return None
    version = getattr(_ccore, "CCORE_API_VERSION", None)
    if version != 2:
        state["error"] = f"ABI mismatch (CCORE_API_VERSION={version!r})"
        if not state["warned"]:
            state["warned"] = True
            warnings.warn(
                f"repro.sim._ccore has {state['error']}; using the "
                "pure-Python engine (rebuild with "
                "`python -m repro.sim._ccore_build`)",
                RuntimeWarning, stacklevel=3)
        return None
    state["module"] = _ccore
    state["error"] = None
    return _ccore


def _resolve_core(core: Optional[str], sanitize: Optional[bool]) -> str:
    """Pick the dispatch core: ``"c"`` or ``"py"``.

    Resolution order: explicit ``core=`` argument, then the ``SIM_CORE``
    environment variable, then ``"auto"``.  The sanitizer always routes
    through the instrumented Python loop -- its per-event invariant
    checks live there -- so ``sanitize=True`` (or ``SIM_SANITIZE``)
    forces ``"py"`` even under ``SIM_CORE=c``.
    """
    if core is None:
        core = os.environ.get("SIM_CORE") or "auto"
    if core not in ("auto", "c", "py"):
        raise ValueError(f"unknown core {core!r} "
                         "(expected 'auto', 'c' or 'py')")
    if sanitize is None:
        sanitize = os.environ.get("SIM_SANITIZE", "0") not in ("", "0")
    if sanitize or core == "py":
        return "py"
    if _load_ccore(build=(core == "c")) is not None:
        return "c"
    if core == "c":
        raise SimulationError(
            "core='c' requested but the compiled dispatch core is "
            f"unavailable: {_CCORE_STATE['error'] or 'import failed'} "
            "(build it with `python -m repro.sim._ccore_build`, or use "
            "core='auto' to fall back silently)")
    return "py"


class Simulator:
    """Event loop with an integer nanosecond clock.

    The simulator is single-threaded and deterministic: callbacks
    scheduled for the same timestamp run in scheduling order.

    Parameters
    ----------
    sanitize:
        Enable the runtime sanitizer: every dispatched event is checked
        against the monotonic-clock and total (time, seq) order
        invariants, and sanitizer-aware components (credit pools,
        datalinks, the event transport) install their own invariant
        checks.  ``None`` (default) reads the ``SIM_SANITIZE``
        environment variable (``"0"``/empty/unset means off).  When off,
        the fused dispatch loops run unchanged -- the sanitizer costs
        nothing when disabled.
    core:
        Dispatch core: ``"py"`` is this pure-Python engine, ``"c"`` the
        compiled ``repro.sim._ccore`` extension (built on demand,
        errors clearly when no compiler is available), ``"auto"`` picks
        the compiled core when an already-built extension imports and
        falls back silently otherwise.  ``None`` (default) reads the
        ``SIM_CORE`` environment variable, defaulting to ``"auto"``.
        Both cores dispatch in the identical total (time, seq) order,
        so simulation results are byte-identical; ``sanitize=True``
        always routes through the instrumented Python loop.
    """

    __slots__ = ("_now", "_seq", "_queue", "_ready", "_running",
                 "_event_count", "_cancelled", "_sanitize", "_san_last_time",
                 "_san_last_seq", "_san_trace")

    def __new__(cls, sanitize: Optional[bool] = None,
                core: Optional[str] = None) -> "Simulator":
        # Factory: a plain ``Simulator(...)`` constructs the compiled-
        # core subclass when core resolution picks "c".  Explicit
        # subclasses (and _CSimulator itself) take the normal path.
        if cls is Simulator and _resolve_core(core, sanitize) == "c":
            return object.__new__(_CSimulator)
        return object.__new__(cls)

    def __init__(self, sanitize: Optional[bool] = None,
                 core: Optional[str] = None) -> None:
        if sanitize is None:
            sanitize = os.environ.get("SIM_SANITIZE", "0") not in ("", "0")
        self._sanitize = bool(sanitize)
        self._san_last_time = -1
        self._san_last_seq = -1
        self._san_trace: Optional[List[Tuple[int, int, str]]] = None
        self._now: int = 0
        self._seq: int = 0
        self._queue: List[list] = []
        self._ready: Deque[list] = deque()
        self._running = False
        self._event_count = 0
        self._cancelled = 0

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far.

        Inside :meth:`run` the counter is accumulated locally and
        flushed when the loop exits (including on error), so a callback
        reading it mid-run sees the count as of the run's start; every
        external observer (after ``run`` returns or raises) sees exact
        accounting.
        """
        return self._event_count

    @property
    def sanitize(self) -> bool:
        """Whether the runtime sanitizer is active on this simulator."""
        return self._sanitize

    @property
    def core(self) -> str:
        """Dispatch core in use: ``"py"`` here, ``"c"`` on the subclass."""
        return "py"

    def enable_dispatch_trace(self) -> List[Tuple[int, int, str]]:
        """Record every dispatch as ``(time, seq, callback qualname)``.

        Only available while sanitizing (the trace hook lives in the
        sanitized dispatch path).  Returns the live trace list; diffing
        two of these locates the first dispatch where two runs diverge.
        """
        if not self._sanitize:
            raise SimulationError(
                "dispatch tracing requires Simulator(sanitize=True)")
        if self._san_trace is None:
            self._san_trace = []
        return self._san_trace

    def _san_check(self, entry: list, callback: Callable[..., None]) -> None:
        """Sanitizer: dispatch-order invariants, checked per event."""
        time = entry[_TIME]
        seq = entry[_SEQ]
        if time < self._now:
            raise SanitizerError(
                f"backwards clock: dispatching entry at t={time} "
                f"(seq={seq}) behind the current time t={self._now}")
        if time < self._san_last_time or (
                time == self._san_last_time and seq <= self._san_last_seq):
            raise SanitizerError(
                "dispatch order violation: entry "
                f"(t={time}, seq={seq}) dispatched after "
                f"(t={self._san_last_time}, seq={self._san_last_seq})")
        self._san_last_time = time
        self._san_last_seq = seq
        if self._san_trace is not None:
            self._san_trace.append(
                (time, seq, getattr(callback, "__qualname__",
                                    type(callback).__name__)))

    def __len__(self) -> int:
        """Pending queue entries, including not-yet-purged cancellations."""
        return len(self._queue) + len(self._ready)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> list:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        Returns an opaque handle accepted by :meth:`cancel`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        entry = [self._now + int(delay), self._seq, callback, args, False]
        self._seq += 1
        if delay == 0:
            self._ready.append(entry)
        else:
            heappush(self._queue, entry)
        return entry

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> list:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        entry = [int(time), self._seq, callback, args, False]
        self._seq += 1
        if time == self._now:
            self._ready.append(entry)
        else:
            heappush(self._queue, entry)
        return entry

    def call_soon(self, callback: Callable[..., None], value: Any = None) -> list:
        """Fast path: run ``callback(value)`` at the current timestamp.

        Used by :class:`~repro.sim.resources.SimEvent` for wake-up
        callbacks whose delay is always zero; skips delay validation and
        the timer queue.
        """
        entry = [self._now, self._seq, callback, value, True]
        self._seq += 1
        self._ready.append(entry)
        return entry

    def call_after(self, delay: int, callback: Callable[..., None],
                   value: Any = None) -> list:
        """Fast path: run ``callback(value)`` after ``delay`` ns.

        Internal engine/trampoline entry point: a single positional
        argument is stored bare (no tuple) and no ``int`` coercion is
        performed.  Negative delays still raise -- a silent backwards
        clock would corrupt event ordering -- the guard merely folds
        into the queue-selection branch.
        """
        entry = [self._now + delay, self._seq, callback, value, True]
        self._seq += 1
        if delay > 0:
            heappush(self._queue, entry)
        elif delay == 0:
            self._ready.append(entry)
        else:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return entry

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, handle: list) -> None:
        """Cancel a previously scheduled callback (lazy removal).

        Cancelling a handle whose callback already executed is a no-op
        (the dispatch loop marks entries spent).  A live cancelled entry
        stays queued until it either surfaces or an automatic or
        explicit :meth:`drain_cancelled` compacts the queue, so
        long-lived runs with many cancelled timers do not grow the
        timer queues without bound.
        """
        if handle[_CALLBACK] is not None:
            handle[_CALLBACK] = None
            handle[_ARGS] = None
            self._cancelled += 1
            if (self._cancelled >= _AUTO_DRAIN_MIN_CANCELLED
                    and self._cancelled * 2 >= len(self)):
                self.drain_cancelled()

    def is_cancelled(self, handle: list) -> bool:
        """True if ``handle`` is spent: cancelled or already executed."""
        return handle[_CALLBACK] is None

    def drain_cancelled(self) -> int:
        """Eagerly remove every cancelled entry from the queues.

        Returns the number of entries removed.  ``run``/``step`` purge
        cancelled entries lazily when they reach the front; this
        compaction keeps the timer queues small when many timers are
        cancelled long before their deadline (retry timers, watchdogs).
        """
        # A full drain removes exactly the not-yet-purged cancellations,
        # which _cancelled tracks precisely.
        removed = self._cancelled
        # Compact in place: the run loop holds direct references to both
        # containers, so they must never be rebound mid-run.
        self._queue[:] = [entry for entry in self._queue
                          if entry[_CALLBACK] is not None]
        heapify(self._queue)
        if self._ready:
            live = [entry for entry in self._ready
                    if entry[_CALLBACK] is not None]
            self._ready.clear()
            self._ready.extend(live)
        self._cancelled = 0
        return removed

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _purge_ready(self) -> None:
        """Drop cancelled entries from the front of the ready deque."""
        ready = self._ready
        while ready and ready[0][_CALLBACK] is None:
            ready.popleft()
            self._cancelled -= 1

    def peek(self) -> Optional[int]:
        """Return the timestamp of the next pending event, or ``None``."""
        self._purge_ready()
        queue = self._queue
        while queue and queue[0][_CALLBACK] is None:
            heappop(queue)
            self._cancelled -= 1
        if self._ready:
            return self._now
        if queue:
            return queue[0][_TIME]
        return None

    def step(self) -> bool:
        """Execute the next scheduled callback.

        Returns ``True`` if a callback was executed, ``False`` if the
        queue was empty.
        """
        while True:
            self._purge_ready()
            queue = self._queue
            while queue and queue[0][_CALLBACK] is None:
                heappop(queue)
                self._cancelled -= 1
            if self._ready:
                # Timer entries due now predate every ready entry (see
                # module docstring) and so run first.
                if queue and queue[0][_TIME] <= self._now:
                    entry = heappop(queue)
                else:
                    entry = self._ready.popleft()
            elif queue:
                entry = heappop(queue)
            else:
                return False
            callback = entry[_CALLBACK]
            if callback is None:
                self._cancelled -= 1
                continue
            if self._sanitize:
                self._san_check(entry, callback)
            # Mark the entry spent so a late cancel() is a no-op.
            entry[_CALLBACK] = None
            self._now = entry[_TIME]
            self._event_count += 1
            if entry[_SINGLE]:
                callback(entry[_ARGS])
            else:
                callback(*entry[_ARGS])
            return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the event queue empties or a limit is reached.

        Parameters
        ----------
        until:
            Absolute time (ns) at which to stop.  Events scheduled at
            exactly ``until`` are still executed, and the clock always
            ends at ``max(until, now)`` -- it advances to the deadline
            even when the queue drains early, and never moves backwards
            for a deadline already in the past.
        max_events:
            Safety valve limiting the number of callbacks executed in
            this call; attempting to execute more raises
            :class:`SimulationError`.

        Returns
        -------
        int
            The simulated time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        try:
            if self._sanitize:
                # Sanitized runs dispatch through peek()/step() so every
                # event passes the invariant checks; the fused loop below
                # stays untouched (and unchecked) for the zero-cost
                # disabled case.
                return self._run_sanitized(until, max_events)
            return self._run_heap(until, max_events)
        finally:
            self._running = False

    def _run_sanitized(self, until: Optional[int],
                       max_events: Optional[int]) -> int:
        """Checked dispatch loop: same semantics as the fused loop.

        One ``peek()`` + ``step()`` pair per event instead of the fused
        single-pass dispatch -- slower (the sanitizer's documented
        overhead) but byte-identical in dispatch order, which the
        per-event ``_san_check`` asserts.
        """
        budget = -1 if max_events is None else max_events
        executed = 0
        while True:
            time = self.peek()
            if time is None or (until is not None and time > until):
                break
            if executed == budget:
                raise SimulationError(
                    f"exceeded max_events={max_events}; possible livelock")
            self.step()
            executed += 1
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _run_heap(self, until: Optional[int], max_events: Optional[int]) -> int:
        queue = self._queue
        ready = self._ready
        pop = heappop
        popleft = ready.popleft
        executed = 0
        # ``budget`` is the number of callbacks still allowed; negative
        # means unlimited.  Checked before each dispatch so the limit is
        # exact and the over-budget event stays queued.
        budget = -1 if max_events is None else max_events
        deadline = float("inf") if until is None else until
        now = self._now
        try:
            while now <= deadline:
                if ready:
                    # Heap entries due now predate the ready entries.
                    if queue and queue[0][_TIME] <= now:
                        if queue[0][_CALLBACK] is None:
                            pop(queue)
                            self._cancelled -= 1
                            continue
                        if executed == budget:
                            raise SimulationError(
                                f"exceeded max_events={max_events}; possible livelock"
                            )
                        entry = pop(queue)
                    else:
                        entry = popleft()
                        if entry[_CALLBACK] is None:
                            self._cancelled -= 1
                            continue
                        if executed == budget:
                            ready.appendleft(entry)
                            raise SimulationError(
                                f"exceeded max_events={max_events}; possible livelock"
                            )
                elif queue:
                    head = queue[0]
                    if head[_CALLBACK] is None:
                        pop(queue)
                        self._cancelled -= 1
                        continue
                    time = head[_TIME]
                    if time > deadline:
                        break
                    if executed == budget:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; possible livelock"
                        )
                    entry = pop(queue)
                    now = self._now = time
                else:
                    break
                executed += 1
                callback = entry[_CALLBACK]
                # Mark the entry spent so a late cancel() is a no-op.
                entry[_CALLBACK] = None
                if entry[_SINGLE]:
                    callback(entry[_ARGS])
                else:
                    callback(*entry[_ARGS])
        finally:
            # Flushed on every exit path so events_processed is exact
            # even when a callback raises or the budget trips.
            self._event_count += executed
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run the simulation to completion with a livelock guard."""
        return self.run(max_events=max_events)


class _CSimulator(Simulator):
    """Compiled-core Simulator: same API, dispatch state in C.

    Constructed by the :class:`Simulator` factory (``__new__``) when
    core resolution picks ``"c"``; never instantiate directly.  The hot
    entry points (``schedule``/``call_after``/``run``/...) are *slot*
    names here: ``__init__`` stores the C engine's bound methods in the
    instance slots, which shadow the parent's Python methods, so both
    ``sim.call_after(...)`` and the components' cached
    ``self._call_after = sim.call_after`` bindings call straight into C
    with no Python trampoline frame.

    Semantics parity with the Python engine (asserted by the
    determinism and property suites):

    * identical total (time, seq) dispatch order, timer-before-ready
      rule included, so simulation results are byte-identical;
    * identical error types and messages (the ``SimulationError`` class
      is injected into the extension at construction);
    * identical lazy-cancellation accounting, ``drain_cancelled``
      return values, auto-drain thresholds, exact ``max_events``
      budgets and ``run(until=...)`` end-of-run clock behaviour;

    Divergence, deliberate and loud: delays/times must be ints
    (``__index__``); the compiled core raises ``TypeError`` where the
    generic Python ``schedule()`` would silently truncate a float.
    Handles are opaque ints rather than list objects -- valid for
    :meth:`cancel`/:meth:`is_cancelled` exactly like the Python
    engine's entry lists, which callers already treat as opaque.
    """

    __slots__ = ("_eng", "schedule", "schedule_at", "call_soon",
                 "call_after", "cancel", "is_cancelled", "drain_cancelled",
                 "peek", "step", "run")

    def __init__(self, sanitize: Optional[bool] = None,
                 core: Optional[str] = None) -> None:
        ccore = _CCORE_STATE["module"]
        if ccore is None:  # direct instantiation outside the factory
            ccore = _load_ccore(build=True)
            if ccore is None:
                raise SimulationError(
                    "compiled dispatch core unavailable: "
                    f"{_CCORE_STATE['error'] or 'import failed'}")
        eng = ccore.Engine(SimulationError)
        self._eng = eng
        self._sanitize = False
        self.schedule = eng.schedule
        self.schedule_at = eng.schedule_at
        self.call_soon = eng.call_soon
        self.call_after = eng.call_after
        self.cancel = eng.cancel
        self.is_cancelled = eng.is_cancelled
        self.drain_cancelled = eng.drain_cancelled
        self.peek = eng.peek
        self.step = eng.step
        self.run = eng.run

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._eng.now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far (exact after run)."""
        return self._eng.events_processed

    @property
    def core(self) -> str:
        """Dispatch core in use."""
        return "c"

    def __len__(self) -> int:
        """Pending queue entries, including not-yet-purged cancellations."""
        return len(self._eng)
