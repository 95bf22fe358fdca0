"""Credit-based flow control for the event fabric.

* :class:`SimEvent`   -- one-shot event whose waiters are callbacks run
  through the scheduler; the only blocking primitive the fabric uses.
* :class:`CreditPool` -- integer credit counter with blocking ``take``
  (models credit-based flow control at the datalink and QPair layers).

:meth:`CreditPool.take` returns a :class:`SimEvent` (already succeeded
when the credits are available), as does :meth:`PhysicalLink.offer
<repro.fabric.phy.PhysicalLink.offer>` on a full queue; the caller
continues in a callback registered with :meth:`SimEvent.add_waiter`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.sim.engine import SanitizerError, SimulationError, Simulator


class SimEvent:
    """One-shot event with callback waiters.

    The event succeeds at most once; its value is delivered to every
    waiter.  A waiter added after success still runs, with that value.
    """

    __slots__ = ("sim", "name", "_value", "_succeeded", "_waiters")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._succeeded = False
        self._waiters: List[Callable[[Any], None]] = []

    def succeed(self, value: Any = None) -> None:
        """Trigger the event, waking all waiters at the current time."""
        if self._succeeded:
            raise SimulationError(f"event {self.name!r} already succeeded")
        self._succeeded = True
        self._value = value
        waiters = self._waiters
        if waiters:
            call_soon = self.sim.call_soon
            for waiter in waiters:
                call_soon(waiter, value)
            self._waiters = []

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Register a callback invoked (via the scheduler) on success."""
        if self._succeeded:
            self.sim.call_soon(callback, self._value)
        else:
            self._waiters.append(callback)


class CreditPool:
    """Integer credit counter used for credit-based flow control.

    Senders ``take(n)`` credits (blocking until available) before
    transmitting; receivers ``replenish(n)`` when buffers drain.

    When the owning simulator sanitizes, every pool operation entry
    point re-checks the conservation invariant
    (:meth:`check_conservation`), so a buggy replenish path that
    silently destroys or mints credits is caught at the next pool
    operation even if the buggy code itself performs no checks.
    """

    __slots__ = ("sim", "name", "maximum", "_take_name", "_credits",
                 "_waiters", "_pending_replenish", "total_taken",
                 "total_replenished", "stall_count", "flush_count",
                 "_initial", "_clamped", "_sanitize")

    def __init__(self, sim: Simulator, initial: int, maximum: Optional[int] = None,
                 name: str = "credits"):
        if initial < 0:
            raise ValueError(f"initial credits must be non-negative, got {initial}")
        if maximum is not None and maximum < initial:
            raise ValueError("maximum credits below initial credits")
        self.sim = sim
        self.name = name
        self.maximum = maximum if maximum is not None else initial
        self._take_name = name + ".take"
        self._credits = initial
        self._waiters: Deque[tuple] = deque()  # (event, amount)
        #: Credits accrued towards the next coalesced flush (see
        #: :meth:`schedule_replenish`).
        self._pending_replenish = 0
        self.total_taken = 0
        self.total_replenished = 0
        self.stall_count = 0
        self.flush_count = 0
        self._initial = initial
        #: Credits legitimately discarded by the post-grant clamp; part
        #: of the conservation ledger so clamped returns are
        #: distinguishable from silently destroyed credits.
        self._clamped = 0
        self._sanitize = bool(getattr(sim, "sanitize", False))

    @property
    def available(self) -> int:
        return self._credits

    def _check_amount(self, amount: int) -> None:
        if amount <= 0:
            raise ValueError(f"credit amount must be positive, got {amount}")
        if amount > self.maximum:
            raise SimulationError(
                f"requesting {amount} credits exceeds pool maximum {self.maximum}"
            )

    def take(self, amount: int = 1) -> SimEvent:
        """Consume ``amount`` credits; blocks (via event) until granted."""
        self._check_amount(amount)
        if self._sanitize:
            self.check_conservation()
        event = SimEvent(self.sim, name=self._take_name)
        if not self._waiters and self._credits >= amount:
            self._credits -= amount
            self.total_taken += amount
            # Fresh event, no waiters possible: succeed in place.
            event._succeeded = True
        else:
            self.stall_count += 1
            self._waiters.append((event, amount))
        return event

    def try_take(self, amount: int = 1) -> bool:
        """Non-blocking take; returns ``False`` if short on credits.

        ``amount`` is validated as in :meth:`take`.
        """
        self._check_amount(amount)
        if self._sanitize:
            self.check_conservation()
        if self._waiters or self._credits < amount:
            return False
        self._credits -= amount
        self.total_taken += amount
        return True

    def replenish(self, amount: int = 1) -> None:
        """Return ``amount`` credits and grant any now-satisfiable waiters.

        Waiters are granted before the pool is clamped to ``maximum``:
        credits owed to blocked senders must never be destroyed by the
        clamp.
        """
        if amount <= 0:
            raise ValueError(f"replenish amount must be positive, got {amount}")
        self._credits += amount
        self.total_replenished += amount
        while self._waiters and self._credits >= self._waiters[0][1]:
            event, want = self._waiters.popleft()
            self._credits -= want
            self.total_taken += want
            event.succeed(None)
        if self._credits > self.maximum:
            if self._sanitize and self._waiters:
                raise SanitizerError(
                    f"credit pool {self.name!r}: clamping "
                    f"{self._credits - self.maximum} credits while "
                    f"{len(self._waiters)} taker(s) are still blocked "
                    "(waiters must be granted before the clamp)")
            self._clamped += self._credits - self.maximum
            self._credits = self.maximum
        if self._sanitize:
            self.check_conservation()

    def schedule_replenish(self, amount: int = 1, delay: int = 0) -> None:
        """Return ``amount`` credits ``delay`` ns from now, coalesced.

        Batched credit return: the first pending credit arms a single
        flush event ``delay`` ns out, and credits accrued before it
        fires ride along in the same wakeup pass -- N returns coalesce
        into one :meth:`replenish` (and therefore one waiter-granting
        sweep) instead of N events.  The window is anchored at the
        *first* credit's deadline: the ``delay`` of later calls in the
        window is ignored, so with a constant per-caller delay (the
        datalink's fixed return latency) coalesced credits return at or
        before their own deadline, while mixed delays may return a
        credit earlier or later than its own ``delay`` would.  Receivers
        only return credits for buffer slots that have already drained,
        so an early return cannot overflow.

        Flush-on-idle guarantee: arming is unconditional -- pending
        credits always have a scheduled flush event, so the batch can
        never be stranded and no waiter is left blocked when the
        simulation quiesces.
        """
        if amount <= 0:
            raise ValueError(f"replenish amount must be positive, got {amount}")
        if self._pending_replenish:
            self._pending_replenish += amount
            return
        self._pending_replenish = amount
        self.sim.call_after(delay, self._flush_replenish)

    def _flush_replenish(self, _value=None) -> None:
        if self._sanitize:
            self.check_conservation()
        amount = self._pending_replenish
        self._pending_replenish = 0
        self.flush_count += 1
        self.replenish(amount)

    def check_conservation(self) -> None:
        """Assert the credit-conservation invariant of this pool.

        ``initial + replenished - taken - clamped`` must equal the
        credits currently available, which must lie in
        ``[0, maximum]``.  A mismatch means some code path destroyed or
        minted credits without going through the ledger -- the shape of
        the historical replenish bug that clamped to ``maximum`` before
        granting blocked waiters.
        """
        expected = (self._initial + self.total_replenished
                    - self.total_taken - self._clamped)
        if expected != self._credits:
            raise SanitizerError(
                f"credit pool {self.name!r} conservation violated: "
                f"initial={self._initial} + "
                f"replenished={self.total_replenished} - "
                f"taken={self.total_taken} - clamped={self._clamped} "
                f"= {expected}, but {self._credits} credits are available")
        if not 0 <= self._credits <= self.maximum:
            raise SanitizerError(
                f"credit pool {self.name!r} holds {self._credits} credits, "
                f"outside [0, {self.maximum}]")

    @property
    def pending_replenish(self) -> int:
        """Credits accrued towards the next coalesced flush."""
        return self._pending_replenish

    def pending_waiters(self) -> int:
        return len(self._waiters)
