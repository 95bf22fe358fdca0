"""Measurement collection for simulation runs.

The statistics objects are plain named counters: experiments read them
after a run to compute execution times, bandwidth utilisation and miss
rates.
"""

from __future__ import annotations

from typing import Dict


class Counter:
    """Monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "counter"):
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be non-negative, got {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class StatsRegistry:
    """Named collection of statistics owned by a component.

    Components create their counters through a registry so experiments
    can discover and report them uniformly.
    """

    __slots__ = ("name", "counters")

    def __init__(self, name: str = "stats"):
        self.name = name
        # Instruments live for the whole run by design: experiments read
        # them after the simulation quiesces.
        self.counters: Dict[str, Counter] = {}  # simlint: disable=SIM006 -- instruments are read post-run, never retired

    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            counter = self.counters[name] = Counter(name)
            return counter

    def bind_counters(self, *names: str):
        """Counter handles for ``names``, created on first use.

        Hot-path components bind their counters once in ``__init__`` and
        increment through the returned handles, instead of paying a
        string-keyed registry lookup per packet::

            self._sent, self._dropped = stats.bind_counters("sent", "dropped")
        """
        return tuple(self.counter(name) for name in names)

    def snapshot(self) -> Dict[str, float]:
        """Flatten all counters into a ``{name: value}`` mapping."""
        return {name: counter.value for name, counter in self.counters.items()}
