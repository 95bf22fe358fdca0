"""Unit tests for statistics collectors."""

import pytest

from repro.sim.stats import Counter, StatsRegistry


def test_counter_increments():
    counter = Counter("events")
    counter.increment()
    counter.increment(4)
    assert counter.value == 5


def test_counter_rejects_negative_increment():
    with pytest.raises(ValueError):
        Counter().increment(-1)


def test_counter_reset():
    counter = Counter()
    counter.increment(10)
    counter.reset()
    assert counter.value == 0


def test_registry_reuses_named_instruments():
    registry = StatsRegistry("component")
    counter_a = registry.counter("hits")
    counter_b = registry.counter("hits")
    assert counter_a is counter_b
    registry.counter("hits").increment()
    assert registry.counter("hits").value == 1


def test_registry_snapshot_contains_all_kinds():
    registry = StatsRegistry("component")
    registry.counter("misses")
    registry.counter("hits").increment(3)
    assert registry.snapshot() == {"hits": 3, "misses": 0}
    # Creation order, not name order.
    assert list(registry.snapshot()) == ["misses", "hits"]
