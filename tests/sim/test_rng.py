"""Unit tests for the deterministic RNG helpers."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.rng import DeterministicRNG


def test_same_seed_same_stream():
    a = DeterministicRNG(42)
    b = DeterministicRNG(42)
    assert [a.uniform_int(0, 100) for _ in range(20)] == \
           [b.uniform_int(0, 100) for _ in range(20)]


def test_different_seeds_differ():
    a = DeterministicRNG(1)
    b = DeterministicRNG(2)
    assert [a.uniform_int(0, 10**9) for _ in range(5)] != \
           [b.uniform_int(0, 10**9) for _ in range(5)]


RANGES = [(0, 0), (0, 1), (3, 7), (0, 99999), (0, 2**40), (-5, 5),
          (1, 2**31 - 1), (7, 8), (0, 2**64 + 3)]


@pytest.mark.parametrize("low, high", RANGES)
def test_uniform_int_matches_randint_draw_for_draw(low, high):
    for seed in range(25):
        ours = DeterministicRNG(seed)
        reference = random.Random(seed)
        assert [ours.uniform_int(low, high) for _ in range(200)] == \
               [reference.randint(low, high) for _ in range(200)]
        # The generator state after the draws is identical too.
        assert ours._random.random() == reference.random()


def test_uniform_int_matches_randint_over_random_ranges():
    picker = random.Random(99)
    ours = DeterministicRNG(11)
    reference = random.Random(11)
    for _ in range(5000):
        low = picker.randint(-10**6, 10**6)
        high = low + picker.choice([0, 1, 2, 5, 100, 2**17, 2**33])
        assert ours.uniform_int(low, high) == reference.randint(low, high)


def test_uniform_int_empty_range_raises_like_randint():
    with pytest.raises(ValueError) as ours:
        DeterministicRNG(1).uniform_int(5, 3)
    with pytest.raises(ValueError) as reference:
        random.Random(1).randint(5, 3)
    assert str(ours.value) == str(reference.value)


def test_uniform_int_falls_back_to_randint_without_getrandbits_below():
    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import random\n"
        "random.Random._randbelow = random.Random._randbelow_without_getrandbits\n"
        "from repro.sim import rng\n"
        "assert not rng._INLINE_RANDINT\n"
        "ours, reference = rng.DeterministicRNG(4), random.Random(4)\n"
        "assert [ours.uniform_int(0, 999) for _ in range(300)] == "
        "[reference.randint(0, 999) for _ in range(300)]\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_uniform_int_bounds():
    rng = DeterministicRNG(3)
    values = [rng.uniform_int(5, 10) for _ in range(200)]
    assert min(values) >= 5
    assert max(values) <= 10


def test_bernoulli_extremes():
    rng = DeterministicRNG(4)
    assert all(rng.bernoulli(1.0) for _ in range(10))
    assert not any(rng.bernoulli(0.0) for _ in range(10))


def test_bernoulli_rejects_bad_probability():
    with pytest.raises(ValueError):
        DeterministicRNG().bernoulli(1.5)


def test_exponential_positive_and_mean():
    rng = DeterministicRNG(5)
    samples = [rng.exponential(100.0) for _ in range(2000)]
    assert all(sample >= 0 for sample in samples)
    assert sum(samples) / len(samples) == pytest.approx(100.0, rel=0.15)


def test_exponential_rejects_nonpositive_mean():
    with pytest.raises(ValueError):
        DeterministicRNG().exponential(0)


def test_zipf_index_in_range():
    rng = DeterministicRNG(6)
    values = [rng.zipf_index(1000, 0.99) for _ in range(500)]
    assert all(0 <= value < 1000 for value in values)


def test_zipf_skew_zero_is_uniform_range():
    rng = DeterministicRNG(8)
    values = [rng.zipf_index(100, 0.0) for _ in range(500)]
    assert all(0 <= value < 100 for value in values)


def test_zipf_rejects_empty_population():
    with pytest.raises(ValueError):
        DeterministicRNG().zipf_index(0)


def test_sample_indices_distinct():
    rng = DeterministicRNG(9)
    sample = rng.sample_indices(50, 10)
    assert len(sample) == len(set(sample)) == 10
    with pytest.raises(ValueError):
        rng.sample_indices(5, 10)


def test_choice_and_shuffle_deterministic():
    rng = DeterministicRNG(10)
    items = list(range(10))
    rng.shuffle(items)
    rng2 = DeterministicRNG(10)
    items2 = list(range(10))
    rng2.shuffle(items2)
    assert items == items2
    assert rng.choice([1, 2, 3]) == rng2.choice([1, 2, 3])
