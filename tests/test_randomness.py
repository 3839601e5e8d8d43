"""Tests for deterministic seed derivation."""

from __future__ import annotations

import random

import pytest

from repro.randomness import DEFAULT_SEED, derive_seed, make_rng, peek_outputs, skip_outputs


def test_derive_seed_is_deterministic():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)


def test_derive_seed_depends_on_labels():
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a", 1) != derive_seed(1, "a", 2)


def test_derive_seed_depends_on_base_seed():
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_make_rng_reproducible_streams():
    first = make_rng(DEFAULT_SEED, "stream").random()
    second = make_rng(DEFAULT_SEED, "stream").random()
    assert first == second


def test_make_rng_independent_streams():
    a = [make_rng(DEFAULT_SEED, "a").random() for _ in range(3)]
    b = [make_rng(DEFAULT_SEED, "b").random() for _ in range(3)]
    assert a != b


def _used_rng(warmup):
    """An rng ``warmup`` outputs into its stream, with a cached ``gauss`` value."""
    rng = random.Random(DEFAULT_SEED)
    for _ in range(warmup):
        rng.getrandbits(32)
    rng.gauss(0.0, 1.0)
    return rng


@pytest.mark.parametrize("warmup", [0, 1, 623, 624, 1000])
@pytest.mark.parametrize("count", [0, 1, 624, 2000])
def test_peek_reads_ahead_and_skip_advances_like_getrandbits(warmup, count):
    rng = _used_rng(warmup)
    before = rng.getstate()
    block = peek_outputs(rng, count)
    assert rng.getstate() == before
    twin = random.Random()
    twin.setstate(before)
    assert block.tolist() == [twin.getrandbits(32) for _ in range(count)]
    skip_outputs(rng, count)
    # gauss_next is part of the state, so it is kept too.
    assert rng.getstate() == twin.getstate()
    assert rng.gauss(0.0, 1.0) == twin.gauss(0.0, 1.0)
