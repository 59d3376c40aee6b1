"""Each trial's generator has exactly `default_rng([seed, t])`'s state.

`link._trial_generators` runs numpy's SeedSequence mix and PCG64's seeding step
for a chunk of trials at once and re-seats one reused Generator per trial.  These
tests hold it, and the engines that draw from it, to fresh `default_rng`
generators, which stay the reference.  They also pin the two draw identities the
engines rest on: `link._qpsk_indices`, read per batch from each trial's raw PCG64
words, equals `integers(0, 4)`, and `standard_exponential` equals
`exponential(1.0)`.  All of
this depends only on numpy's documented seeding and sampling algorithms, so CI
also runs this file alone on the oldest supported numpy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asyncofdm import timing as tm
from asyncofdm.link import _ALPHABETS, _QPSK, _SEED_CHUNK, _qpsk_indices, _trial_generators
from asyncofdm.simulation import SimSpec, sample_snapshot
from tests.conftest import budget_params, frozen_snapshot

SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 96 + 5]
# entropy word boundaries and seeding-chunk boundaries
CENTERS = [0, 1, 255, 256, _SEED_CHUNK - 1, _SEED_CHUNK, _SEED_CHUNK + 1, 2 ** 32 - 1, 2 ** 32,
           2 ** 64 - 1, 2 ** 64]


def _reference_state(seed, t):
    return np.random.default_rng([seed, t]).bit_generator.state


def _assert_states_match(seed, lo, hi):
    got = 0
    for t, rng in zip(range(lo, hi), _trial_generators(seed, lo, hi)):
        assert rng.bit_generator.state == _reference_state(seed, t), (seed, t)
        got += 1
    assert got == hi - lo


@pytest.mark.parametrize("seed", SEEDS)
def test_state_matches_default_rng_around_boundaries(seed):
    for c in CENTERS:
        _assert_states_match(seed, c, c + 1)  # alone
        _assert_states_match(seed, max(c - 2, 0), c + 3)  # inside a run, across 2**32k


@pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 96 + 5])
def test_state_matches_default_rng_across_seeding_chunks(seed):
    _assert_states_match(seed, 0, 2 * _SEED_CHUNK + 3)
    _assert_states_match(seed, 7, _SEED_CHUNK + 9)  # chunks that start off the grid


def test_empty_range_yields_nothing():
    assert list(_trial_generators(3, 5, 5)) == []


def test_reseat_clears_the_buffered_half_word():
    # an odd number of 32-bit draws leaves half of a 64-bit output buffered
    for t, rng in zip(range(4), _trial_generators(9, 0, 4)):
        fresh = np.random.default_rng([9, t])
        assert rng.bit_generator.state == fresh.bit_generator.state
        assert np.array_equal(rng.integers(0, 4, size=5), fresh.integers(0, 4, size=5))
        assert rng.bit_generator.state["has_uint32"] == 1
        assert rng.bit_generator.state == fresh.bit_generator.state


@given(seed=st.one_of(st.integers(0, 2 ** 32), st.integers(0, 2 ** 160)),
       t=st.one_of(st.integers(0, 2 ** 33), st.integers(0, 2 ** 70)), n=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_state_matches_default_rng_property(seed, t, n):
    _assert_states_match(seed, t, t + n)


@pytest.mark.parametrize("timing", ["delta", "gauss"])
def test_snapshot_bitwise_equals_fresh_generator_draws(cfg, timing):
    w = cfg.domain_half_width
    model = tm.delta(-100.0, w) if timing == "delta" else tm.truncated_gaussian(0.2 * 1024, w)
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    for seed in (0, 3, 2 ** 64 + 1):
        spec = SimSpec(1, seed, expected_points=300)
        for t in (0, 1, _SEED_CHUNK, 2 ** 32):
            got = sample_snapshot(params, model, spec, t)
            ref = frozen_snapshot(params, model, spec, t)
            for name in ("distances", "fades", "offsets"):
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()


# ------------------------------------------------ draw identities
#
# Each trial's generator is freshly seated, so it holds no buffered half-word
# when the raw-word QPSK draw starts, and it draws nothing else in that trial.

def _paired_generators(seed, lo, hi):
    """Two independent generator streams over the same trials, with t."""
    return zip(range(lo, hi), _trial_generators(seed, lo, hi), _trial_generators(seed, lo, hi))


def _words(rng, shape):
    """One trial's raw draw as the link engine takes it."""
    raw_shape, dtype, draw, _, _ = _ALPHABETS["qpsk"]
    out = np.empty(raw_shape(*shape), dtype)
    draw(rng, out)
    return out


def _assert_qpsk_indices_match(seed, lo, hi, shape):
    words, wants = [], []
    for t, rng, ref in _paired_generators(seed, lo, hi):  # each generator is reused
        words.append(_words(rng, shape))
        wants.append(ref.integers(0, 4, size=shape))
        # the same 64-bit words consumed; only integers' buffered half may differ
        assert rng.bit_generator.state["state"] == ref.bit_generator.state["state"]
    words = np.stack(words)  # one batch
    _, _, _, by_row, to_symbols = _ALPHABETS["qpsk"]
    indices = by_row(words, shape)
    symbols = np.empty((len(words), *shape), dtype=complex)
    for r in range(shape[0]):  # the engine maps one symbol row of a batch at a time
        to_symbols(indices[:, r], symbols[:, r])
    for t, got, row_symbols, want in zip(range(lo, hi), indices, symbols, wants):
        assert got.shape == want.shape and np.array_equal(got, want), (seed, t, shape)
        assert row_symbols.tobytes() == _QPSK[want].tobytes()
    # and no state leaks into the next trial
    rngs = _trial_generators(seed, lo, hi + 1)
    for t, rng in zip(range(lo, hi + 1), rngs):
        fresh = np.random.default_rng([seed, t])
        got = _qpsk_indices(_words(rng, shape), shape)  # a single trial, no batch axis
        assert np.array_equal(got, fresh.integers(0, 4, size=shape))


@pytest.mark.parametrize("shape", [(1, 1), (2, 7), (3, 600), (1, 5), (3, 7), (4, 5)])
@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, 2 ** 64, 2 ** 96 + 5])
def test_raw_word_qpsk_indices_equal_integers(seed, shape):
    for lo in (0, _SEED_CHUNK - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64):
        _assert_qpsk_indices_match(seed, lo, lo + 3, shape)


@given(seed=st.integers(0, 2 ** 96), t=st.integers(0, 2 ** 70),
       shape=st.tuples(st.integers(1, 4), st.integers(1, 700)))
@settings(max_examples=60, deadline=None)
def test_raw_word_qpsk_indices_property(seed, t, shape):
    _assert_qpsk_indices_match(seed, t, t + 2, shape)


@pytest.mark.parametrize("count", [0, 1, 2, 7, 2000])
@pytest.mark.parametrize("seed", [0, 2 ** 64, 2 ** 96 + 5])
def test_standard_exponential_equals_exponential_one(seed, count):
    for lo in (0, 2 ** 32):
        for t, rng, ref in _paired_generators(seed, lo, lo + 3):
            got, want = rng.standard_exponential(count), ref.exponential(1.0, count)
            assert got.tobytes() == want.tobytes(), (seed, t, count)
            assert rng.random(3).tobytes() == ref.random(3).tobytes()  # same words consumed
