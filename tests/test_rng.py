"""The flip sampler against its definition: per-chunk SeedSequence keys, and
one Philox stream per chunk walked by geometric gaps (BER <= 1e-4) or
thresholded one uniform per bit (above)."""

import hashlib
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winofi.rng import (
    CHUNK_BITS,
    SKIP_SAMPLING_BER,
    _BLOCK,
    _chunk_keys,
    _geometric_draw,
    _raw_limit,
    _reset,
    sample_flip_positions,
)


def reference_positions(seed, labels, total_bits, ber):
    """The sampling definition, one chunk at a time: a fresh SeedSequence ->
    Philox -> Generator per chunk, gaps drawn one by one as Python ints."""
    parts = [np.empty(0, dtype=np.int64)]
    for chunk, start in enumerate(range(0, total_bits, CHUNK_BITS)):
        n = min(CHUNK_BITS, total_bits - start)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *labels, chunk))))
        if ber <= SKIP_SAMPLING_BER:
            pos, last = [], -1
            while True:
                last += int(gen.geometric(ber))
                if last >= n:
                    break
                pos.append(last)
            pos = np.array(pos, dtype=np.int64)
        else:
            pos = np.flatnonzero(gen.random(n) < ber)
        parts.append(pos + start)
    return np.concatenate(parts)


SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**63 - 1))
LABELS = st.lists(st.integers(0, 2**40), min_size=1, max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, labels=LABELS, n_chunks=st.integers(1, 40))
def test_chunk_keys_equal_seed_sequence(seed, labels, n_chunks):
    keys = _chunk_keys(np.random.SeedSequence((seed, *labels)), n_chunks)
    expect = [np.random.SeedSequence((seed, *labels, c)).generate_state(2, np.uint64) for c in range(n_chunks)]
    assert keys.shape == (n_chunks, 2)
    assert np.array_equal(keys, np.array(expect))


EDGE_BITS = [1, 777, CHUNK_BITS - 1, CHUNK_BITS, CHUNK_BITS + 1, 2 * CHUNK_BITS, 3 * CHUNK_BITS - 5]


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, labels=LABELS, total_bits=st.sampled_from(EDGE_BITS),
       ber=st.one_of(st.just(SKIP_SAMPLING_BER), st.floats(1e-7, SKIP_SAMPLING_BER)))
def test_geometric_regime_equals_per_chunk_reference(seed, labels, total_bits, ber):
    pos = sample_flip_positions(seed, labels, total_bits, ber)
    assert pos.dtype == np.int64
    assert np.array_equal(pos, reference_positions(seed, labels, total_bits, ber))


# The uniform regime compares raw Philox words against a limit derived from
# the BER; the reference thresholds random() < ber. These BERs sit where that
# limit could be off by one: the smallest BER of the regime, BERs whose
# ber * 2^53 is an integer, and 1.0, whose limit is the largest uint64.
UNIFORM_BERS = [float(np.nextafter(SKIP_SAMPLING_BER, 1)), 1.0001e-4, 2.0**-10, 3e-3, 0.25, 0.5, 1.0]


# A chunk's words are read _BLOCK at a time; these totals end a draw on
# either side of a block's and a chunk's edge.
UNIFORM_BITS = [777, _BLOCK - 1, _BLOCK, _BLOCK + 1, CHUNK_BITS, CHUNK_BITS + 1, CHUNK_BITS + _BLOCK + 1]


@pytest.mark.parametrize("total_bits", UNIFORM_BITS)
@pytest.mark.parametrize("ber", UNIFORM_BERS)
def test_uniform_regime_equals_per_chunk_reference(total_bits, ber):
    pos = sample_flip_positions(5, (0, 2, 1, 0), total_bits, ber)
    assert np.array_equal(pos, reference_positions(5, (0, 2, 1, 0), total_bits, ber))


def test_uniform_draw_holds_one_block_of_words_at_a_time():
    # a whole chunk's words and their comparison would take 9 MiB
    args = (0, (0, 1, 2, 0), 2 * CHUNK_BITS + 5, 1e-3)
    sample_flip_positions(*args)  # fill the key cache first
    tracemalloc.start()
    try:
        sample_flip_positions(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("ber", UNIFORM_BERS + [1 / 3, 0.999])
def test_raw_word_limit_is_the_uniform_threshold(ber):
    # random() is a raw Philox word shifted right by 11 bits, times 2^-53 ...
    gen = np.random.Generator(np.random.Philox(7))
    raw = _reset(gen, [3, 4]).bit_generator.random_raw(1000)
    assert np.array_equal(_reset(gen, [3, 4]).random(1000), (raw >> np.uint64(11)) * 2.0**-53)
    # ... so random() < ber holds exactly for the words at or below the limit
    limit = int(_raw_limit(ber))
    words = np.array([w for w in (limit - 2**11, limit - 1, limit, limit + 1, limit + 2**11) if w < 2**64],
                     dtype=np.uint64)
    assert np.array_equal((words >> np.uint64(11)) * 2.0**-53 < ber, words <= np.uint64(limit))
    assert (words <= np.uint64(limit)).sum() == 3


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, labels=LABELS, total_bits=st.sampled_from([777, 100_000, 3 * _BLOCK + 1, CHUNK_BITS + 1]),
       ber=st.floats(SKIP_SAMPLING_BER, 1.0, exclude_min=True))
def test_uniform_regime_equals_per_chunk_reference_at_any_ber(seed, labels, total_bits, ber):
    pos = sample_flip_positions(seed, labels, total_bits, ber)
    assert np.array_equal(pos, reference_positions(seed, labels, total_bits, ber))


@pytest.mark.parametrize("est", [1, 2, 7])
@pytest.mark.parametrize("total_bits", [300_000, 2 * CHUNK_BITS + 300_000])
def test_short_walks_are_redone_from_their_keys(est, total_bits):
    # so few gaps per chunk that every walk ends short of its chunk's end
    seed, labels, ber = 11, (0, 4, 2, 0), 1e-4
    ss = np.random.SeedSequence((seed, *labels))
    starts = np.arange(0, total_bits, CHUNK_BITS)
    ends = np.minimum(starts + CHUNK_BITS, total_bits)
    keys = _chunk_keys(ss, starts.size).tolist()
    pos = _geometric_draw(np.random.Generator(np.random.Philox(ss)), keys, starts, ends, ber, est)
    expect = reference_positions(seed, labels, total_bits, ber)
    assert np.bincount(expect // CHUNK_BITS, minlength=len(keys)).min() >= est
    assert np.array_equal(pos, expect)


@pytest.mark.parametrize("ber", [1e-18, 1e-300, 5e-324])
@pytest.mark.parametrize("total_bits", [1000, CHUNK_BITS + 5, 3 * CHUNK_BITS])
def test_tiny_ber_draws_no_flips(ber, total_bits):
    # numpy caps such gaps at INT64_MAX; summed uncapped they wrapped negative
    assert sample_flip_positions(0, (0, 0, 0, 0), total_bits, ber).size == 0


def test_ber_one_flips_every_bit():
    total_bits = 2 * CHUNK_BITS + 5
    assert np.array_equal(sample_flip_positions(3, (0, 1, 2, 0), total_bits, 1.0), np.arange(total_bits))


def test_concurrent_draws_equal_serial_draws():
    # draws over several chunks in both regimes, from 4 threads at once
    args = [(seed, (0, trial, 1, 0), total_bits, ber)
            for seed in (0, 2**40 + 3) for trial in range(3)
            for total_bits in (CHUNK_BITS + 1, 3 * CHUNK_BITS - 5)
            for ber in (1e-6, SKIP_SAMPLING_BER, 3e-4)]
    serial = [sample_flip_positions(*a) for a in args]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that shared state would show
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda a: sample_flip_positions(*a), args, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for a, want, got in zip(args, serial, threaded):
        assert np.array_equal(got, want), a


def test_negative_seed_or_label_is_rejected():
    with pytest.raises(ValueError):
        sample_flip_positions(-1, (0, 0, 0, 0), 1000, 1e-4)
    with pytest.raises(ValueError):
        sample_flip_positions(1, (0, -3, 0, 0), 1000, 1e-4)


# sha256 of the sampler's positions over a fixed grid, taken with the
# per-chunk sampler that the batched one replaced
PINNED_DIGESTS = {
    "geometric": ((1000, CHUNK_BITS, 3 * CHUNK_BITS + 17), (1e-6, 1e-5, 1e-4),
                  "cfff59d0c1ad6a10f1ffd569f3d7e0c66cb6ecf608107e88e91507fe11458d72"),
    "uniform": ((1000, CHUNK_BITS + 17), (2e-4, 1e-3),
                "d0c8b4b6ee62fe8e9f2b6eccbee18c733aa7509710f61a2c3c62de2c77374aee"),
}


@pytest.mark.parametrize("regime", sorted(PINNED_DIGESTS))
def test_sampler_digests_are_pinned(regime):
    totals, bers, expect = PINNED_DIGESTS[regime]
    h = hashlib.sha256()
    for seed in (0, 7919, 2**32 + 5, 2**63 - 1):
        for labels in ((0, 0, 0, 0), (1, 3, 2, 5), (0, 2**33, 1, 0), (7,)):
            for total_bits in totals:
                for ber in bers:
                    pos = sample_flip_positions(seed, labels, total_bits, ber)
                    h.update(np.int64(pos.size).tobytes())
                    h.update(pos.astype("<i8").tobytes())
    assert h.hexdigest() == expect
