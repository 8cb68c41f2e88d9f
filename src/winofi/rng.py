"""Counter-addressable Bernoulli bit-flip sampling.

Flip decisions are a pure function of (seed, stream labels, bit index): the
bit-address space is cut into fixed chunks and each chunk gets its own Philox
stream keyed by ``SeedSequence((seed, *labels, chunk))``. Trials and chunks can
therefore be evaluated in any order or in parallel, and re-running the same
trial under a different protection scope leaves the faults drawn for every
other operation untouched.

A draw computes every chunk's key in one vectorized pass and builds its own
generator, which it resets to each key in turn: Philox is counter-based, so
a key and a zero counter are the whole stream (Salmon et al., SC 2011).
Above ``SKIP_SAMPLING_BER`` a chunk's raw words are read from its stream a
block at a time, so a draw's memory does not grow with the chunk. Draws
share no mutable state, so they may run in threads.
"""

from __future__ import annotations

import functools
import math

import numpy as np

CHUNK_BITS = 1 << 20

# Raw words a uniform-regime draw holds at once: 512 KiB of them and 64 KiB
# of comparison, which stay in a core's L2 cache, where a whole chunk's
# words and mask would take 9 MiB of fresh memory per chunk.
_BLOCK = 1 << 16

# Below this rate the sampler walks geometric gaps between flips instead of
# thresholding one uniform per bit; the flip process is Bernoulli either way.
SKIP_SAMPLING_BER = 1e-4

# Stream tags keep op-level, neuron-level, and auxiliary draws disjoint.
STREAM_OP = 0
STREAM_NEURON = 1

# numpy.random.SeedSequence's mixing: a pool of four uint32 words, its
# hashmix (INIT_A/MULT_A) and mix constants, and generate_state's INIT_B/MULT_B.
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's hash constants c_i = ``init * mult**i`` (mod 2^32) of
    the four hashes from call ``first`` on: each XORs c_i, then multiplies by
    c_i+1."""
    c = np.array([init * pow(mult, first + i, 1 << 32) & _M32 for i in range(_POOL_WORDS + 1)], dtype=np.uint32)
    return c[:-1], c[1:]


_STATE_XOR, _STATE_MUL = _hash_consts(_INIT_B, _MULT_B, 0)  # generate_state's four words


@functools.lru_cache(maxsize=64)
def _chunk_hashes(first: int, n_chunks: int) -> np.ndarray:
    """(n_chunks, 4) uint32: row c is hashmix calls ``first`` .. ``first`` + 3
    of chunk word c, times the mix constant they enter the pool with. They
    depend on nothing else, so draws share them, read-only."""
    xor, mul = _hash_consts(_INIT_A, _MULT_A, first)
    h = (np.arange(n_chunks, dtype=np.uint32)[:, None] ^ xor) * mul
    h ^= h >> 16
    h *= _MIX_R
    h.setflags(write=False)
    return h


def _chunk_keys(ss: np.random.SeedSequence, n_chunks: int) -> np.ndarray:
    """(n_chunks, 2) uint64 Philox keys of the draw ``ss`` seeds: row c equals
    ``SeedSequence((seed, *labels, c)).generate_state(2, np.uint64)``."""
    # the uint32 words SeedSequence splits the prefix's ints into
    words = sum((int(x).bit_length() + 31) // 32 or 1 for x in ss.entropy)
    if words < _POOL_WORDS:
        # the chunk word would enter the pool's first pass; no caller in this
        # package draws with so short a prefix
        return np.array([np.random.SeedSequence((*ss.entropy, c)).generate_state(2, np.uint64)
                         for c in range(n_chunks)], dtype=np.uint64)
    # The prefix fills the pool, so the chunk word is the last entropy word:
    # SeedSequence hashes it into pool word d with hashmix call 4 * words + d.
    pool = ss.pool * _MIX_L - _chunk_hashes(_POOL_WORDS * words, n_chunks)
    pool ^= pool >> 16
    state = (pool ^ _STATE_XOR) * _STATE_MUL
    state ^= state >> 16
    return state.astype("<u4", copy=False).view("<u8")  # word pairs, low word first, as generate_state joins them


def _reset(gen: np.random.Generator, key: list) -> np.random.Generator:
    """Point ``gen`` at the start of the Philox stream of ``key``."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _gap_count(n_bits: int, ber: float) -> int:
    """Geometric gaps drawn at once: enough to pass ``n_bits`` all but never."""
    return int(n_bits * ber + 6.0 * math.sqrt(n_bits * ber) + 16.0)


def _geometric_draw(gen: np.random.Generator, keys: list, starts: np.ndarray, ends: np.ndarray,
                    ber: float, est: int) -> np.ndarray:
    """Flips of the chunks [starts, ends) from ``est`` gaps each, walked in one
    (chunks, est) array. A gap is capped at ``CHUNK_BITS + 1``, which passes a
    chunk's end wherever it starts, so the sums cannot wrap at a tiny ``ber``.
    A chunk's first ``est`` gaps are the same however many are drawn, so the
    chunks whose gaps end short are walked again, alone, with ``2 * est``."""
    gaps = np.array([_reset(gen, key).geometric(ber, size=est) for key in keys], dtype=np.int64)
    np.minimum(gaps, CHUNK_BITS + 1, out=gaps)
    gaps[:, 0] += starts - 1  # a chunk's walk starts one bit before it
    pos = np.cumsum(gaps, axis=1)
    inside = pos < ends[:, None]
    short = np.flatnonzero(inside[:, -1])
    if not short.size:
        return pos[inside]
    inside[short] = False
    redo = _geometric_draw(gen, [keys[c] for c in short.tolist()], starts[short], ends[short], ber, 2 * est)
    return np.sort(np.concatenate([pos[inside], redo]))


def _raw_limit(ber: float) -> np.uint64:
    """The largest raw Philox word u for which ``random() < ber``: random()
    is (u >> 11) * 2^-53, below ``ber`` exactly when u is below
    ceil(ber * 2^53) << 11, which is at most 2^64 (at ``ber`` 1.0)."""
    return np.uint64((math.ceil(ber * 2.0**53) << 11) - 1)


def sample_flip_positions(seed: int, labels: tuple, total_bits: int, ber: float) -> np.ndarray:
    """Sorted indices of flipped bits in [0, total_bits), each bit flipping
    independently with probability ``ber``."""
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must be in [0, 1], got {ber}")
    if total_bits <= 0 or ber == 0.0:
        return np.empty(0, dtype=np.int64)
    ss = np.random.SeedSequence((seed, *labels))
    starts = np.arange(0, total_bits, CHUNK_BITS)
    ends = np.minimum(starts + CHUNK_BITS, total_bits)
    keys = _chunk_keys(ss, starts.size).tolist()
    gen = np.random.Generator(np.random.Philox(ss))
    if ber <= SKIP_SAMPLING_BER:
        return _geometric_draw(gen, keys, starts, ends, ber, _gap_count(int(ends[0]), ber))
    limit = _raw_limit(ber)
    parts = []
    for key, start, end in zip(keys, starts.tolist(), ends.tolist()):
        words = _reset(gen, key).bit_generator
        # Philox carries its counter across calls: these are the words of one
        # random_raw(end - start) call, read one block at a time
        parts += [np.flatnonzero(words.random_raw(min(_BLOCK, end - lo)) <= limit) + lo
                  for lo in range(start, end, _BLOCK)]
    return np.concatenate(parts) if len(parts) > 1 else parts[0]
