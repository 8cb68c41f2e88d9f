"""Counter-addressable Bernoulli bit-flip sampling.

Flip decisions are a pure function of (seed, stream labels, bit index): the
bit-address space is cut into fixed chunks and each chunk gets its own Philox
stream keyed by ``SeedSequence((seed, *labels, chunk))``. Trials and chunks can
therefore be evaluated in any order or in parallel, and re-running the same
trial under a different protection scope leaves the faults drawn for every
other operation untouched.

A draw computes every chunk's key in one vectorized pass (Philox is
counter-based, so a key and a zero counter are the whole stream; Salmon et
al., SC 2011) and resets the process's one generator to each key in turn,
so draws assume one thread per process.
"""

from __future__ import annotations

import functools
import math

import numpy as np

CHUNK_BITS = 1 << 20

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


def _seed_sequence(seed: int, labels: tuple) -> np.random.SeedSequence:
    """``SeedSequence((seed, *labels))``, its entropy given as the uint32
    words SeedSequence would split those ints into (least significant first)."""
    words = []
    for x in (seed, *labels):
        x = int(x)
        if x < 0:
            raise ValueError(f"seed and labels must be non-negative, got {x}")
        words.append(x & _M32)
        while x > _M32:
            x >>= 32
            words.append(x & _M32)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def _chunk_keys(ss: np.random.SeedSequence, n_chunks: int) -> np.ndarray:
    """(n_chunks, 2) uint64 Philox keys of the draw ``ss`` seeds: row c equals
    ``SeedSequence((seed, *labels, c)).generate_state(2, np.uint64)``."""
    words = ss.entropy
    if len(words) < _POOL_WORDS:
        # the chunk word would enter the pool's first pass; no caller in this
        # package draws with so short a prefix
        return np.array([np.random.SeedSequence(np.append(words, np.uint32(c))).generate_state(2, np.uint64)
                         for c in range(n_chunks)], dtype=np.uint64)
    # The prefix fills the pool, so the chunk word is the last entropy word:
    # SeedSequence hashes it into pool word d with hashmix call 4 * words + d.
    pool = ss.pool * _MIX_L - _chunk_hashes(_POOL_WORDS * len(words), n_chunks)
    pool ^= pool >> 16
    state = (pool ^ _STATE_XOR) * _STATE_MUL
    state ^= state >> 16
    return state.astype("<u4", copy=False).view("<u8")  # word pairs, low word first, as generate_state joins them


@functools.cache
def _generator() -> np.random.Generator:
    """The process's one Philox generator, which every draw resets to each
    of its chunks' keys in turn (see :func:`_reset`). Draws assume one thread
    per process, as the trial pool's worker processes each run one."""
    return np.random.Generator(np.random.Philox(key=0))


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


def _geometric_positions(gen: np.random.Generator, n_bits: int, ber: float) -> np.ndarray:
    """One chunk's flips: the walk of geometric gaps from ``gen`` until it
    passes ``n_bits``. A gap is capped at ``n_bits + 1``, which passes the end
    wherever it starts, so the sums cannot wrap at a tiny ``ber``."""
    est = _gap_count(n_bits, ber)
    out = []
    last = -1
    while True:
        gaps = np.minimum(gen.geometric(ber, size=est), n_bits + 1)
        pos = last + np.cumsum(gaps)
        hit_end = pos[-1] >= n_bits
        pos = pos[pos < n_bits]
        out.append(pos)
        if hit_end:
            break
        last = int(pos[-1])
    return np.concatenate(out) if len(out) > 1 else out[0]


def _geometric_draw(gen: np.random.Generator, keys: list, total_bits: int, ber: float, est: int) -> np.ndarray:
    """Flips of every chunk from ``est`` gaps each, walked in one (chunks,
    est) array. A chunk whose gaps end short of its end is walked again from
    its key by ``_geometric_positions``, which draws the same gaps."""
    gaps = np.array([_reset(gen, key).geometric(ber, size=est) for key in keys], dtype=np.int64)
    np.minimum(gaps, CHUNK_BITS + 1, out=gaps)
    gaps[:, 0] += np.arange(-1, total_bits - 1, CHUNK_BITS)  # a chunk's walk starts one bit before it
    pos = np.cumsum(gaps, axis=1)
    ends = np.arange(CHUNK_BITS, total_bits + CHUNK_BITS, CHUNK_BITS)
    ends[-1] = total_bits
    inside = pos < ends[:, None]
    short = np.flatnonzero(inside[:, -1])
    if not short.size:
        return pos[inside]
    inside[short] = False
    redo = [_geometric_positions(_reset(gen, keys[c]), min(CHUNK_BITS, total_bits - c * CHUNK_BITS), ber)
            + c * CHUNK_BITS for c in short.tolist()]
    return np.sort(np.concatenate([pos[inside], *redo]))


def sample_flip_positions(seed: int, labels: tuple, total_bits: int, ber: float) -> np.ndarray:
    """Sorted indices of flipped bits in [0, total_bits), each bit flipping
    independently with probability ``ber``."""
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must be in [0, 1], got {ber}")
    if total_bits <= 0 or ber == 0.0:
        return np.empty(0, dtype=np.int64)
    if ber == 1.0:
        return np.arange(total_bits, dtype=np.int64)
    n_chunks = (total_bits + CHUNK_BITS - 1) // CHUNK_BITS
    keys = _chunk_keys(_seed_sequence(seed, labels), n_chunks).tolist()
    gen = _generator()
    if ber <= SKIP_SAMPLING_BER:
        return _geometric_draw(gen, keys, total_bits, ber, _gap_count(min(total_bits, CHUNK_BITS), ber))
    parts = [np.flatnonzero(_reset(gen, key).random(min(CHUNK_BITS, total_bits - start)) < ber) + start
             for key, start in zip(keys, range(0, total_bits, CHUNK_BITS))]
    return np.concatenate(parts) if len(parts) > 1 else parts[0]
