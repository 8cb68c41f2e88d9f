"""Counter-addressable Bernoulli bit-flip sampling.

Flip decisions are a pure function of (seed, stream labels, bit index): the
bit-address space is cut into fixed chunks and each chunk gets its own Philox
generator keyed by (seed, labels, chunk index). Trials and chunks can
therefore be evaluated in any order or in parallel, and re-running the same
trial under a different protection scope leaves the faults drawn for every
other operation untouched.
"""

from __future__ import annotations

import math

import numpy as np

CHUNK_BITS = 1 << 20

# Below this rate the sampler walks geometric gaps between flips instead of
# thresholding one uniform per bit; the flip process is Bernoulli either way.
SKIP_SAMPLING_BER = 1e-4

# Stream tags keep op-level, neuron-level, and auxiliary draws disjoint.
STREAM_OP = 0
STREAM_NEURON = 1


def _chunk_generator(seed: int, labels: tuple, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence((int(seed),) + tuple(int(x) for x in labels) + (chunk,))
    return np.random.Generator(np.random.Philox(seed=ss))


def _geometric_positions(gen: np.random.Generator, n_bits: int, ber: float) -> np.ndarray:
    est = int(n_bits * ber + 6.0 * math.sqrt(n_bits * ber) + 16.0)
    out = []
    last = -1
    while True:
        gaps = gen.geometric(ber, size=est).astype(np.int64)
        pos = last + np.cumsum(gaps)
        hit_end = pos[-1] >= n_bits
        pos = pos[pos < n_bits]
        out.append(pos)
        if hit_end:
            break
        last = int(pos[-1]) if pos.size else last + int(np.sum(gaps))
    return np.concatenate(out) if len(out) > 1 else out[0]


def sample_flip_positions(seed: int, labels: tuple, total_bits: int, ber: float) -> np.ndarray:
    """Sorted indices of flipped bits in [0, total_bits), each bit flipping
    independently with probability ``ber``."""
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must be in [0, 1], got {ber}")
    if total_bits <= 0 or ber == 0.0:
        return np.empty(0, dtype=np.int64)
    if ber == 1.0:
        return np.arange(total_bits, dtype=np.int64)
    parts = []
    n_chunks = (total_bits + CHUNK_BITS - 1) // CHUNK_BITS
    for chunk in range(n_chunks):
        start = chunk * CHUNK_BITS
        n = min(CHUNK_BITS, total_bits - start)
        gen = _chunk_generator(seed, labels, chunk)
        if ber <= SKIP_SAMPLING_BER:
            pos = _geometric_positions(gen, n, ber)
        else:
            u = gen.random(n)
            pos = np.flatnonzero(u < ber).astype(np.int64)
        if pos.size:
            parts.append(pos + start)
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)
