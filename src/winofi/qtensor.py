"""Fixed-point tensor carrier and bit-level helpers.

All activations and weights are symmetric two's-complement integers with a
per-tensor scale (real value = stored integer * scale). Arithmetic on stored
values happens in widened accumulators (plain Python ints or int64 arrays);
narrowing back to the storage width always saturates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUPPORTED_WIDTHS = (8, 16)


@dataclass(frozen=True)
class QuantParams:
    """Symmetric signed quantization parameters."""

    bit_width: int
    scale: float

    def __post_init__(self):
        if self.bit_width not in SUPPORTED_WIDTHS:
            raise ValueError(f"bit_width must be one of {SUPPORTED_WIDTHS}, got {self.bit_width!r}")
        if isinstance(self.scale, bool) or not (isinstance(self.scale, (int, float)) and 0 < self.scale < math.inf):
            raise ValueError(f"scale must be a finite positive real, got {self.scale!r}")

    @property
    def int_min(self) -> int:
        return -(1 << (self.bit_width - 1))

    @property
    def int_max(self) -> int:
        return (1 << (self.bit_width - 1)) - 1

    def scale_exponent(self) -> int:
        """Exponent e with scale == 2**e. Raises if the scale is not a power of two."""
        e = math.log2(self.scale)
        if e != round(e):
            raise ValueError(f"scale {self.scale} is not a power of two")
        return int(round(e))


class QTensor:
    """Integer tensor in two's complement at ``qparams.bit_width``.

    Data is stored flat as int64 and frozen after construction, so a QTensor
    can be shared read-only across concurrent trial workers.
    """

    __slots__ = ("shape", "data", "qparams")

    def __init__(self, shape, data, qparams: QuantParams):
        shape = tuple(int(d) for d in shape)
        flat = np.array(data, dtype=np.int64).reshape(-1)
        n = 1
        for d in shape:
            n *= d
        if flat.size != n:
            raise ValueError(f"data length {flat.size} does not match shape {shape}")
        if flat.size and (int(flat.min()) < qparams.int_min or int(flat.max()) > qparams.int_max):
            raise ValueError(f"values out of range for {qparams.bit_width}-bit two's complement")
        flat.flags.writeable = False
        self.shape = shape
        self.data = flat
        self.qparams = qparams

    @property
    def array(self) -> np.ndarray:
        """Read-only int64 view shaped to ``self.shape``."""
        return self.data.reshape(self.shape)

    @property
    def size(self) -> int:
        return self.data.size

    def with_data(self, data) -> "QTensor":
        """New QTensor with the same shape and qparams."""
        return QTensor(self.shape, data, self.qparams)

    def dequantize(self) -> np.ndarray:
        return self.array.astype(np.float64) * self.qparams.scale

    def __eq__(self, other):
        return (
            isinstance(other, QTensor)
            and self.shape == other.shape
            and self.qparams == other.qparams
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self):
        return f"QTensor(shape={self.shape}, bit_width={self.qparams.bit_width}, scale={self.qparams.scale})"


def round_half_away(values: np.ndarray) -> np.ndarray:
    """Round half away from zero, elementwise (deterministic across platforms)."""
    return np.sign(values) * np.floor(np.abs(values) + 0.5)


def quantize(values, qp: QuantParams) -> QTensor:
    """Quantize a real tensor: clamp(round(value / scale)) with saturating clamp."""
    arr = np.asarray(values, dtype=np.float64)
    q = round_half_away(arr / qp.scale)
    q = np.clip(q, qp.int_min, qp.int_max).astype(np.int64)
    return QTensor(arr.shape, q, qp)


def pow2_scale_for(max_abs: float, bit_width: int) -> float:
    """Smallest power-of-two scale whose full range covers ``max_abs``."""
    int_max = (1 << (bit_width - 1)) - 1
    if max_abs <= 0:
        return 2.0 ** -(bit_width - 1)
    return 2.0 ** math.ceil(math.log2(max_abs / int_max))


def flip_with_mask(x: int, mask: int, bit_width: int) -> int:
    """XOR ``mask`` into a stored value and reinterpret at ``bit_width`` bits."""
    v = (int(x) ^ mask) & ((1 << bit_width) - 1)
    if v >= 1 << (bit_width - 1):
        v -= 1 << bit_width
    return v


def flip_array_with_masks(values: np.ndarray, indices: np.ndarray, masks: np.ndarray, bit_width: int) -> np.ndarray:
    """XOR per-element masks into ``values[indices]``, reinterpreting at ``bit_width``.

    Returns a new int64 array; the input is left untouched.
    """
    out = values.astype(np.int64, copy=True)
    if len(indices) == 0:
        return out
    lim = np.int64(1) << np.int64(bit_width)
    half = np.int64(1) << np.int64(bit_width - 1)
    v = (out[indices] ^ masks.astype(np.int64)) & (lim - 1)
    v = np.where(v >= half, v - lim, v)
    out[indices] = v
    return out
