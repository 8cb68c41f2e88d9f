"""Fixed-point tensor carrier and bit-level helpers.

All activations and weights are symmetric two's-complement integers with a
per-tensor scale (real value = stored integer * scale). Arithmetic on stored
values happens in widened accumulators (plain Python ints, or int32 and
int64 arrays); narrowing back to the storage width always saturates.
"""

from __future__ import annotations

import math
import weakref
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
        e = math.log2(self.scale)
        object.__setattr__(self, "_exponent", int(e) if e.is_integer() else None)

    @property
    def int_min(self) -> int:
        return -(1 << (self.bit_width - 1))

    @property
    def int_max(self) -> int:
        return (1 << (self.bit_width - 1)) - 1

    def scale_exponent(self) -> int:
        """Exponent e with scale == 2**e. Raises if the scale is not a power of two."""
        if self._exponent is None:
            raise ValueError(f"scale {self.scale} is not a power of two")
        return self._exponent


# A weak reference to the one QTensor that keeps its cast(). Threads may race
# on it, which at worst converts a tensor again (see QTensor.cast).
_kept_cast = [lambda: None]


class QTensor:
    """Integer tensor in two's complement at ``qparams.bit_width``.

    Data is stored flat as int64 and frozen after construction, so a QTensor
    can be shared read-only across concurrent trial workers. QTensors hold
    the edges of an inference: weights, inputs, captured layer outputs and
    logits. Between layers, an inference passes plain arrays in narrower
    dtypes (see :func:`winofi.runtime.run_inference`).
    """

    __slots__ = ("shape", "data", "qparams", "_cast", "__weakref__")

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
        self._cast = None

    @classmethod
    def trusted(cls, shape: tuple, data: np.ndarray, qparams: QuantParams) -> "QTensor":
        """Wrap the int64 array ``data`` as is: no copy and no range check.

        Precondition: ``data`` holds prod(``shape``) values, every one inside
        [``qparams.int_min``, ``qparams.int_max``], and nothing writes to it
        afterwards. Inference passes layer outputs this way, which are in
        range by construction (requantization and clamps saturate, bit
        flips reinterpret at the bit width); data from outside goes through
        the checked constructor.
        """
        t = cls.__new__(cls)
        t.shape = shape
        t.data = data.reshape(-1)
        t.data.flags.writeable = False
        t.qparams = qparams
        t._cast = None
        return t

    @property
    def array(self) -> np.ndarray:
        """Read-only int64 view shaped to ``self.shape``."""
        return self.data.reshape(self.shape)

    @property
    def size(self) -> int:
        return self.data.size

    def cast(self, dtype) -> np.ndarray:
        """:attr:`array` in ``dtype``, read-only. The data is frozen, so the
        conversion is kept and reused, as by a Program compiled anew on the
        same weights; but by one QTensor at a time, so that at most one kept
        conversion outlives the Programs that hold it: converting another
        QTensor drops it first."""
        out = self._cast
        if out is None or out.dtype != dtype:
            kept = _kept_cast[0]()
            if kept is not None:
                kept._cast = None
            out = self.array.astype(dtype, copy=False)
            out.flags.writeable = False
            self._cast, _kept_cast[0] = out, weakref.ref(self)
        return out

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


def flip_array_with_masks(values: np.ndarray, indices: np.ndarray, masks: np.ndarray, bit_width: int,
                          out=None) -> np.ndarray:
    """XOR per-element masks into ``values[indices]``, reinterpreting at
    ``bit_width``, and return ``out``: ``values`` itself to flip in place,
    or by default a new int64 array, leaving ``values`` untouched."""
    if out is None:
        out = values.astype(np.int64, copy=True)
    if len(indices):
        half = 1 << (bit_width - 1)
        v = values[indices] ^ masks.astype(np.int64)
        v &= 2 * half - 1
        v ^= half  # and less half: the low bit_width bits, sign-extended
        v -= half
        out[indices] = v
    return out
