"""Direct and Winograd 3x3 stride-1 convolution over integer tensors.

Both engines produce bit-identical outputs on the same inputs: the Winograd
path runs its transforms in scaled integers (the filter transform uses 2G, so
every intermediate is an exact integer carrying a factor of 4 that the final
requantization shift absorbs). Every primitive multiply and accumulation add
can be routed through an instrumentation hook:

    hook(op_id, layer_id, op_type, stage, value) -> value

The hook sees each operation's widened integer result exactly once, in a
canonical order that is stable for a fixed (weights, input shape, engine), and
may return a modified integer. ``hook=None`` selects a vectorized fault-free
path that matches the hooked path element-exactly. Each engine runs it as
one block of its own around the same dense pass, the direct convolution as
BLAS matrix products over the integer operands: F(2x2, 3x3) is exact, so a
Winograd layer's accumulators are 4 times the direct ones, bias included,
on every tile, and its requant shift is 2 more, which rounds and saturates
them alike. The products give the integer sums bit for bit because every
conv input is requantized to 8 or 16 bits: they run in float32 when no
partial sum can reach 2^24, else in float64
(:attr:`ConvSpec.gemm_weights`), and :class:`ConvSpec` rejects
(ShapeError, CLI exit 2) any layer with enough input channels for a
Winograd partial sum to reach 2^53. The accumulators then take the bias
and their requantization in int32 when neither they nor the rounding add
on them can leave it, else in int64 (:meth:`ConvSpec.acc_dtype`). A conv
takes an (N, C, H, W) integer array at ``in_qparams`` and returns a fresh
C-contiguous plane in that dtype, or in int64 when struck or hooked.

A layer's ops group into output units: a direct output pixel, or a Winograd
(tile, output channel). Passed an :class:`OpFaults` table of the ops to flip
as its hook, a conv runs the vectorized path and applies the table's flips of
its ops inside that one pass, before its one requantization. Every op that
reads a flipped value is linear in it (an add, or a multiply by a static
filter value), and the integer arithmetic is exact, so each flip changes the
values after it by ``_flip(v, m) - v`` through fixed maps, where v is the
value the hook would see. The direct kernel adds each flip's change to its
pixel's accumulator. The Winograd kernel recomputes each unit whose
values a flip changes (every unit of a tile whose input transform is
struck) one stage at a time, from the input transform to the inverse
transform, each stage's flips changing the values the next stage reads.
Only the values that flips read are computed, in NumPy lockstep over every
flip of the layer: products one by one, running sums from their chains'
prefixes, and the transforms' add chains in dependency order
(:func:`_add_flips`, :func:`_lockstep`). A struck layer pays a few dozen
NumPy calls; the rest of its work scales with its flips and struck units,
and a stage without a flip costs nothing. Every value and change
stays exact (:func:`lockstep_bound`): in float64 for a Winograd layer below
2^53, whose transforms then run as BLAS products, in int64 below 2^63, else
on Python ints, whose struck outputs requantize on their own over the
int64 plane's (:func:`_requant`). Any other hook sees every op; that
hooked path is the reference for the fast path.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .qtensor import QTensor, QuantParams


class OpType(IntEnum):
    MUL = 0
    ADD = 1


class Stage(IntEnum):
    DIRECT_MAC = 0
    WG_INPUT_TF = 1
    WG_EWMUL = 3  # 2 is unused: the numbers are part of pinned op-stream digests
    WG_CHANNEL_SUM = 4
    WG_INVERSE_TF = 5


Hook = Callable[[int, int, int, int, int], int]


@dataclass(frozen=True)
class OpFaults:
    """The op faults of one inference, passed to a conv as its hook.

    ``ids`` holds the struck op ids, ascending. ``masks`` holds their uint64
    XOR masks, one column, or three when some op runs under TMR: such an op's
    result is the median of its three flipped copies (the majority vote), and
    every other op repeats its one mask in all three columns. An op flips bits
    of the low ``width_mul`` (MUL) or ``width_add`` (ADD) bits of its result;
    those widths bound the values the fast path must hold exactly (see
    :func:`lockstep_bound`). ``record`` hands the faults to the trace and
    runs once per inference. ``reference`` is a per-op hook applying the
    same faults, which runs every op of the hooked engine instead.
    """

    ids: np.ndarray
    masks: np.ndarray
    width_mul: int
    width_add: int
    record: Callable[[], None]
    reference: Hook


# F(2x2, 3x3) transform constants (exact rationals; G carries halves).
BT_F2X2_3X3 = np.array(
    [[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]], dtype=np.int64
)
G_F2X2_3X3 = np.array(
    [[1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0.0, 0.0, 1.0]], dtype=np.float64
)
AT_F2X2_3X3 = np.array([[1, 1, 1, 0], [0, 1, -1, -1]], dtype=np.int64)
# Doubled filter transform: (2G) g (2G)^T = 4 * G g G^T stays integral.
G2_F2X2_3X3 = np.array([[2, 0, 0], [1, 1, 1], [1, -1, 1], [0, 0, 2]], dtype=np.int64)


@dataclass(frozen=True)
class _Transform:
    """Straight-line ADD program computing M X M^T on a flat, row-major X.

    Each row of M is one add chain: it starts at the row's first positive
    term and adds or subtracts the other terms in index order; a coefficient
    of 2 repeats its term, so doublings are self-additions. The rows pass
    M X runs before the columns pass (M X) M^T, each in row-major output
    order. Slots hold X, then M X, then the result; step (dst, a, b,
    subtract) sets slot dst to slot a +/- slot b, and a chain's partial sums
    land in its own dst slot.
    """

    steps: tuple
    pad: list  # zero slots appended to X
    out: int  # first slot of the result

    @classmethod
    def of(cls, m: np.ndarray, cols: int) -> "_Transform":
        r, rows = m.shape  # X is rows x cols, the result r x r
        t0, out = rows * cols, (rows + r) * cols
        steps = []

        def chain(row, dst, slots):
            terms = [(slots[j], c < 0) for j, c in enumerate(row) for _ in range(abs(c))]
            a = terms.pop(next(i for i, (_, neg) in enumerate(terms) if not neg))[0]
            for b, sub in terms:
                steps.append((dst, a, b, sub))
                a = dst

        for i, row in enumerate(m.tolist()):
            for j in range(cols):
                chain(row, t0 + i * cols + j, range(j, t0, cols))
        for i in range(r):
            for j, row in enumerate(m.tolist()):
                chain(row, out + i * r + j, range(t0 + i * cols, t0 + (i + 1) * cols))
        return cls(tuple(steps), [0] * (out + r * r - t0), out)

    @functools.cached_property
    def levels(self) -> np.ndarray:
        """Each step's depth: 0 for a step reading only inputs, else one more
        than the deepest step it reads. A step's result depends only on the
        flips of shallower steps."""
        depth, out = {}, []
        for dst, a, b, _ in self.steps:
            depth[dst] = max(depth.get(a, -1), depth.get(b, -1)) + 1
            out.append(depth[dst])
        return np.array(out)

    @functools.cached_property
    def linear(self) -> dict:
        """{dtype: (X, D, OX, OD)}: the program as integer matrices, in
        int64, float64 and object (Python ints). Step s's result is
        X[s] x + D[s] d and the output is OX x + OD d, for the inputs x and
        the deltas d that flips add to the steps' results; OX is kron(M, M)."""
        n_in = min(dst for dst, *_ in self.steps)
        # each slot as its coefficients of the inputs, then of the deltas
        basis = np.eye(n_in + len(self.steps), dtype=np.int64)
        buf = list(basis[:n_in]) + [0 * basis[0]] * len(self.pad)
        nodes = []
        for s, (dst, a, b, sub) in enumerate(self.steps):
            buf[dst] = (buf[a] - buf[b] if sub else buf[a] + buf[b]) + basis[n_in + s]
            nodes.append(buf[dst])
        nodes, out = np.array(nodes), np.array(buf[self.out :])
        mats = nodes[:, :n_in], nodes[:, n_in:], out[:, :n_in], out[:, n_in:]
        return {np.dtype(dt): tuple(m.astype(dt) for m in mats) for dt in (np.int64, np.float64, object)}


_ADD = int(OpType.ADD)
_INPUT_TF = _Transform.of(BT_F2X2_3X3, 4)
_INVERSE_TF = _Transform.of(AT_F2X2_3X3, 4)
# The transforms on a row-major flat tile: vec(M X M^T) = kron(M, M) vec(X).
_KRON_BT = _INPUT_TF.linear[np.dtype(np.float64)][2]
_KRON_G2 = np.kron(G2_F2X2_3X3, G2_F2X2_3X3).astype(np.float64)
# About the most values that a block of the dense GEMM copies out of its
# input at once, as its im2col slab.
_SLAB = 1 << 15
_I64_MAX = (1 << 63) - 1
_I32, _I64, _F64 = np.dtype(np.int32), np.dtype(np.int64), np.dtype(np.float64)


def _hooked_transform(tf: _Transform, x: list, hook: Hook, op_id: int, layer_id: int, stage: int) -> list:
    """Run ``tf`` on the flat list ``x`` through ``hook``, one ADD per step
    starting at ``op_id``; returns the flat result."""
    buf = x + tf.pad
    for dst, a, b, sub in tf.steps:
        buf[dst] = hook(op_id, layer_id, _ADD, stage, buf[a] - buf[b] if sub else buf[a] + buf[b])
        op_id += 1
    return buf[tf.out :]


def tile_grid(out_h: int, out_w: int) -> tuple[int, int]:
    """F(2x2, 3x3) tile counts covering an output plane (ragged edges round up)."""
    return (out_h + 1) // 2, (out_w + 1) // 2


# perfbench/tracing.py reads this flag for a conv_winograd call without a
# config; the filter transform is never instrumented.
WINOGRAD_F2X2_3X3 = namedtuple("WinogradF2x2_3x3", "instrument_filter_transform")(False)


@dataclass(frozen=True)
class ConvSpec:
    """One 3x3 stride-1 convolution layer: weights, bias, and requant target.

    The kernels' static operands (the dense GEMM's weights, the transformed
    filters) are derived from it once, on first use.
    """

    in_channels: int
    out_channels: int
    padding: int
    weights: QTensor
    out_qparams: QuantParams
    bias: Optional[np.ndarray] = None
    kernel_size: int = 3
    stride: int = 1

    def __post_init__(self):
        if self.kernel_size != 3:
            raise ShapeError(f"kernel_size must be 3, got {self.kernel_size}")
        if self.stride != 1:
            raise ShapeError(f"stride must be 1, got {self.stride}")
        if self.padding < 0:
            raise ShapeError(f"padding must be >= 0, got {self.padding}")
        expect = (self.out_channels, self.in_channels, 3, 3)
        if self.weights.shape != expect:
            raise ShapeError(f"weights shape {self.weights.shape} != {expect}")
        if self.bias is not None:
            object.__setattr__(self, "bias", np.asarray(self.bias, dtype=np.int64))
            if self.bias.shape != (self.out_channels,):
                raise ShapeError(f"bias must have length {self.out_channels}")
        if self.out_qparams.bit_width != self.weights.qparams.bit_width:
            raise ShapeError("weights and output must share one bit width")
        # A struck Winograd layer sums its clean channel sums in float64,
        # exact while every partial sum stays below 2^53. Their worst case is
        # 81*C*4^b: |V| <= 2^(b+1), |U| <= 9*2^(b-1), and the inverse
        # transform gains 9. The dense GEMM's sums stay far below it.
        b = self.weights.qparams.bit_width
        if 81 * self.in_channels * 4**b >= 2**53:
            raise ShapeError(
                f"{self.in_channels} input channels at {b} bits can exceed 2^53 in the float64 kernels"
            )
        # Winograd's accumulators then hold 4 * bias too, in int64.
        object.__setattr__(self, "bias_max", max_abs(self.bias))  # largest bias magnitude, 0 without a bias
        if 81 * self.in_channels * 4**b + 4 * self.bias_max >= 2**63:
            raise ShapeError(f"conv bias magnitude {self.bias_max} can exceed 2^63 in the int64 kernels")

    @functools.cached_property
    def _gemm(self) -> tuple[np.ndarray, int]:
        """(:attr:`gemm_weights`, the largest magnitude of a fault-free
        accumulator, bias included), from one pass over the weights."""
        b = self.weights.qparams.bit_width
        bound = max(np.abs(self.weights.array.reshape(self.out_channels, -1)).sum(axis=1).tolist()) << (b - 1)
        return self.weights.array.astype(np.float32 if bound < 2**24 else np.float64), bound + self.bias_max

    @property
    def gemm_weights(self) -> np.ndarray:
        """The (K, C, 3, 3) weights in the dense GEMM's dtype: float32 when
        max_k sum|w_k| * 2^(b-1) < 2^24, else float64. Every input has
        magnitude at most 2^(b-1), so every partial sum of output channel
        k, in any order BLAS takes, is an integer of magnitude at most
        sum|w_k| * 2^(b-1), which float32 then holds exactly."""
        return self._gemm[0]

    def acc_dtype(self, shift: int) -> np.dtype:
        """The dtype of the fault-free accumulators requantized at ``shift``:
        int32 when the shift is positive and acc_bound + 2^(shift-1) < 2^31,
        where acc_bound = max_k sum|w_k| * 2^(b-1) + max|bias| bounds every
        accumulator, so the rounding add cannot wrap; else int64."""
        return _I32 if shift > 0 and self._gemm[1] + (1 << (shift - 1)) < 2**31 else _I64

    @functools.cached_property
    def u(self) -> np.ndarray:
        """The transformed filters (2G) g (2G)^T, float64 (16, K, C): exact
        integers, flat row-major 4x4 per (k, c)."""
        k_, c_ = self.out_channels, self.in_channels
        return (_KRON_G2 @ self.weights.array.reshape(k_ * c_, 9).T.astype(np.float64)).reshape(16, k_, c_)

    @functools.cached_property
    def u_int(self) -> np.ndarray:
        """:attr:`u` as int64 (K * 16, C): row 16 k + e holds the C filter
        values that the channel-sum chain (k, e) of a tile multiplies."""
        return np.ascontiguousarray(self.u.transpose(1, 0, 2).reshape(-1, self.in_channels).astype(np.int64))

    def out_hw(self, in_h: int, in_w: int) -> tuple[int, int]:
        oh = in_h + 2 * self.padding - 2
        ow = in_w + 2 * self.padding - 2
        if oh < 1 or ow < 1:
            raise ShapeError(f"input {in_h}x{in_w} too small for 3x3 conv with padding {self.padding}")
        return oh, ow

    def requant_shift(self, in_qparams: QuantParams) -> int:
        """Right-shift turning accumulator scale (in*w) into the output scale.

        Negative values mean an exact left shift. Requires power-of-two scales.
        """
        return (
            self.out_qparams.scale_exponent()
            - in_qparams.scale_exponent()
            - self.weights.qparams.scale_exponent()
        )


def max_abs(a) -> int:
    """Largest magnitude in the integer array ``a`` (0 when None or empty), as a Python int."""
    return 0 if a is None else max(map(abs, np.asarray(a).tolist()), default=0)


def requant_scalar(acc: int, shift: int, int_min: int, int_max: int) -> int:
    """Round-half-away-from-zero shift, then saturate."""
    if shift > 0:
        half = 1 << (shift - 1)
        v = (acc + half) >> shift if acc >= 0 else -((-acc + half) >> shift)
    elif shift < 0:
        v = acc << -shift
    else:
        v = acc
    if v < int_min:
        return int_min
    if v > int_max:
        return int_max
    return v


@functools.lru_cache(maxsize=64)
def clip_bounds(dtype: np.dtype, lo: int, hi: int) -> tuple:
    """[lo, hi] as clip bounds for an array of ``dtype``: scalars of an int
    dtype, against which NumPy's int clip loop runs about five times faster
    than against Python ints on a large plane (and converting them anew
    costs as much as a small clip), or Python ints for an object array."""
    return (lo, hi) if dtype == object else (dtype.type(lo), dtype.type(hi))


def requant_array(acc: np.ndarray, shift: int, int_min: int, int_max: int) -> np.ndarray:
    """:func:`requant_scalar` over an int32 or int64 array, exact for every
    acc above the dtype's minimum, or over an object array of Python ints of
    any size, in ``acc``'s dtype: int32 holds a fault-free layer's
    accumulators under :meth:`ConvSpec.acc_dtype`, which gives int32 only
    at a positive shift, int64 the others' (the dense GEMM that makes them
    runs in float32 or float64), and Python ints the struck values past
    2^63."""
    if shift <= 0:
        # Saturate before a left shift too: a value outside the output range
        # saturates at any shift, and once the shift reaches the output width
        # every nonzero value does.
        v = acc.clip(*clip_bounds(acc.dtype, int_min, int_max))
        if shift:
            v <<= min(-shift, int_max.bit_length() + 1)
            v.clip(*clip_bounds(v.dtype, int_min, int_max), out=v)
        return v
    # Saturate first, at the accumulators that round to the output bounds
    # (an acc lies inside them once they pass its dtype), then round: half
    # away from zero is half up on acc - 1 for negative acc.
    half, lo, hi = 1 << (shift - 1), int_min << shift, int_max << shift
    top = _I64_MAX
    if acc.dtype != object:
        top = (1 << (8 * acc.itemsize - 1)) - 1
        lo, hi = max(lo, -top), min(hi, top)
    v = acc.clip(*clip_bounds(acc.dtype, lo, hi))
    if v.dtype == object:  # Python ints, where v >> 63 is -1 only down to -2^63
        v -= v < 0
    else:
        v += v >> (8 * v.itemsize - 1)
    if hi + half <= top or v.dtype == object:
        v += half
        v >>= shift
    else:  # the rounding add could wrap: halve first
        v >>= shift - 1
        v += 1
        v >>= 1
    return v


def _check_input(x: np.ndarray, spec: ConvSpec, in_qparams: QuantParams) -> tuple[int, int, int, int]:
    if x.ndim != 4:
        raise ShapeError(f"input must be (N, C, H, W), got {x.shape}")
    n, c, h, w = x.shape
    if c != spec.in_channels:
        raise ShapeError(f"input has {c} channels, spec expects {spec.in_channels}")
    if in_qparams.bit_width != spec.weights.qparams.bit_width:
        raise ShapeError("input and weights must share one bit width")
    return n, c, h, w


def _padded(x: np.ndarray, pad: int, hp: int, wp: int, dtype) -> np.ndarray:
    """The (N, C, H, W) array ``x`` zero-padded by ``pad`` at the top and
    left into an (N, C, hp, wp) array of ``dtype``."""
    n_, c_, h, w = x.shape
    xp = np.zeros((n_, c_, hp, wp), dtype=dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    return xp


def lockstep_bound(spec: ConvSpec, width_mul: int, width_add: int, winograd: bool = False) -> int:
    """Largest magnitude any value of the layer's fast path can take when
    flips strike the low ``width_mul`` bits of products and the low
    ``width_add`` bits of sums: of :func:`conv_winograd` when ``winograd``,
    else of :func:`conv_direct`. A flip of the low w bits moves a value by
    less than 2^w. The fast path runs in float64 below 2^53 (Winograd), in
    int64 below 2^63, else on Python ints.
    """
    return _bound(spec.weights.qparams.bit_width, spec.in_channels, spec.bias_max, width_mul, width_add, winograd)


@functools.lru_cache(maxsize=256)
def _bound(bits: int, c: int, bias: int, width_mul: int, width_add: int, winograd: bool) -> int:
    """:func:`lockstep_bound` of either engine."""
    x, fm, fa = 2 ** (bits - 1), 2**width_mul, 2**width_add
    if not winograd:
        return bias + 9 * c * (x * x + fm + fa)
    v = _tf_bound(_INPUT_TF, x, fa)
    u = 9 * x  # the fault-free (2G) g (2G)^T: each row of 2G sums to at most 3 in magnitude
    return _tf_bound(_INVERSE_TF, c * (u * v + fm + fa), fa) + 4 * bias


def _tf_bound(tf: _Transform, x: int, flip: int) -> int:
    """Largest magnitude of a step result or output of ``tf`` (or of a
    partial sum computing it from ``tf.linear``) from inputs of magnitude
    at most ``x`` when every step may move its result by less than ``flip``."""
    wx, wd, ox, od = (np.abs(m).sum(axis=1).tolist() for m in tf.linear[np.dtype(np.int64)])
    return max(a * x + b * flip for a, b in zip(wx + ox, wd + od))


def _layer_faults(faults: OpFaults, op_base: int, n_ops: int, spec: ConvSpec, winograd: bool = False):
    """The faults inside [op_base, op_base + n_ops), the ops of the layer
    ``spec`` (``winograd`` as in :func:`lockstep_bound`): None when there are
    none, else (offsets from ``op_base``, masks, dtype). The masks are int64,
    or Python ints once the layer's values can pass 2^63. The dtype holds
    every value of the layer's fast path exactly: float64 for Winograd below
    2^53, so that its transforms run as BLAS products, else the masks' dtype."""
    ids = faults.ids
    lo, hi = ids.searchsorted(op_base), ids.searchsorted(op_base + n_ops)
    if lo == hi:
        return None
    bound = lockstep_bound(spec, faults.width_mul, faults.width_add, winograd)
    masks = faults.masks[lo:hi]
    masks = masks.view(np.int64) if bound < 2**63 else masks.astype(object)
    return ids[lo:hi] - op_base, masks, _F64 if winograd and bound < 2**53 else masks.dtype


def _flip(v: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The values ``v`` as the hook returns them: XOR-ed with their one mask,
    or the median of the three XOR-ed copies, which is the majority vote. In
    the masks' dtype: float64 values are flipped as the integers they hold."""
    v = v.astype(masks.dtype, copy=False)
    if masks.shape[1] == 1:
        return v ^ masks[:, 0]
    a, b, c = (v ^ masks[:, i] for i in range(3))
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def _starts(key: np.ndarray) -> np.ndarray:
    """Whether each entry of the sorted ``key`` starts a run of equal keys."""
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return first


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of the sorted ``keys`` (np.unique costs more)."""
    return keys if keys.size < 2 else keys[_starts(keys)]


def _groups(key: np.ndarray, n: int = 0) -> tuple[Optional[np.ndarray], list]:
    """(order, bounds) grouping the flips by the small int ``key``, in [0,
    n) or past it: ``order`` sorts them by it, stably, or is None when one
    group holds them all, and group g is [bounds[g], bounds[g + 1]) in that
    order."""
    counts = np.bincount(key, minlength=n).tolist()
    # skipping the sort saves about 6 us of a 70 us one-flip Winograd struck call (BENCH_24.json "shortcuts")
    return (key.argsort(kind="stable") if max(counts) < key.size else None), [0, *itertools.accumulate(counts)]


def _ranks(chain: np.ndarray) -> list:
    """The flips by rank in their chain, as indices, rank 0 first: flip j
    strikes chain ``chain[j]``, and a chain's flips apply in array order, each
    to the value that the flips before it changed. Flips of one rank strike
    distinct chains, so they apply together."""
    # no chain struck twice: skipping the sort saves 8-18 us of a 38-160 us struck call (BENCH_24.json "shortcuts")
    if chain.size < 2 or np.bincount(chain).max() < 2:
        return [slice(None)]
    order = chain.argsort(kind="stable")
    first = _starts(chain[order])
    rank = np.arange(chain.size) - np.flatnonzero(first)[first.cumsum() - 1]
    return [order[rank == r] for r in range(rank.max() + 1)]


def _add_flips(s: np.ndarray, chain: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The changes that flips of running sums make to them: flip j strikes
    chain ``chain[j]`` at the sum ``s[j]`` has before any of these flips. A
    flip moves every later sum of its chain, so a chain's flips, in array
    order, apply in turn, each to the sum that the flips before it moved;
    those of all chains apply together (see :func:`_ranks`)."""
    ranks = _ranks(chain)
    if len(ranks) == 1:
        return _flip(s, masks) - s
    delta = np.empty_like(s)
    moved = np.zeros(chain.max() + 1, s.dtype)  # each chain's change so far
    for j in ranks:
        at = chain[j]
        v = s[j] + moved[at]
        delta[j] = _flip(v, masks[j]) - v
        moved[at] += delta[j]
    return delta


def _find(keys: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, found): where each of ``x`` sits in the sorted, distinct, nonempty
    ``keys``, and whether it is there."""
    i = keys.searchsorted(x)
    return i, keys[np.minimum(i, keys.size - 1)] == x


def _exact(x: np.ndarray, dt) -> np.ndarray:
    """The float64 integers ``x`` in ``dt``."""
    return x if dt == _F64 else x.astype(np.int64).astype(dt, copy=False)


def _lockstep(tf: _Transform, x: np.ndarray, row: np.ndarray, steps: np.ndarray, masks: np.ndarray, dt):
    """(struck rows, changes): how flips change the results of ``tf`` on rows
    of ``x`` as :func:`_hooked_transform` computes them, in ``dt``. Step
    ``steps[j]`` of row ``row[j]`` is flipped by ``masks[j]``; ``row`` is
    sorted. A step's result is a fixed combination of the row and the
    deltas of the flips of the steps it reads (``tf.linear``), so the flips
    of all rows apply together, one step depth (``tf.levels``) at a time."""
    rows = _distinct(row)
    wx, wd, _, od = tf.linear[x.dtype][0], *tf.linear[dt][1:]
    if rows.size == row.size:  # one flip per row, none reading another
        # skipping the level loop saves about 25 us of a 160 us struck call at BER 1e-4 (BENCH_24.json "shortcuts")
        v = (x[row] * wx[steps]).sum(axis=1)
        return rows, (_flip(v, masks) - v)[:, None] * od.T[steps]
    i = rows.searchsorted(row)
    order, bounds = _groups(tf.levels[steps])
    if order is not None:
        i, steps, masks = i[order], steps[order], masks[order]
    xs = x[rows] @ wx.T  # every step's result on the struck rows, before any flip
    delta = np.zeros(xs.shape, dtype=dt)
    for lo, hi in zip(bounds, bounds[1:]):
        if lo < hi:
            at = (i[lo:hi], steps[lo:hi])
            v = xs[at] + (delta @ wd.T)[at] if lo else xs[at]
            delta[at] = _flip(v, masks[lo:hi]) - v
    return rows, delta @ od.T


def conv_direct(
    x: np.ndarray,
    spec: ConvSpec,
    hook: Optional[Hook | OpFaults] = None,
    *,
    in_qparams: QuantParams,
    layer_id: int = 0,
    op_base: int = 0,
) -> np.ndarray:
    """Stride-1 cross-correlation with per-MAC instrumentation.

    Canonical op order: output channel, output row, output col, input channel,
    kernel row, kernel col; each MAC emits its MUL then its accumulation ADD.
    The 18*C ops of one output pixel form its unit. With ``hook`` None or
    an :class:`OpFaults` table, one vectorized block takes the GEMM's
    accumulators (:func:`_direct_acc`), in :meth:`ConvSpec.acc_dtype` or,
    when the table strikes the layer, in int64 with its flips' changes
    added (see :func:`_direct_struck`), and requantizes them once. Any
    other hook sees every op; that is the reference.
    """
    n_, c_, h, w = _check_input(x, spec, in_qparams)
    oh, ow = spec.out_hw(h, w)
    shift = spec.requant_shift(in_qparams)
    oq = spec.out_qparams
    pad, k_ = spec.padding, spec.out_channels
    if hook is None or isinstance(hook, OpFaults):
        struck = hook and _layer_faults(hook, op_base, n_ * k_ * oh * ow * 18 * c_, spec)
        xp = _padded(x, pad, h + 2 * pad, w + 2 * pad, spec.gemm_weights.dtype)
        acc = _direct_acc(xp, spec, _I64 if struck else spec.acc_dtype(shift))
        return _requant(acc, shift, oq, struck and _direct_struck(xp, spec, acc, *struck))

    xp = _padded(x, pad, h + 2 * pad, w + 2 * pad, np.int64)
    chain = 18 * c_
    out = np.empty(n_ * k_ * oh * ow, dtype=np.int64)
    xl = xp.tolist()
    wl = spec.weights.array.tolist()
    bias = spec.bias.tolist() if spec.bias is not None else [0] * k_
    lo, hi = oq.int_min, oq.int_max
    mul, add, stg = int(OpType.MUL), int(OpType.ADD), int(Stage.DIRECT_MAC)
    for u in range(out.size):
        rest, ox = divmod(u, ow)
        rest, oy = divmod(rest, oh)
        n, k = divmod(rest, k_)
        op_id = op_base + u * chain
        acc = bias[k]
        for xc, wkc in zip(xl[n], wl[k]):
            for ry in range(3):
                xrow = xc[oy + ry]
                wrow = wkc[ry]
                for rx in range(3):
                    p = wrow[rx] * xrow[ox + rx]
                    p = hook(op_id, layer_id, mul, stg, p)
                    op_id += 1
                    acc = hook(op_id, layer_id, add, stg, acc + p)
                    op_id += 1
        out[u] = requant_scalar(acc, shift, lo, hi)
    return out.reshape(n_, k_, oh, ow)


def _direct_struck(xp: np.ndarray, spec: ConvSpec, acc: np.ndarray, offs: np.ndarray, masks: np.ndarray, dt):
    """Adds each flip's change ``_flip(v, m) - v`` at the struck op offsets
    ``offs``, in ``dt``, to its pixel of the int64 accumulator plane ``acc``
    (the dense pass's, bias included), where v is the value the hook would
    see; every op reading a flipped value adds it, so the change passes
    unaltered to the pixel's final sum. A MUL flip's v is its one product.
    An ADD flip's is its running sum: only the pixels holding one gather
    their products, which take the changes of their MUL flips, and a chain's
    ADD flips apply in turn (see :func:`_add_flips`). Object ``dt`` leaves
    ``acc`` as it is and returns the struck pixels' (flat offsets, faulty
    accumulators) for :func:`_requant`. ``xp`` is the padded input in the
    dense GEMM's dtype, whose integers gather exactly into int64."""
    c_ = spec.in_channels
    corners, ks, taps = _window_layout(*xp.shape, *acc.shape[1:])
    unit, step = np.divmod(offs, 18 * c_)
    mac, is_add = step >> 1, step & 1
    corner, k = corners[unit], ks[unit]
    w = spec.weights.array.reshape(-1, 9 * c_)
    flat = xp.reshape(-1)
    v = (w[k, mac] * flat[corner + taps[mac]].astype(np.int64)).astype(dt, copy=False)  # each flip's product
    delta = _flip(v, masks) - v  # the MUL flips' changes; the ADD flips' follow
    add = np.flatnonzero(is_add)
    if add.size:
        first = add[_starts(unit[add])]
        p = (w[k[first]] * flat[corner[first, None] + taps].astype(np.int64)).astype(dt, copy=False)  # (pixels, 9C)
        i, found = _find(unit[first], unit)
        mul = found & (is_add == 0)
        p[i[mul], mac[mul]] += delta[mul]
        s = p.cumsum(axis=1)[i[add], mac[add]]
        if spec.bias is not None:
            s += spec.bias[k[add]]
        delta[add] = _add_flips(s, i[add], masks[add])
    if dt == object:
        first = np.flatnonzero(_starts(unit))
        return unit[first], acc.reshape(-1)[unit[first]] + np.add.reduceat(delta, first)
    # cheaper than such per-pixel sums by about 6 us of a 60-110 us struck
    # call on toycnn-int16 (BENCH_29.json "direct_add_at")
    np.add.at(acc.reshape(-1), unit, delta)


def _requant(acc: np.ndarray, shift: int, oq: QuantParams, faulty=None) -> np.ndarray:
    """``acc`` requantized at ``shift`` to outputs in its dtype, then the
    ``faulty`` (flat offsets, Python-int accumulators) that a struck path
    returns, on their own, over their outputs."""
    out = requant_array(acc, shift, oq.int_min, oq.int_max)
    if faulty:
        at, y = faulty
        out.reshape(-1)[at] = requant_array(y, shift, oq.int_min, oq.int_max)
    return out


@functools.lru_cache(maxsize=64)
def _window_layout(n_: int, c_: int, hp: int, wp: int, k_: int, oh: int, ow: int) -> tuple:
    """(corners, ks, taps) of a direct layer on a padded (n_, c_, hp, wp)
    input with (n_, k_, oh, ow) outputs, shared read-only by every struck
    call on it: output pixel u reads its 3x3 windows from the flat input
    offset ``corners[u]`` on, and MAC m of it multiplies weight (``ks[u]``,
    m) by the input at ``taps[m]`` from there."""
    n, k, oy, ox = np.unravel_index(np.arange(n_ * k_ * oh * ow), (n_, k_, oh, ow))
    taps = (np.arange(c_)[:, None, None] * hp * wp + np.arange(3)[:, None] * wp + np.arange(3)).ravel()
    layout = ((n * c_ * hp + oy) * wp + ox, k, taps)
    for x in layout:
        x.setflags(write=False)
    return layout


def _view(a: np.ndarray, offset: int, shape: tuple, strides: tuple) -> np.ndarray:
    """Read-only view of the C-contiguous ``a`` from byte ``offset`` on, with
    byte ``strides``; like as_strided, but bounds-checked and cheaper per call."""
    v = np.ndarray(shape, a.dtype, a, offset, strides)
    v.flags.writeable = False
    return v


def conv3x3_gemm(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The (N, K, OH, OW) sums of the padded input ``xp`` (N, C, OH+2, OW+2)
    against the 3x3 weights ``w`` (K, C, 3, 3), in ``w``'s float dtype. Per
    sample and block of output rows, one (K x 9C) @ (9C x rows*OW) GEMM runs
    over a read-only 3x3 window view of ``xp``; a block's im2col slab holds
    about ``_SLAB`` values, at least one output row, and writes its outputs
    in place."""
    n_, c_, hp, wp = xp.shape
    oh, ow = hp - 2, wp - 2
    k_ = w.shape[0]
    xp = np.ascontiguousarray(xp, dtype=w.dtype)
    s_n, s_c, s_y, s_x = xp.strides
    wm = w.reshape(k_, 9 * c_)
    rows = max(1, _SLAB // (9 * c_ * ow))
    out = np.empty((n_, k_, oh, ow), dtype=w.dtype)
    for n in range(n_):
        # win[c, ry, rx, oy, ox] = xp[n, c, oy + ry, ox + rx], in the row order of wm
        win = _view(xp, n * s_n, (c_, 3, 3, oh, ow), (s_c, s_y, s_x, s_y, s_x))
        for r in range(0, oh, rows):
            # the block's (K, rows*OW) outputs are a view of whole output rows
            np.matmul(wm, win[..., r : r + rows, :].reshape(9 * c_, -1), out=out[n, :, r : r + rows].reshape(k_, -1))
    return out


def _direct_acc(xp: np.ndarray, spec: ConvSpec, dtype=_I64) -> np.ndarray:
    """The (N, K, OH, OW) accumulators, bias included, of the padded input
    ``xp``, in ``dtype`` (int64, or int32 under :meth:`ConvSpec.acc_dtype`):
    GEMMs in the dtype of :attr:`ConvSpec.gemm_weights`, which hold every
    partial sum exactly."""
    acc = conv3x3_gemm(xp, spec.gemm_weights).astype(dtype)
    if spec.bias is not None:
        acc += spec.bias.astype(dtype, copy=False)[:, None, None]
    return acc


def conv_winograd(
    x: np.ndarray,
    spec: ConvSpec,
    *,
    in_qparams: QuantParams,
    hook: Optional[Hook | OpFaults] = None,
    layer_id: int = 0,
    op_base: int = 0,
) -> np.ndarray:
    """F(2x2,3x3) convolution, element-exact with :func:`conv_direct`.

    The filter transform (2G) g (2G)^T runs on static weights, as an offline
    transform would, so it is computed fault-free and owns no op ids. Within
    a layer the op stream is, per tile, the stages input transform (per c),
    element-wise multiply (per k, c), channel-sum accumulation (per k, c),
    inverse transform (per k). Each transform runs as the add-chain program
    derived from its matrix (see :class:`_Transform`); every tile quantity
    is a flat row-major list. Odd output planes are computed on a tile grid
    rounded up to even and the padded outputs discarded.

    A (tile, k) unit owns the tile's element-wise multiplies, channel sums
    and inverse transform of output channel k; a tile's input transform feeds
    all of its units. The transforms are exact, so each tile's sums are 4
    times the direct ones, as the doubled filter transform makes them. With
    ``hook`` None or an :class:`OpFaults` table, one vectorized block
    requantizes once: the direct engine's accumulators at its shift when no
    flip of the table strikes the layer, else the direct GEMM's on the
    input padded to whole tiles, shifted left by 2, with the units whose
    values the flips change recomputed (see :func:`_winograd_struck`), and
    the ragged edge tiles' outputs cropped after it. Any other hook sees
    every op; that is the reference.
    """
    n_, c_, h, w = _check_input(x, spec, in_qparams)
    oh, ow = spec.out_hw(h, w)
    # +2: Winograd folds the deferred /4 of the doubled filter transform here.
    shift = spec.requant_shift(in_qparams) + 2
    oq = spec.out_qparams
    k_, pad = spec.out_channels, spec.padding
    ty_, tx_ = tile_grid(oh, ow)
    n_itf, n_inv = len(_INPUT_TF.steps), len(_INVERSE_TF.steps)
    tile_ops = c_ * n_itf + 32 * k_ * c_ + k_ * n_inv
    if hook is None or isinstance(hook, OpFaults):
        struck = hook and _layer_faults(hook, op_base, n_ * ty_ * tx_ * tile_ops, spec, winograd=True)
        if struck:
            xp = _padded(x, pad, 2 * ty_ + 2, 2 * tx_ + 2, spec.gemm_weights.dtype)
            acc = _direct_acc(xp, spec)
            acc <<= 2
            return np.ascontiguousarray(_requant(acc, shift, oq, _winograd_struck(xp, spec, acc, *struck))[:, :, :oh, :ow])
        shift -= 2  # the direct engine's accumulators, at its shift
        xp = _padded(x, pad, h + 2 * pad, w + 2 * pad, spec.gemm_weights.dtype)
        return _requant(_direct_acc(xp, spec, spec.acc_dtype(shift)), shift, oq)

    xp = _padded(x, pad, 2 * ty_ + 2, 2 * tx_ + 2, np.int64)
    out = np.empty((n_, k_, oh, ow), dtype=np.int64)
    b4 = [4 * int(b) for b in spec.bias] if spec.bias is not None else [0] * k_
    lo, hi = oq.int_min, oq.int_max
    mul = int(OpType.MUL)
    s_itf, s_ew, s_cs, s_inv = (
        int(Stage.WG_INPUT_TF), int(Stage.WG_EWMUL), int(Stage.WG_CHANNEL_SUM), int(Stage.WG_INVERSE_TF)
    )

    # Filter transform (2G) g (2G)^T, one flat 4x4 U per (k, c) in that order.
    u_all = np.matmul(np.matmul(G2_F2X2_3X3, spec.weights.array), G2_F2X2_3X3.T).reshape(k_ * c_, 16).tolist()

    for t in range(n_ * ty_ * tx_):
        n, ty = divmod(t, ty_ * tx_)
        ty, tx = divmod(ty, tx_)
        y0, x0 = 2 * ty, 2 * tx
        op_id = op_base + t * tile_ops
        # Input transform B^T d B per input channel.
        v_all = [
            _hooked_transform(_INPUT_TF, dc, hook, op_id + c * n_itf, layer_id, s_itf)
            for c, dc in enumerate(xp[n, :, y0 : y0 + 4, x0 : x0 + 4].reshape(c_, 16).tolist())
        ]
        op_id += c_ * n_itf
        # Element-wise multiply in the transform domain, per (k, c).
        p_all = []
        for k in range(k_):
            base = op_id + 16 * c_ * k
            p_all.append([
                [hook(base + 16 * c + e, layer_id, mul, s_ew, u[e] * v[e]) for e in range(16)]
                for c, (u, v) in enumerate(zip(u_all[k * c_ : (k + 1) * c_], v_all))
            ])
        op_id += 16 * k_ * c_
        # Channel sum per k, accumulated in the transform domain.
        s_all = []
        for k in range(k_):
            base = op_id + 16 * c_ * k
            sk = [0] * 16
            for c, p in enumerate(p_all[k]):
                sk = [hook(base + 16 * c + e, layer_id, _ADD, s_cs, sk[e] + p[e]) for e in range(16)]
            s_all.append(sk)
        op_id += 16 * k_ * c_
        # Inverse transform A^T S A per output channel; the padded outputs of
        # ragged edge tiles are dropped.
        for k in range(k_):
            y = _hooked_transform(_INVERSE_TF, s_all[k], hook, op_id + k * n_inv, layer_id, s_inv)
            for e in range(4):
                oy, ox = y0 + e // 2, x0 + e % 2
                if oy < oh and ox < ow:
                    out[n, k, oy, ox] = requant_scalar(y[e] + b4[k], shift, lo, hi)
    return out


def _winograd_struck(xp: np.ndarray, spec: ConvSpec, acc: np.ndarray, offs: np.ndarray, masks: np.ndarray, dt):
    """Recomputes in ``dt`` every unit of the int64 accumulator plane
    ``acc`` (the dense pass's, 4 * bias included, (N, K, 2 TY, 2 TX)) whose
    values flips change, one stage at a time, each stage's flips changing
    the values that the next stage reads: every unit of a tile holding an
    input-transform flip, and each unit holding another flip. ``xp`` is the
    padded input in the dense GEMM's dtype, whose integers gather exactly
    into float64; ``offs`` are the ops' offsets from the layer's first op.

    - V: the struck tiles' inputs times kron(B^T, B^T), one float64 product,
      plus the changes of the input-transform flips (see :func:`_lockstep`).
    - S: the units' channel sums, from the clean V in float64, exact under
      ConvSpec's bound. A changed row (tile, c) of V adds U[k, c, e] dV[e]
      to the sums of every unit k of its tile. A chain (unit, e) holding an
      element-wise or channel-sum flip is summed again from its C products
      U[k, c, e] V[tile, c, e], a product flip flipping its product and a
      sum flip its running sum; a chain's sum flips apply in turn (see
      :func:`_add_flips`).
    - The outputs: S times kron(A^T, A^T), plus the changes of the
      inverse-transform flips, which read the faulty S.

    Every value stays below :func:`lockstep_bound`, and a flip moves its
    value by less than 2^width, so ``dt`` float64 is exact when that bound
    is below 2^53. Object ``dt`` returns the units' (flat offsets, faulty
    accumulators) for :func:`_requant`, else writes them into ``acc``.
    """
    n_, c_, hp, wp = xp.shape
    k_ = spec.out_channels
    ops = _tile_ops(c_, k_)
    t, o = np.divmod(offs, ops.shape[1])
    tiles = _distinct(t)
    # flips [0, a) of the input transform, [a, b) of the element-wise
    # multiply, [b, c) of the channel sum and [c, m) of the inverse transform
    order, (_, a, b, c, m) = _groups(ops[0, o], 4)
    if order is not None:
        t, o, masks = t[order], o[order], masks[order]
    row = tiles.searchsorted(t)  # each flip's struck tile
    place, col, k = ops[1:, o]  # each flip's row and column in its stage's tile values, and its k
    # the units (tile, k) that flips change, then each one's row of S
    srow = np.zeros((tiles.size, k_), dtype=np.intp)
    srow[row[:a]] = 1
    srow[row[a:], k[a:]] = 1
    ut, uk = np.nonzero(srow)
    srow[ut, uk] = np.arange(ut.size)
    corners, outs, cgrid = _tile_layout(n_, c_, hp, wp, k_)
    d = xp.reshape(-1)[cgrid + corners[tiles, None, None]].astype(np.float64)  # (tiles, C, 16)
    v = d @ _KRON_BT.T
    s = _exact((spec.u @ v.T)[:, uk, ut].T, dt)  # (units, 16)
    v = _exact(v, dt)
    if a:
        d = _exact(d.reshape(-1, 16), dt)
        rows, dv = _lockstep(_INPUT_TF, d, row[:a] * c_ + place[:a], col[:a], masks[:a], dt)
        v.reshape(-1, 16)[rows] += dv
        # every unit's channel sums take U[k, c, e] dV[e] from each changed row (tile, c)
        tr, rc = np.divmod(rows, c_)
        first = np.flatnonzero(_starts(tr))
        s[srow[tr[first]]] += np.add.reduceat(spec.u_int[:, rc].T.reshape(-1, k_, 16) * dv[:, None], first)
    if a < c:
        chain = row[a:c] * 16 * k_ + place[a:c]  # each flip's chain (tile, k, e)
        chains = _distinct(np.sort(chain))
        ct, ke = np.divmod(chains, 16 * k_)
        p = spec.u_int[ke] * v[ct, :, ke & 15]  # (chains, C): each chain's products
        at = (chains.searchsorted(chain), col[a:c])
        mul, add = tuple(z[: b - a] for z in at), tuple(z[b - a :] for z in at)
        p[mul] = _flip(p[mul], masks[a:b])
        if b < c:
            p[add] += _add_flips(p.cumsum(axis=1)[add], add[0], masks[b:c])
        s[srow[ct, ke >> 4], ke & 15] = p.sum(axis=1)
    out = s @ _INVERSE_TF.linear[dt][2].T  # (units, 4)
    if c < m:
        j, dy = _lockstep(_INVERSE_TF, s, srow[row[c:], place[c:]], col[c:], masks[c:], dt)
        out[j] += dy
    if spec.bias is not None:
        out += 4 * spec.bias[uk, None]
    if dt == object:
        return outs[tiles[ut], uk], out
    acc.reshape(-1)[outs[tiles[ut], uk]] = out


@functools.lru_cache(maxsize=64)
def _tile_ops(c_: int, k_: int) -> np.ndarray:
    """Column i describes op i of a Winograd tile with c_ input and k_
    output channels: its stage (0 to 3: input transform, element-wise
    multiply, channel sum, inverse transform), its row in its stage's tile
    values (input channel c, chain 16 k + e, or output channel k), its
    column there (transform step, or input channel c) and its output
    channel k (0 in the input transform). Shared read-only by every struck
    call."""
    n_itf, n_inv = len(_INPUT_TF.steps), len(_INVERSE_TF.steps)
    i, j = np.arange(c_ * n_itf), np.arange(k_ * n_inv)
    k, c, e = np.unravel_index(np.arange(16 * k_ * c_), (k_, c_, 16))
    ops = np.concatenate([
        [0 * i, i // n_itf, i % n_itf, 0 * i],
        *([0 * k + stage, 16 * k + e, c, k] for stage in (1, 2)),
        [0 * j + 3, j // n_inv, j % n_inv, j // n_inv],
    ], axis=1)
    ops.setflags(write=False)
    return ops


@functools.lru_cache(maxsize=64)
def _tile_layout(n_: int, c_: int, hp: int, wp: int, k_: int) -> tuple:
    """(corners, outs, cgrid): flat offsets of a Winograd layer on a padded
    (n_, c_, hp, wp) input with k_ output channels, shared read-only by
    every struck call on it. ``corners[t]`` is tile t's first input, at
    channel 0, and ``cgrid[c]`` the 16 inputs of its channel c from there,
    row-major; ``outs[t]`` are its K units' 2x2 outputs, unit by unit and
    row-major, in the (n_, k_, hp - 2, wp - 2) outputs."""
    ty_, tx_ = (hp - 2) // 2, (wp - 2) // 2
    n, ty, tx = np.unravel_index(np.arange(n_ * ty_ * tx_), (n_, ty_, tx_))
    out0 = (((n * k_ * ty_ + ty) * 2 * tx_ + tx) * 2)[:, None] + np.arange(k_) * 4 * ty_ * tx_  # (tiles, K)
    cgrid = (np.arange(c_)[:, None, None] * hp + np.arange(4)[:, None]) * wp + np.arange(4)
    outs = out0[..., None] + [0, 1, 2 * tx_, 2 * tx_ + 1]  # (tiles, K, 4)
    layout = ((n * c_ * hp + 2 * ty) * wp + 2 * tx, outs, cgrid.reshape(c_, 16))
    for x in layout:
        x.setflags(write=False)
    return layout


# Per-layer op counting (must match the hooked emission exactly; checked in tests).

def direct_layer_counts(n: int, c: int, k: int, oh: int, ow: int) -> dict[Stage, dict[OpType, int]]:
    macs = n * k * oh * ow * c * 9
    return {Stage.DIRECT_MAC: {OpType.MUL: macs, OpType.ADD: macs}}


def winograd_layer_counts(
    n: int, c: int, k: int, oh: int, ow: int,
    instrument_filter_transform: bool = False,  # perfbench/tracing.py passes WINOGRAD_F2X2_3X3's flag
) -> dict[Stage, dict[OpType, int]]:
    """Per-stage op counts, in the order each tile emits them. Transform
    adds are the programs' step counts."""
    if instrument_filter_transform:
        raise ConfigError("the Winograd filter transform is precomputed fault-free and owns no ops")
    ty, tx = tile_grid(oh, ow)
    tiles = n * ty * tx
    return {
        Stage.WG_INPUT_TF: {OpType.MUL: 0, OpType.ADD: len(_INPUT_TF.steps) * c * tiles},
        Stage.WG_EWMUL: {OpType.MUL: 16 * k * c * tiles, OpType.ADD: 0},
        Stage.WG_CHANNEL_SUM: {OpType.MUL: 0, OpType.ADD: 16 * k * c * tiles},
        Stage.WG_INVERSE_TF: {OpType.MUL: 0, OpType.ADD: len(_INVERSE_TF.steps) * k * tiles},
    }
