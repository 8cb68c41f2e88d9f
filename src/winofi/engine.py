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
path that matches the hooked path element-exactly. It runs as float64 BLAS
matrix products over the integer operands, which give the integer result
bit for bit because every conv input is requantized to 8 or 16 bits and
:class:`ConvSpec` rejects (ShapeError, CLI exit 2) any layer with enough
input channels for a partial sum to reach 2^53.

A layer's ops group into output units: a direct output pixel, or a Winograd
(tile, output channel). Passed an :class:`OpFaults` table of the ops to flip
as its hook, a conv runs the vectorized path and then recomputes only the
units owning a struck op, in NumPy lockstep over all of them at once, with
work that scales with the number of flips rather than with the ops of a
unit. Any other hook sees every op; that hooked path is the reference for
the fast path.
"""

from __future__ import annotations

import functools
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
    :func:`lockstep_bound`). ``record`` appends the faults' trace records and
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
_KRON_AT = _INVERSE_TF.linear[np.dtype(np.float64)][2]
# Row and column of each element of a flat 2x2 output tile.
_TILE_DY, _TILE_DX = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
# About the most float64 values that a block of the vectorized kernels copies
# out of its input at once: a direct im2col slab or a block of Winograd tiles.
_SLAB = 1 << 15


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

    The kernels' static operands (the float64 weights, the transformed
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
        # The fault-free kernels sum integers in float64, exact while every
        # partial sum stays below 2^53. Winograd's worst case is 81*C*4^b:
        # |V| <= 2^(b+1), |U| <= 9*2^(b-1), and the inverse transform gains 9.
        b = self.weights.qparams.bit_width
        if 81 * self.in_channels * 4**b >= 2**53:
            raise ShapeError(
                f"{self.in_channels} input channels at {b} bits can exceed 2^53 in the float64 kernels"
            )
        # Winograd then adds 4 * bias to those sums in int64.
        object.__setattr__(self, "bias_max", max_abs(self.bias))  # largest bias magnitude, 0 without a bias
        if 81 * self.in_channels * 4**b + 4 * self.bias_max >= 2**63:
            raise ShapeError(f"conv bias magnitude {self.bias_max} can exceed 2^63 in the int64 kernels")

    @functools.cached_property
    def weights_f64(self) -> np.ndarray:
        """The (K, C, 3, 3) weights as float64, the direct GEMMs' operand."""
        return self.weights.array.astype(np.float64)

    @functools.cached_property
    def u(self) -> np.ndarray:
        """The transformed filters (2G) g (2G)^T, float64 (16, K, C): exact
        integers, flat row-major 4x4 per (k, c)."""
        k_, c_ = self.out_channels, self.in_channels
        return (_KRON_G2 @ self.weights.array.reshape(k_ * c_, 9).T.astype(np.float64)).reshape(16, k_, c_)

    @functools.cached_property
    def u_int(self) -> np.ndarray:
        """:attr:`u` as int64 (K, C, 16), the operand of the struck Winograd units."""
        return np.ascontiguousarray(self.u.transpose(1, 2, 0).astype(np.int64))

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


def requant_array(acc: np.ndarray, shift: int, int_min: int, int_max: int) -> np.ndarray:
    """:func:`requant_scalar` over an int64 array, exact for every acc above -2^63."""
    if shift > 0:
        # Half away from zero is half up on acc - 1 for negative acc. Adding
        # the half 2^(shift-1) could wrap, so its carry is read off bit shift-1.
        b = acc - (acc < 0)
        v = b >> shift
        b >>= shift - 1
        b &= 1
        v += b
    elif shift < 0:
        # Saturate before shifting: a value outside the output range
        # saturates at any left shift, and once the shift reaches the output
        # width every nonzero value does.
        v = np.minimum(np.maximum(acc, int_min), int_max) << np.int64(min(-shift, int_max.bit_length() + 1))
    else:
        v = acc.copy()
    np.maximum(v, int_min, out=v)
    return np.minimum(v, int_max, out=v)


def _check_input(x: QTensor, spec: ConvSpec) -> tuple[int, int, int, int]:
    if len(x.shape) != 4:
        raise ShapeError(f"input must be (N, C, H, W), got {x.shape}")
    n, c, h, w = x.shape
    if c != spec.in_channels:
        raise ShapeError(f"input has {c} channels, spec expects {spec.in_channels}")
    if x.qparams.bit_width != spec.weights.qparams.bit_width:
        raise ShapeError("input and weights must share one bit width")
    return n, c, h, w


def _padded(x: QTensor, pad: int, hp: int, wp: int) -> np.ndarray:
    """``x`` zero-padded by ``pad`` at the top and left into an (N, C, hp, wp) array."""
    n_, c_, h, w = x.shape
    xp = np.zeros((n_, c_, hp, wp), dtype=np.int64)
    xp[:, :, pad : pad + h, pad : pad + w] = x.array
    return xp


def lockstep_bound(spec: ConvSpec, width_mul: int, width_add: int, winograd: bool = False) -> int:
    """Largest magnitude any value of the layer's fast path can take when
    flips strike the low ``width_mul`` bits of products and the low
    ``width_add`` bits of sums: of :func:`conv_winograd` when ``winograd``,
    else of :func:`conv_direct`. A flip of the low w bits moves a value by
    less than 2^w. The fast path runs in int64 below 2^63, else on Python ints.
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
    """(offsets from ``op_base``, masks, dtype) of the faults inside [op_base,
    op_base + n_ops) of the layer ``spec`` (``winograd`` as in
    :func:`lockstep_bound`). The dtype holds every value of the layer's fast
    path exactly: int64, or object (Python ints) past 2^63."""
    lo, hi = np.searchsorted(faults.ids, [op_base, op_base + n_ops])
    masks = faults.masks[lo:hi]
    if lockstep_bound(spec, faults.width_mul, faults.width_add, winograd) < 2**63:
        return faults.ids[lo:hi] - op_base, masks.view(np.int64), np.int64
    return faults.ids[lo:hi] - op_base, masks.astype(object), object


def _flip(v: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The values ``v`` as the hook returns them: XOR-ed with their one mask,
    or the median of the three XOR-ed copies, which is the majority vote."""
    if masks.shape[1] == 1:
        return v ^ masks[:, 0]
    a, b, c = (v ^ masks[:, i] for i in range(3))
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def _ranks(group: np.ndarray) -> np.ndarray:
    """Position of each entry of the sorted ``group`` within its run of equal values."""
    idx = np.arange(group.size)
    first = np.ones(group.size, dtype=bool)
    first[1:] = group[1:] != group[:-1]
    return idx - np.maximum.accumulate(np.where(first, idx, 0))


def _flip_chains(s: np.ndarray, chain: tuple, step: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Deltas that ADD flips add to the running sums ``s[chain + (step,)]``
    (partial sums along the last axis): one per chain, for its final sum.
    Flip j strikes step ``step[j]`` of chain ``chain[..][j]``, and the flips
    of a chain come in step order; each applies to the sum that carries the
    deltas of the flips before it."""
    delta = np.zeros(s.shape[:-1], dtype=s.dtype)
    if not step.size:
        return delta
    key = np.ravel_multi_index(chain, delta.shape)
    order = np.argsort(key, kind="stable")
    rank = _ranks(key[order])
    for r in range(int(rank.max()) + 1):
        j = order[rank == r]
        at = tuple(i[j] for i in chain)
        acc = s[at + (step[j],)] + delta[at]
        delta[at] += _flip(acc, masks[j]) - acc
    return delta


def _lockstep(tf: _Transform, x: np.ndarray, rows: np.ndarray, steps: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The results of ``tf`` on every row of ``x``, as :func:`_hooked_transform`
    computes them on one, when step ``steps[j]`` of row ``rows[j]`` is
    flipped by ``masks[j]``. Each step's result is a fixed combination of the
    row and the deltas of its earlier flips (``tf.linear``), so the flips of
    all rows apply together, rank by rank in step order."""
    wx, wd, ox, od = tf.linear[x.dtype]
    delta = np.zeros((x.shape[0], len(tf.steps)), dtype=x.dtype)
    order = np.lexsort((steps, rows))
    rank = _ranks(rows[order])
    for r in range(int(rank.max()) + 1):
        j = order[rank == r]
        row, step = rows[j], steps[j]
        acc = (x[row] * wx[step]).sum(axis=1) + (delta[row] * wd[step]).sum(axis=1)
        delta[row, step] = _flip(acc, masks[j]) - acc
    return x @ ox.T + delta @ od.T


def conv_direct(
    x: QTensor,
    spec: ConvSpec,
    hook: Optional[Hook | OpFaults] = None,
    *,
    layer_id: int = 0,
    op_base: int = 0,
) -> QTensor:
    """Stride-1 cross-correlation with per-MAC instrumentation.

    Canonical op order: output channel, output row, output col, input channel,
    kernel row, kernel col; each MAC emits its MUL then its accumulation ADD.
    The 18*C ops of one output pixel form its unit. With ``hook`` None the
    vectorized kernel computes the output. Given an :class:`OpFaults` table
    as ``hook``, the units owning a struck op are then recomputed together:
    their products, with every MUL flip applied at once, are summed by a
    cumulative sum, and the ADD flips of all units apply rank by rank (see
    :func:`_flip_chains`). Any other hook sees every op; that is the
    reference.
    """
    n_, c_, h, w = _check_input(x, spec)
    oh, ow = spec.out_hw(h, w)
    shift = spec.requant_shift(x.qparams)
    oq = spec.out_qparams
    pad, k_ = spec.padding, spec.out_channels
    xp = _padded(x, pad, h + 2 * pad, w + 2 * pad)
    if hook is None or isinstance(hook, OpFaults):
        out = _conv_direct_vec(xp, spec, shift)
        if hook is not None:
            offs, masks, dt = _layer_faults(hook, op_base, out.size * 18 * c_, spec)
            if offs.size:
                _direct_struck(xp, spec, shift, out, offs, masks, dt)
        return QTensor.trusted(out.shape, out, oq)

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
    return QTensor.trusted((n_, k_, oh, ow), out, oq)


def _direct_struck(xp: np.ndarray, spec: ConvSpec, shift: int, out: np.ndarray, offs: np.ndarray,
                   masks: np.ndarray, dt) -> None:
    """Overwrite the pixels of ``out`` owning the struck op offsets ``offs``
    with their faulty values, computed in ``dt``."""
    c_ = spec.in_channels
    unit, step = np.divmod(offs, 18 * c_)
    mac, is_add = np.divmod(step, 2)
    units, row = np.unique(unit, return_inverse=True)
    n, k, oy, ox = np.unravel_index(units, out.shape)
    # win[n, oy, ox] is pixel (oy, ox)'s 3x3 windows over all channels, in MAC order
    s_n, s_c, s_y, s_x = xp.strides
    win = _view(xp, 0, (out.shape[0], *out.shape[2:], c_, 3, 3), (s_n, s_y, s_x, s_c, s_y, s_x))
    p = win[n, oy, ox].reshape(-1, 9 * c_).astype(dt, copy=False)
    p *= spec.weights.array.reshape(-1, 9 * c_)[k]
    mul = is_add == 0
    p[row[mul], mac[mul]] = _flip(p[row[mul], mac[mul]], masks[mul])
    s = np.cumsum(p, axis=1, out=p)
    if spec.bias is not None:
        s += spec.bias[k, None]
    add = ~mul
    acc = s[:, -1] + _flip_chains(s, (row[add],), mac[add], masks[add])
    oq = spec.out_qparams
    out.reshape(-1)[units] = requant_array(acc, shift, oq.int_min, oq.int_max)


def _view(a: np.ndarray, offset: int, shape: tuple, strides: tuple) -> np.ndarray:
    """Read-only view of the C-contiguous ``a`` from byte ``offset`` on, with
    byte ``strides``; like as_strided, but bounds-checked and cheaper per call."""
    v = np.ndarray(shape, a.dtype, a, offset, strides)
    v.flags.writeable = False
    return v


def conv3x3_gemm(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Float64 (N, K, OH, OW) sums of the padded input ``xp`` (N, C, OH+2,
    OW+2) against the 3x3 weights ``w`` (K, C, 3, 3). Per sample and block
    of output rows, one (K x 9C) @ (9C x rows*OW) GEMM runs over a read-only
    3x3 window view of ``xp``; a block's im2col slab holds about ``_SLAB``
    values, at least one output row."""
    n_, c_, hp, wp = xp.shape
    oh, ow = hp - 2, wp - 2
    k_ = w.shape[0]
    xp = np.ascontiguousarray(xp, dtype=np.float64)
    s_n, s_c, s_y, s_x = xp.strides
    wm = w.reshape(k_, 9 * c_)
    rows = max(1, _SLAB // (9 * c_ * ow))
    out = np.empty((n_, k_, oh, ow))
    for n in range(n_):
        # win[c, ry, rx, oy, ox] = xp[n, c, oy + ry, ox + rx], in the row order of wm
        win = _view(xp, n * s_n, (c_, 3, 3, oh, ow), (s_c, s_y, s_x, s_y, s_x))
        for r in range(0, oh, rows):
            out[n, :, r : r + rows] = (wm @ win[..., r : r + rows, :].reshape(9 * c_, -1)).reshape(k_, -1, ow)
    return out


def _conv_direct_vec(xp: np.ndarray, spec: ConvSpec, shift: int) -> np.ndarray:
    """Requantized output of the padded input ``xp``: float64 GEMMs, exact
    under ConvSpec's magnitude bound."""
    acc = conv3x3_gemm(xp, spec.weights_f64).astype(np.int64)
    if spec.bias is not None:
        acc += spec.bias[None, :, None, None]
    return requant_array(acc, shift, spec.out_qparams.int_min, spec.out_qparams.int_max)


def conv_winograd(
    x: QTensor,
    spec: ConvSpec,
    *,
    hook: Optional[Hook | OpFaults] = None,
    layer_id: int = 0,
    op_base: int = 0,
) -> QTensor:
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
    all of its units. With ``hook`` None the vectorized kernel computes the
    output. Given an :class:`OpFaults` table as ``hook``, the units owning a
    struck op are then recomputed together (see :func:`_winograd_struck`).
    Any other hook sees every op; that is the reference.
    """
    n_, c_, h, w = _check_input(x, spec)
    oh, ow = spec.out_hw(h, w)
    # +2: Winograd folds the deferred /4 of the doubled filter transform here.
    shift = spec.requant_shift(x.qparams) + 2
    oq = spec.out_qparams
    k_, pad = spec.out_channels, spec.padding
    ty_, tx_ = tile_grid(oh, ow)
    xp = _padded(x, pad, 2 * ty_ + 2, 2 * tx_ + 2)
    n_itf, n_inv = len(_INPUT_TF.steps), len(_INVERSE_TF.steps)
    tile_ops = c_ * n_itf + 32 * k_ * c_ + k_ * n_inv
    if hook is None or isinstance(hook, OpFaults):
        out = _conv_winograd_vec(xp, spec, oh, ow, shift)
        if hook is not None:
            offs, masks, dt = _layer_faults(hook, op_base, n_ * ty_ * tx_ * tile_ops, spec, winograd=True)
            if offs.size:
                _winograd_struck(xp, spec, shift, out, offs, masks, dt)
        return QTensor.trusted(out.shape, out, oq)

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
    return QTensor.trusted(out.shape, out, oq)


def _winograd_struck(xp: np.ndarray, spec: ConvSpec, shift: int, out: np.ndarray, offs: np.ndarray,
                     masks: np.ndarray, dt) -> None:
    """Overwrite the (tile, k) units of ``out`` owning the struck ops with
    their faulty values, computed in ``dt``. ``offs`` are the ops' offsets
    from the layer's first op.

    The units' tiles are transformed again, one product with kron(B^T, B^T),
    and the input transforms of struck (tile, c) rerun in lockstep (see
    :func:`_lockstep`). The units' products take their multiply flips at
    once, a cumulative sum over c gives every channel sum, and channel-sum
    flips apply rank by rank. The inverse transform is one product with
    kron(A^T, A^T), rerun in lockstep for the units with an
    inverse-transform flip.
    """
    n_, c_, hp, wp = xp.shape
    k_ = spec.out_channels
    ty_, tx_ = (hp - 2) // 2, (wp - 2) // 2
    n_itf, n_inv = len(_INPUT_TF.steps), len(_INVERSE_TF.steps)
    ew0 = c_ * n_itf
    cs0 = ew0 + 16 * k_ * c_
    inv0 = cs0 + 16 * k_ * c_
    t, o = np.divmod(offs, inv0 + k_ * n_inv)
    itf, ew, cs, inv = o < ew0, (ew0 <= o) & (o < cs0), (cs0 <= o) & (o < inv0), inv0 <= o

    hit = np.zeros((n_ * ty_ * tx_, k_), dtype=bool)
    hit[t[itf]] = True
    # element-wise multiply and channel-sum flips: (tile, k, c, e)
    kce = [np.unravel_index(o[sel] - first, (k_, c_, 16)) for sel, first in ((ew, ew0), (cs, cs0))]
    k_inv, step_inv = np.divmod(o[inv] - inv0, n_inv)
    for sel, k in ((ew, kce[0][0]), (cs, kce[1][0]), (inv, k_inv)):
        hit[t[sel], k] = True
    ut, uk = np.nonzero(hit)  # the units, by tile, then k
    unit = np.full(hit.shape, -1)
    unit[ut, uk] = np.arange(ut.size)
    tiles, tu = np.unique(ut, return_inverse=True)

    # tile_of[n, ty, tx, c] is that (tile, c)'s 4x4 input tile
    s_n, s_c, s_y, s_x = xp.strides
    tile_of = _view(xp, 0, (n_, ty_, tx_, c_, 4, 4), (s_n, 2 * s_y, 2 * s_x, s_c, s_y, s_x))
    d = tile_of[np.unravel_index(tiles, (n_, ty_, tx_))].reshape(-1, 16).astype(dt, copy=False)  # (tiles * C, 16)
    v = d @ _INPUT_TF.linear[d.dtype][2].T
    if itf.any():
        c, step = np.divmod(o[itf], n_itf)
        rows, r = np.unique(np.searchsorted(tiles, t[itf]) * c_ + c, return_inverse=True)
        v[rows] = _lockstep(_INPUT_TF, d[rows], r, step, masks[itf])
    v = v.reshape(tiles.size, c_, 16)
    p = spec.u_int.astype(dt, copy=False)[uk]
    p *= v[tu]  # (units, C, 16)
    k, c, e = kce[0]
    at = (unit[t[ew], k], c, e)
    p[at] = _flip(p[at], masks[ew])
    s = np.cumsum(p, axis=1, out=p).transpose(0, 2, 1)  # (units, 16, C): a chain per (unit, e)
    k, c, e = kce[1]
    s = s[..., -1] + _flip_chains(s, (unit[t[cs], k], e), c, masks[cs])
    y = s @ _INVERSE_TF.linear[d.dtype][2].T  # (units, 4)
    if inv.any():
        rows, r = np.unique(unit[t[inv], k_inv], return_inverse=True)
        y[rows] = _lockstep(_INVERSE_TF, s[rows], r, step_inv, masks[inv])
    if spec.bias is not None:
        y += 4 * spec.bias[uk, None]
    oq = spec.out_qparams
    y = requant_array(y, shift, oq.int_min, oq.int_max)
    # output element e of a unit sits at (2 ty + e // 2, 2 tx + e % 2)
    n, ty, tx = np.unravel_index(ut, (n_, ty_, tx_))
    oy, ox = 2 * ty[:, None] + _TILE_DY, 2 * tx[:, None] + _TILE_DX
    i, e = np.nonzero((oy < out.shape[2]) & (ox < out.shape[3]))
    out[n[i], uk[i], oy[i, e], ox[i, e]] = y[i, e]


def _conv_winograd_vec(xp: np.ndarray, spec: ConvSpec, oh: int, ow: int, shift: int) -> np.ndarray:
    """Requantized output of the padded input ``xp``, as three float64 matrix
    products over tiles flattened row-major to 16 elements: the input
    transform kron(B^T, B^T), 16 per-element (K x C) @ (C x tiles) GEMMs
    that multiply and sum over channels, and the inverse transform
    kron(A^T, A^T). They run per sample and block of tile rows, on 4x4 tiles
    read from a view of ``xp`` that steps 2 rows and 2 columns per tile; a
    block's tiles hold about ``_SLAB`` values, at least one tile row. Exact
    under ConvSpec's magnitude bound."""
    n_, c_, hp, wp = xp.shape
    k_ = spec.out_channels
    ty_, tx_ = (hp - 2) // 2, (wp - 2) // 2
    xf = xp.astype(np.float64)
    s_n, s_c, s_y, s_x = xf.strides
    uk = spec.u
    rows = max(1, _SLAB // (16 * c_ * tx_))
    y = np.empty((n_, k_, ty_, 2, tx_, 2))
    for n in range(n_):
        # tiles[i, j, c, ty, tx] = xp[n, c, 2 ty + i, 2 tx + j]
        tiles = _view(xf, n * s_n, (4, 4, c_, ty_, tx_), (s_y, s_x, s_c, 2 * s_y, 2 * s_x))
        for r in range(0, ty_, rows):
            v = (_KRON_BT @ tiles[..., r : r + rows, :].reshape(16, -1)).reshape(16, c_, -1)
            s = _KRON_AT @ (uk @ v).reshape(16, -1)  # (4, K * tiles)
            y[n, :, r : r + rows] = s.reshape(2, 2, k_, -1, tx_).transpose(2, 3, 0, 4, 1)
    plane = y.reshape(n_, k_, 2 * ty_, 2 * tx_)[:, :, :oh, :ow].astype(np.int64)
    if spec.bias is not None:
        plane += 4 * spec.bias[None, :, None, None]
    return requant_array(plane, shift, spec.out_qparams.int_min, spec.out_qparams.int_max)


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
