"""Model execution and operation-stream enumeration.

Every primitive multiply/add of one inference gets a dense op_id assigned in
canonical single-threaded order: layers in model order, ops within a layer in
the engine's documented order. ``enumerate_ops`` derives the full address
space (counts, per-op type/stage/layer lookup, op-bit totals) without running
any arithmetic; tests pin it against hook-counting dry runs.

Fully-connected and pooling-style layers are plumbing: they execute fault-free
and own no op_ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import engine as eng
from .engine import OpType, Stage
from .errors import ConfigError, ShapeError
from .modelio import (
    ConstrainedReluLayer,
    ConvLayer,
    FlattenLayer,
    LinearLayer,
    ModelDef,
    ReluLayer,
)
from .qtensor import QTensor, QuantParams, flip_array_with_masks

MAX_FAULT_BITS = 64

# Op type pattern of a region: its ops' OpType, or PAT_MAC when MULs (even
# offsets) and ADDs (odd offsets) alternate.
PAT_MAC = 2
_STAGE_PATTERNS = {
    Stage.DIRECT_MAC: PAT_MAC,
    Stage.WG_FILTER_TF: OpType.ADD,
    Stage.WG_INPUT_TF: OpType.ADD,
    Stage.WG_EWMUL: OpType.MUL,
    Stage.WG_CHANNEL_SUM: OpType.ADD,
    Stage.WG_INVERSE_TF: OpType.ADD,
}


class OpSpace:
    """Canonical operation address space of one inference.

    The op stream is stored once, as parallel arrays over its regions: region
    r is the op_id run [starts[r], ends[r]) of one layer (``layers[r]``) and
    stage (``stages[r]``) whose op types follow ``patterns[r]``.
    """

    def __init__(self, model: ModelDef, engine: str, fault_bits=None, wg_cfg=None):
        if engine not in ("direct", "winograd"):
            raise ConfigError(f"unknown engine {engine!r}")
        self.engine = engine
        self.bit_width = model.bit_width
        self.include_filter_tf = bool(wg_cfg is not None and wg_cfg.instrument_filter_transform)
        wm, wa = _resolve_fault_bits(fault_bits, model.bit_width)
        self.width_mul = wm
        self.width_add = wa
        self.width_pad = max(wm, wa)

        runs = []  # (layer_id, stage, op count) in emission order
        neuron_sizes: dict[int, int] = {}
        for layer_id, (layer, in_shape, out_shape, spec) in enumerate(model.execution_plan()):
            if not isinstance(layer, ConvLayer):
                continue
            c, h, w = in_shape
            oh, ow = spec.out_hw(h, w)
            k = layer.out_channels
            neuron_sizes[layer_id] = k * oh * ow
            if engine == "direct":
                counts = eng.direct_layer_counts(1, c, k, oh, ow)
                runs.append((layer_id, Stage.DIRECT_MAC, sum(counts[Stage.DIRECT_MAC].values())))
                continue
            # The executed winograd stream interleaves stages per tile; regions
            # mirror the exact emission order of conv_winograd, which a
            # one-tile layer's counts list stage by stage.
            if self.include_filter_tf:
                ftf = eng.winograd_layer_counts(1, c, k, oh, ow, True)[Stage.WG_FILTER_TF]
                runs.append((layer_id, Stage.WG_FILTER_TF, ftf[OpType.ADD]))
            ty, tx = eng.WinogradConfig.tile_grid(oh, ow)
            one_tile = eng.winograd_layer_counts(1, c, k, 2, 2)
            runs += [(layer_id, stage, sum(t.values())) for stage, t in one_tile.items()] * (ty * tx)

        self.layers, self.stages, sizes = np.array(runs, dtype=np.int64).reshape(-1, 3).T
        self.ends = np.cumsum(sizes)
        self.starts = self.ends - sizes
        self.patterns = np.array([_STAGE_PATTERNS[s] for s in range(len(Stage))])[self.stages]
        self.total_ops = int(self.ends[-1]) if runs else 0
        self.neuron_sizes = neuron_sizes
        ends = np.cumsum([0, *neuron_sizes.values()]).tolist()
        self.neuron_ranges = dict(zip(neuron_sizes, zip(ends, ends[1:])))  # conv layer_id -> [start, end) neuron ids
        self.total_neurons = ends[-1]

    # -- counts -------------------------------------------------------------

    def _muls_below(self, op_id: int) -> np.ndarray:
        """MUL ops of each region below ``op_id``."""
        n = np.clip(op_id - self.starts, 0, self.ends - self.starts)
        return np.select([self.patterns == OpType.MUL, self.patterns == PAT_MAC], [n, (n + 1) // 2], 0)

    def count(self, layer_id=None, stage=None, op_type=None) -> int:
        sel = np.ones(self.starts.shape, dtype=bool)
        if layer_id is not None:
            sel &= self.layers == layer_id
        if stage is not None:
            sel &= self.stages == stage
        ops = int((self.ends - self.starts)[sel].sum())
        muls = int(self._muls_below(self.total_ops)[sel].sum())
        if op_type is None:
            return ops
        return muls if op_type == OpType.MUL else ops - muls

    @property
    def total_muls(self) -> int:
        return self.count(op_type=OpType.MUL)

    @property
    def total_adds(self) -> int:
        return self.count(op_type=OpType.ADD)

    @property
    def total_op_bits(self) -> int:
        return self.total_muls * self.width_mul + self.total_adds * self.width_add

    @property
    def total_neuron_bits(self) -> int:
        return self.total_neurons * self.bit_width

    @property
    def uniform_width(self) -> bool:
        return self.width_mul == self.width_add

    def conv_layer_ids(self) -> list[int]:
        return sorted(self.neuron_sizes)

    def mul_add_in_range(self, start: int, end: int) -> tuple[int, int]:
        """(MUL, ADD) op counts inside [start, end), computed arithmetically."""
        start = max(0, start)
        end = max(start, min(self.total_ops, end))
        muls = int((self._muls_below(end) - self._muls_below(start)).sum())
        return muls, end - start - muls

    # -- per-op lookup --------------------------------------------------------

    def classify(self, op_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(layer_id, stage, op_type) arrays of the ops ``op_ids``."""
        ids = np.asarray(op_ids, dtype=np.int64)
        if ids.size and not (0 <= ids.min() and ids.max() < self.total_ops):
            raise ConfigError(f"op_ids outside [0, {self.total_ops})")
        r = np.searchsorted(self.starts, ids, side="right") - 1
        pattern = self.patterns[r]
        return self.layers[r], self.stages[r], np.where(pattern == PAT_MAC, (ids - self.starts[r]) & 1, pattern)

    def op_widths(self, op_ids) -> np.ndarray:
        return np.array([self.width_mul, self.width_add])[self.classify(op_ids)[2]]  # indexed by OpType


def _resolve_fault_bits(fault_bits, bit_width: int) -> tuple[int, int]:
    """Exposed result-bit window per op type; faults strike the low window of
    the widened result.

    Default: multiply results are exposed at their product-register width
    (2x the operand width), adds at the model bit width. The wider multiply
    window is what makes multiplications the more vulnerable op type. No
    window may be wider than MAX_FAULT_BITS, the widest accumulator register.
    """
    if fault_bits is None:
        return 2 * bit_width, bit_width
    if isinstance(fault_bits, int):
        wm = wa = fault_bits
    elif isinstance(fault_bits, dict) and set(fault_bits) <= {"MUL", "ADD"}:
        wm = int(fault_bits.get("MUL", bit_width))
        wa = int(fault_bits.get("ADD", bit_width))
    else:
        raise ConfigError(f"fault_bits must be None, int, or a MUL/ADD mapping, got {fault_bits!r}")
    if not (1 <= wm <= MAX_FAULT_BITS and 1 <= wa <= MAX_FAULT_BITS):
        raise ConfigError(f"fault_bits must be in [1, {MAX_FAULT_BITS}], got MUL:{wm},ADD:{wa}")
    return wm, wa


def enumerate_ops(
    model: ModelDef,
    engine: Optional[str] = None,
    fault_bits=None,
    wg_cfg=None,
) -> OpSpace:
    """Deterministic op-stream summary of ``model.execution_plan()``; counts
    match a hook-counting dry run."""
    return OpSpace(
        model,
        engine or model.engine,
        fault_bits=fault_bits,
        wg_cfg=wg_cfg,
    )


# ---------------------------------------------------------------------------
# Inference


@dataclass(frozen=True)
class NeuronFaults:
    """The neuron faults of one inference, ``run_inference``'s ``neuron_fn``:
    uint64 XOR ``masks`` of the struck global neuron ``ids``, ascending, which
    flip a conv layer's requantized output by its [start, end) id range in
    ``ranges``. ``record`` appends their trace records, once per inference."""

    ids: np.ndarray
    masks: np.ndarray
    ranges: dict
    record: Callable[[], None]

    def __call__(self, layer_id: int, out: QTensor) -> QTensor:
        start, end = self.ranges[layer_id]
        lo, hi = np.searchsorted(self.ids, (start, end))
        flipped = flip_array_with_masks(out.data, self.ids[lo:hi] - start, self.masks[lo:hi], out.qparams.bit_width)
        return out.with_data(flipped)


@dataclass
class InferenceResult:
    output: QTensor
    conv_outputs: dict = field(default_factory=dict)
    activations: dict = field(default_factory=dict)


def _relu(q: QTensor) -> QTensor:
    return q.with_data(np.maximum(q.array, 0))


def constrain(arr: np.ndarray, lo: int, hi: int, mode: str) -> np.ndarray:
    """Suppress out-of-range values: saturate to the violated bound (clamp)
    or zero them out (zero)."""
    if mode == "clamp":
        return np.clip(arr, lo, hi)
    if mode == "zero":
        return np.where((arr < lo) | (arr > hi), 0, arr)
    raise ConfigError(f"unknown constrained activation mode {mode!r}")


def _linear(x: QTensor, layer: LinearLayer, out_qp: QuantParams, in_qp: QuantParams) -> QTensor:
    acc = x.array.astype(np.int64) @ layer.weights.array.T
    if layer.bias is not None:
        acc = acc + layer.bias[None, :]
    shift = (
        out_qp.scale_exponent()
        - in_qp.scale_exponent()
        - layer.weights.qparams.scale_exponent()
    )
    out = eng.requant_array(acc, shift, out_qp.int_min, out_qp.int_max)
    return QTensor(out.shape, out, out_qp)


def run_inference(
    model: ModelDef,
    x: QTensor,
    engine: Optional[str] = None,
    hook=None,
    *,
    neuron_fn: Optional[NeuronFaults] = None,
    ranges=None,
    range_mode: str = "clamp",
    capture: tuple = (),
    capture_act: tuple = (),
    wg_cfg=None,
) -> InferenceResult:
    """Run one sample through the model.

    ``hook`` None runs every conv vectorized. An :class:`~winofi.engine.OpFaults`
    table runs those kernels and recomputes just the output units owning a
    struck op (see :mod:`winofi.engine`); its ``record()`` then writes the
    trace records of the applied flips. Any other ``hook`` instruments every
    conv primitive op, which is the reference. A :class:`NeuronFaults` table
    as ``neuron_fn`` flips neurons of each conv layer's requantized output.
    ``ranges`` maps conv layer_id -> (lo, hi) bounds applied at that layer's
    activation point (after the following relu, or after the conv itself when
    no relu follows). ``capture`` collects conv outputs post-injection and
    pre-activation; ``capture_act`` collects activation-point values.
    """
    engine = engine or model.engine
    if engine not in ("direct", "winograd"):
        raise ConfigError(f"unknown engine {engine!r}")
    if x.qparams != model.input_qparams:
        raise ShapeError(
            f"input qparams {x.qparams} do not match model input {model.input_qparams}"
        )
    plan = model.execution_plan()
    if wg_cfg is None:
        wg_cfg = eng.WINOGRAD_F2X2_3X3

    # layer index -> the conv layer whose activation point it is: the relu
    # right after the conv, or the conv itself when no relu follows
    act_point = {}
    for layer_id, (layer, *_) in enumerate(plan):
        if isinstance(layer, ConvLayer):
            relu_next = layer_id + 1 < len(plan) and isinstance(
                plan[layer_id + 1][0], (ReluLayer, ConstrainedReluLayer)
            )
            act_point[layer_id + relu_next] = layer_id

    res = InferenceResult(output=x)
    cur = x
    op_base = 0
    for layer_id, (layer, in_shape, out_shape, spec) in enumerate(plan):
        if isinstance(layer, ConvLayer):
            oh_ow = spec.out_hw(in_shape[1], in_shape[2])
            if engine == "direct":
                cur = eng.conv_direct(cur, spec, hook, layer_id=layer_id, op_base=op_base)
                counts = eng.direct_layer_counts(1, in_shape[0], layer.out_channels, *oh_ow)
            else:
                cur = eng.conv_winograd(cur, spec, wg_cfg, hook, layer_id=layer_id, op_base=op_base)
                counts = eng.winograd_layer_counts(
                    1, in_shape[0], layer.out_channels, *oh_ow, wg_cfg.instrument_filter_transform
                )
            op_base += sum(t[OpType.MUL] + t[OpType.ADD] for t in counts.values())
            if neuron_fn is not None:
                cur = neuron_fn(layer_id, cur)
            if layer_id in capture:
                res.conv_outputs[layer_id] = cur
        elif isinstance(layer, (ReluLayer, ConstrainedReluLayer)):
            cur = _relu(cur)
            if isinstance(layer, ConstrainedReluLayer):
                cur = cur.with_data(constrain(cur.array, layer.lo, layer.hi, layer.mode))
        elif isinstance(layer, FlattenLayer):
            cur = QTensor((cur.shape[0], cur.size // cur.shape[0]), cur.data, cur.qparams)
        elif isinstance(layer, LinearLayer):
            cur = _linear(cur, layer, QuantParams(model.bit_width, layer.out_scale), cur.qparams)
        conv_id = act_point.get(layer_id)
        if conv_id is not None:
            bounds = ranges.get(conv_id) if ranges is not None else None
            if bounds is not None:
                cur = cur.with_data(constrain(cur.array, bounds[0], bounds[1], range_mode))
            if conv_id in capture_act:
                res.activations[conv_id] = cur
    for faults in (hook, neuron_fn):
        if isinstance(faults, (eng.OpFaults, NeuronFaults)):
            faults.record()
    res.output = cur
    return res


def top1(output: QTensor) -> int:
    """Deterministic top-1: argmax over the flattened output, first index wins."""
    return int(np.argmax(output.data))

