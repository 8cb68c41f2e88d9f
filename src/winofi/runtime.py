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

import bisect
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import engine as eng
from .engine import OpRecord, OpType, Stage
from .errors import ConfigError, ShapeError
from .modelio import (
    ConstrainedReluLayer,
    ConvLayer,
    FlattenLayer,
    LinearLayer,
    ModelDef,
    ReluLayer,
)
from .qtensor import QTensor, QuantParams

MAX_FAULT_BITS = 64

# Region op patterns.
PAT_MAC = 0  # alternating MUL (even offset) / ADD (odd offset)
PAT_MUL = 1
PAT_ADD = 2

_STAGE_PATTERNS = {
    Stage.DIRECT_MAC: PAT_MAC,
    Stage.WG_FILTER_TF: PAT_ADD,
    Stage.WG_INPUT_TF: PAT_ADD,
    Stage.WG_EWMUL: PAT_MUL,
    Stage.WG_CHANNEL_SUM: PAT_ADD,
    Stage.WG_INVERSE_TF: PAT_ADD,
}


@dataclass(frozen=True)
class Region:
    """A contiguous op_id run sharing layer, stage and type pattern."""

    start: int
    end: int
    layer_id: int
    stage: Stage
    pattern: int


def _evens_in(lo: int, hi: int) -> int:
    """Count of even integers in [lo, hi)."""
    if hi <= lo:
        return 0
    return (hi + 1) // 2 - (lo + 1) // 2


class OpSpace:
    """Canonical operation address space of one inference."""

    def __init__(self, model: ModelDef, engine: str, input_shape, fault_bits=None, wg_cfg=None):
        if engine not in ("direct", "winograd"):
            raise ConfigError(f"unknown engine {engine!r}")
        self.engine = engine
        self.bit_width = model.bit_width
        self.input_shape = tuple(input_shape)
        self.include_filter_tf = bool(wg_cfg is not None and wg_cfg.instrument_filter_transform)
        wm, wa = _resolve_fault_bits(fault_bits, model.bit_width)
        self.width_mul = wm
        self.width_add = wa
        self.width_pad = max(wm, wa)

        regions: list[Region] = []
        stage_counts: dict[int, dict[Stage, dict[OpType, int]]] = {}
        neuron_sizes: dict[int, int] = {}
        op_id = 0
        n = 1  # one sample per inference
        for layer_id, (layer, in_shape, out_shape, spec) in enumerate(model.execution_plan()):
            if not isinstance(layer, ConvLayer):
                continue
            c, h, w = in_shape
            oh, ow = spec.out_hw(h, w)
            k = layer.out_channels
            neuron_sizes[layer_id] = k * oh * ow
            if engine == "direct":
                counts = eng.direct_layer_counts(n, c, k, oh, ow)
                runs = [(Stage.DIRECT_MAC, sum(counts[Stage.DIRECT_MAC].values()))]
            else:
                counts = eng.winograd_layer_counts(n, c, k, oh, ow, self.include_filter_tf)
                # The executed winograd stream interleaves stages per tile; regions
                # mirror the exact emission order of conv_winograd, which a
                # one-tile layer's counts list stage by stage.
                one_tile = eng.winograd_layer_counts(1, c, k, 2, 2)
                per_tile = [(stage, sum(t.values())) for stage, t in one_tile.items()]
                ty, tx = eng.WinogradConfig.tile_grid(oh, ow)
                ftf = counts.get(Stage.WG_FILTER_TF)
                runs = ([(Stage.WG_FILTER_TF, ftf[OpType.ADD])] if ftf else []) + per_tile * (n * ty * tx)
            stage_counts[layer_id] = counts
            for stage, cnt in runs:
                regions.append(Region(op_id, op_id + cnt, layer_id, stage, _STAGE_PATTERNS[stage]))
                op_id += cnt

        self.regions = regions
        self._region_starts = [r.start for r in regions]
        self.total_ops = op_id
        self.stage_counts = stage_counts
        self.neuron_sizes = neuron_sizes
        offs = {}
        off = 0
        for lid in sorted(neuron_sizes):
            offs[lid] = off
            off += neuron_sizes[lid]
        self.neuron_offsets = offs
        self.total_neurons = off

    # -- counts -------------------------------------------------------------

    def count(self, layer_id=None, stage=None, op_type=None) -> int:
        total = 0
        for lid, stages in self.stage_counts.items():
            if layer_id is not None and lid != layer_id:
                continue
            for stg, types in stages.items():
                if stage is not None and stg != stage:
                    continue
                for typ, cnt in types.items():
                    if op_type is not None and typ != op_type:
                        continue
                    total += cnt
        return total

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
        return sorted(self.stage_counts)

    # -- per-op lookup --------------------------------------------------------

    def region_of(self, op_id: int) -> Region:
        if not 0 <= op_id < self.total_ops:
            raise ConfigError(f"op_id {op_id} outside [0, {self.total_ops})")
        idx = bisect.bisect_right(self._region_starts, op_id) - 1
        return self.regions[idx]

    def op_info(self, op_id: int) -> tuple[int, Stage, OpType]:
        r = self.region_of(op_id)
        if r.pattern == PAT_MUL:
            typ = OpType.MUL
        elif r.pattern == PAT_ADD:
            typ = OpType.ADD
        else:
            typ = OpType.MUL if (op_id - r.start) % 2 == 0 else OpType.ADD
        return r.layer_id, r.stage, typ

    def record_of(self, op_id: int) -> OpRecord:
        layer_id, stage, typ = self.op_info(op_id)
        width = self.width_mul if typ == OpType.MUL else self.width_add
        return OpRecord(op_id=op_id, layer_id=layer_id, op_type=typ, stage=stage, bit_width=width)

    def op_width(self, op_id: int) -> int:
        return self.width_mul if self.op_info(op_id)[2] == OpType.MUL else self.width_add

    def mul_add_in_range(self, start: int, end: int) -> tuple[int, int]:
        """(MUL, ADD) op counts inside [start, end), computed arithmetically."""
        start = max(0, start)
        end = min(self.total_ops, end)
        muls = adds = 0
        if end <= start:
            return 0, 0
        idx = bisect.bisect_right(self._region_starts, start) - 1
        for r in self.regions[idx:]:
            if r.start >= end:
                break
            a, b = max(start, r.start), min(end, r.end)
            if b <= a:
                continue
            if r.pattern == PAT_MUL:
                muls += b - a
            elif r.pattern == PAT_ADD:
                adds += b - a
            else:
                m = _evens_in(a - r.start, b - r.start)
                muls += m
                adds += (b - a) - m
        return muls, adds


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
    elif isinstance(fault_bits, dict) and set(fault_bits) <= {"MUL", "ADD", OpType.MUL, OpType.ADD}:
        wm = int(fault_bits.get("MUL", fault_bits.get(OpType.MUL, bit_width)))
        wa = int(fault_bits.get("ADD", fault_bits.get(OpType.ADD, bit_width)))
    else:
        raise ConfigError(f"fault_bits must be None, int, or a MUL/ADD mapping, got {fault_bits!r}")
    if not (1 <= wm <= MAX_FAULT_BITS and 1 <= wa <= MAX_FAULT_BITS):
        raise ConfigError(f"fault_bits must be in [1, {MAX_FAULT_BITS}], got MUL:{wm},ADD:{wa}")
    return wm, wa


def enumerate_ops(
    model: ModelDef,
    engine: Optional[str] = None,
    input_shape=None,
    fault_bits=None,
    wg_cfg=None,
) -> OpSpace:
    """Deterministic op-stream summary; counts match a hook-counting dry run."""
    return OpSpace(
        model,
        engine or model.engine,
        input_shape or model.input_shape,
        fault_bits=fault_bits,
        wg_cfg=wg_cfg,
    )


# ---------------------------------------------------------------------------
# Inference


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
    neuron_fn: Optional[Callable[[int, QTensor], QTensor]] = None,
    ranges=None,
    range_mode: str = "clamp",
    capture: tuple = (),
    capture_act: tuple = (),
    wg_cfg=None,
) -> InferenceResult:
    """Run one sample through the model.

    ``hook`` instruments every conv primitive op; ``neuron_fn(layer_id, out)``
    may rewrite each conv layer's requantized output (neuron-level injection).
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

    res = InferenceResult(output=x)
    cur = x
    cur_qp = model.input_qparams
    op_base = 0
    pending_range = None  # (conv_layer_id, lo, hi) awaiting an immediate relu
    for layer_id, (layer, in_shape, out_shape, spec) in enumerate(plan):
        if isinstance(layer, ConvLayer):
            pending_range = None
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
            bounds = ranges.get(layer_id) if ranges is not None else None
            next_is_relu = layer_id + 1 < len(plan) and isinstance(
                plan[layer_id + 1][0], (ReluLayer, ConstrainedReluLayer)
            )
            if next_is_relu:
                pending_range = (layer_id, bounds)
            else:
                if bounds is not None:
                    cur = cur.with_data(constrain(cur.array, bounds[0], bounds[1], range_mode))
                if layer_id in capture_act:
                    res.activations[layer_id] = cur
            cur_qp = cur.qparams
        elif isinstance(layer, (ReluLayer, ConstrainedReluLayer)):
            cur = _relu(cur)
            if isinstance(layer, ConstrainedReluLayer):
                cur = cur.with_data(constrain(cur.array, layer.lo, layer.hi, layer.mode))
            if pending_range is not None:
                conv_id, bounds = pending_range
                if bounds is not None:
                    cur = cur.with_data(constrain(cur.array, bounds[0], bounds[1], range_mode))
                if conv_id in capture_act:
                    res.activations[conv_id] = cur
                pending_range = None
        elif isinstance(layer, FlattenLayer):
            cur = QTensor((cur.shape[0], cur.size // cur.shape[0]), cur.data, cur.qparams)
        elif isinstance(layer, LinearLayer):
            cur = _linear(cur, layer, QuantParams(model.bit_width, layer.out_scale), cur_qp)
            cur_qp = cur.qparams
    res.output = cur
    return res


def top1(output: QTensor) -> int:
    """Deterministic top-1: argmax over the flattened output, first index wins."""
    return int(np.argmax(output.data))

