"""Model execution and operation-stream enumeration.

A :class:`Program` compiles a model for one engine and range profile once:
the execution plan, each conv layer's place in the op stream and every
clamp, checked. :func:`run_inference` runs it, and
:class:`OpSpace` reads its op layout.

Every primitive multiply/add of one inference gets a dense op_id assigned in
canonical single-threaded order: layers in model order, ops within a layer in
the engine's documented order. ``enumerate_ops`` derives the full address
space (counts, per-op type/stage/layer lookup, op-bit totals) without running
any arithmetic; tests pin it against hook-counting dry runs.

Fully-connected and pooling-style layers are plumbing: they execute fault-free
and own no op_ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import engine as eng
from .engine import OpType, Stage
from .errors import ConfigError, ShapeError
from .modelio import FlattenLayer, LinearLayer, ModelDef, ReluLayer
from .qtensor import QTensor, QuantParams, flip_array_with_masks

MAX_FAULT_BITS = 64

# Op type pattern of a stage: its ops' OpType, or PAT_MAC when MULs (even
# offsets) and ADDs (odd offsets) alternate.
PAT_MAC = 2
_STAGE_PATTERNS = {
    Stage.DIRECT_MAC: PAT_MAC,
    Stage.WG_INPUT_TF: OpType.ADD,
    Stage.WG_EWMUL: OpType.MUL,
    Stage.WG_CHANNEL_SUM: OpType.ADD,
    Stage.WG_INVERSE_TF: OpType.ADD,
}


class OpSpace:
    """Canonical operation address space of one inference, read off a
    :class:`Program`'s conv steps.

    The op stream is stored as one row per conv layer and a per-tile stage
    table: conv layer ``layers[i]`` owns the op ids from ``starts[i]`` on,
    ``tiles[i]`` tiles of ``tile_ops[i]`` ops each (one tile for the direct
    engine). Every tile emits the ``stages`` in order, stage j as
    ``tile_sizes[i, j]`` ops from ``tile_starts[i, j]`` within the tile,
    whose op types follow the stage's pattern (``_STAGE_PATTERNS``).
    """

    def __init__(self, program: Program, fault_bits=None):
        self.engine = program.engine
        self.bit_width = program.model.bit_width
        wm, wa = _resolve_fault_bits(fault_bits, self.bit_width)
        self.width_mul = wm
        self.width_add = wa
        self.width_pad = max(wm, wa)

        convs = program.convs
        self.layers = np.array([step.layer_id for step in convs], dtype=np.int64)
        self.starts = np.array([step.op_base for step in convs], dtype=np.int64)
        self.tiles = np.array([step.repeats for step in convs], dtype=np.int64)
        stages = [stage for stage, _ in convs[0].regions] if convs else []
        self.stages = np.array(stages, dtype=np.int64)
        sizes = np.array([[n for _, n in step.regions] for step in convs], dtype=np.int64)
        self.tile_sizes = sizes.reshape(len(convs), len(stages))
        self.tile_starts = np.cumsum(self.tile_sizes, axis=1) - self.tile_sizes
        self.tile_ops = self.tile_sizes.sum(axis=1)
        self.total_ops = int(self.tiles @ self.tile_ops)
        self._patterns = np.array([_STAGE_PATTERNS[stage] for stage in stages], dtype=np.int64)
        self._tile_muls = self._muls(self.tile_sizes)
        # classify's tables. An op's key is its layer's key base plus its
        # offset within its tile; each (layer, stage) row holds the key of the
        # stage's first op in a tile, ascending.
        self._key_base = np.arange(len(convs)) * (int(self.tile_ops.max(initial=0)) + 1)
        self._row_keys = (self._key_base[:, None] + self.tile_starts).ravel()
        self._row_stages = np.tile(self.stages, len(convs))
        self._row_patterns = np.tile(self._patterns, len(convs))
        self.neuron_sizes = {step.layer_id: math.prod(step.out_shape) for step in convs}
        ends = np.cumsum([0, *self.neuron_sizes.values()]).tolist()
        self.neuron_ranges = dict(zip(self.neuron_sizes, zip(ends, ends[1:])))  # conv layer_id -> [start, end) neuron ids
        self.total_neurons = ends[-1]

    # -- counts -------------------------------------------------------------

    def _muls(self, n: np.ndarray) -> np.ndarray:
        """MUL ops among the first ``n[..., j]`` ops of stage j of a tile:
        all of a MUL stage's, every other one of a MAC stage's."""
        return np.where(self._patterns == OpType.MUL, n, np.where(self._patterns == PAT_MAC, (n + 1) // 2, 0))

    def _muls_below(self, op_id: int) -> int:
        """MUL ops with ids below ``op_id``."""
        tiles, off = np.divmod(np.clip(op_id - self.starts, 0, self.tiles * self.tile_ops), self.tile_ops)
        partial = np.clip(off[:, None] - self.tile_starts, 0, self.tile_sizes)
        return int((tiles[:, None] * self._tile_muls + self._muls(partial)).sum())

    def count(self, layer_id=None, stage=None, op_type=None) -> int:
        sel = np.ones(self.tile_sizes.shape, dtype=bool)
        if layer_id is not None:
            sel &= (self.layers == layer_id)[:, None]
        if stage is not None:
            sel &= self.stages == stage
        ops = int((self.tiles[:, None] * self.tile_sizes)[sel].sum())
        if op_type is None:
            return ops
        muls = int((self.tiles[:, None] * self._tile_muls)[sel].sum())
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
        muls = self._muls_below(end) - self._muls_below(start)
        return muls, end - start - muls

    # -- per-op lookup --------------------------------------------------------

    def classify(self, op_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(layer_id, stage, op_type) arrays of the ops ``op_ids``."""
        ids = np.asarray(op_ids, dtype=np.int64)
        if ids.size and not (0 <= ids.min() and ids.max() < self.total_ops):
            raise ConfigError(f"op_ids outside [0, {self.total_ops})")
        return self._lookup(ids)

    def _lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`classify` of int64 ``ids`` known to lie in [0, total_ops)."""
        i = np.searchsorted(self.starts[1:], ids, side="right")  # the op's layer row
        key = self._key_base[i] + (ids - self.starts[i]) % self.tile_ops[i]
        r = np.searchsorted(self._row_keys[1:], key, side="right")  # its (layer, stage) row
        pattern = self._row_patterns[r]
        return self.layers[i], self._row_stages[r], np.where(pattern == PAT_MAC, (key - self._row_keys[r]) & 1, pattern)

    def op_widths(self, op_ids) -> np.ndarray:
        """Fault window widths of the ops ``op_ids``, which must lie in [0,
        total_ops): unlike :meth:`classify`, it does not check them."""
        ids = np.asarray(op_ids, dtype=np.int64)
        return np.array([self.width_mul, self.width_add])[self._lookup(ids)[2]]  # indexed by OpType


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
) -> OpSpace:
    """Deterministic op-stream summary of ``model.execution_plan()``; counts
    match a hook-counting dry run."""
    return OpSpace(Program(model, engine), fault_bits=fault_bits)


# ---------------------------------------------------------------------------
# Compiled inference


class Step(NamedTuple):
    """One layer of a :class:`Program`: the ``layer`` at index ``layer_id``
    of the model, read for its type only, and its output shape without the
    batch axis.

    A conv step runs ``spec`` and owns the ``n_ops`` op ids from ``op_base``
    on: the (stage, op count) ``regions`` in emission order, ``repeats``
    times (once per Winograd tile). A linear step multiplies by ``weights``
    (the layer's weights, transposed), adds ``bias`` and requantizes to
    ``qparams`` by ``shift``. Last, a step whose output is the activation
    point of conv layer ``act_of`` applies its ``clamp``, the checked (lo,
    hi, mode) of the range profile's bounds for that layer, or None.
    """

    layer_id: int
    layer: object
    out_shape: tuple
    spec: Optional[eng.ConvSpec]
    op_base: int
    n_ops: int
    regions: tuple
    repeats: int
    weights: Optional[np.ndarray]
    bias: Optional[np.ndarray]
    qparams: Optional[QuantParams]
    shift: int
    clamp: Optional[tuple]
    act_of: Optional[int]


class Program:
    """What :func:`run_inference` runs for one (model, engine, ranges,
    range_mode), compiled once: the model's input shape and qparams, and a
    :class:`Step` per layer of ``model.execution_plan()``, with the op
    layout :class:`OpSpace` reads.

    A Program is a snapshot: every operand and clamp it applies is compiled
    into its steps, so mutating the model's layers afterwards changes
    nothing it runs. ``ranges`` maps conv layer_id -> (lo, hi) bounds, which
    ``range_mode`` applies at that layer's activation point (after the
    following relu, or after the conv itself when no relu follows). Layer
    ids that are not conv layers, an unknown ``range_mode`` and clamp bounds
    that are reversed or leave the model's integer range raise ConfigError
    here (see :func:`check_clamp_bounds`).
    """

    def __init__(self, model: ModelDef, engine: Optional[str] = None, ranges=None, range_mode: str = "clamp"):
        engine = engine or model.engine
        if engine not in ("direct", "winograd"):
            raise ConfigError(f"unknown engine {engine!r}")
        check_range_mode(range_mode)
        self.model, self.engine = model, engine
        self.input_shape, self.input_qparams = model.input_shape, model.input_qparams
        profile = getattr(ranges, "ranges", ranges) if ranges else {}  # a RangeProfile's or a plain dict's bounds
        plan = model.execution_plan()
        steps, convs = [], []
        qp, op_base, pending = self.input_qparams, 0, None  # pending: a conv before its activation point
        for layer_id, (layer, in_shape, out_shape, spec) in enumerate(plan):
            n_ops, regions, repeats, weights, bias, out_qp, shift = 0, (), 0, None, None, None, 0
            clamp, act_of = None, None
            if spec is not None:
                c, h, w = in_shape
                oh, ow = spec.out_hw(h, w)
                if engine == "direct":
                    counts, repeats = eng.direct_layer_counts(1, c, spec.out_channels, oh, ow), 1
                else:
                    # the Winograd stream interleaves its stages per tile, as
                    # a one-tile layer's counts list them
                    counts = eng.winograd_layer_counts(1, c, spec.out_channels, 2, 2)
                    repeats = math.prod(eng.tile_grid(oh, ow))
                regions = tuple((stage, sum(t.values())) for stage, t in counts.items())
                n_ops = repeats * sum(n for _, n in regions)
                qp, pending = spec.out_qparams, layer_id
            elif isinstance(layer, LinearLayer):
                weights, bias = layer.weights.array.T, layer.bias
                out_qp = QuantParams(model.bit_width, layer.out_scale)
                shift = out_qp.scale_exponent() - qp.scale_exponent() - layer.weights.qparams.scale_exponent()
                qp = out_qp
            # a conv layer's activation point: the relu right after it, or
            # the conv itself when no relu follows
            relu_next = layer_id + 1 < len(plan) and isinstance(plan[layer_id + 1][0], ReluLayer)
            if pending is not None and not (pending == layer_id and relu_next):
                act_of, pending = pending, None
                bounds = profile.get(act_of)
                if bounds is not None:
                    check_clamp_bounds(f"range profile layer {act_of}", *bounds, range_mode, qp)
                    clamp = (*bounds, range_mode)
            steps.append(Step(layer_id, layer, out_shape, spec, op_base, n_ops, regions, repeats, weights, bias,
                              out_qp, shift, clamp, act_of))
            if spec is not None:
                convs.append(steps[-1])
            op_base += n_ops
        self.steps, self.convs = tuple(steps), tuple(convs)
        if profile:
            self.check_conv_layers("range profile", profile)

    def check_conv_layers(self, what: str, layer_ids) -> None:
        """Raise ConfigError unless every id in ``layer_ids`` (``what`` in errors) is a conv layer."""
        conv = [step.layer_id for step in self.convs]
        stray = sorted(set(layer_ids) - set(conv))
        if stray:
            raise ConfigError(f"{what} layer ids {stray} are not conv layers of this model (conv layers: {conv})")

    def check_compiled_for(self, model: ModelDef, engine: Optional[str]) -> None:
        """Raise ConfigError unless this Program was compiled for ``model`` and ``engine``."""
        if not (model is self.model and (engine or model.engine) == self.engine):
            raise ConfigError("the program was compiled for another model or engine")


# ---------------------------------------------------------------------------
# Inference


@dataclass(frozen=True)
class NeuronFaults:
    """The neuron faults of one inference, ``run_inference``'s ``neuron_fn``:
    uint64 XOR ``masks`` of the struck global neuron ``ids``, ascending, which
    flip a conv layer's requantized output by its [start, end) id range in
    ``ranges``. ``record`` hands them to the trace, once per inference."""

    ids: np.ndarray
    masks: np.ndarray
    ranges: dict
    record: Callable[[], None]

    def __call__(self, layer_id: int, out: QTensor) -> QTensor:
        start, end = self.ranges[layer_id]
        lo, hi = np.searchsorted(self.ids, (start, end))
        flipped = flip_array_with_masks(out.data, self.ids[lo:hi] - start, self.masks[lo:hi], out.qparams.bit_width)
        return QTensor.trusted(out.shape, flipped, out.qparams)


@dataclass
class InferenceResult:
    output: QTensor
    conv_outputs: dict = field(default_factory=dict)
    activations: dict = field(default_factory=dict)


def check_range_mode(mode: str) -> None:
    """Raise ConfigError unless ``mode`` is a constrained activation mode."""
    if mode not in ("clamp", "zero"):
        raise ConfigError(f"unknown constrained activation mode {mode!r}")


def check_clamp_bounds(what: str, lo, hi, mode: str, qp: QuantParams) -> None:
    """Raise ConfigError for an unknown ``mode``, for ``lo`` above ``hi``, or
    when clamping to [lo, hi] would leave ``qp``'s integer range: a clamp
    saturates to a bound, so both may not lie past one end. Zeroing keeps
    every value in range, whatever the bounds."""
    check_range_mode(mode)
    if lo > hi:
        raise ConfigError(f"{what} clamps to [{lo}, {hi}], whose min is above its max")
    if mode == "clamp" and (lo > qp.int_max or hi < qp.int_min):
        raise ConfigError(f"{what} clamps to [{lo}, {hi}], outside the {qp.bit_width}-bit range "
                          f"[{qp.int_min}, {qp.int_max}]")


def constrain(arr: np.ndarray, lo: int, hi: int, mode: str) -> np.ndarray:
    """Suppress out-of-range values: saturate to the violated bound (clamp)
    or zero them out (zero)."""
    check_range_mode(mode)
    if mode == "clamp":
        return np.minimum(np.maximum(arr, lo), hi)
    return np.where((arr < lo) | (arr > hi), 0, arr)


def run_inference(
    model: ModelDef,
    x: QTensor,
    engine: Optional[str] = None,
    hook=None,
    *,
    neuron_fn: Optional[NeuronFaults] = None,
    capture: tuple = (),
    capture_act: tuple = (),
    program: Optional[Program] = None,
) -> InferenceResult:
    """Run one sample through the model.

    ``hook`` None runs every conv vectorized. An :class:`~winofi.engine.OpFaults`
    table runs those kernels with its flips applied inside them (see
    :mod:`winofi.engine`); its ``record()`` then hands the applied flips to
    the trace. Any other ``hook`` instruments every
    conv primitive op, which is the reference. A :class:`NeuronFaults` table
    as ``neuron_fn`` flips neurons of each conv layer's requantized output.
    ``capture`` collects conv outputs post-injection and before any clamp;
    ``capture_act`` collects activation-point values after all of them.

    ``program`` is the :class:`Program` of (model, engine), compiled here
    without a range profile when not given: range profiles reach an
    inference only through it. One compiled for another model object or
    engine raises ConfigError, and an input whose qparams or shape (past the
    batch axis) differ from the model's raises ShapeError. Layer outputs
    pass from layer to layer unchecked (see :meth:`QTensor.trusted`).
    """
    if program is None:
        program = Program(model, engine)
    else:
        program.check_compiled_for(model, engine)
    if x.qparams != program.input_qparams or x.shape[1:] != program.input_shape:
        raise ShapeError(f"input {x.shape[1:]} at {x.qparams} does not match model input "
                         f"{program.input_shape} at {program.input_qparams}")
    direct = program.engine == "direct"
    res = InferenceResult(output=x)
    cur = x
    for step in program.steps:
        layer, layer_id = step.layer, step.layer_id
        if step.spec is not None:
            if direct:
                cur = eng.conv_direct(cur, step.spec, hook, layer_id=layer_id, op_base=step.op_base)
            else:
                cur = eng.conv_winograd(cur, step.spec, hook=hook, layer_id=layer_id, op_base=step.op_base)
            if neuron_fn is not None:
                cur = neuron_fn(layer_id, cur)
            if layer_id in capture:
                res.conv_outputs[layer_id] = cur
        elif isinstance(layer, ReluLayer):
            cur = QTensor.trusted(cur.shape, np.maximum(cur.data, 0), cur.qparams)
        elif isinstance(layer, FlattenLayer):
            cur = QTensor.trusted((cur.shape[0], cur.size // cur.shape[0]), cur.data, cur.qparams)
        elif isinstance(layer, LinearLayer):
            acc = cur.array @ step.weights
            if step.bias is not None:
                acc = acc + step.bias[None, :]
            qp = step.qparams
            cur = QTensor.trusted(acc.shape, eng.requant_array(acc, step.shift, qp.int_min, qp.int_max), qp)
        if step.clamp is not None:
            cur = QTensor.trusted(cur.shape, constrain(cur.data, *step.clamp), cur.qparams)
        if step.act_of in capture_act:
            res.activations[step.act_of] = cur
    for faults in (hook, neuron_fn):
        if isinstance(faults, (eng.OpFaults, NeuronFaults)):
            faults.record()
    res.output = cur
    return res


def top1(output: QTensor) -> int:
    """Deterministic top-1: argmax over the flattened output, first index wins."""
    return int(np.argmax(output.data))

