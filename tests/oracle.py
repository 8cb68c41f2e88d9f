"""Op- and neuron-level campaign points recomputed from their definitions,
written to be obvious rather than fast.

Op level (:func:`oracle_point`):

Per (trial, sample, copy) the flips are drawn chunk by chunk with a fresh
Philox generator per chunk (:func:`test_rng.reference_positions`) over
``total_ops * width_pad`` bits, at the labels (STREAM_OP, trial, sample,
copy). Position p is bit p % width_pad of op p // width_pad. Everything else
is read off the hooked engine's own calls, not off ``OpSpace``: the op count
is the number of calls, an op's window is that of the op type its call
reports (bits at or past it are dropped), and the scope filters by each
call's layer and op type and by its op id. An op inside a protected range
takes its copies 1-2 as well and returns the median of its three flipped
values, the majority vote. Every inference, the clean one included, runs
through the hooked per-op path and is scored by its top-1.

Neuron level (:func:`oracle_neuron_point`): each conv layer that the scope
admits draws its flips from its own labels (STREAM_NEURON, trial, sample,
layer) over its output neurons times the bit width; position p is bit p %
bits of the layer's neuron p // bits. Every inference runs through a
Python-int interpreter of the model that shares no code with
``winofi.runtime``: the brute-force convolution of ``conftest``, then the
layer's neuron flips, each XOR-ed in and read back at the bit width, then
its ReLU, if one follows, and last its range, which saturates (clamp) or
zeroes (zero) every value outside it at the layer's activation point: the
ReLU right after it, else the conv itself.
"""

import math

import numpy as np
from conftest import brute_force_conv3x3
from test_rng import reference_positions

from winofi.engine import OpType
from winofi.modelio import ConvLayer, FlattenLayer, LinearLayer, ReluLayer
from winofi.rng import STREAM_NEURON, STREAM_OP
from winofi.runtime import run_inference, top1


def _inside(op_id, ranges):
    return any(start <= op_id < end for start, end in ranges)


def _admits(scope, op_id, layer_id, op_type):
    return ((scope.include_layers is None or layer_id in scope.include_layers)
            and layer_id not in scope.exclude_layers
            and (scope.include_optypes is None or op_type in scope.include_optypes)
            and op_type not in scope.exclude_optypes
            and not _inside(op_id, scope.exclude_op_ranges))


def _drawn_bits(seed, trial, sample, copy, total_ops, width_pad, ber):
    """{op id: [bit, ...]}: the flips of one copy, mapped by ``width_pad``."""
    bits = {}
    for pos in reference_positions(seed, (STREAM_OP, trial, sample, copy), total_ops * width_pad, ber).tolist():
        op_id, bit = divmod(pos, width_pad)
        bits.setdefault(op_id, []).append(bit)
    return bits


def _hooked_top1(model, x, engine, hook):
    return top1(run_inference(model, x, engine, hook).output)


def oracle_point(model, dataset, engine, seed, ber, trials, scope, protected=(), fault_bits=None):
    """(per-trial correct counts, trace records) of the op-level point at
    ``ber``: a sample is correct when its faulty top-1 equals its clean one,
    and each applied flip is one record (trial, sample, "op", op id, bit,
    copy), ordered by trial, sample, op id, copy and bit. Both op types'
    fault windows are ``fault_bits`` wide, or by default the model's: 2b
    bits for MUL and b for ADD."""
    if fault_bits is None:
        widths = {OpType.MUL: 2 * model.bit_width, OpType.ADD: model.bit_width}
    else:
        widths = dict.fromkeys(OpType, fault_bits)
    width_pad = max(widths.values())
    calls = []

    def count(op_id, layer_id, op_type, stage, value):
        calls.append(op_id)
        return value

    clean = [_hooked_top1(model, x, engine, count) for x in dataset.samples]
    total_ops = len(calls) // len(dataset.samples)

    correct, records = [], []
    for trial in range(trials):
        correct.append(0)
        for sample, x in enumerate(dataset.samples):
            copies = [_drawn_bits(seed, trial, sample, copy, total_ops, width_pad, ber)
                      for copy in range(3 if protected else 1)]
            applied = []

            def hook(op_id, layer_id, op_type, stage, value):
                if not _admits(scope, op_id, layer_id, op_type):
                    return value
                masks = []
                for copy in range(3 if _inside(op_id, protected) else 1):
                    bits = [bit for bit in copies[copy].get(op_id, []) if bit < widths[op_type]]
                    applied.extend((trial, sample, "op", op_id, bit, copy) for bit in bits)
                    masks.append(sum(1 << bit for bit in bits))
                return sorted(value ^ mask for mask in masks)[len(masks) // 2]

            correct[-1] += int(_hooked_top1(model, x, engine, hook) == clean[sample])
            records.extend(sorted(applied, key=lambda r: (r[3], r[5], r[4])))  # op id, copy, bit
    return correct, records


def _exponent(scale):
    return int(math.log2(scale))


def _saturate(v, bits):
    return min(max(v, -(1 << (bits - 1))), (1 << (bits - 1)) - 1)


def _flipped(v, mask, bits):
    v = (v ^ mask) & ((1 << bits) - 1)
    return v - (1 << bits) if v >> (bits - 1) else v


def _interpret(model, x, flips, ranges, mode):
    """(logits, {conv layer id: neuron count}) of the QTensor ``x``:
    ``flips`` maps a conv layer id to its {neuron: mask}, ``ranges`` a conv
    layer id to its (lo, hi), applied in ``mode``."""
    bits, layers = model.bit_width, model.layers
    vals, shape, exp = x.array.ravel().tolist(), x.shape, _exponent(model.input_scale)
    sizes, constrained = {}, None  # constrained: (lo, hi) due after this layer
    for i, layer in enumerate(layers):
        if isinstance(layer, ConvLayer):
            w_exp, out_exp = _exponent(layer.weights.qparams.scale), _exponent(layer.out_scale)
            out = brute_force_conv3x3(np.array(vals).reshape(shape), layer.weights.array, layer.bias, layer.padding,
                                      out_exp - exp - w_exp, -(1 << (bits - 1)), (1 << (bits - 1)) - 1)
            vals, shape, exp = out.ravel().tolist(), out.shape, out_exp
            sizes[i] = len(vals)
            vals = [_flipped(v, flips.get(i, {}).get(j, 0), bits) for j, v in enumerate(vals)]
            relu_next = i + 1 < len(layers) and isinstance(layers[i + 1], ReluLayer)
            constrained = ranges.get(i)
            if relu_next:
                continue
        elif isinstance(layer, ReluLayer):
            vals = [max(v, 0) for v in vals]
        elif isinstance(layer, FlattenLayer):
            shape = (1, len(vals))
        elif isinstance(layer, LinearLayer):
            w, bias = layer.weights.array.tolist(), layer.bias
            out_exp = _exponent(layer.out_scale)
            shift = out_exp - exp - _exponent(layer.weights.qparams.scale)
            accs = [sum(a * b for a, b in zip(row, vals)) + (0 if bias is None else int(bias[f]))
                    for f, row in enumerate(w)]
            half = 1 << (shift - 1) if shift > 0 else 0
            vals = [_saturate(((a + half) >> shift if a >= 0 else -((-a + half) >> shift)) if shift > 0
                              else a << -shift, bits) for a in accs]
            shape, exp = (1, len(vals)), out_exp
        if constrained is not None:
            lo, hi = constrained
            vals = [v if lo <= v <= hi else (min(max(v, lo), hi) if mode == "clamp" else 0) for v in vals]
        constrained = None
    return vals, sizes


def oracle_neuron_point(model, dataset, seed, ber, trials, scope, ranges=None, mode="clamp"):
    """(per-trial correct counts, trace records, logits) of the neuron-level
    point at ``ber`` under ``scope`` and the range profile ``ranges`` ({conv
    layer id: (lo, hi)}) in ``mode``: a sample is correct when its faulty
    top-1 equals its clean one, each applied flip is one record (trial,
    sample, "neuron", neuron id, bit, 0), ordered by trial, sample, neuron id
    and bit, and the logits are each faulty inference's, trial by trial."""
    ranges, bits = dict(ranges or {}), model.bit_width
    clean = [_interpret(model, x, {}, ranges, mode) for x in dataset.samples]
    sizes = clean[0][1]
    firsts = dict(zip(sizes, [sum(list(sizes.values())[:k]) for k in range(len(sizes))]))  # each layer's first id
    admitted = [lid for lid in sizes if lid not in scope.exclude_layers
                and (scope.include_layers is None or lid in scope.include_layers)]
    correct, records, logits = [], [], []
    for trial in range(trials):
        correct.append(0)
        for sample, x in enumerate(dataset.samples):
            flips, applied = {}, []
            for lid in admitted:
                labels = (STREAM_NEURON, trial, sample, lid)
                for pos in reference_positions(seed, labels, sizes[lid] * bits, ber).tolist():
                    neuron, bit = divmod(pos, bits)
                    layer = flips.setdefault(lid, {})
                    layer[neuron] = layer.get(neuron, 0) | 1 << bit
                    applied.append((trial, sample, "neuron", firsts[lid] + neuron, bit, 0))
            out, _ = _interpret(model, x, flips, ranges, mode)
            logits.append(out)
            correct[-1] += int(out.index(max(out)) == clean[sample][0].index(max(clean[sample][0])))
            records.extend(sorted(applied))
    return correct, records, logits
