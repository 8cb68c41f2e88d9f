"""An op-level campaign point recomputed from its definitions, written to be
obvious rather than fast.

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
"""

from test_rng import reference_positions

from winofi.engine import OpType
from winofi.rng import STREAM_OP
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
