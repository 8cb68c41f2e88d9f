"""Bit-flip fault injection at operation and neuron granularity.

Faults are transient (one inference) and strike result bits: op-level flips
XOR into the low exposed window of an operation's widened result; neuron-level
flips XOR into a conv layer's stored output values after requantization.

All randomness is addressed by (seed, trial, sample, copy, bit index), so a
trial's fault set is independent of execution order, worker count, and scope:
scope filtering removes flips from protected operations without perturbing the
draws of anything else, which is what paired-scope campaigns rely on.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .engine import OpFaults, OpType
from .errors import ConfigError, open_input
from .rng import STREAM_NEURON, STREAM_OP, sample_flip_positions
from .runtime import NeuronFaults, OpSpace


class Granularity(Enum):
    OP_LEVEL = "op"
    NEURON_LEVEL = "neuron"


def _parse_ranges(text: str) -> tuple:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            a, b = part.split("-")
            out.append((int(a), int(b)))
        else:
            out.append((int(part), int(part) + 1))
    return tuple(out)


def _in_ranges(op_ids: np.ndarray, ranges) -> np.ndarray:
    """Mask of the ``op_ids`` inside the sorted, non-overlapping [start, end)
    ``ranges``: an id is inside when an odd number of bounds lie at or below it."""
    bounds = np.asarray(ranges, dtype=np.int64).reshape(-1)
    return np.searchsorted(bounds, op_ids, side="right") % 2 == 1


@dataclass(frozen=True)
class Scope:
    """Pure, deterministic predicate selecting which ops/neurons can be struck.

    ``exclude_op_ranges`` holds protected [start, end) op_id ranges (segments
    under TMR study); include sets, when given, whitelist and must not be
    empty. Neurons have no op type or op id, so a neuron-level Campaign takes
    only the layer filters.
    """

    include_layers: Optional[frozenset] = None
    exclude_layers: frozenset = frozenset()
    include_optypes: Optional[frozenset] = None
    exclude_optypes: frozenset = frozenset()
    exclude_op_ranges: tuple = ()

    def __post_init__(self):
        for key, included in (("include_layers", self.include_layers), ("include_optypes", self.include_optypes)):
            if included is not None and not included:
                raise ConfigError(f"{key} is empty: a scope whitelisting nothing runs every inference fault-free")
        merged = []
        for a, b in sorted((int(a), int(b)) for a, b in self.exclude_op_ranges):
            if b <= a:
                raise ConfigError(f"empty op range ({a}, {b})")
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        object.__setattr__(self, "exclude_op_ranges", tuple(merged))

    def keep(self, opspace: OpSpace, op_ids: np.ndarray) -> np.ndarray:
        """Mask of the ops ``op_ids`` that this scope lets faults strike."""
        keep = ~_in_ranges(op_ids, self.exclude_op_ranges)
        filters = ((self.include_layers, self.exclude_layers), (self.include_optypes, self.exclude_optypes))
        if all(included is None and not excluded for included, excluded in filters):
            return keep
        layer, _stage, typ = opspace.classify(op_ids)
        # kind="sort": the default lookup table costs more to set up than
        # these few-element sets take to search
        for values, (included, excluded) in zip((layer, typ), filters):
            if included is not None:
                keep &= np.isin(values, list(included), kind="sort")
            if excluded:
                keep &= ~np.isin(values, list(excluded), kind="sort")
        return keep

    def admitted_layers(self, opspace: OpSpace) -> list:
        """The conv layer ids whose ops or neurons this scope lets faults strike."""
        return [lid for lid in opspace.conv_layer_ids()
                if lid not in self.exclude_layers and (self.include_layers is None or lid in self.include_layers)]

    # -- derived scopes (used by vulnerability campaigns) ---------------------

    def excluding_layer(self, layer_id: int) -> "Scope":
        return replace(self, exclude_layers=self.exclude_layers | {layer_id})

    def excluding_optype(self, op_type: OpType) -> "Scope":
        return replace(self, exclude_optypes=self.exclude_optypes | {op_type})

    def excluding_op_ranges(self, ranges) -> "Scope":
        return replace(self, exclude_op_ranges=tuple(self.exclude_op_ranges) + tuple(ranges))

    # -- parsing (CLI --scope flag) -------------------------------------------

    @staticmethod
    def parse(text: str) -> "Scope":
        """Parse e.g. ``exclude_layers=0,2;exclude_optypes=MUL;exclude_ops=0-36``."""
        kw = {}
        if text.strip():
            for item in text.replace(" ", ";").split(";"):
                if not item:
                    continue
                if "=" not in item:
                    raise ConfigError(f"bad scope item {item!r}")
                key, val = item.split("=", 1)
                if key in ("include_layers", "exclude_layers"):
                    kw[key] = frozenset(int(v) for v in val.split(",") if v)
                elif key in ("include_optypes", "exclude_optypes"):
                    names = [v.strip().upper() for v in val.split(",") if v]
                    unknown = sorted(set(names) - set(OpType.__members__))
                    if unknown:
                        raise ConfigError(f"unknown op type(s) {unknown} in {key}; expected MUL or ADD")
                    kw[key] = frozenset(OpType[v] for v in names)
                elif key == "exclude_ops":
                    kw["exclude_op_ranges"] = _parse_ranges(val)
                else:
                    raise ConfigError(f"unknown scope key {key!r}")
        return Scope(**kw)


# ---------------------------------------------------------------------------
# Fault traces

KIND_OP = "op"
KIND_NEURON = "neuron"


class FaultTrace:
    """Exact record of the flips applied in a campaign; replaying a trace
    reproduces the corrupted outputs bit for bit."""

    def __init__(self, events=None):
        # (trial, sample, kind, index, bit, copy)
        self.events: list = list(events) if events else []
        self._index = None
        self._index_len = -1

    def __len__(self):
        return len(self.events)

    def __eq__(self, other):
        return isinstance(other, FaultTrace) and self.events == other.events

    def masks_for(self, trial: int, sample: int, kind: str, copy: int = 0) -> dict:
        if self._index is None or self._index_len != len(self.events):
            index: dict = {}
            for t, s, k, idx, bit, cp in self.events:
                d = index.setdefault((t, s, k, cp), {})
                d[idx] = d.get(idx, 0) | (1 << bit)
            self._index = index
            self._index_len = len(self.events)
        return dict(self._index.get((trial, sample, kind, copy), {}))

    def validate(self, opspace: OpSpace, trials: int, samples: int, campaign_kind: str, protected=()) -> None:
        """Raise ConfigError unless every event fits the campaign: records of
        the campaign's ``campaign_kind`` (op or neuron) only, trial and sample
        inside [0, trials) and [0, samples), index inside the op or neuron
        space, bit below the op's or neuron's width, copies 1-2 only on ops
        inside the ``protected`` ranges, and no record twice."""
        if not self.events:
            return
        t, s, kind, idx, bit, copy = zip(*self.events)
        t, s, idx, bit, copy = (np.array(v, dtype=np.int64) for v in (t, s, idx, bit, copy))
        kinds = np.array(kind)
        op = kinds == KIND_OP
        size = np.where(op, opspace.total_ops, opspace.total_neurons)
        inside = (0 <= idx) & (idx < size)
        width = np.full(idx.shape, opspace.bit_width)
        width[op & inside] = opspace.op_widths(idx[op & inside])
        copies = np.where(op & inside & _in_ranges(idx, protected), 3, 1)
        first: dict = {}
        repeats = np.array([first.setdefault(e, i) != i for i, e in enumerate(self.events)])
        checks = (
            (kinds == campaign_kind,
             "{kind} record {idx} is of the other granularity: the campaign injects {campaign_kind}-level faults"),
            ((0 <= t) & (t < trials), "trial {t} outside [0, {trials})"),
            ((0 <= s) & (s < samples), "sample {s} outside [0, {samples})"),
            (inside, "{kind} {idx} outside [0, {size})"),
            ((0 <= bit) & (bit < width), "bit {bit} of {kind} {idx} outside [0, {width})"),
            ((0 <= copy) & (copy < copies),
             "copy {copy} of {kind} {idx} outside [0, {copies}); copies 1-2 exist only for TMR-protected ops"),
            (~repeats, "record (trial {t}, sample {s}, {kind} {idx}, bit {bit}, copy {copy}) repeats an earlier one"),
        )
        bad = ~np.stack([ok for ok, _ in checks])  # (check, event)
        if bad.any():
            i = int(np.argmax(bad.any(axis=0)))
            msg = checks[int(np.argmax(bad[:, i]))][1]
            raise ConfigError("trace " + msg.format(
                t=t[i], s=s[i], kind=kind[i], idx=idx[i], bit=bit[i], copy=copy[i],
                trials=trials, samples=samples, size=size[i], width=width[i], copies=copies[i],
                campaign_kind=campaign_kind,
            ))

    def save_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for t, s, k, idx, bit, cp in self.events:
                rec = {"trial": t, "sample": s, ("op_id" if k == KIND_OP else "neuron"): idx, "bit": bit}
                if cp:
                    rec["copy"] = cp
                f.write(json.dumps(rec, sort_keys=True) + "\n")

    @staticmethod
    def load_jsonl(path: str) -> "FaultTrace":
        events = []
        with open_input(path, "fault trace") as f:
            for n, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                try:
                    kind = KIND_OP if "op_id" in rec else KIND_NEURON
                    idx = rec["op_id"] if kind == KIND_OP else rec["neuron"]
                    fields = (rec.get("trial", 0), rec.get("sample", 0), idx, rec["bit"], rec.get("copy", 0))
                except (KeyError, TypeError, AttributeError) as e:
                    raise ConfigError(f"{path}:{n}: a trace record needs an op_id or neuron and a bit: {line}") from e
                if not all(type(v) is int and abs(v) < 1 << 63 for v in fields):
                    raise ConfigError(f"{path}:{n}: trial, sample, index, bit and copy must be 64-bit integers: {line}")
                t, s, idx, bit, copy = fields
                events.append((t, s, kind, idx, bit, copy))
        return FaultTrace(events)


# ---------------------------------------------------------------------------
# Op-level injection


def _flip_masks(pos: np.ndarray, width: int, widths=None) -> tuple[np.ndarray, np.ndarray]:
    """Turn ascending flat flip positions over ``width``-bit words into
    (ids, masks): the struck word ids, ascending, and one uint64 XOR mask per
    id. Bits at or above ``widths(ids)``, each word's own width, are dropped."""
    ids, bits = np.divmod(pos, width)
    if widths is not None:
        fits = bits < widths(ids)
        ids, bits = ids[fits], bits[fits]
    uniq, first = np.unique(ids, return_index=True)
    return uniq, np.bitwise_or.reduceat(np.left_shift(np.uint64(1), bits.astype(np.uint64)), first)


def _record_table(events: list, trial: int, sample: int, kind: str, ids: np.ndarray, masks: np.ndarray) -> None:
    """Append one event per set bit of the uint64 ``masks`` (one row per id
    of ``ids``, one column per copy): by id, then copy, then bit."""
    bits = np.unpackbits(masks.astype("<u8").view(np.uint8).reshape(*masks.shape, 8), axis=2, bitorder="little")
    i, copy, bit = np.nonzero(bits)
    events.extend((trial, sample, kind, idx, b, cp) for idx, cp, b in zip(ids[i].tolist(), copy.tolist(), bit.tolist()))


def sample_op_flips(opspace: OpSpace, seed: int, trial: int, sample: int, ber: float, copy: int = 0) -> dict:
    """Draw this inference's op flips over the full op-bit space: a sparse
    {op_id: xor_mask} table, a pure function of (seed, trial, sample, copy)."""
    wpad = opspace.width_pad
    pos = sample_flip_positions(seed, (STREAM_OP, trial, sample, copy), opspace.total_ops * wpad, ber)
    ids, masks = _flip_masks(pos, wpad, None if opspace.uniform_width else opspace.op_widths)
    return dict(zip(ids.tolist(), masks.tolist()))


def draw_op_flips(
    opspace: OpSpace,
    seed: int,
    ber: float,
    *,
    trial: int = 0,
    sample: int = 0,
    replay: Optional[FaultTrace] = None,
    protected=(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One inference's op flips over the whole op space, before any scope:
    (ids, masks, voted). ``ids`` are the struck op ids, ascending; ``masks``
    holds one uint64 column per copy (three when ``protected`` is given), and
    ``voted`` marks the ids inside the sorted [start, end) ``protected``
    ranges, the only ones whose copies 1-2 keep their flips. Flips are
    sampled at ``ber`` for (seed, trial, sample) or taken from ``replay``."""
    copies = 3 if protected else 1
    if replay is not None:
        tables = [replay.masks_for(trial, sample, KIND_OP, copy=c) for c in range(copies)]
    else:
        tables = [sample_op_flips(opspace, seed, trial, sample, ber, copy=c) for c in range(copies)]
    ids = np.sort(np.fromiter(set().union(*tables), dtype=np.int64))
    masks = np.zeros((ids.size, copies), dtype=np.uint64)
    for c, table in enumerate(tables):
        at = np.searchsorted(ids, np.fromiter(table, dtype=np.int64, count=len(table)))
        masks[at, c] = np.fromiter(table.values(), dtype=np.uint64, count=len(table))
    voted = _in_ranges(ids, protected)
    masks[~voted, 1:] = 0
    keep = masks.any(axis=1)
    return ids[keep], masks[keep], voted[keep]


def op_level_hook(
    opspace: OpSpace,
    seed: int,
    ber: float,
    scope: Scope = Scope(),
    *,
    trial: int = 0,
    sample: int = 0,
    trace: Optional[FaultTrace] = None,
    replay: Optional[FaultTrace] = None,
    protected=(),
    draw: Optional[tuple] = None,
):
    """The in-scope op flips of one inference, as the hook ``run_inference`` takes.

    ``draw`` is this inference's :func:`draw_op_flips` result, drawn here
    from ``replay`` or at ``ber`` when not given; paired-scope campaigns
    draw once and filter that draw by each of their scopes. Ops inside the
    ``protected`` ranges run under TMR: three copies with independent flips
    (copies 0-2), majority-voted. Every other op takes the copy-0 flips.
    Scope and protection are decided here, once for the whole table.
    Returns (:class:`OpFaults`, trace); while the inference runs, the trace
    accumulates exactly the applied flips, in (op, copy, bit) order. The
    table's ``reference`` applies the same flips one op at a time and
    writes its records itself.
    """
    if trace is None:
        trace = FaultTrace()
    if draw is None:
        draw = draw_op_flips(opspace, seed, ber, trial=trial, sample=sample, replay=replay, protected=protected)
    ids, masks, voted = draw
    keep = scope.keep(opspace, ids)
    ids, masks, voted = ids[keep], masks[keep], voted[keep]
    table = None

    def reference(op_id, layer_id, op_type, stage, value):
        nonlocal table
        if table is None:
            table = {i: m if v else m[:1] for i, m, v in zip(ids.tolist(), masks.tolist(), voted.tolist())}
        m = table.get(op_id)
        if m is None:
            return value
        for copy, mask in enumerate(m):
            trace.events.extend((trial, sample, KIND_OP, op_id, b, copy) for b in range(64) if mask >> b & 1)
        return sorted(value ^ x for x in m)[len(m) // 2]  # the one flip, or the majority, else median

    if voted.any():
        # an unvoted op repeats its mask, so that the median of three is its one flip
        fast = np.where(voted[:, None], masks, masks[:, :1])
    else:
        fast = np.ascontiguousarray(masks[:, :1])
    record = functools.partial(_record_table, trace.events, trial, sample, KIND_OP, ids, masks)
    return OpFaults(ids, fast, opspace.width_mul, opspace.width_add, record, reference), trace


# ---------------------------------------------------------------------------
# Neuron-level injection


def draw_neuron_flips(opspace: OpSpace, seed: int, ber: float, scopes=(Scope(),), *, trial: int = 0, sample: int = 0,
                      replay: Optional[FaultTrace] = None) -> tuple[np.ndarray, np.ndarray]:
    """One inference's neuron flips before any scope: the struck global neuron
    ids, ascending, and their uint64 XOR masks. Each conv layer that one of
    ``scopes`` admits draws at ``ber`` from its own (seed, trial, sample,
    layer) stream, whatever the engine; ``replay`` supplies the flips instead."""
    if replay is not None:
        table = replay.masks_for(trial, sample, KIND_NEURON)
        ids = np.array(sorted(table), dtype=np.int64)
        return ids, np.array([table[i] for i in ids.tolist()], dtype=np.uint64)
    width = opspace.bit_width
    pos = [np.zeros(0, dtype=np.int64)]  # flip positions over the neuron bits of every conv layer, in layer order
    for lid in sorted(set().union(*(scope.admitted_layers(opspace) for scope in scopes))):
        start, end = opspace.neuron_ranges[lid]
        drawn = sample_flip_positions(seed, (STREAM_NEURON, trial, sample, lid), (end - start) * width, ber)
        pos.append(drawn + start * width)
    return _flip_masks(np.concatenate(pos), width)


def neuron_level_inject(opspace: OpSpace, seed: int, ber: float, scope: Scope = Scope(), *, trial: int = 0,
                        sample: int = 0, trace: Optional[FaultTrace] = None, replay: Optional[FaultTrace] = None,
                        draw: Optional[tuple] = None):
    """The in-scope neuron flips of one inference, as the ``neuron_fn``
    ``run_inference`` takes; the neuron twin of :func:`op_level_hook`, whose
    ``draw`` is a :func:`draw_neuron_flips` result. The trace records come in
    (neuron, bit) order, which is also layer order."""
    if trace is None:
        trace = FaultTrace()
    if draw is None:
        draw = draw_neuron_flips(opspace, seed, ber, (scope,), trial=trial, sample=sample, replay=replay)
    keep = _in_ranges(draw[0], [opspace.neuron_ranges[lid] for lid in scope.admitted_layers(opspace)])
    ids, masks = (column[keep] for column in draw)
    record = functools.partial(_record_table, trace.events, trial, sample, KIND_NEURON, ids, masks[:, None])
    return NeuronFaults(ids, masks, opspace.neuron_ranges, record), trace


# ---------------------------------------------------------------------------
# BER alignment between granularities


def bit_ratio(op_bits: int, neuron_bits: int) -> float:
    if neuron_bits <= 0:
        raise ConfigError("neuron bit total must be positive")
    return op_bits / neuron_bits


def ber_neuron_to_op_scale(model, engine=None, fault_bits=None) -> float:
    """(total op bits) / (total neuron bits): the factor aligning neuron-level
    BER with op-level BER for one inference."""
    from .runtime import enumerate_ops

    space = enumerate_ops(model, engine, fault_bits=fault_bits)
    return bit_ratio(space.total_op_bits, space.total_neuron_bits)
