import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winofi.engine import OpType, Stage, lockstep_bound
from winofi.errors import ConfigError, ShapeError
from winofi.inject import FaultTrace, Scope, draw_op_flips, op_level_hook
from winofi.modelio import builtin_model, generate_dataset, generate_toy_model
from winofi.qtensor import QTensor
from winofi.runtime import Program, enumerate_ops, run_inference, top1

from conftest import CountingHook


@pytest.fixture(scope="module")
def toy8():
    return generate_toy_model(depth=2, channels=2, bit_width=8, seed=11, hw=6)


@pytest.fixture(scope="module")
def toy16():
    return generate_toy_model(depth=2, channels=2, bit_width=16, seed=12, hw=6)


def _dry_run_counts(model, engine):
    x = generate_dataset(model, 1, seed=3).samples[0]
    hook = CountingHook()
    run_inference(model, x, engine, hook)
    return hook


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_enumerate_matches_dry_run(toy8, engine):
    space = enumerate_ops(toy8, engine)
    hook = _dry_run_counts(toy8, engine)
    assert space.total_ops == len(hook.op_ids)
    assert hook.op_ids == list(range(space.total_ops))
    for lid in space.conv_layer_ids():
        for stage in Stage:
            for typ in OpType:
                assert space.count(lid, stage, typ) == hook.total(lid, stage, typ), (lid, stage, typ)


def test_enumerate_single_layer_counts():
    model = generate_toy_model(depth=1, channels=1, bit_width=8, seed=1, hw=4, padding=0)
    direct = enumerate_ops(model, "direct")
    assert direct.count(op_type=OpType.MUL) == 36
    wino = enumerate_ops(model, "winograd")
    assert wino.count(op_type=OpType.MUL) == 16
    assert wino.count(stage=Stage.WG_INPUT_TF, op_type=OpType.ADD) == 32
    assert wino.count(stage=Stage.WG_INVERSE_TF, op_type=OpType.ADD) == 24


def test_enumerate_two_identical_layers_doubles():
    # uniform channel counts end to end, so both conv layers are identical
    uni1 = generate_toy_model(depth=1, channels=3, bit_width=8, seed=9, hw=6, in_channels=3)
    uni2 = generate_toy_model(depth=2, channels=3, bit_width=8, seed=9, hw=6, in_channels=3)
    for engine in ("direct", "winograd"):
        s1 = enumerate_ops(uni1, engine)
        s2 = enumerate_ops(uni2, engine)
        assert s2.total_ops == 2 * s1.total_ops
        assert s2.total_muls == 2 * s1.total_muls
        a, b = s2.conv_layer_ids()
        assert s2.count(layer_id=a) == s2.count(layer_id=b) == s1.total_ops


def test_op_info_and_region_lookup(toy8):
    for engine in ("direct", "winograd"):
        space = enumerate_ops(toy8, engine)
        hook = _dry_run_counts(toy8, engine)
        # random spot checks against the recorded stream
        seen = {}
        x = generate_dataset(toy8, 1, seed=3).samples[0]

        class Recorder:
            def __init__(self):
                self.info = {}

            def __call__(self, op_id, layer_id, op_type, stage, value):
                self.info[op_id] = (layer_id, Stage(stage), OpType(op_type))
                return value

        rec = Recorder()
        run_inference(toy8, x, engine, rec)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, space.total_ops, size=200)
        assert list(zip(*(v.tolist() for v in space.classify(ids)))) == [rec.info[i] for i in ids.tolist()]


def test_mul_add_in_range_arithmetic(toy8):
    for engine in ("direct", "winograd"):
        space = enumerate_ops(toy8, engine)
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = sorted(rng.integers(0, space.total_ops + 1, size=2).tolist())
            muls = int((space.classify(np.arange(a, b))[2] == OpType.MUL).sum())
            got_m, got_a = space.mul_add_in_range(a, b)
            assert got_m == muls
            assert got_a == (b - a) - muls


@functools.lru_cache(maxsize=None)
def _ragged_model():
    """A two-conv model whose 7x7 planes leave ragged Winograd edge tiles, and one input."""
    model = generate_toy_model(depth=2, channels=3, bit_width=8, seed=13, hw=7)
    return model, generate_dataset(model, 1, seed=3).samples[0]


@functools.lru_cache(maxsize=None)
def _recorded_stream(engine):
    """(OpSpace, recorded (layer, stage, type) rows indexed by op_id) of
    ``_ragged_model``."""
    model, x = _ragged_model()
    rows = []

    def hook(op_id, layer_id, op_type, stage, value):
        rows.append((op_id, layer_id, stage, op_type))
        return value

    run_inference(model, x, engine, hook)
    rec = np.array(rows, dtype=np.int64)
    assert (rec[:, 0] == np.arange(len(rows))).all()
    return enumerate_ops(model, engine), rec[:, 1:]


def _scopes(space):
    layers, types = st.sampled_from(space.conv_layer_ids()), st.sampled_from(list(OpType))
    ranges = st.lists(st.tuples(st.integers(0, space.total_ops), st.integers(1, space.total_ops // 8))
                      .map(lambda r: (r[0], r[0] + r[1])), max_size=4)
    # an empty include set is rejected (ConfigError), so a whitelist names at least one value
    return st.builds(Scope, st.none() | st.frozensets(layers, min_size=1), st.frozensets(layers),
                     st.none() | st.frozensets(types, min_size=1), st.frozensets(types), ranges.map(tuple))


def _allowed(scope, op_id, layer, typ):
    return ((scope.include_layers is None or layer in scope.include_layers)
            and layer not in scope.exclude_layers
            and (scope.include_optypes is None or typ in scope.include_optypes)
            and typ not in scope.exclude_optypes
            and not any(a <= op_id < b for a, b in scope.exclude_op_ranges))


@pytest.mark.parametrize("engine", ["direct", "winograd"], ids=["direct-fixed-filter", "winograd-fixed-filter"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_classify_keep_and_counts_match_recorded_stream(engine, data):
    space, rec = _recorded_stream(engine)
    total = space.total_ops
    scope = data.draw(_scopes(space))
    # random ids plus both sides of every recorded stage change and scope range edge
    stage_starts = np.flatnonzero((np.diff(rec[:, :2], axis=0) != 0).any(axis=1)) + 1
    edges = np.concatenate([stage_starts - 1, stage_starts, np.ravel(scope.exclude_op_ranges), [0, total - 1]])
    drawn = data.draw(st.lists(st.integers(0, total - 1), max_size=300))
    ids = np.concatenate([np.array(drawn, dtype=np.int64), edges[(edges >= 0) & (edges < total)]]).astype(np.int64)
    layer, stage, typ = space.classify(ids)
    assert (np.stack([layer, stage, typ], axis=1) == rec[ids]).all()

    want = [_allowed(scope, i, lay, t) for i, (lay, _, t) in zip(ids.tolist(), rec[ids].tolist())]
    assert scope.keep(space, ids).tolist() == want

    lid = data.draw(st.none() | st.sampled_from(space.conv_layer_ids()))
    stg = data.draw(st.none() | st.sampled_from(list(Stage)))
    typ1 = data.draw(st.none() | st.sampled_from(list(OpType)))
    sel = np.ones(total, dtype=bool)
    for col, v in enumerate((lid, stg, typ1)):
        if v is not None:
            sel &= rec[:, col] == v
    assert space.count(lid, stg, typ1) == int(sel.sum())

    a, b = data.draw(st.integers(-5, total + 5)), data.draw(st.integers(-5, total + 5))
    inside = rec[max(0, a) : max(0, min(total, b)), 2]
    assert space.mul_add_in_range(a, b) == (int((inside == OpType.MUL).sum()), int((inside == OpType.ADD).sum()))


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_classify_rejects_ids_outside_the_op_space_and_op_widths_follow_it(engine):
    # op_widths skips classify's range check (its callers pass ids inside
    # the op space), so classify alone guards the public lookup.
    space = enumerate_ops(builtin_model("toycnn-int16"), engine, fault_bits={"MUL": 20, "ADD": 9})
    for bad in ([-1], [space.total_ops], [0, space.total_ops + 7]):
        with pytest.raises(ConfigError, match="outside"):
            space.classify(bad)
    ids = np.arange(0, space.total_ops, 7)
    want = np.where(space.classify(ids)[2] == OpType.MUL, 20, 9)
    assert space.op_widths(ids).tolist() == want.tolist()
    assert space.op_widths(ids.tolist()).tolist() == want.tolist()


def _replay_table(space, rec, data):
    """Op flips clustered in a few chains or tiles, plus input-transform
    flips and a few anywhere, on random bits and TMR copies."""
    total = space.total_ops
    start = data.draw(st.integers(0, total - 1))
    ids = data.draw(st.lists(st.integers(start, min(total, start + 500) - 1), min_size=1, max_size=8))
    pool = np.flatnonzero(rec[:, 1] == Stage.WG_INPUT_TF).tolist()
    if pool:
        ids += data.draw(st.lists(st.sampled_from(pool), max_size=3))
    ids += data.draw(st.lists(st.integers(0, total - 1), max_size=4))
    events = [(0, 0, "op", i, data.draw(st.integers(0, int(space.op_widths([i])[0]) - 1)), data.draw(st.integers(0, 2)))
              for i in ids]
    if space.width_pad == 64:
        events.append((0, 0, "op", ids[0], 63, 0))
    return FaultTrace(events)


def _switch_widths(model, engine):
    """Fault widths on both sides of each conv layer's switches of the fast
    path's dtype: from float64 to int64 at 2^53 (Winograd), and from int64
    to Python ints at 2^63."""
    widths = set()
    for *_, spec in model.execution_plan():
        if spec is not None:
            for switch in (2**53, 2**63):
                last = max(w for w in range(1, 65) if lockstep_bound(spec, w, w, engine == "winograd") < switch)
                widths |= {last, min(last + 1, 64)}
    return sorted(widths)


def _fast_and_oracle(model, x, engine, space, seed, ber, scope=Scope(), replay=None, protected=()):
    """(output, conv outputs, trace events) of the fast path and of the hooked
    oracle (the table's ``reference``) on the same fault table."""
    conv_ids = tuple(space.conv_layer_ids())
    runs = []
    for fast in (True, False):
        hook, trace = op_level_hook(space, draw_op_flips(space, seed, ber, replay=replay, protected=protected), scope)
        res = run_inference(model, x, engine, hook if fast else hook.reference, capture=conv_ids)
        runs.append((res.output, [res.conv_outputs[lid] for lid in conv_ids], trace.events))
    return runs


@pytest.mark.parametrize("engine", ["direct", "winograd"], ids=["direct-fixed-filter", "winograd-fixed-filter"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_struck_units_match_hooked_oracle(engine, data):
    # The vectorized pass plus the lockstep recomputation of the struck units
    # must reproduce the fully hooked inference: the output, every conv
    # output and the trace, in order, on both sides of the float64 and
    # int64 bounds.
    model, x = _ragged_model()
    _, rec = _recorded_stream(engine)
    fault_bits = data.draw(st.sampled_from([None, 64, *_switch_widths(model, engine)]))
    space = enumerate_ops(model, engine, fault_bits=fault_bits)
    scope = data.draw(st.just(Scope()) | _scopes(space))
    bounds = sorted(set(data.draw(st.lists(st.integers(0, space.total_ops), max_size=6))))
    protected = tuple(zip(bounds[0::2], bounds[1::2]))
    if data.draw(st.booleans()):
        seed, ber, replay = 0, 0.0, _replay_table(space, rec, data)
    else:
        ber = data.draw(st.sampled_from([1e-4, 1e-3, 5e-3]))
        seed, replay = data.draw(st.integers(0, 2**16)), None
    fast, oracle = _fast_and_oracle(model, x, engine, space, seed, ber, scope, replay, protected)
    assert fast == oracle


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_one_flip_per_stage_matches_hooked_oracle(engine):
    # One flip, in the middle or at the end of the ops of each (layer,
    # stage, op type) of toycnn-int16, on a low and a high bit of its fault
    # window: the inferences whose fixed cost the struck path keeps low.
    model = builtin_model("toycnn-int16")
    x = generate_dataset(model, 1, seed=5).samples[0]
    space = enumerate_ops(model, engine)
    kinds = np.stack(space.classify(np.arange(space.total_ops)), axis=1)
    groups = np.unique(kinds, axis=0)
    assert len(groups) == 3 * (2 if engine == "direct" else 4)
    for layer, stage, typ in groups.tolist():
        ops = np.flatnonzero((kinds == (layer, stage, typ)).all(axis=1))
        width = space.width_mul if typ == OpType.MUL else space.width_add
        for op in (int(ops[ops.size // 2]), int(ops[-1])):
            for bit in (1, width - 1):
                events = [(0, 0, "op", op, bit, 0)]
                fast, oracle = _fast_and_oracle(model, x, engine, space, 0, 0.0, replay=FaultTrace(events))
                assert fast == oracle, (layer, stage, typ, op, bit)
                assert fast[2] == events


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_stacked_add_flips_in_one_chain_match_hooked_oracle(engine):
    # Several ADD flips in one direct MAC chain, or in one Winograd channel
    # sum, each apply to the sum that carries the flips before it.
    model, x = _ragged_model()
    space = enumerate_ops(model, engine)
    layer = space.conv_layer_ids()[-1]
    c_ = model.execution_plan()[layer][1][0]
    stage = Stage.DIRECT_MAC if engine == "direct" else Stage.WG_CHANNEL_SUM
    row, col = int(np.flatnonzero(space.layers == layer)[0]), int(np.flatnonzero(space.stages == stage)[0])
    start = int(space.starts[row] + space.tile_starts[row, col])  # the stage's first op, in the layer's first tile
    if engine == "direct":
        unit = start + 5 * 18 * c_
        ops = [unit + 2 * mac + 1 for mac in (0, 4, 9, 17, 9 * c_ - 1)]  # the ADDs of five MACs
    else:
        k, e = 1, 5
        ops = [start + (k * c_ + c) * 16 + e for c in range(c_)]  # one chain over every channel
    events = [(0, 0, "op", op, bit, 0) for op in ops for bit in (4, 7)]
    fast, oracle = _fast_and_oracle(model, x, engine, space, 0, 0.0, replay=FaultTrace(events))
    assert fast == oracle
    assert fast[2] == events
    assert fast[1][-1] != run_inference(model, x, engine, capture=(layer,)).conv_outputs[layer]


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_op_fault_table_hook_never_calls_its_reference(engine):
    # A table passed as the hook runs the fast path: its per-op reference is
    # not called, yet the output and the trace equal a run through the
    # reference of an identical table.
    model, x = _ragged_model()
    space = enumerate_ops(model, engine)
    protected = ((0, space.total_ops // 3),)

    def refuse(*op):
        raise AssertionError(f"the reference ran op {op}")

    table, trace = op_level_hook(space, draw_op_flips(space, 7, 2e-3, protected=protected))
    out = run_inference(model, x, engine, dataclasses.replace(table, reference=refuse)).output
    table, want = op_level_hook(space, draw_op_flips(space, 7, 2e-3, protected=protected))
    assert out == run_inference(model, x, engine, table.reference).output
    assert {e[5] for e in want.events} == {0, 1, 2}
    assert trace == want


def test_op_bit_totals(toy8, toy16):
    s8 = enumerate_ops(toy8, "direct")
    assert (s8.width_mul, s8.width_add) == (16, 8)
    assert s8.total_op_bits == s8.total_muls * 16 + s8.total_adds * 8
    s16 = enumerate_ops(toy16, "direct")
    assert (s16.width_mul, s16.width_add) == (32, 16)
    uniform = enumerate_ops(toy8, "direct", fault_bits=8)
    assert uniform.uniform_width
    assert uniform.total_op_bits == s8.total_ops * 8
    custom = enumerate_ops(toy8, "direct", fault_bits={"MUL": 16, "ADD": 8})
    assert custom.total_op_bits == s8.total_muls * 16 + s8.total_adds * 8
    assert not custom.uniform_width
    assert custom.width_pad == 16


def test_neuron_layout(toy8):
    space = enumerate_ops(toy8, "direct")
    plan = toy8.execution_plan()
    sizes = {}
    for lid, (layer, in_shape, out_shape, spec) in enumerate(plan):
        if spec is not None:
            sizes[lid] = int(np.prod(out_shape))
    assert space.neuron_sizes == sizes
    assert space.total_neurons == sum(sizes.values())
    assert space.total_neuron_bits == 8 * space.total_neurons


def test_run_inference_rejects_wrong_qparams(toy8):
    from winofi.qtensor import QTensor, QuantParams

    x = generate_dataset(toy8, 1, seed=5).samples[0]
    wrong = QTensor(x.shape, x.data, QuantParams(8, x.qparams.scale * 2))
    with pytest.raises(ShapeError):
        run_inference(toy8, wrong)


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_run_inference_rejects_a_sample_of_another_shape(engine):
    # (1, 4, 16) flattens to as many values as the model's (1, 8, 8) input,
    # so without the shape check the linear head would accept it.
    model = builtin_model("toycnn-int16")
    x = generate_dataset(model, 1, seed=5).samples[0]
    wrong = QTensor((1, 1, 4, 16), x.data, x.qparams)
    for program in (None, Program(model, engine)):
        with pytest.raises(ShapeError, match=r"input \(1, 4, 16\) at .* does not match model input \(1, 8, 8\)"):
            run_inference(model, wrong, engine, program=program)


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@pytest.mark.parametrize("ranges", [None, {}], ids=["no-ranges", "no-bounded-layer"])
def test_run_inference_rejects_an_unknown_range_mode(engine, ranges):
    # Without a bounded layer no activation is constrained, yet the mode is
    # still checked when the Program an inference runs is compiled.
    model = builtin_model("toycnn-int16")
    with pytest.raises(ConfigError, match="unknown constrained activation mode 'bogus'"):
        Program(model, engine, ranges, "bogus")


def test_run_inference_deterministic(toy16):
    x = generate_dataset(toy16, 1, seed=6).samples[0]
    a = run_inference(toy16, x, "winograd").output
    b = run_inference(toy16, x, "winograd").output
    assert a == b


def test_engines_agree_on_full_model(toy8, toy16):
    for model in (toy8, toy16):
        for s in generate_dataset(model, 3, seed=7).samples:
            d = run_inference(model, s, "direct").output
            w = run_inference(model, s, "winograd").output
            assert d == w


def test_top1_deterministic_tie_break():
    from winofi.qtensor import QTensor, QuantParams

    q = QTensor((1, 4), [3, 7, 7, 1], QuantParams(8, 1.0))
    assert top1(q) == 1


def test_capture_points(toy8):
    x = generate_dataset(toy8, 1, seed=8).samples[0]
    conv_ids = toy8.conv_layer_ids()
    res = run_inference(toy8, x, capture=tuple(conv_ids), capture_act=tuple(conv_ids))
    assert set(res.conv_outputs) == set(conv_ids)
    assert set(res.activations) == set(conv_ids)
    # activation point is post-relu: non-negative everywhere
    for q in res.activations.values():
        assert q.array.min() >= 0
