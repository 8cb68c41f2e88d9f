"""runtime.Program: the compiled (model, engine, ranges, range_mode) that
run_inference runs, the clamps it holds, and the unchecked layer outputs it
passes along."""

import dataclasses
import functools
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winofi.analyze import Campaign
from winofi.engine import OpFaults
from winofi.errors import ConfigError
from winofi.inject import draw_op_flips, op_level_hook
from winofi.mitigate import RangeProfile, profile_ranges
from winofi.modelio import (FlattenLayer, LinearLayer, ModelDef, ReluLayer, builtin_model, generate_dataset,
                            generate_toy_model)
from winofi.qtensor import QTensor, QuantParams
from winofi.runtime import NeuronFaults, Program, constrain, enumerate_ops, relu, run_inference, top1

from conftest import CountingHook


@functools.lru_cache(maxsize=None)
def _model(bit_width):
    """A two-conv model with ragged Winograd edge tiles, and one input."""
    model = generate_toy_model(depth=2, channels=3, bit_width=bit_width, seed=13 + bit_width, hw=7)
    return model, generate_dataset(model, 1, seed=3).samples[0]


def _bounds(qp, mode):
    """(lo, hi) strategy that may reach past the integer range; under clamp
    it still overlaps it."""
    lo = st.integers(qp.int_min - 1000, qp.int_max if mode == "clamp" else qp.int_max + 1000)
    return lo.flatmap(lambda a: st.tuples(st.just(a), st.integers(max(a, qp.int_min if mode == "clamp" else a),
                                                                  qp.int_max + 1000)))


def _op_faults(data, space):
    """A random OpFaults table: one mask column, or three as under TMR, each
    mask inside its op's fault window."""
    ids = sorted(set(data.draw(st.lists(st.integers(0, space.total_ops - 1), max_size=12))))
    copies = data.draw(st.sampled_from([1, 3]))
    widths = space.op_widths(ids).tolist()
    masks = [[data.draw(st.integers(0, 2**w - 1)) for _ in range(copies)] for w in widths]
    return OpFaults(np.array(ids, dtype=np.int64), np.array(masks, dtype=np.uint64).reshape(-1, copies),
                    space.width_mul, space.width_add, lambda: None, None)


def _neuron_faults(data, space):
    ids = sorted(set(data.draw(st.lists(st.integers(0, space.total_neurons - 1), max_size=12))))
    masks = [data.draw(st.integers(1, 2**64 - 1)) for _ in ids]
    return NeuronFaults(np.array(ids, dtype=np.int64), np.array(masks, dtype=np.uint64), space.neuron_ranges,
                        lambda: None)


def _in_range(q: QTensor) -> bool:
    qp = q.qparams
    return q.data.dtype == np.int64 and qp.int_min <= int(q.data.min()) and int(q.data.max()) <= qp.int_max


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unchecked_layer_outputs_stay_in_range(engine, data):
    # Layer outputs pass between layers without a range check, so every
    # fault table, fault window and range must still leave every conv
    # output, activation and logit inside the model's integer range, and a
    # compiled Program must give what a call compiling its own gives.
    bits = data.draw(st.sampled_from([8, 16]))
    qp = QuantParams(bits, 1.0)
    model, x = _model(bits)
    fault_bits = data.draw(st.none() | st.integers(1, 64)
                           | st.fixed_dictionaries({"MUL": st.integers(1, 64), "ADD": st.integers(1, 64)}))
    space = enumerate_ops(model, engine, fault_bits=fault_bits)
    hook = _op_faults(data, space) if data.draw(st.booleans()) else None
    neuron_fn = _neuron_faults(data, space) if data.draw(st.booleans()) else None
    range_mode = data.draw(st.sampled_from(["clamp", "zero"]))
    conv_ids = tuple(space.conv_layer_ids())
    ranges = data.draw(st.none() | st.dictionaries(st.sampled_from(conv_ids), _bounds(qp, range_mode)))

    kw = dict(neuron_fn=neuron_fn, capture=conv_ids, capture_act=conv_ids)
    program = Program(model, engine, ranges, range_mode)
    res = run_inference(model, x, engine, hook, program=program, **kw)
    assert all(map(_in_range, [*res.conv_outputs.values(), *res.activations.values(), res.output]))
    assert sorted(res.conv_outputs) == sorted(res.activations) == list(conv_ids)
    wants = [run_inference(model, x, engine, hook, program=Program(model, engine, ranges, range_mode), **kw)]
    if ranges is None:
        wants.append(run_inference(model, x, engine, hook, **kw))
    for want in wants:
        assert res.output == want.output
        assert res.conv_outputs == want.conv_outputs
        assert res.activations == want.activations


def test_program_compiled_for_other_arguments_is_rejected():
    model = builtin_model("toycnn-int16")
    x = generate_dataset(model, 1, seed=5).samples[0]
    program = Program(model, "winograd", RangeProfile({0: (0, 900)}), "zero")
    # the same arguments, the profile as an equal copy
    want = run_inference(model, x, "winograd", program=Program(model, "winograd", {0: (0, 900)}, "zero")).output
    assert run_inference(model, x, "winograd", program=program).output == want
    other = dataclasses.replace(model)  # an equal model, but another object
    for args in [(other, x, "winograd"),
                 (model, x, "direct"),
                 (model, x)]:  # the model's own engine is direct
        with pytest.raises(ConfigError, match="compiled for another"):
            run_inference(*args, program=program)


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_program_is_a_snapshot_of_the_layers(engine):
    # Every clamp and operand is compiled into the steps, so mutating the
    # model's layers afterwards changes nothing a compiled Program runs.
    model = builtin_model("toycnn-int16")
    x = generate_dataset(model, 1, seed=5).samples[0]
    profile = {0: (0, 100)}
    program = Program(model, engine, profile)
    conv_ids = tuple(model.conv_layer_ids())
    want = run_inference(model, x, engine, capture_act=conv_ids, program=program)
    profile[0] = (40000, 50000)
    conv, linear = model.layers[0], model.layers[-1]
    conv.weights, conv.out_scale = QTensor(conv.weights.shape, -conv.weights.data, conv.weights.qparams), 1.0
    linear.weights, linear.bias = QTensor(linear.weights.shape, -linear.weights.data, linear.weights.qparams), None
    got = run_inference(model, x, engine, capture_act=conv_ids, program=program)
    assert all(map(_in_range, got.activations.values()))
    assert got.activations == want.activations
    assert got.output == want.output
    assert got.output != run_inference(model, x, engine).output
    # a new Program checks each clamp it compiles, the mode too
    with pytest.raises(ConfigError, match="unknown constrained activation mode 'bogus'"):
        Program(model, engine, {0: (0, 100)}, "bogus")


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@pytest.mark.parametrize("layer", [99, 1], ids=["past-the-model", "relu-layer"])
def test_program_rejects_profile_layers_that_are_not_conv_layers(engine, layer):
    model = builtin_model("toycnn-int16")
    message = rf"range profile layer ids \[{layer}\] are not conv layers of this model \(conv layers: \[0, 2, 4\]\)"
    with pytest.raises(ConfigError, match=message):
        Program(model, engine, {layer: (0, 5)})
    with pytest.raises(ConfigError, match=message):
        Campaign(model, generate_dataset(model, 1, seed=5), engine, ranges=RangeProfile({layer: (0, 5)}))


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_program_op_layout_is_the_op_space(engine):
    model = builtin_model("toycnn-int16")
    program, space = Program(model, engine), enumerate_ops(model, engine)
    assert [step.layer_id for step in program.convs] == space.conv_layer_ids()
    assert space.layers.tolist() == [step.layer_id for step in program.convs]  # one row per conv layer
    for step, start, tiles, tile_ops in zip(program.convs, space.starts, space.tiles, space.tile_ops):
        assert step.op_base == int(start)
        assert step.n_ops == space.count(step.layer_id) == int(tiles * tile_ops)
    assert sum(step.n_ops for step in program.steps) == space.total_ops


@pytest.mark.parametrize("granularity", ["op", "neuron"])
def test_campaign_pickles_with_its_program(granularity):
    model = builtin_model("toycnn-int16")
    data = generate_dataset(model, 3, seed=7)
    prof = profile_ranges(model, data)
    camp = Campaign(model, data, "winograd", granularity=granularity, seed=5, ranges=prof)
    copy = pickle.loads(pickle.dumps(camp))
    assert copy.program.model is copy.model
    ber = 1e-4 if granularity == "op" else 3e-3
    assert copy.run_point(ber, 3) == camp.run_point(ber, 3)
    assert copy.corrupted_output(1, 2, ber, copy.base_scope).output == camp.corrupted_output(
        1, 2, ber, camp.base_scope).output


@pytest.mark.parametrize("lo, hi", [(40000, 50000), (-50000, -40000)])
def test_clamp_bounds_outside_the_model_range_are_rejected(lo, hi):
    model = builtin_model("toycnn-int16")
    data = generate_dataset(model, 2, seed=7)
    for engine in ("direct", "winograd"):
        with pytest.raises(ConfigError, match=rf"range profile layer 2 clamps to \[{lo}, {hi}\], outside the 16-bit"):
            Campaign(model, data, engine, ranges=RangeProfile({2: (lo, hi)}))
        with pytest.raises(ConfigError, match="range profile layer 2"):
            Program(model, engine, {2: (lo, hi)})
    # zeroing keeps every value in range, whatever the bounds
    Program(model, "direct", {2: (lo, hi)}, "zero")
    Campaign(model, data, ranges=RangeProfile({2: (lo, hi)}), range_mode="zero")


@pytest.mark.parametrize("lo, hi", [(-70000, 70000), (-70000, -32768), (32767, 70000)])
def test_clamp_bounds_that_overlap_the_model_range_stay_accepted(lo, hi):
    model = builtin_model("toycnn-int16")
    data = generate_dataset(model, 2, seed=7)
    for engine in ("direct", "winograd"):
        plain = run_inference(model, data.samples[0], engine, capture_act=(0,)).activations[0]
        program = Program(model, engine, {0: (lo, hi)})
        got = run_inference(model, data.samples[0], engine, capture_act=(0,), program=program).activations[0]
        assert np.array_equal(got.data, np.clip(plain.data, lo, hi))
        Campaign(model, data, engine, ranges=RangeProfile({2: (lo, hi)}))


@pytest.mark.parametrize("mode", ["clamp", "zero"])
def test_clamp_bounds_whose_min_is_above_their_max_are_rejected(mode):
    # the Program checks every clamp it compiles, not only a RangeProfile's
    model = builtin_model("toycnn-int16")
    data = generate_dataset(model, 2, seed=7)
    message = r"range profile layer 0 clamps to \[10, 5\], whose min is above its max"
    for engine in ("direct", "winograd"):
        with pytest.raises(ConfigError, match=message):
            Program(model, engine, {0: (10, 5)}, mode)
        with pytest.raises(ConfigError, match=message):
            Campaign(model, data, engine, ranges={0: (10, 5)}, range_mode=mode)


def test_trusted_wraps_without_a_copy():
    data = np.array([[3, -4], [5, 127]], dtype=np.int64)
    q = QTensor.trusted((2, 2), data, QuantParams(8, 1.0))
    assert np.shares_memory(q.data, data)
    assert not q.data.flags.writeable
    assert q == QTensor((2, 2), data, QuantParams(8, 1.0))


def _head_model(bits, total, shift):
    """A flatten and a 2-output linear head over D = 256 inputs at ``bits``
    whose D * 4^(bits-1) + max|bias| is ``total``, and 3 stacked samples.
    Output 0 has weights -2^(bits-1) and the bias total - D * 4^(bits-1),
    so the first sample, all -2^(bits-1), drives its sum to ``total``;
    output 1 has weights 2^(bits-1) - 1 and a bias that puts the first
    sample's output at a rounding tie of ``shift``."""
    qp, d = QuantParams(bits, 1.0), 256
    bias0 = total - d * 4 ** (bits - 1)
    xs = np.stack([np.full(d, qp.int_min), np.full(d, qp.int_max),
                   np.random.default_rng(bits).choice([qp.int_min, qp.int_max], d)]).reshape(3, 1, 1, d)
    a = d * qp.int_max * qp.int_min
    bias1 = -((1 << (shift - 1)) - abs(a) % (1 << shift))
    w = np.stack([np.full(d, qp.int_min), np.full(d, qp.int_max)])
    head = LinearLayer(2, QTensor(w.shape, w, qp), 2.0**shift, np.array([bias0, bias1]))
    model = ModelDef("head", bits, (1, 1, d), 1.0, [FlattenLayer(), head])
    return model, QTensor(xs.shape, xs, qp), w.tolist(), [bias0, bias1]


@pytest.mark.parametrize("total, dtype", [(2**53 - 1, np.float64), (2**53, np.int64)], ids=["float64", "int64"])
@pytest.mark.parametrize("bits, shift", [(8, 47), (16, 39)])
def test_head_tier_boundary_is_exact(total, dtype, bits, shift):
    # The head runs as a float64 (BLAS) product when D * 4^(b-1) + max|bias|
    # < 2^53, where every partial sum is an integer float64 holds (the
    # bias, added after in int64, is a margin), and in int64 from 2^53 on.
    # The first sample reaches that sum, and a rounding tie checks the
    # outputs against Python ints.
    model, x, w, bias = _head_model(bits, total, shift)
    program = Program(model, "direct")
    assert program.steps[-1].weights.dtype == dtype
    qp = model.input_qparams
    want = []
    for sample in x.array.reshape(3, -1).tolist():
        accs = [sum(a * b for a, b in zip(sample, wf)) + bf for wf, bf in zip(w, bias)]
        want.append([min(max(-((-a + (1 << (shift - 1))) >> shift) if a < 0 else (a + (1 << (shift - 1))) >> shift,
                             qp.int_min), qp.int_max) for a in accs])
        assert max(map(abs, accs)) <= total
    assert max(abs(v) for row in want for v in row) < qp.int_max  # no output saturates
    assert run_inference(model, x, program=program).output.array.tolist() == want


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@pytest.mark.parametrize("mode", ["clamp", "zero"])
@pytest.mark.parametrize("lo, hi", [(5, 40), (-40, -5), (-3, 60)], ids=["lo-above-0", "hi-below-0", "around-0"])
def test_relu_and_clamp_in_one_fresh_array(engine, mode, lo, hi):
    # A relu step that carries its conv layer's clamp computes both at once.
    # It must not write into the conv output that capture holds: the
    # captured conv outputs up to the clamped layer are those of an
    # unclamped run, byte for byte, and the activation is constrain applied
    # after the ReLU.
    model, x = _model(8)
    conv_ids = tuple(model.conv_layer_ids())
    plain = run_inference(model, x, engine, capture=conv_ids, capture_act=conv_ids)
    for layer in conv_ids:
        program = Program(model, engine, {layer: (lo, hi)}, mode)
        got = run_inference(model, x, engine, capture=conv_ids, capture_act=conv_ids, program=program)
        for lid in conv_ids[: conv_ids.index(layer) + 1]:
            assert got.conv_outputs[lid].data.tobytes() == plain.conv_outputs[lid].data.tobytes()
        conv, act = got.conv_outputs[layer].data, got.activations[layer].data
        assert np.array_equal(act, constrain(np.maximum(conv, 0), lo, hi, mode))
        assert not np.shares_memory(conv, act)


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@pytest.mark.parametrize("mode", ["clamp", "zero"])
def test_a_conv_without_a_relu_after_it_is_clamped_on_its_own(engine, mode):
    # A conv layer that no relu follows is its own activation point, so its
    # clamp runs as a step of its own after the conv. Layer 0 of conv ->
    # conv -> relu -> flatten -> linear takes the range profile: its
    # activation is constrain of its unclamped conv output, and a faulty
    # op-level inference equals its reference run under the same Program.
    base, x = _model(8)
    model = dataclasses.replace(base, layers=[base.layers[0], *base.layers[2:]])
    conv = run_inference(model, x, engine, capture=(0,)).conv_outputs[0].data
    lo, hi = (int(v) for v in np.percentile(conv, [20, 80]))
    program = Program(model, engine, {0: (lo, hi)}, mode)
    assert program.steps[0].clamp == (lo, hi, mode)
    got = run_inference(model, x, engine, capture=(0,), capture_act=(0,), program=program)
    assert got.conv_outputs[0].data.tobytes() == conv.tobytes()
    want = constrain(conv, lo, hi, mode)
    assert not np.array_equal(want, conv)  # the bounds act
    assert np.array_equal(got.activations[0].data, want)
    space = enumerate_ops(model, engine)
    faults, _ = op_level_hook(space, draw_op_flips(space, 7, 1e-3))
    assert faults.ids.size and faults.ids[0] < space.count(0)  # layer 0 is struck
    fast, ref = (run_inference(model, x, engine, hook, capture_act=(0,), program=program)
                 for hook in (faults, faults.reference))
    assert fast.activations == ref.activations
    assert fast.output == ref.output


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(1 << 40), 1 << 40), max_size=40), st.integers(-(1 << 41), 1 << 41),
       st.integers(0, 1 << 42), st.sampled_from(["clamp", "zero"]))
def test_relu_equals_constrain_after_the_relu(values, lo, width, mode):
    arr = np.array(values, dtype=np.int64)
    arr.flags.writeable = False
    hi = lo + width
    assert np.array_equal(relu(arr), np.maximum(arr, 0))
    got = relu(arr, (lo, hi, mode))
    assert got.dtype == np.int64 and np.array_equal(got, constrain(np.maximum(arr, 0), lo, hi, mode))
    assert not np.shares_memory(got, arr)


def _reference_of(faults):
    """The per-op hook applying the OpFaults table ``faults``: each struck
    op's result XOR-ed with its mask, or the median of its three flipped
    copies."""
    table = dict(zip(faults.ids.tolist(), faults.masks.tolist()))

    def hook(op_id, layer_id, op_type, stage, value):
        m = table.get(op_id)
        return value if m is None else sorted(value ^ v for v in m)[len(m) // 2]
    return hook


@pytest.mark.parametrize("bits", [8, 16])
@pytest.mark.parametrize("engine", ["direct", "winograd"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_run_inference_equals_the_hooked_reference_on_random_models(engine, bits, data):
    # Layer outputs pass between layers as narrow arrays that neuron flips,
    # ReLUs and clamps overwrite in place; the hooked reference sees every
    # op of the same loop through Python ints. On random models, with op
    # faults, neuron faults and range profiles in clamp and zero mode, both
    # must give the same logits, conv outputs and activations, and every
    # capture must be an int64 QTensor that shares no memory with another.
    depth = data.draw(st.integers(1, 3), label="depth")
    model = generate_toy_model(depth=depth, channels=data.draw(st.integers(1, 3), label="channels"), bit_width=bits,
                               seed=data.draw(st.integers(0, 2**16), label="model seed"),
                               hw=data.draw(st.integers(4, 7), label="hw"),
                               in_channels=data.draw(st.integers(1, 2), label="in_channels"))
    relus = [i for i, layer in enumerate(model.layers) if layer.type == "relu"]
    dropped = data.draw(st.sets(st.sampled_from(relus)), label="relus dropped")
    model = dataclasses.replace(model, layers=[layer for i, layer in enumerate(model.layers) if i not in dropped])
    x = generate_dataset(model, 1, seed=data.draw(st.integers(0, 2**16), label="input seed")).samples[0]
    space = enumerate_ops(model, engine)
    conv_ids = tuple(space.conv_layer_ids())
    faults = _op_faults(data, space) if data.draw(st.booleans(), label="op faults") else None
    neuron_fn = _neuron_faults(data, space) if data.draw(st.booleans(), label="neuron faults") else None
    mode = data.draw(st.sampled_from(["clamp", "zero"]), label="range mode")
    qp = QuantParams(bits, 1.0)
    ranges = data.draw(st.dictionaries(st.sampled_from(conv_ids), _bounds(qp, mode)), label="ranges")
    program = Program(model, engine, ranges, mode)
    kw = dict(neuron_fn=neuron_fn, capture=conv_ids, capture_act=conv_ids, program=program)
    fast = run_inference(model, x, engine, faults, **kw)
    ref = run_inference(model, x, engine, _reference_of(faults) if faults else CountingHook(), **kw)
    assert fast.output == ref.output
    assert fast.conv_outputs == ref.conv_outputs and fast.activations == ref.activations
    captured = [fast.output, *fast.conv_outputs.values(), *fast.activations.values()]
    assert all(q.data.dtype == np.int64 and not q.data.flags.writeable for q in captured)
    assert not any(np.shares_memory(a.data, b.data) for a, b in itertools.combinations(captured, 2))


@pytest.mark.parametrize("name", ["toycnn-int8", "toycnn-int16"])  # int32 and int64 planes
@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_captures_and_clean_outputs_stay_unchanged_by_later_steps_and_inferences(name, engine):
    # Captures are int64 copies taken before any later step writes into the
    # layer's array, so neither the later ReLUs, clamps and neuron flips of
    # the same inference nor later inferences on the same Program change
    # them; nor do a Campaign's points change its clean outputs.
    model = builtin_model(name)
    data = generate_dataset(model, 3, seed=7)
    conv_ids = tuple(model.conv_layer_ids())
    camp = Campaign(model, data, engine, granularity="neuron", seed=3, ranges=profile_ranges(model, data, engine))
    first = camp.corrupted_output(0, 0, 3e-3, camp.base_scope, capture=conv_ids)
    clean = run_inference(model, data.samples[0], engine, capture=conv_ids, capture_act=conv_ids,
                          program=camp.program)
    kept = [(q, q.data.tobytes()) for res in (first, clean)
            for q in (res.output, *res.conv_outputs.values(), *res.activations.values())]
    camp.run_point(3e-3, 2)
    for s in range(3):
        camp.corrupted_output(1, s, 1e-2, camp.base_scope, capture=conv_ids)
        run_inference(model, data.samples[s], engine, capture=conv_ids, capture_act=conv_ids, program=camp.program)
    assert all(q.data.tobytes() == b for q, b in kept)
    again = run_inference(model, data.samples[0], engine, capture=conv_ids, capture_act=conv_ids, program=camp.program)
    assert (again.output, again.conv_outputs, again.activations) == (clean.output, clean.conv_outputs,
                                                                     clean.activations)
    assert [top1(camp._infer(i).output) for i in range(3)] == camp.clean_top1


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_a_relu_on_the_input_leaves_the_input_as_it_is(engine):
    # A relu step overwrites its layer's array in place, but never the
    # input's, which belongs to the caller's QTensor.
    base = builtin_model("toycnn-int16")
    model = dataclasses.replace(base, layers=[ReluLayer(), *base.layers])
    x = generate_dataset(model, 1, seed=5).samples[0]
    before = x.data.tobytes()
    got = run_inference(model, x, engine, capture=(1,))
    assert x.data.tobytes() == before and x.data.min() < 0
    positive = QTensor(x.shape, np.maximum(x.data, 0), x.qparams)
    assert got.output == run_inference(base, positive, engine).output
    assert got.conv_outputs[1] == run_inference(base, positive, engine, capture=(0,)).conv_outputs[0]


def test_head_weights_convert_once_per_weights_qtensor():
    # The head's weights are converted to their product's dtype once per
    # weights QTensor, whose data is frozen, and shared by the Programs
    # compiled on it in a row; replacing layer.weights compiles the new
    # weights, and the Programs compiled before keep theirs.
    model = builtin_model("toycnn-int16")
    x = generate_dataset(model, 1, seed=5).samples[0]
    head = model.layers[-1]
    old = Program(model)
    assert Program(model, "winograd").steps[-1].weights is old.steps[-1].weights
    assert old.steps[-1].weights.dtype == np.float64 and not old.steps[-1].weights.flags.writeable
    want = run_inference(model, x, program=old).output
    old_weights, head.weights = head.weights, QTensor(head.weights.shape, -head.weights.data, head.weights.qparams)
    new = Program(model)
    assert np.array_equal(new.steps[-1].weights, -old.steps[-1].weights)
    assert run_inference(model, x, program=old).output == want
    assert run_inference(model, x).output == run_inference(model, x, program=new).output != want
    # one QTensor keeps its conversion at a time: the old weights convert anew
    again = old_weights.cast(np.float64)
    assert again is not old.steps[-1].weights and np.array_equal(again, old.steps[-1].weights)
    assert old_weights.cast(np.float64) is again


def test_head_weight_conversions_under_thread_races():
    # QTensor.cast keeps one conversion process-wide; threads that compile
    # Programs on two models at once may convert again, but every Program
    # must still hold its own head's weights.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    models = [builtin_model("toycnn-int16"), builtin_model("toycnn-int8")]
    want = [m.layers[-1].weights.array.astype(np.float64) for m in models]

    def compile_many(i):
        return all(np.array_equal(Program(models[(i + j) % 2]).steps[-1].weights, want[(i + j) % 2])
                   for j in range(40))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            assert all(pool.map(compile_many, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("mode", ["clamp", "zero"])
@pytest.mark.parametrize("lo, hi", [(-(1 << 40), 40), (-(1 << 40), 1 << 40), (5, 1 << 40)])
def test_profile_bounds_past_int32_act_on_int32_planes(mode, lo, hi):
    # toycnn-int8's fault-free layers run on int32 planes, which a clamp
    # constrains in place; a bound past int32 acts there as it does on
    # Python ints: clamp saturates to the bound inside the 8-bit range, and
    # zero mode zeroes only the values outside [lo, hi].
    model = builtin_model("toycnn-int8")
    x = generate_dataset(model, 1, seed=5).samples[0]
    conv_ids = tuple(model.conv_layer_ids())
    plain = run_inference(model, x, capture_act=conv_ids).activations
    program = Program(model, "direct", {lid: (lo, hi) for lid in conv_ids}, mode)
    got = run_inference(model, x, capture_act=conv_ids[:1], program=program).activations[conv_ids[0]]
    want = [v if lo <= v <= hi else (min(max(v, lo), hi) if mode == "clamp" else 0)
            for v in plain[conv_ids[0]].data.tolist()]
    assert got.data.tolist() == want
