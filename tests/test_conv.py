import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from winofi.engine import (
    _INPUT_TF,
    _INVERSE_TF,
    AT_F2X2_3X3,
    BT_F2X2_3X3,
    G2_F2X2_3X3,
    G_F2X2_3X3,
    _SLAB,
    _direct_acc,
    _padded,
    ConvSpec,
    OpFaults,
    OpType,
    Stage,
    conv_direct,
    conv3x3_gemm,
    conv_winograd,
    lockstep_bound,
    requant_array,
    requant_scalar,
    tile_grid,
)
import winofi.engine as engine_module
from winofi.errors import ShapeError
from winofi.modelio import generate_dataset, generate_toy_model
from winofi.qtensor import QTensor, QuantParams
from winofi.runtime import run_inference

from conftest import CountingHook, brute_force_conv3x3, random_qtensor


def make_spec(rng, c, k, bit_width, padding=0, bias=False, out_scale=1.0, w_scale=1.0):
    qp = QuantParams(bit_width, w_scale)
    w = rng.integers(qp.int_min, qp.int_max + 1, size=(k, c, 3, 3))
    weights = QTensor((k, c, 3, 3), w, qp)
    b = rng.integers(-100, 100, size=k) if bias else None
    return ConvSpec(
        in_channels=c,
        out_channels=k,
        padding=padding,
        weights=weights,
        out_qparams=QuantParams(bit_width, out_scale),
        bias=b,
    )


def test_winograd_matrices_are_the_f2x2_3x3_constants():
    # 2x2 output tile from a 4x4 input tile with a 3x3 kernel.
    assert BT_F2X2_3X3.shape == (4, 4)
    assert G_F2X2_3X3.shape == (4, 3)
    assert AT_F2X2_3X3.shape == (2, 4)
    assert np.array_equal(G2_F2X2_3X3, (2 * G_F2X2_3X3).astype(np.int64))
    # The transforms must compute convolution exactly: A^T ((G g G^T) . (B^T d B)) A
    rng = np.random.default_rng(5)
    d = rng.integers(-50, 50, size=(4, 4)).astype(float)
    g = rng.integers(-50, 50, size=(3, 3)).astype(float)
    y = AT_F2X2_3X3 @ ((G_F2X2_3X3 @ g @ G_F2X2_3X3.T) * (BT_F2X2_3X3 @ d @ BT_F2X2_3X3.T)) @ AT_F2X2_3X3.T
    ref = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            ref[i, j] = np.sum(d[i : i + 3, j : j + 3] * g)
    assert np.allclose(y, ref)


def test_convspec_rejects_bad_geometry(rng):
    w = random_qtensor(rng, (1, 1, 3, 3), 8)
    qp = QuantParams(8, 1.0)
    with pytest.raises(ShapeError):
        ConvSpec(1, 1, 0, w, qp, kernel_size=5)
    with pytest.raises(ShapeError):
        ConvSpec(1, 1, 0, w, qp, stride=2)
    with pytest.raises(ShapeError):
        ConvSpec(1, 1, -1, w, qp)
    with pytest.raises(ShapeError):
        ConvSpec(2, 1, 0, w, qp)  # weights C mismatch


def test_shape_mismatch_raises(rng):
    spec = make_spec(rng, c=2, k=1, bit_width=8)
    x = random_qtensor(rng, (1, 3, 6, 6), 8)
    with pytest.raises(ShapeError):
        conv_direct(x, spec)
    with pytest.raises(ShapeError):
        conv_winograd(x, spec)


def test_identity_kernel_direct(rng):
    w = np.zeros((1, 1, 3, 3), dtype=np.int64)
    w[0, 0, 1, 1] = 1
    spec = ConvSpec(1, 1, 1, QTensor((1, 1, 3, 3), w, QuantParams(8, 1.0)), QuantParams(8, 1.0))
    x = random_qtensor(rng, (1, 1, 4, 4), 8)
    out = conv_direct(x, spec)
    assert np.array_equal(out.array, x.array)
    hook = CountingHook()
    out2 = conv_direct(x, spec, hook)
    assert np.array_equal(out2.array, x.array)


def test_direct_emits_36_muls_for_4x4_valid(rng):
    # 2x2 output region of a 4x4 input, C=K=1: 2*2*3*3 = 36 multiplications.
    spec = make_spec(rng, c=1, k=1, bit_width=8)
    x = random_qtensor(rng, (1, 1, 4, 4), 8)
    hook = CountingHook()
    conv_direct(x, spec, hook)
    assert hook.total(op_type=OpType.MUL) == 36
    assert hook.total(op_type=OpType.ADD) == 36
    assert hook.total(stage=Stage.DIRECT_MAC) == 72


def test_winograd_single_tile_op_counts(rng):
    # One 4x4 tile, C=K=1: 16 element-wise MULs (vs 36 direct, ratio 2.25),
    # 32 input-transform ADDs, 24 inverse-transform ADDs.
    spec = make_spec(rng, c=1, k=1, bit_width=8)
    x = random_qtensor(rng, (1, 1, 4, 4), 8)
    hook = CountingHook()
    conv_winograd(x, spec, hook=hook)
    assert hook.total(stage=Stage.WG_EWMUL, op_type=OpType.MUL) == 16
    assert hook.total(op_type=OpType.MUL) == 16
    assert 36 / hook.total(op_type=OpType.MUL) == 2.25
    assert hook.total(stage=Stage.WG_INPUT_TF) == 32
    assert hook.total(stage=Stage.WG_INVERSE_TF) == 24
    assert hook.total(stage=Stage.WG_CHANNEL_SUM) == 16
    # the four per-tile stages are every hooked op: the transformed filters
    # are precomputed fault-free and own none
    per_tile = (Stage.WG_EWMUL, Stage.WG_CHANNEL_SUM, Stage.WG_INPUT_TF, Stage.WG_INVERSE_TF)
    assert sum(hook.total(stage=s) for s in per_tile) == len(hook.op_ids) == 16 + 16 + 32 + 24


def test_direct_matches_brute_force_oracle(rng):
    spec = make_spec(rng, c=2, k=3, bit_width=8, padding=0)
    x = random_qtensor(rng, (1, 2, 6, 6), 8)
    expect = brute_force_conv3x3(x.array, spec.weights.array, None, 0, 0, -128, 127)
    out = conv_direct(x, spec)
    assert np.array_equal(out.array, expect)
    hooked = conv_direct(x, spec, CountingHook())
    assert np.array_equal(hooked.array, expect)


def test_direct_matches_oracle_with_padding_bias_shift(rng):
    spec = make_spec(rng, c=2, k=2, bit_width=8, padding=1, bias=True, out_scale=4.0, w_scale=2.0)
    x = random_qtensor(rng, (1, 2, 5, 5), 8, scale=0.5)
    shift = spec.requant_shift(x.qparams)
    assert shift == 2
    expect = brute_force_conv3x3(x.array, spec.weights.array, spec.bias, 1, shift, -128, 127)
    assert np.array_equal(conv_direct(x, spec).array, expect)
    assert np.array_equal(conv_direct(x, spec, CountingHook()).array, expect)


def test_winograd_equals_direct_exactly(rng):
    for bit_width in (8, 16):
        for c, k, h, w, pad in [(1, 1, 4, 4, 0), (2, 3, 6, 6, 1), (4, 4, 8, 8, 1), (3, 2, 5, 7, 1)]:
            spec = make_spec(rng, c=c, k=k, bit_width=bit_width, padding=pad, bias=True)
            x = random_qtensor(rng, (1, c, h, w), bit_width)
            ref = conv_direct(x, spec)
            got = conv_winograd(x, spec)
            assert np.array_equal(got.array, ref.array), (bit_width, c, k, h, w, pad)
            got_hooked = conv_winograd(x, spec, hook=CountingHook())
            assert np.array_equal(got_hooked.array, ref.array)


def test_winograd_handles_odd_output_dims(rng):
    # 5x5 output: tiles cover 6x6, padded outputs are discarded.
    spec = make_spec(rng, c=2, k=2, bit_width=8, padding=0)
    x = random_qtensor(rng, (1, 2, 7, 7), 8)
    ref = conv_direct(x, spec)
    got = conv_winograd(x, spec)
    assert ref.shape == (1, 2, 5, 5)
    assert np.array_equal(got.array, ref.array)


def test_hooked_and_vectorized_paths_agree(rng):
    spec = make_spec(rng, c=3, k=2, bit_width=16, padding=1, bias=True, out_scale=16.0)
    x = random_qtensor(rng, (1, 3, 6, 6), 16)
    assert np.array_equal(conv_direct(x, spec).array, conv_direct(x, spec, CountingHook()).array)
    assert np.array_equal(conv_winograd(x, spec).array, conv_winograd(x, spec, hook=CountingHook()).array)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_winograd_direct_equivalence_property(data):
    bit_width = data.draw(st.sampled_from([8, 16]))
    c = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3))
    h = data.draw(st.integers(4, 8))
    w = data.draw(st.integers(4, 8))
    pad = data.draw(st.integers(0, 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    spec = make_spec(rng, c=c, k=k, bit_width=bit_width, padding=pad,
                     bias=data.draw(st.booleans()), out_scale=2.0)
    x = random_qtensor(rng, (1, c, h, w), bit_width)
    assert np.array_equal(conv_winograd(x, spec).array, conv_direct(x, spec).array)


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fault_table_on_stacked_samples_matches_its_reference(engine, data):
    # Convs take (N, C, H, W) inputs sample-major: the ops of sample n
    # follow those of samples before it. An OpFaults table passed as the
    # hook (the fast path) must give what its per-op reference gives, with
    # one mask column or three (TMR), at fault widths on both sides of the
    # fast path's float64 and int64 switches.
    bits = data.draw(st.sampled_from([8, 16]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    c, k, padding = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), data.draw(st.integers(0, 1))
    spec = make_spec(rng, c, k, bits, padding, data.draw(st.booleans()),
                     out_scale=2.0 ** data.draw(st.integers(0, 2 * bits)))
    shape = (data.draw(st.integers(2, 3)), c, data.draw(st.integers(3, 6)), data.draw(st.integers(3, 6)))
    x = random_qtensor(rng, shape, bits)
    conv = conv_direct if engine == "direct" else conv_winograd
    seen = []
    conv(x, spec, hook=lambda op_id, layer_id, op_type, stage, value: seen.append(op_id) or value)
    switches = [max(w for w in range(1, 65) if lockstep_bound(spec, w, w, engine == "winograd") < s)
                for s in (2**53, 2**63)]
    width = data.draw(st.sampled_from(sorted({min(w + d, 64) for w in switches for d in (0, 1)})))
    op_base, n_ops = data.draw(st.integers(0, 50)), len(seen)
    start = data.draw(st.integers(0, n_ops - 1))  # and a run of ops, to stack flips in chains and tiles
    ids = sorted(set(data.draw(st.lists(st.integers(0, n_ops - 1), min_size=1, max_size=10)))
                 | set(range(start, min(n_ops, start + data.draw(st.integers(0, 8))))))
    copies = data.draw(st.sampled_from([1, 3]))
    masks = [[data.draw(st.integers(0, 2**width - 1)) for _ in range(copies)] for _ in ids]
    # faults outside the layer's op ids must be ignored
    outside = [op_base - 1] * (op_base > 0) + [op_base + n_ops]
    table = dict(zip((op_base + i for i in ids), masks)) | {i: [2**width - 1] * copies for i in outside}

    def reference(op_id, layer_id, op_type, stage, value):
        m = table.get(op_id)
        return value if m is None else sorted(value ^ v for v in m)[len(m) // 2]

    struck = sorted(table)
    faults = OpFaults(np.array(struck, dtype=np.int64), np.array([table[i] for i in struck], dtype=np.uint64),
                      width, width, lambda: None, reference)
    fast = conv(x, spec, hook=faults, op_base=op_base)
    assert fast == conv(x, spec, hook=reference, op_base=op_base)


def _one_unit_at_every_stage(data, spec, shape, winograd):
    """Op offsets that strike one unit at every stage at once, each flip
    reading a value that flips before it changed. Direct: the MUL and the
    ADD of one MAC and later ADDs of its chain. Winograd, in one (tile, k)
    unit: an input-transform step, the product that its changed V element
    feeds, channel-sum ADDs of that product's chain from its channel on,
    and inverse-transform steps; plus products and sums of a second unit of
    the tile."""
    n_, c_, h, w = shape
    oh, ow = spec.out_hw(h, w)
    k_ = spec.out_channels
    if not winograd:
        unit = data.draw(st.integers(0, n_ * k_ * oh * ow - 1)) * 18 * c_
        mac = data.draw(st.integers(0, 9 * c_ - 1))
        later = data.draw(st.lists(st.integers(mac + 1, 9 * c_), max_size=4))
        return [unit + 2 * mac, unit + 2 * mac + 1] + [unit + 2 * m - 1 for m in later]
    ty_, tx_ = tile_grid(oh, ow)
    n_itf, n_inv = len(_INPUT_TF.steps), len(_INVERSE_TF.steps)
    ew0 = c_ * n_itf
    cs0, inv0 = ew0 + 16 * k_ * c_, ew0 + 32 * k_ * c_
    tile = data.draw(st.integers(0, n_ * ty_ * tx_ - 1)) * (inv0 + k_ * n_inv)
    k, c = data.draw(st.integers(0, k_ - 1)), data.draw(st.integers(0, c_ - 1))
    step = data.draw(st.integers(0, n_itf - 1))
    # the V elements the step's result reaches
    e = data.draw(st.sampled_from(np.flatnonzero(_INPUT_TF.linear[np.dtype(np.int64)][3][:, step]).tolist()))
    sums = data.draw(st.lists(st.integers(c, c_ - 1), min_size=1, max_size=4))
    inv = data.draw(st.lists(st.integers(0, n_inv - 1), min_size=1, max_size=3))
    ops = [c * n_itf + step, ew0 + (k * c_ + c) * 16 + e]
    ops += [cs0 + (k * c_ + s) * 16 + e for s in sums] + [inv0 + k * n_inv + s for s in inv]
    if k_ > 1:
        k2 = (k + 1) % k_
        other = data.draw(st.lists(st.tuples(st.integers(0, c_ - 1), st.integers(0, 15)), min_size=1, max_size=3))
        ops += [base + (k2 * c_ + c2) * 16 + e2 for c2, e2 in other for base in (ew0, cs0)]
    return [tile + op for op in ops]


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_stage_of_one_unit_struck_at_once_matches_its_reference(engine, data):
    # The OpFaults fast path adds each flip's change to the dense pass's
    # accumulators, so a flip must see the change of every flip whose value
    # it reads: across the stages of one unit, and along channel-sum chains
    # as long as 16 channels make them, with one mask column or three (TMR),
    # at the model's fault widths and on both sides of the fast path's
    # float64 and int64 switches. Masks of every magnitude, and requant
    # shifts that leave most outputs inside the output range, keep a flip
    # that misses another's change from being lost to saturation.
    _strike_one_unit(data, engine, data.draw(st.sampled_from([8, 16])))


def _strike_one_unit(data, engine, bits, tier=None):
    """The body of the test above at ``bits``, with the fault width drawn
    from ``tier`` (see TIERS) when one is given; returns the layer."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    c, k = data.draw(st.integers(1, 16)), data.draw(st.integers(1, 3))
    spec = make_spec(rng, c, k, bits, data.draw(st.integers(0, 1)), data.draw(st.booleans()),
                     out_scale=2.0 ** data.draw(st.integers(bits, 2 * bits)))
    shape = (data.draw(st.integers(1, 2)), c, data.draw(st.integers(3, 6)), data.draw(st.integers(3, 6)))
    x = random_qtensor(rng, shape, bits)
    winograd = engine == "winograd"
    conv = conv_winograd if winograd else conv_direct
    switches = [max(w for w in range(1, 65) if lockstep_bound(spec, w, w, winograd) < s) for s in (2**53, 2**63)]
    widths = sorted({bits, 2 * bits} | {min(w + d, 64) for w in switches for d in (0, 1)})
    if tier is not None:
        low, high = TIERS[tier]
        widths = [w for w in widths if low <= lockstep_bound(spec, w, w, winograd) < high]
    width = data.draw(st.sampled_from(widths))
    ids = sorted(set(_one_unit_at_every_stage(data, spec, shape, winograd)))
    copies = data.draw(st.sampled_from([1, 3]))
    mask = st.integers(0, width - 1).flatmap(lambda b: st.integers(1 << b, (2 << b) - 1))  # top bit b
    table = {i: [data.draw(mask) for _ in range(copies)] for i in ids}

    def reference(op_id, layer_id, op_type, stage, value):
        m = table.get(op_id)
        return value if m is None else sorted(value ^ v for v in m)[len(m) // 2]

    faults = OpFaults(np.array(ids, dtype=np.int64), np.array([table[i] for i in ids], dtype=np.uint64),
                      width, width, lambda: None, reference)
    assert conv(x, spec, hook=faults) == conv(x, spec, hook=reference)
    return spec


# the fast path's dtype tiers, by the layer's lockstep_bound: [low, high)
TIERS = {"float64": (0, 2**53), "int64": (2**53, 2**63), "python-int": (2**63, 2**200)}


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("engine", ["direct", "winograd"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flips_at_every_stage_of_several_tiles_match_their_reference(engine, tier, data):
    # A struck layer is one pass: each stage's flips apply to the values the
    # next stage reads, and its accumulator plane, struck pixels and tiles
    # included, requantizes once. Here several pixels or tiles of 2-3
    # stacked samples take flips at every stage, with the dense kernels cut
    # into one row block per output row, and a fault window whose values
    # the fast path holds in float64 (Winograd; direct uses int64 there),
    # int64 or Python ints.
    _strike_several_tiles(data, engine, data.draw(st.sampled_from([8, 16])), tier)


def _strike_several_tiles(data, engine, bits, tier):
    """The body of the test above at ``bits``; returns the layer."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    c, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
    spec = make_spec(rng, c, k, bits, data.draw(st.integers(0, 1)), data.draw(st.booleans()),
                     out_scale=2.0 ** data.draw(st.integers(bits, 2 * bits)))
    shape = (data.draw(st.integers(2, 3)), c, data.draw(st.integers(5, 8)), data.draw(st.integers(3, 7)))
    x = random_qtensor(rng, shape, bits)
    winograd = engine == "winograd"
    conv = conv_winograd if winograd else conv_direct
    low, high = TIERS[tier]
    width = data.draw(st.sampled_from([w for w in range(1, 65) if low <= lockstep_bound(spec, w, w, winograd) < high]))
    units = data.draw(st.integers(2, 4))
    # op 0 is a Winograd unit's input-transform flip, which changes every
    # unit of its tile, or a direct MAC's MUL; some units go without it
    ids = sorted({i for _ in range(units)
                  for i in _one_unit_at_every_stage(data, spec, shape, winograd)[data.draw(st.integers(0, 1)):]})
    copies = data.draw(st.sampled_from([1, 3]))
    mask = st.integers(0, width - 1).flatmap(lambda b: st.integers(1 << b, (2 << b) - 1))  # top bit b
    table = {i: [data.draw(mask) for _ in range(copies)] for i in ids}

    def reference(op_id, layer_id, op_type, stage, value):
        m = table.get(op_id)
        return value if m is None else sorted(value ^ v for v in m)[len(m) // 2]

    faults = OpFaults(np.array(ids, dtype=np.int64), np.array([table[i] for i in ids], dtype=np.uint64),
                      width, width, lambda: None, reference)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_module, "_SLAB", 1)
        fast = conv(x, spec, hook=faults)
    assert fast == conv(x, spec, hook=reference)
    return spec


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("engine", ["direct", "winograd"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_int8_struck_layers_gather_from_float32_inputs(engine, tier, data):
    # An int8 layer of at most 16 channels takes the float32 GEMM tier, so
    # its dense pass pads its input in float32 and the struck paths gather
    # their inputs from that array. The two struck oracle tests above draw
    # int8 layers at random; here they run at int8 under every fault-value
    # tier, and each layer must take the float32 tier.
    for strike in (_strike_one_unit, _strike_several_tiles):
        assert strike(data, engine, 8, tier).gemm_weights.dtype == np.float32


@pytest.mark.parametrize("bias", [37, -37])
def test_direct_add_flips_read_running_sums_from_the_bias(rng, bias):
    # A direct pixel's running sum starts at its bias. On a zero input every
    # sum of its chain is the bias, so flipping its first ADD gives
    # bias ^ mask, which requantization at shift 0 passes unchanged.
    spec = dataclasses.replace(make_spec(rng, c=1, k=1, bit_width=8), bias=np.array([bias]))
    x = QTensor((1, 1, 3, 3), np.zeros((1, 1, 3, 3), dtype=np.int64), QuantParams(8, 1.0))
    faults = OpFaults(np.array([1]), np.array([[0b1010101]], dtype=np.uint64), 8, 8, lambda: None, None)
    assert conv_direct(x, spec, hook=faults).array.tolist() == [[[[bias ^ 0b1010101]]]]


@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("hw", [(5, 7), (6, 6)], ids=["odd", "even"])
def test_kept_accumulator_planes_are_the_exact_convolutions(rng, padding, hw):
    # The struck paths start from the dense pass's int64 accumulators, bias
    # included: the direct GEMM's plane is the convolution unshifted and
    # unclamped, on the input padded in the GEMM's dtype (float32 at int8
    # here, float64 at int16). Winograd runs the same GEMM on its
    # tile-padded input and shifts the plane left by 2; its outputs past an
    # odd plane's edge are dropped.
    h, w = hw
    for bits, dtype in ((8, np.float32), (16, np.float64)):
        spec = make_spec(rng, c=3, k=2, bit_width=bits, padding=padding, bias=True)
        assert spec.gemm_weights.dtype == dtype
        x = random_qtensor(rng, (2, 3, *hw), bits)
        expect = brute_force_conv3x3(x.array, spec.weights.array, spec.bias, padding, 0, -(1 << 62), 1 << 62)
        oh, ow = expect.shape[2:]
        ty, tx = tile_grid(oh, ow)
        assert np.array_equal(_direct_acc(_padded(x, padding, h + 2 * padding, w + 2 * padding, dtype), spec), expect)
        plane = _direct_acc(_padded(x, padding, 2 * ty + 2, 2 * tx + 2, dtype), spec)
        assert plane.shape == (2, 2, 2 * ty, 2 * tx) and plane.dtype == np.int64
        assert np.array_equal(plane[:, :, :oh, :ow], expect)


def _tier_layer(bits, c, bound, sign):
    """A 2-output-channel layer whose weights reach max_k sum|w_k| *
    2^(bits-1) = ``bound``: every weight of channel 0 has ``sign``, every
    weight of channel 1 the other, and their magnitudes spread the sum
    evenly over the 9c taps. Requant shift 26 - bits keeps every output
    inside the output range."""
    mags = np.full(9 * c, (bound >> (bits - 1)) // (9 * c))
    mags[: (bound >> (bits - 1)) % (9 * c)] += 1
    assert mags.max() < 1 << (bits - 1) and mags.sum() << (bits - 1) == bound
    w = np.stack([sign * mags, -sign * mags]).reshape(2, c, 3, 3)
    qp = QuantParams(bits, 1.0)
    return ConvSpec(c, 2, 0, QTensor(w.shape, w, qp), QuantParams(bits, 2.0 ** (26 - bits)), bias=[5, -7])


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("below", [True, False], ids=["below-2^24", "at-2^24"])
@pytest.mark.parametrize("bits, c", [(8, 128), (16, 2)])
def test_gemm_tier_boundary_is_exact(engine, sign, below, bits, c):
    # The dense GEMM runs in float32 when max_k sum|w_k| * 2^(b-1) < 2^24,
    # where every partial sum is an integer float32 holds, and in float64
    # from 2^24 on. Inputs of -2^(b-1) and 2^(b-1) - 1 in stacked samples
    # make the sums of the unpadded pixels reach that bound with either
    # sign, and a one-value slab runs the GEMM one output row at a time.
    bound = (1 << 24) - ((1 << (bits - 1)) if below else 0)
    spec = _tier_layer(bits, c, bound, sign)
    assert spec.gemm_weights.dtype == (np.float32 if below else np.float64)
    qp = spec.weights.qparams
    rng = np.random.default_rng(bits)
    xs = [np.full((c, 4, 5), qp.int_min), np.full((c, 4, 5), qp.int_max), rng.choice([qp.int_min, qp.int_max], (c, 4, 5))]
    x = QTensor((3, c, 4, 5), np.stack(xs), qp)
    acc = brute_force_conv3x3(x.array, spec.weights.array, spec.bias, 0, 0, -(1 << 62), 1 << 62)
    assert np.abs(acc[0] - spec.bias[:, None, None]).max() == bound
    expect = brute_force_conv3x3(x.array, spec.weights.array, spec.bias, 0, 26 - bits, qp.int_min, qp.int_max)
    conv = conv_direct if engine == "direct" else _conv_winograd
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_module, "_SLAB", 1)
        assert np.array_equal(_direct_acc(_padded(x, 0, 4, 5, spec.gemm_weights.dtype), spec), acc)
        assert np.array_equal(conv(x, spec).array, expect)


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dense_gemm_tiers_match_the_oracle(engine, data):
    # Weight magnitudes from 1 to 2^(b-1) put int16 layers on both sides of
    # the float32 tier's bound (int8 layers of up to 40 channels stay below
    # it), and inputs drawn from the two extremes push their sums towards
    # it. The dense pass's accumulators, on the engine's padded input, and
    # its outputs must be the oracle's, on odd and even planes, with a bias.
    bits = data.draw(st.sampled_from([8, 16]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    c, k, padding = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 2)), data.draw(st.integers(0, 1))
    qp = QuantParams(bits, 1.0)
    wmax = 1 << data.draw(st.integers(0, bits - 1))
    w = rng.integers(-wmax, min(wmax, qp.int_max) + 1, size=(k, c, 3, 3))
    shift = data.draw(st.integers(0, 2 * bits))
    spec = ConvSpec(c, k, padding, QTensor(w.shape, w, qp), QuantParams(bits, 2.0**shift),
                    bias=rng.integers(-1000, 1001, size=k))
    event(f"int{bits} in {spec.gemm_weights.dtype}")
    shape = (data.draw(st.integers(1, 2)), c, data.draw(st.integers(3, 7)), data.draw(st.integers(3, 7)))
    extreme = data.draw(st.booleans())
    xa = rng.choice([qp.int_min, qp.int_max], shape) if extreme else rng.integers(qp.int_min, qp.int_max + 1, shape)
    x = QTensor(shape, xa, qp)
    acc = brute_force_conv3x3(xa, w, spec.bias, padding, 0, -(1 << 62), 1 << 62)
    oh, ow = acc.shape[2:]
    ty, tx = tile_grid(oh, ow)
    hp, wp = (oh + 2, ow + 2) if engine == "direct" else (2 * ty + 2, 2 * tx + 2)
    assert np.array_equal(_direct_acc(_padded(x, padding, hp, wp, spec.gemm_weights.dtype), spec)[:, :, :oh, :ow], acc)
    conv = conv_direct if engine == "direct" else _conv_winograd
    expect = brute_force_conv3x3(xa, w, spec.bias, padding, shift, qp.int_min, qp.int_max)
    assert np.array_equal(conv(x, spec).array, expect)


def _requant_dtypes(mp):
    """Spy on engine.requant_array through ``mp``: the dtypes it is called on, in order."""
    seen, real = [], engine_module.requant_array
    mp.setattr(engine_module, "requant_array", lambda acc, *a: seen.append(acc.dtype) or real(acc, *a))
    return seen


def _acc_tier_layer(bits, c, shift, total, sign):
    """A 2-output-channel layer, with its input of 3 stacked samples on an
    odd 5x7 plane, whose acc_bound + 2^(shift-1) is ``total``: acc_bound =
    max_k sum|w_k| * 2^(bits-1) + max|bias|. Output channel 0 has weights
    of ``sign`` and the bias -sign * (acc_bound - its weight sum *
    2^(bits-1)), so that the first sample, all -2^(bits-1), drives its
    accumulators to -sign * acc_bound, the bound itself; the second sample
    is all 2^(bits-1) - 1 and the third mixes both. Output channel 1, of
    the other sign, has a bias that puts its first output of sample 0 at a
    rounding tie, so an accumulator off by one changes an output."""
    qp = QuantParams(bits, 1.0)
    half = 1 << (shift - 1)
    mag = min(qp.int_max, ((total - half) >> bits) // (9 * c))  # at most about half of acc_bound is weights
    w = np.stack([np.full((c, 3, 3), sign * mag), np.full((c, 3, 3), -sign * (mag // 2 + 1))])
    b0 = total - half - (9 * c * mag << (bits - 1))
    rng = np.random.default_rng(bits + shift)
    xa = np.stack([np.full((c, 5, 7), qp.int_min), np.full((c, 5, 7), qp.int_max),
                   rng.choice([qp.int_min, qp.int_max], (c, 5, 7))])
    a = brute_force_conv3x3(xa[:1], w, None, 0, 0, -(1 << 62), 1 << 62)[0, 1, 0, 0].item()
    b1 = int(np.sign(a)) * (half - abs(a) % (1 << shift))
    assert abs(b1) <= b0
    spec = ConvSpec(c, 2, 0, QTensor(w.shape, w, qp), QuantParams(bits, 2.0**shift), bias=[-sign * b0, b1])
    return QTensor(xa.shape, xa, qp), spec


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("slab", [1, _SLAB], ids=["row-blocks", "one-block"])
@pytest.mark.parametrize("total, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)], ids=["int32", "int64"])
@pytest.mark.parametrize("bits, c, shift", [(8, 3, 25), (8, 2, 20), (16, 2, 18), (16, 1, 27)])
def test_accumulator_tier_boundary_is_exact(engine, sign, slab, total, dtype, bits, c, shift):
    # A fault-free layer's accumulators and their requantization run in
    # int32 when the shift is positive and acc_bound + 2^(shift-1) < 2^31,
    # where no accumulator and no rounding add on it can leave int32; from
    # 2^31 on they run in int64. At both sides of the boundary the
    # accumulators reach -sign * acc_bound, on an odd 3x5 output plane
    # (ragged for Winograd's tile grid), in whole-sample and one-row GEMM
    # blocks, and a rounding tie checks every output against the oracle.
    x, spec = _acc_tier_layer(bits, c, shift, total, sign)
    qp = spec.weights.qparams
    acc = brute_force_conv3x3(x.array, spec.weights.array, spec.bias, 0, 0, -(1 << 62), 1 << 62)
    assert np.abs(acc).max() + (1 << (shift - 1)) == total
    assert spec.acc_dtype(shift) == dtype
    expect = brute_force_conv3x3(x.array, spec.weights.array, spec.bias, 0, shift, qp.int_min, qp.int_max)
    assert 0 < np.count_nonzero(np.abs(expect) < qp.int_max)  # not every output saturates
    conv = conv_direct if engine == "direct" else _conv_winograd
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_module, "_SLAB", slab)
        seen = _requant_dtypes(mp)
        assert np.array_equal(conv(x, spec).array, expect)
    assert seen == [dtype]


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@pytest.mark.parametrize("shift", [0, -1, -9])
def test_accumulators_at_shifts_up_to_zero_stay_int64(engine, shift):
    # Without a right shift there is no rounding to bound, and a left shift
    # widens every value: such layers stay int64 however small their sums.
    rng = np.random.default_rng(-shift)
    spec = make_spec(rng, c=2, k=2, bit_width=8, padding=1, bias=True, out_scale=2.0**shift)
    x = random_qtensor(rng, (2, 2, 5, 3), 8)
    assert spec.acc_dtype(shift) == np.int64
    expect = brute_force_conv3x3(x.array, spec.weights.array, spec.bias, 1, shift, -128, 127)
    conv = conv_direct if engine == "direct" else _conv_winograd
    with pytest.MonkeyPatch.context() as mp:
        seen = _requant_dtypes(mp)
        assert np.array_equal(conv(x, spec).array, expect)
    assert seen == [np.int64]


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_accumulator_tiers_match_the_oracle(engine, data):
    # Weights, biases and shifts that put layers on both sides of the int32
    # tier's bound, and past 2^32, where an accumulator no longer fits
    # int32; inputs from the two extremes push the sums to it. Each layer
    # takes the tier its bound gives, and its outputs are the oracle's.
    bits = data.draw(st.sampled_from([8, 16]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    c, k, padding = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 2)), data.draw(st.integers(0, 1))
    qp = QuantParams(bits, 1.0)
    wmax = 1 << data.draw(st.integers(0, bits - 1))
    w = rng.integers(-wmax, min(wmax, qp.int_max) + 1, size=(k, c, 3, 3))
    bmax = data.draw(st.sampled_from([0, 1 << 10, 1 << 28, 1 << 30, 1 << 31, 1 << 33]))
    bias = rng.integers(-bmax, bmax + 1, size=k)
    shift = data.draw(st.integers(-2, 34))
    spec = ConvSpec(c, k, padding, QTensor(w.shape, w, qp), QuantParams(bits, 2.0**shift), bias=bias)
    bound = max(int(np.abs(wk).sum()) for wk in w) << (bits - 1)
    bound += max(abs(int(b)) for b in bias)
    tier = np.int32 if shift > 0 and bound + (1 << (shift - 1)) < 2**31 else np.int64
    assert spec.acc_dtype(shift) == tier
    event(f"int{bits} accumulators in {np.dtype(tier)}")
    shape = (data.draw(st.integers(1, 2)), c, data.draw(st.integers(3, 6)), data.draw(st.integers(3, 6)))
    extreme = data.draw(st.booleans())
    xa = rng.choice([qp.int_min, qp.int_max], shape) if extreme else rng.integers(qp.int_min, qp.int_max + 1, shape)
    expect = brute_force_conv3x3(xa, w, spec.bias, padding, shift, qp.int_min, qp.int_max)
    conv = conv_direct if engine == "direct" else _conv_winograd
    with pytest.MonkeyPatch.context() as mp:
        seen = _requant_dtypes(mp)
        assert np.array_equal(conv(QTensor(shape, xa, qp), spec).array, expect)
    assert seen == [tier]


def test_determinism_and_canonical_op_order(rng):
    spec = make_spec(rng, c=2, k=2, bit_width=8, padding=1)
    x = random_qtensor(rng, (1, 2, 6, 6), 8)
    runs = []
    for _ in range(2):
        hook = CountingHook()
        out = conv_winograd(x, spec, hook=hook)
        runs.append((out, hook.op_ids))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    # dense, zero-based, strictly sequential op ids
    ids = runs[0][1]
    assert ids == list(range(len(ids)))


def test_op_base_offsets_ids(rng):
    spec = make_spec(rng, c=1, k=1, bit_width=8)
    x = random_qtensor(rng, (1, 1, 4, 4), 8)
    hook = CountingHook()
    conv_direct(x, spec, hook, op_base=100)
    assert hook.op_ids[0] == 100
    assert hook.op_ids == list(range(100, 100 + 72))


def test_hook_can_corrupt_results(rng):
    # Flipping a MUL result must change the affected output only.
    w = rng.integers(-5, 6, size=(1, 1, 3, 3))
    spec = ConvSpec(1, 1, 0, QTensor((1, 1, 3, 3), w, QuantParams(8, 1.0)),
                    QuantParams(8, 4.0))
    x = QTensor((1, 1, 4, 4), rng.integers(-5, 6, size=(1, 1, 4, 4)), QuantParams(8, 1.0))
    clean = conv_direct(x, spec)

    def hook(op_id, layer_id, op_type, stage, value):
        if op_id == 0:  # first MUL of output (0,0,0,0)
            return value ^ (1 << 7)
        return value

    faulty = conv_direct(x, spec, hook)
    diff = faulty.array != clean.array
    assert diff.sum() == 1
    assert diff[0, 0, 0, 0]


@pytest.mark.parametrize(
    "digest", ["b96ab6540c08c3c9d87def318beef017b1624518a6e5099b6a122305d762daf5"], ids=["precomputed-filter-tf"]
)
def test_winograd_op_stream_digest(digest):
    # Pins every hooked op's id, layer, type, stage and (faulty) value in
    # emission order, plus the logits, on ragged 3x3-output tiles.
    model = generate_toy_model(depth=2, channels=3, hw=5, bit_width=8, seed=11)
    x = generate_dataset(model, 1, seed=2).samples[0]
    h = hashlib.sha256()

    def hook(op_id, layer_id, op_type, stage, value):
        if op_id % 3 == 0:
            value ^= 1 << (op_id % 5)
        h.update(f"{op_id},{layer_id},{op_type},{stage},{value};".encode())
        return value

    res = run_inference(model, x, "winograd", hook)
    h.update(res.output.data.tobytes())
    assert h.hexdigest() == digest


def _conv_winograd(x, spec, hook=None):
    return conv_winograd(x, spec, hook=hook)


def _pointwise_spec(shift):
    # One output pixel whose accumulator is 3 * 1000 = 3000: the centre
    # weight is 3, the rest 0, over an int16 3x3 input of 1000s.
    w = np.zeros((1, 1, 3, 3), dtype=np.int64)
    w[0, 0, 1, 1] = 3
    spec = ConvSpec(1, 1, 0, QTensor((1, 1, 3, 3), w, QuantParams(16, 1.0)), QuantParams(16, 2.0**shift))
    return spec, QTensor((1, 1, 3, 3), np.full(9, 1000), QuantParams(16, 1.0))


@pytest.mark.parametrize(
    "shift, expect",
    [(-60, (1 << 15) - 1), (-next(s for s in range(64) if 3000 << s >= 1 << 63), (1 << 15) - 1), (64, 0)],
)
def test_extreme_requant_shifts_do_not_wrap(shift, expect):
    # At shift -60, and at the first left shift taking 3000 past 2^63, the
    # output saturates; a right shift of 64 rounds 3000 to 0. An int64 shift
    # that wraps gives -32768 or -1 instead.
    spec, x = _pointwise_spec(shift)
    assert spec.requant_shift(x.qparams) == shift
    assert requant_scalar(3000, shift, -(1 << 15), (1 << 15) - 1) == expect
    for conv in (conv_direct, _conv_winograd):
        assert conv(x, spec).array.item() == conv(x, spec, CountingHook()).array.item() == expect


@given(st.data(), st.sampled_from([np.int64, np.int32]), st.sampled_from([8, 16]))
@settings(max_examples=300, deadline=None)
def test_requant_array_matches_requant_scalar(data, dtype, bits):
    # ConvSpec.acc_dtype gives int32 accumulators only at a positive shift;
    # every acc above the dtype's minimum, its bounds included, must match
    top = int(np.iinfo(dtype).max)
    accs = data.draw(st.lists(st.integers(-top, top) | st.sampled_from([-top, top]), min_size=1, max_size=8))
    shift = data.draw(st.integers(-70, 70) if dtype is np.int64 else st.integers(1, 70))
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    got = requant_array(np.array(accs, dtype=dtype), shift, lo, hi)
    assert got.dtype == dtype
    assert got.tolist() == [requant_scalar(a, shift, lo, hi) for a in accs]


@given(
    st.lists(st.integers(-(1 << 90), 1 << 90) | st.integers(-(1 << 65), 1 << 65), min_size=1, max_size=8),
    st.integers(48, 70) | st.integers(-70, 70),
    st.sampled_from([8, 16]),
)
@settings(max_examples=300, deadline=None)
def test_requant_array_on_python_ints_matches_requant_scalar(accs, shift, bits):
    # The struck units of a layer whose values can pass 2^63 requantize an
    # object array of Python ints. From shift 48 on, an int16 output bound
    # shifted up passes 2^63 too, and accumulators past it must still
    # saturate or round as requant_scalar does.
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    got = requant_array(np.array(accs, dtype=object), shift, lo, hi)
    assert got.tolist() == [requant_scalar(a, shift, lo, hi) for a in accs]


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_64_bit_faults_at_large_requant_shifts_match_their_reference(engine, data):
    # Under 64-bit fault windows the struck units run on Python ints, and a
    # high-bit flip moves a value by up to 2^63 (about 2^80 once a Winograd
    # input-transform flip is multiplied and summed). At requant shifts of
    # 48 to 70 such sums saturate or round to a few bits, as the per-op
    # reference computes them.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    c, k = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    spec = make_spec(rng, c, k, 16, data.draw(st.integers(0, 1)), data.draw(st.booleans()),
                     out_scale=2.0 ** data.draw(st.integers(48, 68)))
    x = random_qtensor(rng, (data.draw(st.integers(1, 2)), c, data.draw(st.integers(3, 5)), 4), 16)
    conv = conv_direct if engine == "direct" else conv_winograd
    assert spec.requant_shift(x.qparams) >= 48
    seen = []
    conv(x, spec, hook=lambda op_id, layer_id, op_type, stage, value: seen.append(op_id) or value)
    ids = sorted(set(data.draw(st.lists(st.integers(0, len(seen) - 1), min_size=1, max_size=8))))
    masks = [[data.draw(st.integers(0, 2**64 - 1) | st.integers(2**62, 2**64 - 1))] for _ in ids]
    table = {i: m[0] for i, m in zip(ids, masks)}

    def reference(op_id, layer_id, op_type, stage, value):
        return value ^ table.get(op_id, 0)

    faults = OpFaults(np.array(ids, dtype=np.int64), np.array(masks, dtype=np.uint64), 64, 64, lambda: None, reference)
    assert conv(x, spec, hook=faults) == conv(x, spec, hook=reference)


def _worst_case(sign, n, h, w, at):
    """An int16 input of shape (n, 64, h, w), a layer and the oracle's output:
    inputs within 64 of -2^15 and weights within 64 of sign * 2^15 make
    every product of the 9*C-term sums add with one sign; with 64 channels
    the kernels' partial sums are the largest these tests reach. The biases
    put the accumulator of output pixel ``at`` (sample, row, col) at a
    rounding tie of the 25-bit requant shift (k=0) and one short of it (k=1),
    so an accumulator off by one in either direction changes an output."""
    c, k, shift = 64, 2, 25
    rng = np.random.default_rng(64)
    qp = QuantParams(16, 1.0)
    wq = QTensor((k, c, 3, 3), sign * rng.integers((1 << 15) - 64, 1 << 15, size=(k, c, 3, 3)), qp)
    x = QTensor((n, c, h, w), rng.integers(-(1 << 15), 64 - (1 << 15), size=(n, c, h, w)), qp)
    s, oy, ox = at
    acc = brute_force_conv3x3(x.array[s : s + 1], wq.array, None, 1, 0, -(1 << 62), 1 << 62)[0, :, oy, ox].tolist()
    half = 1 << (shift - 1)
    bias = [int(np.sign(a)) * (r - abs(a) % (1 << shift)) for a, r in zip(acc, (half, half - 1))]
    spec = ConvSpec(c, k, 1, wq, QuantParams(16, 2.0**shift), bias=bias)
    expect = brute_force_conv3x3(x.array, wq.array, spec.bias, 1, shift, -(1 << 15), (1 << 15) - 1)
    assert 0 < np.abs(expect).max() < (1 << 15) - 1  # the outputs do not saturate
    return x, spec, expect


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@pytest.mark.parametrize("sign", [1, -1])
def test_worst_case_magnitude_is_exact(engine, sign):
    x, spec, expect = _worst_case(sign, 1, 4, 5, (0, 1, 1))
    conv = conv_direct if engine == "direct" else _conv_winograd
    assert np.array_equal(conv(x, spec).array, expect)
    assert np.array_equal(conv(x, spec, CountingHook()).array, expect)


def _row_blocks(c, oh, ow):
    """Sizes of the dense GEMM's output-row blocks of one sample: on the
    direct engine's plane, and on the Winograd engine's tile-padded one."""
    def blocks(rows_, cols):
        rows = max(1, _SLAB // (9 * c * cols))
        return [min(rows, rows_ - r) for r in range(0, rows_, rows)]

    ty, tx = tile_grid(oh, ow)
    return blocks(oh, ow), blocks(2 * ty, 2 * tx)


# Three samples of a 7x17 output of 64 channels: the direct engine's GEMM
# runs each sample in output-row blocks of 3, 3 and a ragged 1, Winograd's,
# on its 8x18 tile-padded plane, in blocks of 3, 3 and a ragged 2, and the
# odd plane leaves ragged edge tiles.
BLOCKED = (3, 64, 7, 17)


@pytest.mark.parametrize("padding", [0, 1])
def test_vectorized_kernels_match_the_oracle_across_row_blocks(rng, padding):
    # int8 at 64 channels: the float32 GEMM tier
    n, c, oh, ow = BLOCKED
    assert _row_blocks(c, oh, ow) == ([3, 3, 1], [3, 3, 2])
    spec = make_spec(rng, c=c, k=2, bit_width=8, padding=padding, bias=True, out_scale=2.0**10)
    x = random_qtensor(rng, (n, c, oh + 2 - 2 * padding, ow + 2 - 2 * padding), 8)
    expect = brute_force_conv3x3(x.array, spec.weights.array, spec.bias, padding, 10, -128, 127)
    assert 0 < np.count_nonzero(np.abs(expect) < 127)  # not every output saturates
    assert spec.gemm_weights.dtype == np.float32
    assert np.array_equal(conv_direct(x, spec).array, expect)
    assert np.array_equal(conv_winograd(x, spec).array, expect)


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@pytest.mark.parametrize("sign", [1, -1])
def test_worst_case_magnitude_is_exact_across_row_blocks(engine, sign):
    # The worst-case inputs at the blocked shape (the float64 GEMM tier);
    # the tie sits in the last sample's ragged last block.
    n, c, oh, ow = BLOCKED
    assert _row_blocks(c, oh, ow) == ([3, 3, 1], [3, 3, 2])
    x, spec, expect = _worst_case(sign, n, oh, ow, (n - 1, oh - 1, 1))
    conv = conv_direct if engine == "direct" else _conv_winograd
    assert np.array_equal(conv(x, spec).array, expect)


def _traced_peak(f):
    """``f()`` and the peak bytes traced by tracemalloc while it ran."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conv3x3_gemm_bounds_its_im2col_slab():
    # A 4-sample, 32-channel 32x32 layer: its output takes 1 MB and one slab
    # of about 2^15 values 0.25 MB, where an im2col slab of the whole batch
    # would take 10 MB.
    rng = np.random.default_rng(3)
    xp = rng.integers(-128, 128, size=(4, 32, 34, 34)).astype(np.float64)
    w = rng.integers(-128, 128, size=(32, 32, 3, 3)).astype(np.float64)
    y, peak = _traced_peak(lambda: conv3x3_gemm(xp, w))
    assert peak <= 3 << 20, peak
    shifted = (np.einsum("kc,nchw->nkhw", w[:, :, i, j], xp[:, :, i : i + 32, j : j + 32])
               for i in range(3) for j in range(3))
    assert np.array_equal(y, sum(shifted))


def test_vectorized_winograd_bounds_its_im2col_slab():
    # The same layer through conv_winograd, whose dense pass is the direct
    # GEMM on its tile-padded input, here in float32: the padded input, the
    # GEMM's output and the int64 planes take about 3.6 MB, where an im2col
    # slab of the whole batch would add 4.5 MB.
    rng = np.random.default_rng(3)
    spec = make_spec(rng, c=32, k=32, bit_width=8, padding=1, out_scale=2.0**10)
    x = random_qtensor(rng, (4, 32, 32, 32), 8)
    y, peak = _traced_peak(lambda: conv_winograd(x, spec))
    assert peak <= 8 << 20, peak
    assert y == conv_direct(x, spec)


def test_convspec_rejects_channels_past_the_float64_bound():
    # A struck Winograd layer's clean channel sums reach 81 * C * 4^16 at
    # int16, which must stay below 2^53: C = 25890 is the last count that
    # fits.
    qp = QuantParams(16, 1.0)
    for c, fits in ((25890, True), (25891, False)):
        assert (81 * c * 4**16 < 2**53) == fits
        w = QTensor((1, c, 3, 3), np.zeros(c * 9, dtype=np.int64), qp)
        if fits:
            ConvSpec(c, 1, 1, w, qp)
        else:
            with pytest.raises(ShapeError, match="2\\^53"):
                ConvSpec(c, 1, 1, w, qp)
