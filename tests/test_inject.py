import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from winofi.engine import OpType
from winofi.errors import ConfigError
from winofi.inject import (
    FaultTrace,
    Scope,
    draw_neuron_flips,
    draw_op_flips,
    neuron_level_inject,
    op_level_hook,
    sample_op_flips,
    _flip_masks,
)
from winofi.modelio import generate_dataset, generate_toy_model
from winofi.qtensor import QTensor, QuantParams
from winofi.rng import SKIP_SAMPLING_BER, sample_flip_positions
from winofi.runtime import enumerate_ops, run_inference


@pytest.fixture(scope="module")
def model():
    return generate_toy_model(depth=2, channels=2, bit_width=16, seed=21, hw=6)


@pytest.fixture(scope="module")
def sample(model):
    return generate_dataset(model, 1, seed=22).samples[0]


# ---------------------------------------------------------------------------
# Sampler statistics


def test_ber_zero_no_flips():
    assert sample_flip_positions(1, (0,), 10**6, 0.0).size == 0


def test_ber_one_every_bit():
    pos = sample_flip_positions(1, (0,), 1000, 1.0)
    assert np.array_equal(pos, np.arange(1000))


def test_flips_within_3_sigma_of_binomial():
    # 1.6e7 op bits at ber=1e-3: mean 16000, sigma ~126.4
    n_bits, ber = 16_000_000, 1e-3
    pos = sample_flip_positions(123, (0, 0), n_bits, ber)
    mean = n_bits * ber
    sigma = (n_bits * ber * (1 - ber)) ** 0.5
    assert abs(pos.size - mean) <= 3 * sigma


def test_skip_sampling_regime_statistics():
    # geometric-gap path: still Bernoulli per bit
    n_bits, ber = 40_000_000, 1e-5
    assert ber <= SKIP_SAMPLING_BER
    pos = sample_flip_positions(7, (1,), n_bits, ber)
    mean = n_bits * ber
    sigma = (mean * (1 - ber)) ** 0.5
    assert abs(pos.size - mean) <= 4 * sigma
    assert np.all(np.diff(pos) > 0)  # sorted unique positions


@pytest.mark.parametrize("ber,n_bits", [(1e-3, 100_000), (5e-5, 2_000_000)])
def test_chi_square_fit_against_binomial(ber, n_bits):
    # flip totals across 100 trials must fit Binomial(n_bits, ber) at alpha=0.01
    trials = 100
    counts = np.array(
        [sample_flip_positions(99, (5, t), n_bits, ber).size for t in range(trials)]
    )
    dist = sps.binom(n_bits, ber)
    edges = dist.ppf(np.linspace(0.0, 1.0, 11))
    edges[0], edges[-1] = -1, n_bits + 1
    edges = np.unique(edges)
    obs, _ = np.histogram(counts, bins=edges + 0.5)
    cdf = dist.cdf(edges[1:] + 0.5) - dist.cdf(edges[:-1] + 0.5)
    expect = trials * cdf / cdf.sum()
    keep = expect >= 1.0
    chi2 = float(((obs[keep] - expect[keep]) ** 2 / expect[keep]).sum())
    pval = 1.0 - sps.chi2.cdf(chi2, df=keep.sum() - 1)
    assert pval >= 0.01


def test_sampler_is_pure_function_of_key():
    a = sample_flip_positions(42, (3, 1, 0), 10**6, 1e-3)
    b = sample_flip_positions(42, (3, 1, 0), 10**6, 1e-3)
    assert np.array_equal(a, b)
    c = sample_flip_positions(42, (3, 2, 0), 10**6, 1e-3)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Op-level hook


def test_opcfg_ber_zero_identity(model, sample):
    space = enumerate_ops(model, "direct")
    hook, trace = op_level_hook(space, draw_op_flips(space, 0, 0.0))
    out = run_inference(model, sample, "direct", hook.reference).output
    clean = run_inference(model, sample, "direct").output
    assert out == clean
    assert len(trace) == 0


def test_opcfg_ber_one_complements_every_result(model, sample):
    space = enumerate_ops(model, "direct")
    seen = {}

    hook, _ = op_level_hook(space, draw_op_flips(space, 0, 1.0))

    def spy(op_id, layer_id, op_type, stage, value):
        got = hook.reference(op_id, layer_id, op_type, stage, value)
        seen[op_id] = (op_type, value, got)
        return got

    run_inference(model, sample, "direct", spy)
    assert len(seen) == space.total_ops
    full = {
        int(OpType.MUL): (1 << space.width_mul) - 1,
        int(OpType.ADD): (1 << space.width_add) - 1,
    }
    for op_type, value, got in seen.values():
        assert got == value ^ full[op_type]


def test_trace_records_match_masks(model, sample):
    space = enumerate_ops(model, "direct")
    hook, trace = op_level_hook(space, draw_op_flips(space, 5, 2e-4))
    run_inference(model, sample, "direct", hook.reference).output
    assert len(trace) > 0
    masks = trace.masks_for(0, 0, "op")
    expect = sample_op_flips(space, 5, 0, 0, 2e-4)
    assert masks == expect


def test_reproducible_corruption(model, sample):
    space = enumerate_ops(model, "winograd")
    outs, traces = [], []
    for _ in range(2):
        hook, trace = op_level_hook(space, draw_op_flips(space, 9, 1e-4))
        outs.append(run_inference(model, sample, "winograd", hook.reference).output)
        traces.append(trace)
    assert outs[0] == outs[1]
    assert traces[0] == traces[1]


def test_replay_reproduces_output(model, sample):
    space = enumerate_ops(model, "direct")
    hook, trace = op_level_hook(space, draw_op_flips(space, 31, 1e-4))
    corrupted = run_inference(model, sample, "direct", hook.reference).output
    replay, _ = op_level_hook(space, draw_op_flips(space, 31, 1e-4, replay=trace))
    again = run_inference(model, sample, "direct", replay.reference).output
    assert corrupted == again


def test_scope_soundness(model, sample):
    space = enumerate_ops(model, "direct")
    layers = space.conv_layer_ids()
    scope = Scope(exclude_layers=frozenset({layers[0]}), exclude_optypes=frozenset({OpType.ADD}))
    hook, trace = op_level_hook(space, draw_op_flips(space, 13, 2e-3), scope)
    run_inference(model, sample, "direct", hook.reference)
    assert len(trace) > 0
    lid, _stage, typ = space.classify([e[3] for e in trace.events])
    assert (lid != layers[0]).all()
    assert (typ == OpType.MUL).all()


def test_scope_change_preserves_other_flips(model, sample):
    # paired-scope contract, checked by trace diffing
    space = enumerate_ops(model, "direct")
    layers = space.conv_layer_ids()
    hook, full = op_level_hook(space, draw_op_flips(space, 17, 1e-3))
    run_inference(model, sample, "direct", hook.reference)
    scoped_scope = Scope(exclude_layers=frozenset({layers[1]}))
    hook, scoped = op_level_hook(space, draw_op_flips(space, 17, 1e-3), scoped_scope)
    run_inference(model, sample, "direct", hook.reference)
    full_keys = set(full.events)
    scoped_keys = set(scoped.events)
    assert scoped_keys <= full_keys
    dropped = full_keys - scoped_keys
    assert (space.classify([e[3] for e in dropped])[0] == layers[1]).all()
    assert len(dropped) > 0


def test_replay_honours_scope(model, sample):
    # replayed flips pass the same scope check as sampled ones
    space = enumerate_ops(model, "direct")
    hook, full = op_level_hook(space, draw_op_flips(space, 19, 1e-3))
    run_inference(model, sample, "direct", hook.reference)
    scope = Scope(exclude_layers=frozenset({space.conv_layer_ids()[1]}))
    hook, scoped = op_level_hook(space, draw_op_flips(space, 19, 1e-3), scope)
    want = run_inference(model, sample, "direct", hook.reference).output
    hook, replayed = op_level_hook(space, draw_op_flips(space, 19, 1e-3, replay=full), scope)
    assert run_inference(model, sample, "direct", hook.reference).output == want
    assert replayed == scoped != full


def test_protected_range_scope(model, sample):
    space = enumerate_ops(model, "direct")
    scope = Scope(exclude_op_ranges=((0, space.total_ops // 2),))
    hook, trace = op_level_hook(space, draw_op_flips(space, 23, 1e-3), scope)
    run_inference(model, sample, "direct", hook.reference)
    assert len(trace) > 0
    assert all(e[3] >= space.total_ops // 2 for e in trace.events)


def test_scope_parse_roundtrip():
    s = Scope.parse("exclude_layers=0,2;exclude_optypes=MUL;exclude_ops=10-20,40-50")
    assert s.exclude_layers == frozenset({0, 2})
    assert s.exclude_optypes == frozenset({OpType.MUL})
    assert s.exclude_op_ranges == ((10, 20), (40, 50))
    assert Scope.parse("exclude_ops=5").exclude_op_ranges == ((5, 6),)
    with pytest.raises(ConfigError):
        Scope.parse("bogus=1")


@pytest.mark.parametrize("item", ["exclude_ops=-", "exclude_ops=1-2-3", "exclude_ops=a", "exclude_layers=x"])
def test_malformed_scope_integers_name_their_item(item):
    with pytest.raises(ConfigError, match=re.escape(f"scope item {item!r}")):
        Scope.parse(f"exclude_optypes=MUL;{item}")


def test_scope_ranges_merge_canonically():
    s = Scope(exclude_op_ranges=((0, 10), (5, 15), (20, 30), (15, 20)))
    assert s.exclude_op_ranges == ((0, 30),)
    assert Scope(exclude_op_ranges=((0, 10), (0, 10))).exclude_op_ranges == ((0, 10),)
    with pytest.raises(ConfigError):
        Scope(exclude_op_ranges=((5, 5),))


def test_fault_bits_override_changes_space(model):
    # int16 model: default exposure is MUL at 32 (product register), ADD at 16
    default = enumerate_ops(model, "direct")
    assert (default.width_mul, default.width_add) == (32, 16)
    assert default.total_op_bits == default.total_muls * 32 + default.total_adds * 16
    uniform = enumerate_ops(model, "direct", fault_bits=16)
    assert uniform.uniform_width
    assert uniform.total_op_bits == default.total_ops * 16
    flips = sample_op_flips(uniform, 3, 0, 0, 1e-3)
    for mask in flips.values():
        assert mask < (1 << 16)
    # non-uniform sampling never flips beyond an op's own window
    flips_d = sample_op_flips(default, 3, 0, 0, 1e-3)
    for mask, width in zip(flips_d.values(), default.op_widths(list(flips_d)).tolist()):
        assert mask < (1 << width)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 999), unique=True).map(sorted), st.sampled_from([1, 3, 16, 64]), st.booleans())
def test_flip_masks_merge_the_bits_of_each_word(positions, width, ragged):
    # a per-position loop is the reference for the vectorized merge
    widths = (lambda ids: 1 + ids % width) if ragged else None
    want = {}
    for pos in positions:
        word, bit = divmod(pos, width)
        if widths is None or bit < widths(word):
            want[word] = want.get(word, 0) | 1 << bit
    ids, masks = _flip_masks(np.array(positions, dtype=np.int64), width, widths)
    assert (ids.dtype, masks.dtype) == (np.int64, np.uint64)
    assert ids.tolist() == sorted(want) and masks.tolist() == [want[i] for i in sorted(want)]


# ---------------------------------------------------------------------------
# Neuron-level injection

LAYER0 = Scope(include_layers=frozenset({0}))


def _neuron_table(model, seed, ber, scope=Scope(), *, trial=0, sample=0, trace=None):
    """``neuron_level_inject``'s table over ``model``'s conv neurons, filtered
    by ``scope`` from the neuron flips of (seed, trial, sample)."""
    space = enumerate_ops(model)
    draw = draw_neuron_flips(space, seed, ber, (scope,), trial=trial, sample=sample)
    return neuron_level_inject(space, draw, scope, trial=trial, sample=sample, trace=trace)[0]


def _neuron_run(model, x, *args, engine="direct", capture=(), **kwargs):
    """``x``'s inference under ``neuron_level_inject``'s table, which writes its trace records."""
    return run_inference(model, x, engine, neuron_fn=_neuron_table(model, *args, **kwargs), capture=capture)


def test_neuron_ber_zero_identity(model, sample):
    out = run_inference(model, sample, "direct").output
    same = _neuron_table(model, 0, 0.0)(0, out)
    assert same == out


def test_neuron_forced_sign_flip():
    q = QTensor((4,), [3, 0, 1, -1], QuantParams(8, 1.0))
    from winofi.qtensor import flip_array_with_masks

    flipped = flip_array_with_masks(q.data, np.array([0]), np.array([0x80]), 8)
    assert flipped[0] == -125


def test_neuron_injection_statistics(model, sample):
    conv0 = run_inference(model, sample, "direct", capture=(0,)).conv_outputs[0]
    ber = 0.02
    total_bits = conv0.size * 16
    trace = FaultTrace()
    corrupted = _neuron_run(model, sample, 41, ber, LAYER0, trace=trace, capture=(0,)).conv_outputs[0]
    mean = total_bits * ber
    sigma = (mean * (1 - ber)) ** 0.5
    assert abs(len(trace) - mean) <= 4 * sigma
    assert len(trace) > 0
    assert corrupted != conv0


def test_neuron_layer_scope(model, sample):
    conv0 = run_inference(model, sample, "direct", capture=(0,)).conv_outputs[0]
    scope = Scope(exclude_layers=frozenset({0}))
    assert _neuron_table(model, 43, 0.05, scope)(0, conv0) == conv0
    assert _neuron_table(model, 43, 0.05, scope)(2, conv0) != conv0


def test_neuron_injection_engine_blind(model, sample):
    # identical fault-free outputs => identical corrupted outputs
    d = run_inference(model, sample, "direct").output
    w = run_inference(model, sample, "winograd").output
    assert d == w
    cd = _neuron_run(model, sample, 47, 0.02, trial=3, sample=1).output
    cw = _neuron_run(model, sample, 47, 0.02, engine="winograd", trial=3, sample=1).output
    assert cd == cw


# ---------------------------------------------------------------------------
# Trace serialization


def test_trace_jsonl_roundtrip(tmp_path, model, sample):
    space = enumerate_ops(model, "direct")
    hook, trace = op_level_hook(space, draw_op_flips(space, 51, 5e-4, trial=2, sample=1), trial=2, sample=1)
    run_inference(model, sample, "direct", hook.reference)
    _neuron_run(model, sample, 51, 1e-3, LAYER0, trial=2, sample=1, trace=trace)
    path = tmp_path / "trace.jsonl"
    trace.save_jsonl(str(path))
    loaded = FaultTrace.load_jsonl(str(path))
    assert loaded == trace


# ---------------------------------------------------------------------------
# Op bits per neuron bit


def test_ber_scale_on_model(model):
    direct = enumerate_ops(model, "direct")
    assert direct.total_op_bits > direct.total_neuron_bits  # many ops per neuron
    # direct has more ops than winograd per output neuron
    assert direct.total_op_bits > enumerate_ops(model, "winograd").total_op_bits
