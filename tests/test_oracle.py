"""Op-level campaign points against the oracle that recomputes them from
their definitions (see ``oracle.py``): the sampled flips, their windows, the
scope, the TMR vote and the hooked per-op inference.

It fails, for example, when ``engine._direct_struck`` drops one flip
(``np.add.at(acc.reshape(-1), unit[1:], delta[1:])``), when
``engine._flip`` takes copy 0 in place of the vote (``return v ^
masks[:, 0]`` for three copies too), or when ``engine._requant`` skips
the faulty accumulators of a layer on Python ints (``if False:`` in place
of ``if faulty:``), which every struck layer is at 64-bit windows."""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import oracle_neuron_point, oracle_point
from test_reuse import _base_scopes

from winofi.analyze import Campaign
from winofi.inject import FaultTrace, Scope
from winofi.mitigate import profile_ranges
from winofi.modelio import generate_dataset, generate_toy_model
from winofi.runtime import enumerate_ops


@functools.lru_cache(maxsize=None)
def _toy(bits: int, hw: int):
    """A two-conv toy model and 2 samples: at an odd ``hw`` the Winograd
    planes end in ragged edge tiles."""
    model = generate_toy_model(depth=2, channels=2, bit_width=bits, seed=60 + hw, hw=hw)
    return model, generate_dataset(model, 2, seed=61)


@pytest.mark.parametrize("bits", [8, 16])
@pytest.mark.parametrize("engine", ["direct", "winograd"])
@settings(max_examples=24, deadline=None)
@given(data=st.data())
def test_op_level_points_and_traces_equal_the_oracle(tmp_path_factory, engine, bits, data):
    model, dataset = _toy(bits, data.draw(st.sampled_from([5, 6]), label="hw"))
    fault_bits = data.draw(st.sampled_from([None, 32, 64]), label="fault_bits")
    space = enumerate_ops(model, engine, fault_bits)
    camp = Campaign(model, dataset, engine, seed=data.draw(st.integers(0, 2**63 - 1), label="seed"),
                    scope=data.draw(_base_scopes(space), label="base scope"), fault_bits=fault_bits)
    total = space.total_ops
    ber = data.draw(st.sampled_from([1e-4, 1e-3, 1e-2]) | st.floats(1e-4, 1e-2), label="ber")
    trials = data.draw(st.integers(1, 2), label="trials")
    protected = data.draw(st.lists(st.tuples(st.integers(0, total - 1), st.integers(1, total // 2))
                                   .map(lambda r: (r[0], min(total, r[0] + r[1]))), max_size=2), label="protected")

    correct, records = oracle_point(model, dataset, engine, camp.seed, ber, trials, camp.base_scope, protected,
                                    fault_bits)
    assert camp.run_point(ber, trials, protected=protected).per_trial_correct == correct
    trace, path = FaultTrace(), str(tmp_path_factory.mktemp("trace") / "t.jsonl")
    assert camp.run_point(ber, trials, trace=trace, protected=protected).per_trial_correct == correct
    trace.save_jsonl(path)
    assert FaultTrace.load_jsonl(path).events == records


def _neuron_scopes(conv_ids):
    """A neuron-level base scope: layer filters that leave a conv layer to strike."""
    layers = st.sampled_from(conv_ids)
    return st.one_of(
        st.frozensets(layers, max_size=len(conv_ids) - 1).map(lambda ex: Scope(exclude_layers=ex)),
        st.frozensets(layers, min_size=1).map(lambda inc: Scope(include_layers=inc)),
    )


@pytest.mark.parametrize("bits", [8, 16])
@pytest.mark.parametrize("engine", ["direct", "winograd"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_neuron_level_points_under_range_profiles_equal_the_oracle(tmp_path_factory, engine, bits, data):
    # Neuron flips strike each conv layer's requantized output before its
    # activation point; a range profile in clamp or zero mode then acts on
    # the flipped values there, after the ReLU, or on the conv output itself
    # when no ReLU follows (conv 0 here, when its ReLU is dropped).
    model, dataset = _toy(bits, data.draw(st.sampled_from([5, 6]), label="hw"))
    if data.draw(st.booleans(), label="conv 0 without its relu"):
        model = dataclasses.replace(model, layers=[model.layers[0], *model.layers[2:]])
    conv_ids = model.conv_layer_ids()
    mode = data.draw(st.sampled_from([None, "clamp", "zero"]), label="range mode")
    ranges = {}
    if mode is not None:
        # bounds inside the clean range, so that clean values are constrained too
        for lid, (lo, hi) in profile_ranges(model, dataset, engine).ranges.items():
            if data.draw(st.booleans(), label=f"layer {lid} has a range"):
                a = data.draw(st.integers(lo, hi), label="lo")
                ranges[lid] = (a, data.draw(st.integers(a, hi), label="hi"))
    scope = data.draw(_neuron_scopes(conv_ids), label="scope")
    seed = data.draw(st.integers(0, 2**63 - 1), label="seed")
    ber = data.draw(st.sampled_from([1e-3, 1e-2, 3e-2]), label="ber")
    trials = data.draw(st.integers(1, 2), label="trials")
    camp = Campaign(model, dataset, engine, granularity="neuron", seed=seed, scope=scope, ranges=ranges or None,
                    range_mode=mode or "clamp")

    correct, records, logits = oracle_neuron_point(model, dataset, seed, ber, trials, scope, ranges, mode)
    trace, path = FaultTrace(), str(tmp_path_factory.mktemp("trace") / "t.jsonl")
    assert camp.run_point(ber, trials, trace=trace).per_trial_correct == correct
    trace.save_jsonl(path)
    assert FaultTrace.load_jsonl(path).events == records
    outputs = [camp.corrupted_output(t, s, ber, scope).output for t in range(trials) for s in range(len(dataset))]
    assert [out.array.ravel().tolist() for out in outputs] == logits
