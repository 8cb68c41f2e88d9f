"""Op-level campaign points against the oracle that recomputes them from
their definitions (see ``oracle.py``): the sampled flips, their windows, the
scope, the TMR vote and the hooked per-op inference.

It fails, for example, when ``engine._direct_struck`` drops one flip
(``np.add.at(acc.reshape(-1), unit[1:], delta[1:])``), when
``engine._flip`` takes copy 0 in place of the vote (``return v ^
masks[:, 0]`` for three copies too), or when ``engine._requant`` skips
the faulty accumulators of a layer on Python ints (``if False:`` in place
of ``if faulty:``), which every struck layer is at 64-bit windows."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import oracle_point
from test_reuse import _base_scopes

from winofi.analyze import Campaign
from winofi.inject import FaultTrace
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
