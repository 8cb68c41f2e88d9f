"""Exact reuse across paired scopes: a campaign draws each (trial, sample)'s
flips once, runs each distinct in-scope fault table once, scores an empty
table as the clean top-1, and looks up a point it has run before. Every
result must equal what fresh Campaigns, which reuse nothing, compute."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import winofi.analyze
import winofi.inject
from winofi.analyze import Campaign, layer_vulnerability, mean_ci95, optype_vulnerability
from winofi.engine import OpType
from winofi.inject import (
    FaultTrace,
    Granularity,
    Scope,
    draw_neuron_flips,
    draw_op_flips,
    _record_table,
    neuron_level_inject,
    op_level_hook,
)
from winofi.modelio import generate_dataset, generate_toy_model
from winofi.rng import STREAM_NEURON
from winofi.runtime import enumerate_ops, run_inference, top1
from winofi.tmr import make_segment_eval, measure_segment_vulnerability, plan_tmr, segment_ops

# at this BER most of these inferences draw no flip, and some draw several
SPARSE_BER = 1e-5


@pytest.fixture(scope="module")
def model():
    return generate_toy_model(depth=2, channels=2, bit_width=16, seed=31, hw=6)


@pytest.fixture(scope="module")
def dataset(model):
    return generate_dataset(model, 6, seed=32)


@pytest.fixture
def inferences(monkeypatch):
    """The fault table, op or neuron (None: fault-free), of each inference
    that ``winofi.analyze`` runs from here on."""
    ran = []
    real = winofi.analyze.run_inference

    def spy(*args, **kwargs):
        ran.append((args[3] if len(args) > 3 else kwargs.get("hook")) or kwargs.get("neuron_fn"))
        return real(*args, **kwargs)

    monkeypatch.setattr(winofi.analyze, "run_inference", spy)
    return ran


def _fresh(camp, ber, trials, scope):
    """``scope``'s point on a fresh one-process Campaign like ``camp``."""
    fresh = Campaign(camp.model, camp.dataset, camp.engine, granularity=camp.granularity, seed=camp.seed,
                     scope=camp.base_scope)
    return fresh.run_point(ber, trials, scope)


def _expected_reports(camp, kind, subjects, ber, trials):
    raw = _fresh(camp, ber, trials, camp.base_scope)
    rows = []
    for subject_id, scope in subjects:
        prot = _fresh(camp, ber, trials, scope)
        deltas = [(p - r) / camp.sample_count for p, r in zip(prot.per_trial_correct, raw.per_trial_correct)]
        dmean, dci = mean_ci95(deltas)
        rows.append({"subject_kind": kind, "subject_id": subject_id, "acc_prot": prot.mean_accuracy,
                     "acc_raw": raw.mean_accuracy, "delta": dmean, "ci95_halfwidth": dci})
    return rows


@st.composite
def _base_scopes(draw, space):
    total_ops, conv_layers = space.total_ops, space.conv_layer_ids()
    layers, types = st.sampled_from(conv_layers), st.sampled_from(list(OpType))
    ranges = st.lists(st.tuples(st.integers(0, total_ops - 1), st.integers(1, total_ops // 4))
                      .map(lambda r: (r[0], min(total_ops, r[0] + r[1]))), max_size=2)
    # a base scope must leave a conv layer, an op type and an op of them to strike
    include = draw(st.none() | st.frozensets(layers, min_size=1))
    struck = draw(st.sampled_from(sorted(include or conv_layers)))
    excluded_types = draw(st.frozensets(types, max_size=1))
    i = space.layers.tolist().index(struck)
    start = int(space.starts[i])
    kept = draw(st.integers(start, start + int(space.tiles[i] * space.tile_ops[i]) - 1)
                .filter(lambda op: space.classify([op])[2][0] not in excluded_types))
    # the ranges, cut around the op ``kept``
    cut = [r for a, b in draw(ranges) for r in ((a, min(b, kept)), (max(a, kept + 1), b)) if r[0] < r[1]]
    return Scope(include_layers=include, exclude_layers=draw(st.frozensets(layers)) - {struck},
                 exclude_optypes=excluded_types, exclude_op_ranges=tuple(cut))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("engine", ["direct", "winograd"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_paired_scope_reuse_matches_fresh_campaigns(model, dataset, engine, workers, data):
    ber = data.draw(st.sampled_from([SPARSE_BER, 1e-4, 1e-3, 1e-2]) | st.floats(1e-6, 3e-3), label="ber")
    seed = data.draw(st.integers(0, 2**63 - 1), label="seed")
    trials = data.draw(st.integers(1, 3), label="trials")
    space = enumerate_ops(model, engine)
    total = space.total_ops
    scope = data.draw(_base_scopes(space), label="base scope")
    camp = Campaign(model, dataset, engine, seed=seed, scope=scope, workers=workers)

    layer_subjects = [(lid, scope.excluding_layer(lid)) for lid in camp.opspace.conv_layer_ids()]
    assert [r.row() for r in layer_vulnerability(camp, ber, trials)] == \
        _expected_reports(camp, "layer", layer_subjects, ber, trials)
    type_subjects = [(t.name, scope.excluding_optype(t)) for t in (OpType.MUL, OpType.ADD)]
    assert [r.row() for r in optype_vulnerability(camp, ber, trials)] == \
        _expected_reports(camp, "optype", type_subjects, ber, trials)

    segments = segment_ops(total, data.draw(st.integers(total // 4, total), label="segment size"))
    reports = measure_segment_vulnerability(camp, ber, segments, trials)
    seg_subjects = [(s.index, scope.excluding_op_ranges([s.op_range])) for s in segments]
    assert [r.row() for r in reports] == _expected_reports(camp, "segment", seg_subjects, ber, trials)
    plan = plan_tmr([r.delta for r in reports], segments, data.draw(st.floats(0.0, 1.0), label="target"),
                    make_segment_eval(camp, ber, trials), literal_do_while=data.draw(st.booleans()))
    expected = [
        (n, _fresh(camp, ber, trials, scope.excluding_op_ranges([segments[i].op_range for i in plan.order[:n]]))
         .mean_accuracy)
        for n, _ in plan.eval_history
    ]
    assert plan.eval_history == expected


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_empty_in_scope_table_runs_no_inference(model, dataset, engine, inferences):
    camp = Campaign(model, dataset, engine, seed=71)
    trials, n = 4, len(dataset)
    struck = sum(op_level_hook(camp.opspace, draw_op_flips(camp.opspace, camp.seed, SPARSE_BER, trial=t, sample=i),
                               trial=t, sample=i)[0].ids.size > 0
                 for t in range(trials) for i in range(n))
    expected = [sum(top1(camp.corrupted_output(t, i, SPARSE_BER, Scope()).output) == camp.refs[i] for i in range(n))
                for t in range(trials)]
    assert 0 < struck < trials * n
    inferences.clear()
    assert camp.run_point(SPARSE_BER, trials).per_trial_correct == expected
    assert len(inferences) == struck
    assert all(faults.ids.size for faults in inferences)


def test_distinct_tables_run_once_across_scopes(model, dataset, inferences):
    # a layer's rerun holds the base run's table when that layer drew no flip
    camp = Campaign(model, dataset, "direct", seed=72)
    ber, trials = 3e-5, 3
    scopes = [Scope()] + [Scope().excluding_layer(lid) for lid in camp.opspace.conv_layer_ids()]
    distinct = nonempty = 0
    for t in range(trials):
        for i in range(len(dataset)):
            draw = draw_op_flips(camp.opspace, camp.seed, ber, trial=t, sample=i)
            tables = [op_level_hook(camp.opspace, draw, s, trial=t, sample=i)[0] for s in scopes]
            distinct += len({(f.ids.tobytes(), f.masks.tobytes()) for f in tables if f.ids.size})
            nonempty += sum(f.ids.size > 0 for f in tables)
    assert 0 < distinct < nonempty
    inferences.clear()
    layer_vulnerability(camp, ber, trials)
    assert len(inferences) == distinct


def test_neuron_level_scopes_match_fresh_campaigns(model, dataset):
    camp = Campaign(model, dataset, "winograd", granularity=Granularity.NEURON_LEVEL, seed=76)
    subjects = [(lid, Scope().excluding_layer(lid)) for lid in camp.opspace.conv_layer_ids()]
    assert [r.row() for r in layer_vulnerability(camp, 3e-3, 3)] == \
        _expected_reports(camp, "layer", subjects, 3e-3, 3)


def test_plan_tmr_first_evaluations_are_lookups(model, dataset, inferences):
    camp = Campaign(model, dataset, "winograd", seed=73)
    segments = segment_ops(camp.opspace.total_ops, 700)
    reports = measure_segment_vulnerability(camp, 1e-3, segments, 3)
    assert inferences
    inferences.clear()
    eval_fn = make_segment_eval(camp, 1e-3, 3)
    top = max(range(len(segments)), key=lambda i: (reports[i].delta, -i))
    assert eval_fn([]) == reports[0].acc_raw
    assert eval_fn([segments[top]]) == reports[top].acc_prot
    assert inferences == []


def test_repeated_point_is_a_private_copy(model, dataset, inferences):
    camp = Campaign(model, dataset, "direct", seed=75)
    first = camp.run_point(1e-3, 3)
    ran = len(inferences)
    first.per_trial_correct[0] = -1
    again = camp.run_point(1e-3, 3)
    assert len(inferences) == ran
    assert again.per_trial_correct == _fresh(camp, 1e-3, 3, Scope()).per_trial_correct
    assert again.per_trial_correct is not camp.run_point(1e-3, 3).per_trial_correct


def test_stored_points_are_keyed_by_every_setting(model, dataset):
    camp = Campaign(model, dataset, "winograd", seed=77)
    camp.run_point(1e-3, 3)
    protected = [(0, camp.opspace.total_ops // 2)]
    for ber, trials, scope, prot in [(1e-3, 4, Scope(), ()), (2e-3, 3, Scope(), ()),
                                     (1e-3, 3, Scope(exclude_layers=frozenset({0})), ()), (1e-3, 3, Scope(), protected)]:
        fresh = Campaign(model, dataset, "winograd", seed=77).run_point(ber, trials, scope, protected=prot)
        assert camp.run_point(ber, trials, scope, protected=prot) == fresh


# sha256 of the trace JSONL that test_traced_sparse_sweep_keeps_its_trace_bytes
# writes, computed when every inference still ran, empty tables included
SPARSE_TRACE_SHA256 = {
    "direct": "59315ae294d6af07c34e260c2c9a0c20447f53c910b905dcb4931df0152483dd",
    "winograd": "51cd38401e9e87d42fd54d699c1f9cb73f1a179b040e737f4c2f434c648c06db",
}


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_traced_sparse_sweep_keeps_its_trace_bytes(model, dataset, engine, inferences, tmp_path):
    camp = Campaign(model, dataset, engine, seed=74)
    trace = FaultTrace()
    res = camp.run_point(SPARSE_BER, 5, trace=trace)
    assert 0 < len(inferences) < 5 * len(dataset)
    every = FaultTrace()
    for t in range(5):
        for i in range(len(dataset)):
            camp.corrupted_output(t, i, SPARSE_BER, Scope(), trace=every)
    assert trace.events == every.events
    path = tmp_path / "sparse.jsonl"
    trace.save_jsonl(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SPARSE_TRACE_SHA256[engine]
    assert res.per_trial_correct == camp.run_point(SPARSE_BER, 5).per_trial_correct


@pytest.fixture
def neuron_draws(monkeypatch):
    """The (trial, sample, layer) of each neuron flip draw from here on."""
    drawn = []
    real = winofi.inject.sample_flip_positions

    def spy(seed, labels, total_bits, ber):
        if labels[0] == STREAM_NEURON:
            drawn.append(labels[1:])
        return real(seed, labels, total_bits, ber)

    monkeypatch.setattr(winofi.inject, "sample_flip_positions", spy)
    return drawn


def _neuron_campaign(model, dataset, engine="direct", seed=78, scope=Scope()):
    return Campaign(model, dataset, engine, granularity=Granularity.NEURON_LEVEL, seed=seed, scope=scope)


# sha256 of the trace JSONL that test_scoped_neuron_sweep_keeps_its_trace_bytes
# writes, computed when each neuron layer drew its flips inside the inference
NEURON_TRACE_SHA256 = "08924a8cef1023b81feec50feff60586ce605404adc8c5a0b6c2a79707ad9221"


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_scoped_neuron_sweep_keeps_its_trace_bytes(model, dataset, engine, tmp_path):
    camp = _neuron_campaign(model, dataset, engine, scope=Scope(exclude_layers=frozenset({0})))
    trace = FaultTrace()
    res = camp.run_point(1e-3, 5, trace=trace)
    assert {e[3] for e in trace.events} <= set(range(*camp.opspace.neuron_ranges[2]))
    path = tmp_path / "neuron.jsonl"
    trace.save_jsonl(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == NEURON_TRACE_SHA256
    assert res.per_trial_correct == camp.run_point(1e-3, 5).per_trial_correct


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_neuron_replay_writes_the_replayed_in_scope_flips(model, dataset, engine):
    scope = Scope(exclude_layers=frozenset({0}))
    camp = _neuron_campaign(model, dataset, engine, scope=scope)
    saved = FaultTrace()
    res = camp.run_point(3e-3, 3, trace=saved)
    # records on layer 0's neurons are out of scope: replay neither applies nor writes them
    layer0 = [(t, s, "neuron", i, 15, 0) for t in range(3) for s in range(len(dataset)) for i in (0, 5)]
    replayed = FaultTrace()
    replaying = Campaign(model, dataset, engine, granularity=Granularity.NEURON_LEVEL, seed=78, scope=scope,
                         replay=FaultTrace(saved.events + layer0))
    again = replaying.run_point(3e-3, 3, trace=replayed)
    assert len(saved) > 0
    assert replayed.events == saved.events
    assert again.per_trial_correct == res.per_trial_correct


def test_scoped_neuron_sweep_draws_only_admitted_layers(model, dataset, neuron_draws):
    camp = _neuron_campaign(model, dataset, scope=Scope(exclude_layers=frozenset({0})))
    camp.run_point(1e-3, 3)
    assert neuron_draws == [(t, s, 2) for t in range(3) for s in range(len(dataset))]


def test_neuron_layer_vulnerability_draws_once_and_runs_distinct_tables_once(model, dataset, neuron_draws,
                                                                           inferences):
    camp = _neuron_campaign(model, dataset)
    ber, trials = 3e-4, 3
    scopes = [Scope()] + [Scope().excluding_layer(lid) for lid in camp.opspace.conv_layer_ids()]
    distinct = nonempty = 0
    for t in range(trials):
        for i in range(len(dataset)):
            tables = [neuron_level_inject(camp.opspace, draw_neuron_flips(camp.opspace, camp.seed, ber, (s,), trial=t,
                                                                          sample=i), s, trial=t, sample=i)[0]
                      for s in scopes]
            distinct += len({(f.ids.tobytes(), f.masks.tobytes()) for f in tables if f.ids.size})
            nonempty += sum(f.ids.size > 0 for f in tables)
    assert 0 < distinct < nonempty
    neuron_draws.clear()
    inferences.clear()
    layer_vulnerability(camp, ber, trials)
    assert neuron_draws == [(t, s, lid) for t in range(trials) for s in range(len(dataset))
                            for lid in camp.opspace.conv_layer_ids()]
    assert len(inferences) == distinct
    assert all(faults.ids.size for faults in inferences)


class _EagerTrace(FaultTrace):
    """A trace that builds each recorded table's events at once."""

    def record(self, trial, sample, kind, ids, masks):
        _record_table(self.events, trial, sample, kind, ids, masks)


def _traced_runs(model, dataset, engine, trace_type) -> list:
    """The events of four traces: a saved op-level sweep, one under TMR (its
    copies 1-2 recorded), a neuron-level sweep, and fast-path inferences
    interleaved with reference-hook ones, which write their records
    themselves, in one trace."""
    camp = Campaign(model, dataset, engine, seed=74)
    traces = [trace_type() for _ in range(4)]
    camp.run_point(1e-3, 3, trace=traces[0])
    camp.run_point(1e-3, 2, trace=traces[1], protected=[(0, camp.opspace.total_ops // 2)])
    _neuron_campaign(model, dataset, engine).run_point(3e-3, 3, trace=traces[2])
    for trial in range(3):
        for i in range(len(dataset)):
            draw = draw_op_flips(camp.opspace, 74, 1e-3, trial=trial, sample=i)
            faults, _ = op_level_hook(camp.opspace, draw, trial=trial, sample=i, trace=traces[3])
            hook = faults.reference if (trial + i) % 2 else faults
            run_inference(model, dataset.samples[i], engine, hook, program=camp.program)
    return [t.events for t in traces]


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_deferred_trace_records_equal_their_eager_expansion(model, dataset, engine):
    # A trace keeps each recorded table and builds its events only when they
    # are read: they must be the events built at once, in the same order,
    # also where reference-hook records fall between recorded tables.
    deferred = _traced_runs(model, dataset, engine, FaultTrace)
    eager = _traced_runs(model, dataset, engine, _EagerTrace)
    assert all(deferred) and {e[5] for e in deferred[1]} == {0, 1, 2}
    assert deferred == eager
