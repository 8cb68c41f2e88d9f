import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winofi.analyze import Campaign
from winofi.errors import ConfigError
from winofi.inject import FaultTrace, Granularity, Scope
from winofi.modelio import Dataset, generate_dataset, generate_toy_model
from winofi.runtime import enumerate_ops, run_inference, top1
from winofi.tmr import (
    CostModel,
    Segment,
    TmrPlan,
    full_protection_overhead,
    make_segment_eval,
    measure_segment_vulnerability,
    plan_tmr,
    run_with_tmr,
    segment_ops,
    tmr_overhead,
)


@pytest.fixture(scope="module")
def model():
    return generate_toy_model(depth=2, channels=2, bit_width=16, seed=61, hw=6)


@pytest.fixture(scope="module")
def dataset(model):
    return generate_dataset(model, 5, seed=62)


# ---------------------------------------------------------------------------
# Segmentation


def test_segment_ops_even_partition():
    segs = segment_ops(100, 10)
    assert len(segs) == 10
    assert all(len(s) == 10 for s in segs)
    assert segs[0].op_range == (0, 10)
    assert segs[-1].op_range == (90, 100)


def test_segment_ops_ceiling():
    segs = segment_ops(101, 10)
    assert len(segs) == 11
    assert len(segs[-1]) == 1
    assert segs[-1].op_range == (100, 101)


def test_segment_ops_single_direct_layer():
    # M=36 MULs for one 4x4 layer; with the paired ADDs M=72, one segment
    segs = segment_ops(36, 36)
    assert len(segs) == 1
    assert segs[0].op_range == (0, 36)


def test_segment_ops_rejects_bad_size():
    with pytest.raises(ConfigError):
        segment_ops(10, 0)


@given(st.integers(1, 500), st.integers(1, 60))
@settings(max_examples=100)
def test_segments_partition_property(total, size):
    segs = segment_ops(total, size)
    assert len(segs) == -(-total // size)
    covered = []
    for s in segs:
        covered.extend(range(s.start, s.end))
    assert covered == list(range(total))


# ---------------------------------------------------------------------------
# Cost model and overhead


def test_cost_model_weights():
    cm = CostModel()
    assert cm.weights_at(8) == (6.67, 1.0)
    mul16, add16 = cm.weights_at(16)
    assert mul16 == pytest.approx(6.67 * 4)
    assert add16 == pytest.approx(2.0)
    for bad in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError):
            CostModel(add_weight=bad)
        with pytest.raises(ConfigError):
            CostModel(mul_weight=bad)


def test_overhead_worked_example():
    # 10 MULs + 10 ADDs protected at int8 weights:
    # 2*(10*6.67 + 10*1) + 20 votes = 173.4 weighted ops
    class FakeSpace:
        bit_width = 8

        def mul_add_in_range(self, a, b):
            return 10, 10

    assert tmr_overhead([(0, 20)], FakeSpace(), CostModel()) == pytest.approx(173.4)


def test_overhead_empty_plan_is_zero(model):
    space = enumerate_ops(model, "direct")
    assert tmr_overhead([], space) == 0.0


def test_full_winograd_cheaper_than_full_direct(model):
    cost = CostModel()
    d = full_protection_overhead(enumerate_ops(model, "direct"), cost)
    w = full_protection_overhead(enumerate_ops(model, "winograd"), cost)
    assert w < d


def test_full_winograd_cheaper_single_tile():
    # worst case for winograd: one tile, C=K=1, filter setup not amortized
    m = generate_toy_model(depth=1, channels=1, bit_width=8, seed=63, hw=4, padding=0)
    cost = CostModel()
    d = full_protection_overhead(enumerate_ops(m, "direct"), cost)
    w = full_protection_overhead(enumerate_ops(m, "winograd"), cost)
    assert w < d
    m16 = generate_toy_model(depth=1, channels=1, bit_width=16, seed=63, hw=4, padding=0)
    d16 = full_protection_overhead(enumerate_ops(m16, "direct"), cost)
    w16 = full_protection_overhead(enumerate_ops(m16, "winograd"), cost)
    assert w16 < d16


def test_overhead_strictly_increases_with_n(model):
    space = enumerate_ops(model, "direct")
    segs = segment_ops(space.total_ops, space.total_ops // 7)
    prev = -1.0
    for n in range(len(segs) + 1):
        oh = tmr_overhead([s.op_range for s in segs[:n]], space)
        assert oh > prev
        prev = oh


# ---------------------------------------------------------------------------
# Vulnerability measurement


def test_segment_vulnerability_ber_zero(model, dataset):
    space = enumerate_ops(model, "direct")
    segs = segment_ops(space.total_ops, space.total_ops // 4)
    reports = measure_segment_vulnerability(Campaign(model, dataset, "direct", seed=64), 0.0, segs, trials=3)
    assert all(r.delta == 0.0 for r in reports)


def test_segment_vulnerability_rejects_neuron_campaign(model, dataset):
    camp = Campaign(model, dataset, "direct", granularity=Granularity.NEURON_LEVEL, seed=64)
    segs = segment_ops(camp.opspace.total_ops, camp.opspace.total_ops // 4)
    with pytest.raises(ConfigError, match="op-level"):
        measure_segment_vulnerability(camp, 3e-3, segs, trials=2)


def test_segment_vulnerability_concentrated_faults(model, dataset):
    # whitelist injection to one segment's layer span: that segment shows the
    # largest recovery when protected
    space = enumerate_ops(model, "direct")
    segs = segment_ops(space.total_ops, -(-space.total_ops // 6))
    target = segs[2]
    scope = Scope(exclude_op_ranges=tuple(
        s.op_range for s in segs if s.index != target.index
    ))
    camp = Campaign(model, dataset, "direct", seed=65, scope=scope)
    reports = measure_segment_vulnerability(camp, 3e-4, segs, trials=40)
    best = max(reports, key=lambda r: r.delta)
    assert best.subject_id == target.index
    assert best.delta > 0
    # protecting everything recovers clean accuracy exactly
    all_prot = camp.base_scope.excluding_op_ranges([s.op_range for s in segs])
    res = camp.run_point(3e-4, trials=5, scope=all_prot)
    assert res.mean_accuracy == camp.clean_accuracy


# ---------------------------------------------------------------------------
# Planner


def _make_segments(n, size=10):
    return [Segment(i, i * size, (i + 1) * size) for i in range(n)]


def test_plan_prefers_high_vulnerability():
    segs = _make_segments(4)
    v = [0.1, 0.4, 0.2, 0.3]
    # accuracy reaches target once segments 1 and 3 are protected
    # (binary-exact values keep the >= comparison robust)
    def eval_fn(protected):
        idx = {s.index for s in protected}
        return 0.5 + 0.25 * (1 in idx) + 0.25 * (3 in idx) + 0.0625 * len(idx & {0, 2})

    plan = plan_tmr(v, segs, target_acc=1.0, eval_fn=eval_fn)
    assert plan.order == [1, 3, 2, 0]
    assert plan.n == 2
    assert plan.achieved_acc >= 1.0
    assert not plan.target_unreachable
    assert plan.protection_ratio == pytest.approx(20 / 40)


def test_plan_n_zero_when_target_already_met():
    segs = _make_segments(3)
    plan = plan_tmr([0.0, 0.0, 0.0], segs, target_acc=0.5, eval_fn=lambda p: 0.8)
    assert plan.n == 0
    assert plan.achieved_acc == 0.8
    assert plan.protection_ratio == 0.0


def test_plan_literal_do_while_protects_at_least_one():
    segs = _make_segments(3)
    plan = plan_tmr([0.3, 0.1, 0.2], segs, target_acc=0.5,
                    eval_fn=lambda p: 0.8, literal_do_while=True)
    assert plan.n == 1
    assert plan.order[0] == 0


def test_plan_all_equal_v_needs_full_protection():
    segs = _make_segments(4)
    def eval_fn(protected):
        return 1.0 if len(protected) == 4 else 0.2

    plan = plan_tmr([0.1] * 4, segs, target_acc=0.9, eval_fn=eval_fn)
    assert plan.n == 4
    assert plan.order == [0, 1, 2, 3]  # ties broken by ascending index
    assert not plan.target_unreachable


def test_plan_unreachable_target_flag():
    segs = _make_segments(3)
    plan = plan_tmr([0.1, 0.2, 0.3], segs, target_acc=0.99, eval_fn=lambda p: 0.5)
    assert plan.target_unreachable
    assert plan.n == 3
    assert plan.achieved_acc == 0.5


def test_plan_monotone_in_target():
    segs = _make_segments(5)
    v = [0.5, 0.4, 0.3, 0.2, 0.1]

    def eval_fn(protected):
        return 0.4 + 0.1 * len(protected)

    sizes = []
    for target in (0.45, 0.62, 0.85):
        plan = plan_tmr(v, segs, target_acc=target, eval_fn=eval_fn)
        sizes.append(plan.n)
    assert sizes == sorted(sizes)


def test_plan_two_segment_constructed_case(model, dataset):
    # segment A covers the whole op space half that gets injected; protecting
    # it alone reaches the target
    space = enumerate_ops(model, "direct")
    half = space.total_ops // 2
    segs = [Segment(0, 0, half), Segment(1, half, space.total_ops)]
    scope = Scope(exclude_op_ranges=((half, space.total_ops),))  # faults only in A
    camp = Campaign(model, dataset, "direct", seed=66, scope=scope)
    reports = measure_segment_vulnerability(camp, 2e-4, segs, trials=30)
    v = [r.delta for r in reports]
    assert v[0] > v[1]
    eval_fn = make_segment_eval(camp, 2e-4, trials=30)
    plan = plan_tmr(v, segs, target_acc=camp.clean_accuracy, eval_fn=eval_fn,
                    opspace=space)
    assert plan.order[0] == 0
    assert plan.n == 1
    assert plan.protected_ranges == [(0, half)]
    assert plan.overhead is not None and plan.overhead > 0


def test_plan_json_roundtrip(tmp_path):
    segs = _make_segments(4)
    plan = plan_tmr([0.4, 0.3, 0.2, 0.1], segs, target_acc=0.5, eval_fn=lambda p: 0.9)
    class FakeSpace:
        bit_width = 8
        total_ops = 40

        def mul_add_in_range(self, a, b):
            return (b - a) // 2, (b - a) - (b - a) // 2

    plan.overhead = tmr_overhead(plan.protected_ranges, FakeSpace())
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    loaded = TmrPlan.load_json(str(path))
    assert loaded.to_dict() == plan.to_dict()
    # pinned serialization keys
    d = plan.to_dict()
    for key in ("segment_size", "order", "n", "P", "achieved_acc", "overhead", "overhead_normalized"):
        assert key in d


# ---------------------------------------------------------------------------
# TMR execution


def _full_plan(space):
    return TmrPlan(
        segment_size=space.total_ops,
        total_ops=space.total_ops,
        order=[0],
        n=1,
        achieved_acc=1.0,
        target_acc=1.0,
    )


def test_run_with_tmr_ber_zero_identity(model, dataset):
    space = enumerate_ops(model, "direct")
    plan = _full_plan(space)
    x = dataset.samples[0]
    out = run_with_tmr(Campaign(model, dataset, "direct", seed=67), plan, 0.0)
    assert out == run_inference(model, x, "direct").output


def test_run_with_tmr_single_corrupt_copy_votes_clean(model, dataset):
    # force exactly one faulty copy per struck op via trace replay
    space = enumerate_ops(model, "direct")
    plan = _full_plan(space)
    x = dataset.samples[0]
    rng = np.random.default_rng(68)
    events = []
    for op_id in rng.choice(space.total_ops, size=50, replace=False):
        copy = int(rng.integers(0, 3))
        bit = int(rng.integers(0, int(space.op_widths([op_id])[0])))
        events.append((0, 0, "op", int(op_id), bit, copy))
    replay = FaultTrace(events)
    # ber ignored under replay
    out = run_with_tmr(Campaign(model, dataset, "direct", seed=68, replay=replay), plan, 0.5)
    assert out == run_inference(model, x, "direct").output


def test_run_with_tmr_two_corrupt_copies_can_corrupt(model, dataset):
    space = enumerate_ops(model, "direct")
    plan = _full_plan(space)
    x = dataset.samples[0]
    # same high bit flipped in two copies of one MUL: the vote adopts the fault
    op_id = int(np.flatnonzero(space.op_widths(np.arange(space.total_ops)) == space.width_mul)[0])
    bit = space.width_mul - 1
    replay = FaultTrace([(0, 0, "op", op_id, bit, 0), (0, 0, "op", op_id, bit, 1)])
    out = run_with_tmr(Campaign(model, dataset, "direct", seed=69, replay=replay), plan, 0.5)
    assert out != run_inference(model, x, "direct").output


def test_run_with_tmr_unprotected_matches_plain_hook(model, dataset):
    # an empty plan must reproduce the plain copy-0 injection exactly
    from winofi.inject import draw_op_flips, op_level_hook

    space = enumerate_ops(model, "direct")
    plan = TmrPlan(segment_size=space.total_ops, total_ops=space.total_ops,
                   order=[0], n=0, achieved_acc=0.0, target_acc=0.0)
    x = dataset.samples[0]
    # x sits at sample index 2, the index the flips are drawn for
    camp = Campaign(model, Dataset([x] * 3), "direct", seed=70)
    tmr_out = run_with_tmr(camp, plan, 2e-4, trial=3, sample=2)
    hook, _ = op_level_hook(space, draw_op_flips(space, 70, 2e-4, trial=3, sample=2), trial=3, sample=2)
    plain_out = run_inference(model, x, "direct", hook.reference).output
    assert tmr_out == plain_out


def test_run_with_tmr_plan_engine_mismatch(model, dataset):
    space_d = enumerate_ops(model, "direct")
    plan = _full_plan(space_d)
    with pytest.raises(ConfigError):
        run_with_tmr(Campaign(model, dataset, "winograd", seed=71), plan, 0.0)


def test_run_with_tmr_rejects_neuron_campaign(model, dataset):
    # TMR votes op results, which a neuron-level campaign never strikes
    plan = _full_plan(enumerate_ops(model, "direct"))
    camp = Campaign(model, dataset, "direct", granularity=Granularity.NEURON_LEVEL, seed=71)
    with pytest.raises(ConfigError):
        run_with_tmr(camp, plan, 0.0)


def test_run_with_tmr_rejects_neuron_campaign_under_empty_plan(model, dataset):
    # a plan protecting nothing still votes op results only
    plan = _full_plan(enumerate_ops(model, "direct"))
    plan.n = 0
    camp = Campaign(model, dataset, "direct", granularity=Granularity.NEURON_LEVEL, seed=71)
    with pytest.raises(ConfigError, match="op-level"):
        run_with_tmr(camp, plan, 0.0)


def test_full_protection_beats_unprotected(model, dataset):
    space = enumerate_ops(model, "direct")
    plan = _full_plan(space)
    ber, trials = 2e-4, 30
    camp = Campaign(model, dataset, "direct", seed=72)
    raw = camp.run_point(ber, trials)
    correct = []
    for t in range(trials):
        ok = 0
        for i in range(camp.sample_count):
            out = run_with_tmr(camp, plan, ber, trial=t, sample=i)
            ok += int(top1(out) == camp.refs[i])
        correct.append(ok)
    prot_acc = sum(correct) / (trials * len(dataset))
    assert prot_acc >= raw.mean_accuracy
    assert prot_acc >= 0.99  # triple execution voting wipes out sparse faults

def test_op_level_hook_replays_saved_tmr_trace(model, dataset, tmp_path):
    # eval-tmr's campaign point saves copies 0-2; replaying that trace through
    # op_level_hook with the plan's ranges reproduces every faulty output
    from winofi.inject import draw_op_flips, op_level_hook

    space = enumerate_ops(model, "direct")
    plan = TmrPlan(segment_size=-(-space.total_ops // 2), total_ops=space.total_ops,
                   order=[1, 0], n=1, achieved_acc=0.0, target_acc=0.0)
    ber, trials = 2e-3, 2
    camp = Campaign(model, dataset, "direct", seed=74, workers=1)
    trace = FaultTrace()
    camp.run_point(ber, trials, trace=trace, protected=plan.protected_ranges)
    assert {e[5] for e in trace.events} == {0, 1, 2}
    path = tmp_path / "trace.jsonl"
    trace.save_jsonl(str(path))
    saved = FaultTrace.load_jsonl(str(path))
    for t in range(trials):
        for i, x in enumerate(dataset.samples):
            want = camp.corrupted_output(t, i, ber, camp.base_scope, protected=plan.protected_ranges).output
            draw = draw_op_flips(space, 74, ber, trial=t, sample=i, replay=saved, protected=plan.protected_ranges)
            hook, _ = op_level_hook(space, draw, trial=t, sample=i)
            assert run_inference(model, x, "direct", hook.reference).output == want
