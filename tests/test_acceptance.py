"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Exact constants are
asserted exactly; Monte-Carlo trend checks run on fixed seeds at operating
points calibrated for the builtin desk-scale models.
"""

import json

import numpy as np
import pytest
from scipy import stats as sps

from winofi.analyze import Campaign, campaign_csv, optype_vulnerability, sweep_ber
from winofi.engine import ConvSpec, OpType, Stage, conv_direct, conv_winograd
from winofi.inject import (
    FaultTrace,
    Granularity,
    Scope,
    draw_op_flips,
    op_level_hook,
    sample_op_flips,
)
from winofi.mitigate import profile_ranges
from winofi.modelio import builtin_model, generate_dataset, generate_toy_model
from winofi.qtensor import QTensor, QuantParams
from winofi.runtime import Program, enumerate_ops, run_inference, top1
from winofi.tmr import (
    CostModel,
    TmrPlan,
    full_protection_overhead,
    make_segment_eval,
    measure_segment_vulnerability,
    plan_tmr,
    run_with_tmr,
    segment_ops,
    tmr_overhead,
)

from conftest import CountingHook


def _report(num: int, text: str) -> None:
    print(f"\n[criterion {num:02d}] PASS: {text}")


@pytest.fixture(scope="module")
def micro16():
    return builtin_model("microcnn-int16")


@pytest.fixture(scope="module")
def micro16_data(micro16):
    return generate_dataset(micro16, 6, seed=7)


# ---------------------------------------------------------------------------
# 1. Winograd/direct equivalence over >= 1000 randomized small cases


def test_criterion_01_engine_equivalence():
    rng = np.random.default_rng(0xACCE551)
    cases = 1000
    for i in range(cases):
        bit_width = 8 if i % 2 == 0 else 16
        qp = QuantParams(bit_width, 1.0)
        c = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        h = int(rng.integers(4, 17))
        w = int(rng.integers(4, 17))
        pad = int(rng.integers(0, 2))
        weights = QTensor(
            (k, c, 3, 3), rng.integers(qp.int_min, qp.int_max + 1, size=(k, c, 3, 3)), qp
        )
        bias = rng.integers(-1000, 1000, size=k) if i % 3 == 0 else None
        spec = ConvSpec(
            in_channels=c, out_channels=k, padding=pad, weights=weights,
            out_qparams=QuantParams(bit_width, float(2 ** int(rng.integers(0, 7)))),
            bias=bias,
        )
        x = QTensor((1, c, h, w), rng.integers(qp.int_min, qp.int_max + 1, size=(1, c, h, w)), qp)
        d = conv_direct(x, spec)
        g = conv_winograd(x, spec)
        assert np.array_equal(d.array, g.array), f"case {i}: {bit_width}b C{c} K{k} {h}x{w} p{pad}"
    _report(1, f"conv_winograd == conv_direct element-exactly on {cases} randomized cases (tolerance 0)")


# ---------------------------------------------------------------------------
# 2. Op-count constants for one 4x4 tile, C=K=1


def test_criterion_02_op_count_constants():
    model = generate_toy_model(depth=1, channels=1, bit_width=8, seed=3, hw=4, padding=0)
    x = generate_dataset(model, 1, seed=4).samples[0]

    space_d = enumerate_ops(model, "direct")
    assert space_d.count(op_type=OpType.MUL) == 36
    hook = CountingHook()
    run_inference(model, x, "direct", hook)
    assert hook.total(op_type=OpType.MUL) == 36

    space_w = enumerate_ops(model, "winograd")
    assert space_w.count(stage=Stage.WG_EWMUL, op_type=OpType.MUL) == 16
    assert space_w.count(op_type=OpType.MUL) == 16
    assert 36 / 16 == 2.25
    assert space_w.count(stage=Stage.WG_INPUT_TF, op_type=OpType.ADD) == 32
    assert space_w.count(stage=Stage.WG_INVERSE_TF, op_type=OpType.ADD) == 24
    hook = CountingHook()
    run_inference(model, x, "winograd", hook)
    assert hook.total(op_type=OpType.MUL) == 16
    assert hook.total(stage=Stage.WG_INPUT_TF) == 32
    assert hook.total(stage=Stage.WG_INVERSE_TF) == 24
    assert len(hook.op_ids) == space_w.total_ops
    _report(2, "4x4 tile constants exact: 36 direct MULs, 16 EWMULs (2.25x), 32 input-tf ADDs, 24 inverse-tf ADDs (enumerate_ops == hook counts)")


# ---------------------------------------------------------------------------
# 3. Injector statistics


def test_criterion_03_injector_statistics(micro16):
    # >= 1e7 op bits at ber=1e-3: observed flip count within 3 sigma
    big = generate_toy_model(depth=3, channels=8, bit_width=16, seed=5, hw=16)
    space = enumerate_ops(big, "direct")
    assert space.total_op_bits >= 10**7
    ber = 1e-3
    flips = sample_op_flips(space, seed=1234, trial=0, sample=0, ber=ber)
    observed = sum(int(m).bit_count() for m in flips.values())
    mean = space.total_op_bits * ber
    sigma = (space.total_op_bits * ber * (1 - ber)) ** 0.5
    assert abs(observed - mean) <= 3 * sigma

    # ber=0: zero flips
    assert sample_op_flips(space, seed=1, trial=0, sample=0, ber=0.0) == {}

    # ber=1: exact complement of every op result at its exposed width
    small = generate_toy_model(depth=1, channels=1, bit_width=8, seed=6, hw=4)
    sp = enumerate_ops(small, "direct")
    x = generate_dataset(small, 1, seed=6).samples[0]
    inner, _ = op_level_hook(sp, draw_op_flips(sp, 2, 1.0))
    seen = []

    def spy(op_id, layer_id, op_type, stage, value):
        got = inner.reference(op_id, layer_id, op_type, stage, value)
        width = sp.width_mul if op_type == int(OpType.MUL) else sp.width_add
        seen.append(got == value ^ ((1 << width) - 1))
        return got

    run_inference(small, x, "direct", spy)
    assert len(seen) == sp.total_ops and all(seen)

    # chi-square goodness of fit over 100 trials at significance 0.01
    small_space = enumerate_ops(micro16, "direct")
    n_bits = small_space.total_op_bits
    counts = []
    for t in range(100):
        f = sample_op_flips(small_space, seed=777, trial=t, sample=0, ber=ber)
        counts.append(sum(int(m).bit_count() for m in f.values()))
    dist = sps.binom(n_bits, ber)
    edges = np.unique(dist.ppf(np.linspace(0.0, 1.0, 11)))
    edges[0], edges[-1] = -1, n_bits
    obs, _ = np.histogram(counts, bins=edges + 0.5)
    prob = dist.cdf(edges[1:] + 0.5) - dist.cdf(edges[:-1] + 0.5)
    expect = 100 * prob / prob.sum()
    keep = expect >= 1.0
    chi2 = float(((obs[keep] - expect[keep]) ** 2 / expect[keep]).sum())
    pval = 1.0 - sps.chi2.cdf(chi2, df=int(keep.sum()) - 1)
    assert pval >= 0.01
    _report(3, f"flips within 3sigma over {space.total_op_bits} op bits; ber=0 -> 0; ber=1 -> exact complement; chi-square p={pval:.3f} >= 0.01")


# ---------------------------------------------------------------------------
# 4. Neuron-level indistinguishability


def test_criterion_04_neuron_level_indistinguishable(micro16, micro16_data):
    for seed in (0, 1, 99):
        rows = {}
        for engine in ("direct", "winograd"):
            res = sweep_ber(
                Campaign(micro16, micro16_data, engine, seed=seed, granularity=Granularity.NEURON_LEVEL),
                [1e-3, 1e-2], trials=20,
            )
            rows[engine] = campaign_csv(res).splitlines()[1:]
            assert all(r.per_trial_correct for r in res)
        assert rows["direct"] == rows["winograd"]
    _report(4, "neuron-level campaigns produce identical accuracy rows for direct and winograd (3 seeds, 2 BERs)")


# ---------------------------------------------------------------------------
# 5. Engine-resilience trend


def test_criterion_05_engine_resilience_trend(micro16, micro16_data):
    assert len(micro16.conv_layer_ids()) >= 3
    assert micro16.bit_width == 16
    bers = [1e-6, 1e-5, 3e-5, 1e-4, 3e-4]
    res = {}
    for engine in ("direct", "winograd"):
        res[engine] = sweep_ber(Campaign(micro16, micro16_data, engine, seed=5), bers, trials=100)
    clean = res["direct"][0].clean_accuracy
    dropped = [i for i, r in enumerate(res["direct"]) if clean - r.mean_accuracy >= 0.05]
    assert dropped, "no BER point degraded the direct engine by 5+ points"
    for i in dropped:
        assert res["winograd"][i].mean_accuracy >= res["direct"][i].mean_accuracy, bers[i]
    separated = [
        i
        for i in range(len(bers))
        if res["winograd"][i].mean_accuracy - res["winograd"][i].ci95_halfwidth
        > res["direct"][i].mean_accuracy + res["direct"][i].ci95_halfwidth
    ]
    assert separated, "no BER point separates the engines with non-overlapping 95% CIs"
    gaps = ", ".join(
        f"{bers[i]:g}: {res['direct'][i].mean_accuracy:.2f}->{res['winograd'][i].mean_accuracy:.2f}"
        for i in dropped
    )
    _report(5, f"winograd >= direct at every degraded point ({gaps}); CIs non-overlapping at {len(separated)} point(s)")


# ---------------------------------------------------------------------------
# 6. Op-type trend


def test_criterion_06_optype_trend(micro16, micro16_data):
    ber = 3e-5
    mul, add = optype_vulnerability(Campaign(micro16, micro16_data, "direct", seed=11), ber, trials=100)
    degradation = 1.0 - mul.acc_raw
    assert 0.10 <= degradation <= 0.40, f"operating point off: raw degradation {degradation:.2f}"
    assert mul.delta > add.delta
    _report(6, f"MUL-protected delta {mul.delta:.3f} > ADD-protected delta {add.delta:.3f} at {degradation*100:.0f}-point degradation")


# ---------------------------------------------------------------------------
# 7. TMR correctness


def test_criterion_07_tmr_correctness(micro16, micro16_data):
    space = enumerate_ops(micro16, "direct")
    plan = TmrPlan(segment_size=space.total_ops, total_ops=space.total_ops,
                   order=[0], n=1, achieved_acc=1.0, target_acc=1.0)
    x = micro16_data.samples[0]
    clean = run_inference(micro16, x, "direct").output

    # at most one faulty copy per op, forced via trace replay -> bit-exact
    rng = np.random.default_rng(21)
    events = []
    for op_id in rng.choice(space.total_ops, size=200, replace=False):
        events.append((0, 0, "op", int(op_id), int(rng.integers(0, int(space.op_widths([op_id])[0]))),
                       int(rng.integers(0, 3))))
    forced = FaultTrace(events)
    out = run_with_tmr(Campaign(micro16, micro16_data, "direct", seed=21, replay=forced), plan, 0.9)
    assert out == clean

    # Monte-Carlo: full protection beats unprotected with non-overlapping CIs
    ber, trials = 1e-4, 100
    camp = Campaign(micro16, micro16_data, "direct", seed=22)
    raw = camp.run_point(ber, trials)
    per_trial = []
    for t in range(trials):
        ok = 0
        for i in range(camp.sample_count):
            got = run_with_tmr(camp, plan, ber, trial=t, sample=i)
            ok += int(top1(got) == camp.refs[i])
        per_trial.append(ok / camp.sample_count)
    prot_mean = float(np.mean(per_trial))
    prot_ci = float(1.96 * np.std(per_trial, ddof=1) / np.sqrt(trials))
    assert prot_mean - prot_ci > raw.mean_accuracy + raw.ci95_halfwidth
    _report(7, f"single-corrupted-copy replay is bit-exact; full-TMR accuracy {prot_mean:.3f} > unprotected {raw.mean_accuracy:.3f} (CIs disjoint)")


# ---------------------------------------------------------------------------
# 8. Planner properties


def test_criterion_08_planner_properties(micro16, micro16_data):
    space = enumerate_ops(micro16, "direct")
    segments = segment_ops(space.total_ops, -(-space.total_ops // 8))

    # overhead strictly increasing in n
    prev = -1.0
    for n in range(len(segments) + 1):
        oh = tmr_overhead([s.op_range for s in segments[:n]], space)
        assert oh > prev
        prev = oh

    # achieved accuracy non-decreasing in n in expectation (paired prefixes)
    ber, trials = 1e-4, 60
    camp = Campaign(micro16, micro16_data, "direct", seed=33)
    reports = measure_segment_vulnerability(camp, ber, segments, trials)
    order = sorted(range(len(segments)), key=lambda i: (-reports[i].delta, i))
    eval_fn = make_segment_eval(camp, ber, trials)
    prefix_accs = [eval_fn([segments[i] for i in order[:n]]) for n in range(len(segments) + 1)]
    slope = np.polyfit(range(len(prefix_accs)), prefix_accs, 1)[0]
    assert slope >= 0.0
    assert prefix_accs[-1] >= prefix_accs[0]
    for a, b in zip(prefix_accs, prefix_accs[1:]):
        assert b >= a - 0.1  # single-step decreases bounded by Monte-Carlo noise

    # noiseless run with ACC = clean accuracy yields n = 0
    eval0 = make_segment_eval(camp, 0.0, 5)
    plan0 = plan_tmr([r.delta for r in reports], segments, camp.clean_accuracy, eval0)
    assert plan0.n == 0 and not plan0.target_unreachable

    # normalized full-protection overhead: winograd < direct (6.67 weight)
    cost = CostModel()
    for bit_width, seed in ((8, 41), (16, 42)):
        for channels, hw in ((1, 4), (3, 6), (4, 8)):
            m = generate_toy_model(depth=2, channels=channels, bit_width=bit_width, seed=seed, hw=hw)
            d = full_protection_overhead(enumerate_ops(m, "direct"), cost)
            w = full_protection_overhead(enumerate_ops(m, "winograd"), cost)
            assert w < d, (bit_width, channels, hw)
    _report(8, f"overhead strictly increasing; prefix accuracy trend slope {slope:.4f} >= 0; ber=0 & ACC=clean gives n=0; normalized winograd < direct on 6 models")


# ---------------------------------------------------------------------------
# 9. Constrained activation


def test_criterion_09_constrained_activation(micro16, micro16_data):
    prof = profile_ranges(micro16, micro16_data)

    # fault-free idempotence on the profiling set (exact)
    for mode in ("clamp", "zero"):
        for s in micro16_data.samples:
            plain = run_inference(micro16, s, "direct").output
            cons = run_inference(micro16, s, "direct", program=Program(micro16, "direct", prof, mode)).output
            assert cons == plain

    # paired Monte-Carlo at moderate BER: clamped >= unclamped, both engines
    ber, trials = 1e-4, 100
    gains = {}
    for engine in ("direct", "winograd"):
        plain = Campaign(micro16, micro16_data, engine, seed=44).run_point(ber, trials)
        clamped = Campaign(micro16, micro16_data, engine, seed=44, ranges=prof).run_point(ber, trials)
        assert clamped.mean_accuracy >= plain.mean_accuracy
        gains[engine] = (plain.mean_accuracy, clamped.mean_accuracy)
    assert gains["direct"][0] < 1.0  # faults actually hurt at this point
    desc = "; ".join(f"{e}: {p:.3f}->{c:.3f}" for e, (p, c) in gains.items())
    _report(9, f"fault-free idempotence exact; clamped >= unclamped at ber={ber:g} ({desc})")


# ---------------------------------------------------------------------------
# 10. Reproducibility via cmd_replay


def test_criterion_10_replay_reproducibility(tmp_path, micro16, micro16_data):
    from winofi.cli import main
    from winofi.modelio import save_dataset, save_model

    mdir, ddir = tmp_path / "model", tmp_path / "data"
    save_model(micro16, str(mdir))
    save_dataset(micro16_data, str(ddir))

    for granularity, fmt in (("op", "csv"), ("neuron", "json")):
        orig = tmp_path / f"orig-{granularity}.{fmt}"
        trace = tmp_path / f"trace-{granularity}.jsonl"
        code = main([
            "sweep", "--model", str(mdir), "--dataset", str(ddir),
            "--granularity", granularity, "--ber", "1e-4" if granularity == "op" else "1e-3",
            "--trials", "6", "--seed", "55", "--format", fmt,
            "--out", str(orig), "--save-trace", str(trace),
        ])
        assert code == 0
        replayed = tmp_path / f"replay-{granularity}.{fmt}"
        code = main(["replay", "--results", str(orig), "--trace", str(trace), "--out", str(replayed)])
        assert code == 0
        assert replayed.read_bytes() == orig.read_bytes()
    _report(10, "cmd_replay reproduces op-level CSV and neuron-level JSON campaign files byte-identically")
