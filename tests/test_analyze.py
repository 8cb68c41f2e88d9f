import re

import numpy as np
import pytest

from winofi.analyze import (
    CAMPAIGN_COLUMNS,
    VULN_COLUMNS,
    Campaign,
    campaign_csv,
    campaign_json,
    layer_vulnerability,
    mean_ci95,
    optype_vulnerability,
    sweep_ber,
    vuln_csv,
)
from winofi.engine import OpType
from winofi.errors import ConfigError
from winofi.inject import FaultTrace, Granularity, Scope
from winofi.modelio import (
    ConvLayer,
    Dataset,
    FlattenLayer,
    LinearLayer,
    ModelDef,
    ReluLayer,
    generate_dataset,
    generate_toy_model,
)
from winofi.qtensor import QTensor, QuantParams, quantize
from winofi.runtime import enumerate_ops, run_inference
from winofi.tmr import TmrPlan, run_with_tmr


@pytest.fixture(scope="module")
def model():
    return generate_toy_model(depth=2, channels=2, bit_width=16, seed=31, hw=6)


@pytest.fixture(scope="module")
def dataset(model):
    return generate_dataset(model, 6, seed=32)


def test_campaign_requires_samples(model):
    with pytest.raises(ConfigError):
        Campaign(model, Dataset([]))


@pytest.mark.parametrize("shape", [(1, 1, 4, 9), (2, 1, 6, 6)], ids=["same-size", "two-samples"])
def test_campaign_rejects_a_sample_of_another_shape(model, dataset, shape):
    # (1, 4, 9) flattens to as many values as the model's (1, 6, 6) input;
    # a batch of two would score only one top-1 and one op space.
    samples = list(dataset.samples)
    data = np.resize(samples[1].data, np.prod(shape))
    samples[1] = QTensor(shape, data, samples[1].qparams)
    with pytest.raises(ConfigError, match=re.escape(f"sample 1 is shaped {shape}; the model takes (1, 1, 6, 6)")):
        Campaign(model, Dataset(samples))


@pytest.mark.parametrize("trials", [0, -1])
def test_run_point_requires_a_trial(model, dataset, trials):
    with pytest.raises(ConfigError):
        Campaign(model, dataset).run_point(1e-4, trials)


def test_mean_ci95():
    m, ci = mean_ci95([0.5, 0.5, 0.5])
    assert (m, ci) == (0.5, 0.0)
    vals = [0.0, 1.0, 0.0, 1.0]
    m, ci = mean_ci95(vals)
    assert m == 0.5
    sigma = np.std(vals, ddof=1)
    assert ci == pytest.approx(1.96 * sigma / 2.0)
    assert mean_ci95([0.7]) == (0.7, 0.0)


def test_sweep_ber_zero_equals_clean(model, dataset):
    res = sweep_ber(Campaign(model, dataset, "direct", seed=1), [0.0], trials=5)
    assert len(res) == 1
    r = res[0]
    assert r.mean_accuracy == r.clean_accuracy == 1.0
    assert r.ci95_halfwidth == 0.0
    assert r.per_trial_correct == [len(dataset)] * 5


def test_sweep_accuracy_degrades_with_ber(model, dataset):
    res = sweep_ber(Campaign(model, dataset, "direct", seed=2), [0.0, 3e-5, 3e-3], trials=20)
    accs = [r.mean_accuracy for r in res]
    assert accs[0] == 1.0
    assert accs[2] < accs[0]
    assert accs[2] <= accs[1] + 0.15  # allow Monte-Carlo noise on the middle point


def test_sweep_is_reproducible(model, dataset):
    a = sweep_ber(Campaign(model, dataset, "winograd", seed=3), [1e-4], trials=10)
    b = sweep_ber(Campaign(model, dataset, "winograd", seed=3), [1e-4], trials=10)
    assert a[0].per_trial_correct == b[0].per_trial_correct


def test_neuron_sweep_engine_indistinguishable(model, dataset):
    kw = dict(seed=4, granularity=Granularity.NEURON_LEVEL)
    d = sweep_ber(Campaign(model, dataset, "direct", **kw), [1e-3, 1e-2], trials=8)
    w = sweep_ber(Campaign(model, dataset, "winograd", **kw), [1e-3, 1e-2], trials=8)
    for rd, rw in zip(d, w):
        assert rd.per_trial_correct == rw.per_trial_correct
        assert rd.row()["mean_accuracy"] == rw.row()["mean_accuracy"]


def test_trace_and_replay_round_trip(model, dataset):
    trace = FaultTrace()
    camp = Campaign(model, dataset, "direct", seed=5)
    first = sweep_ber(camp, [2e-4], trials=6, trace=trace)
    assert len(trace) > 0
    again = sweep_ber(Campaign(model, dataset, "direct", seed=5, replay=trace), [2e-4], trials=6)
    assert first[0].per_trial_correct == again[0].per_trial_correct


def test_labeled_accuracy_mode(model, dataset):
    labels = [(i + 1) % 4 for i in range(len(dataset))]
    labeled = Dataset(dataset.samples, labels)
    camp = Campaign(model, labeled, "direct", seed=6, use_labels=True)
    assert camp.clean_accuracy <= 1.0
    res = camp.run_point(0.0, trials=3)
    assert res.mean_accuracy == camp.clean_accuracy


# ---------------------------------------------------------------------------
# Vulnerability


def _lopsided_model():
    # second conv owns ~90% of all op bits (1 -> 1 -> 10 channels)
    rng = np.random.default_rng(77)
    qp = QuantParams(8, 1 / 64)

    def conv(c, k):
        w = rng.normal(0, 0.3, size=(k, c, 3, 3))
        return ConvLayer(out_channels=k, padding=1, weights=quantize(w, qp), out_scale=0.25)

    layers = [conv(1, 1), ReluLayer(), conv(1, 10), ReluLayer(), FlattenLayer()]
    d = 10 * 6 * 6
    wl = rng.normal(0, 0.2, size=(4, d))
    layers.append(LinearLayer(out_features=4, weights=quantize(wl, qp), out_scale=1.0))
    return ModelDef(
        name="lopsided", bit_width=8, input_shape=(1, 6, 6), input_scale=1 / 32, layers=layers
    )


def test_layer_vulnerability_tracks_op_mass():
    model = _lopsided_model()
    space = enumerate_ops(model, "direct")
    bits = {l: space.count(layer_id=l) * 8 for l in space.conv_layer_ids()}
    big = max(bits, key=bits.get)
    assert bits[big] / sum(bits.values()) > 0.85
    ds = generate_dataset(model, 6, seed=41)
    reports = layer_vulnerability(Campaign(model, ds, "direct", seed=42), ber=2e-4, trials=60)
    assert len(reports) == 2
    best = max(reports, key=lambda r: r.delta)
    assert best.subject_id == big
    assert best.delta > 0


def test_layer_vulnerability_ber_zero_all_deltas_zero(model, dataset):
    reports = layer_vulnerability(Campaign(model, dataset, "direct", seed=43), ber=0.0, trials=3)
    assert all(r.delta == 0.0 for r in reports)
    assert all(r.acc_prot == r.acc_raw for r in reports)


def test_protecting_all_layers_recovers_clean(model, dataset):
    camp = Campaign(model, dataset, "direct", seed=44)
    scope = Scope()
    for lid in camp.opspace.conv_layer_ids():
        scope = scope.excluding_layer(lid)
    res = camp.run_point(5e-3, trials=5, scope=scope)
    assert res.mean_accuracy == camp.clean_accuracy
    assert res.ci95_halfwidth == 0.0


def test_optype_vulnerability_ber_zero(model, dataset):
    mul, add = optype_vulnerability(Campaign(model, dataset, "direct", seed=45), ber=0.0, trials=3)
    assert mul.delta == add.delta == 0.0
    assert mul.subject_id == "MUL" and add.subject_id == "ADD"


def test_optype_vulnerability_rejects_neuron_campaign(model, dataset):
    camp = Campaign(model, dataset, "direct", granularity=Granularity.NEURON_LEVEL, seed=45)
    with pytest.raises(ConfigError, match="op-level"):
        optype_vulnerability(camp, ber=3e-3, trials=2)


def test_tmr_protection_rejects_neuron_campaign(model, dataset):
    # TMR votes op results, which neuron faults never strike
    camp = Campaign(model, dataset, "direct", granularity=Granularity.NEURON_LEVEL, seed=45)
    with pytest.raises(ConfigError, match="op-level"):
        sweep_ber(camp, [1e-2], 2, protected=[(0, 10**6)])


@pytest.mark.parametrize("granularity, scope", [
    ("op", Scope(exclude_layers=frozenset({1}))),  # a relu
    ("op", Scope(include_layers=frozenset({0, 99}))),  # no such layer
    ("op", Scope(exclude_op_ranges=((0, 10**9),))),  # past the op space
    ("neuron", Scope(exclude_optypes=frozenset({OpType.MUL}))),
    ("neuron", Scope(exclude_op_ranges=((0, 5),))),
])
@pytest.mark.parametrize("entry", ["run_point", "corrupted_output", "vulnerability"])
def test_every_entry_point_rejects_a_scope_that_cannot_act(model, dataset, granularity, scope, entry):
    # the same rules as a base scope's, for scopes handed in after construction
    camp = Campaign(model, dataset, "direct", granularity=Granularity(granularity), seed=48)
    run = {
        "run_point": lambda: camp.run_point(1e-2, 2, scope=scope),
        "corrupted_output": lambda: camp.corrupted_output(0, 0, 1e-2, scope),
        "vulnerability": lambda: camp.vulnerability("layer", [(0, scope)], 1e-2, 2),
    }[entry]
    with pytest.raises(ConfigError):
        run()
    with pytest.raises(ConfigError):
        Campaign(model, dataset, "direct", granularity=Granularity(granularity), scope=scope)


@pytest.fixture(scope="module")
def toy_direct():
    from winofi.modelio import builtin_model

    toy = builtin_model("toycnn-int16")
    return Campaign(toy, generate_dataset(toy, 4, seed=1), "direct", seed=0)


def _single_run(entry, camp, trial=0, sample=0, ber=1e-2, layer=0):
    """One run of ``entry``: a single inference, or a TMR inference under a
    plan protecting nothing."""
    if entry == "corrupted_output":
        return camp.corrupted_output(trial, sample, ber, camp.base_scope, capture=(layer,)).output
    total = camp.opspace.total_ops
    plan = TmrPlan(segment_size=total, total_ops=total, order=[0], n=0, achieved_acc=0.0, target_acc=0.0)
    return run_with_tmr(camp, plan, ber, trial=trial, sample=sample)


def _replay(camp, *events):
    """``camp``'s settings in a Campaign that replays ``events``."""
    return {"camp": Campaign(camp.model, camp.dataset, camp.engine, seed=camp.seed, replay=FaultTrace(list(events)))}


INFERENCES = ("corrupted_output", "run_with_tmr")
BAD_RUNS = {  # case -> (arguments of _single_run given its Campaign, the entries that take them)
    "op-past-the-op-space": (lambda camp: _replay(camp, (0, 0, "op", camp.opspace.total_ops + 5, 0, 0)), INFERENCES),
    "bit-past-the-window": (lambda camp: _replay(camp, (0, 0, "op", 5, 60, 0)), INFERENCES),
    "neuron-record": (lambda camp: _replay(camp, (0, 0, "neuron", 5, 0, 0)), INFERENCES),
    "ber-2": (lambda camp: {"ber": 2.0}, INFERENCES),
    "sample-past-the-end": (lambda camp: {"sample": 4}, INFERENCES),
    "negative-sample": (lambda camp: {"sample": -1}, INFERENCES),
    "negative-trial": (lambda camp: {"trial": -1}, INFERENCES),
    "missing-layer": (lambda camp: {"layer": 99}, ("corrupted_output",)),
    "relu-layer": (lambda camp: {"layer": 1}, ("corrupted_output",)),
}


@pytest.mark.parametrize("case, entry", [(case, entry) for case, (_, entries) in BAD_RUNS.items()
                                         for entry in entries])
def test_every_single_run_rejects_input_that_cannot_act(toy_direct, monkeypatch, case, entry):
    # the checks of run_point, before any inference runs
    import winofi.analyze

    args, _ = BAD_RUNS[case]
    assert toy_direct.opspace.op_widths([5])[0] <= 60  # so bit 60 of op 5 lies past its window
    kw = {"camp": toy_direct, **args(toy_direct)}  # a replaying Campaign runs its clean pass here
    monkeypatch.setattr(winofi.analyze, "run_inference", lambda *a, **k: pytest.fail("an inference ran"))
    with pytest.raises(ConfigError):
        _single_run(entry, **kw)


@pytest.mark.parametrize("entry", INFERENCES)
def test_a_single_inference_replays_a_trace_of_later_trials(toy_direct, entry):
    # (trial, sample) keys one inference's flips: other trials' records do not apply
    clean = _single_run(entry, toy_direct, ber=0.0)
    assert _single_run(entry, **_replay(toy_direct, (1, 0, "op", 5, 3, 0), (2, 3, "op", 7, 0, 0))) == clean


def test_campaign_rejects_an_unknown_range_mode(model, dataset):
    with pytest.raises(ConfigError, match="constrained activation mode"):
        Campaign(model, dataset, range_mode="bogus")


def test_protecting_both_optypes_recovers_clean(model, dataset):
    camp = Campaign(model, dataset, "direct", seed=46)
    scope = Scope().excluding_optype(OpType.MUL).excluding_optype(OpType.ADD)
    res = camp.run_point(1e-2, trials=4, scope=scope)
    assert res.mean_accuracy == camp.clean_accuracy


def test_paired_scope_campaigns_share_flips(model, dataset):
    camp = Campaign(model, dataset, "direct", seed=47)
    t_full = FaultTrace()
    t_scoped = FaultTrace()
    camp.run_point(3e-4, trials=3, trace=t_full)
    lid = camp.opspace.conv_layer_ids()[0]
    camp.run_point(3e-4, trials=3, scope=Scope().excluding_layer(lid), trace=t_scoped)
    full = set(t_full.events)
    scoped = set(t_scoped.events)
    assert scoped <= full
    assert (camp.opspace.classify([e[3] for e in full - scoped])[0] == lid).all()


# ---------------------------------------------------------------------------
# Serialization golden surface


def test_campaign_csv_columns(model, dataset):
    res = sweep_ber(Campaign(model, dataset, "direct", seed=48), [0.0, 1e-4], trials=3)
    text = campaign_csv(res, meta={"seed": 48})
    lines = text.strip().split("\n")
    assert lines[0] == "# seed=48"
    assert lines[1] == ",".join(CAMPAIGN_COLUMNS)
    assert lines[1] == "ber,trials,samples,mean_accuracy,ci95_halfwidth,clean_accuracy"
    assert len(lines) == 4


def test_vuln_csv_columns(model, dataset):
    mul, add = optype_vulnerability(Campaign(model, dataset, "direct", seed=49), ber=0.0, trials=2)
    text = vuln_csv([mul, add])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(VULN_COLUMNS)
    assert lines[0] == "subject_kind,subject_id,acc_prot,acc_raw,delta,ci95_halfwidth"
    assert lines[1].startswith("optype,MUL,")


def test_campaign_json_shape(model, dataset):
    res = sweep_ber(Campaign(model, dataset, "direct", seed=50), [0.0], trials=2)
    doc = campaign_json(res, meta={"engine": "direct"})
    assert doc["meta"]["engine"] == "direct"
    assert doc["results"][0]["ber"] == 0.0
    assert doc["results"][0]["per_trial_correct"] == [len(dataset)] * 2


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@pytest.mark.parametrize("use_labels", [False, True], ids=["clean-refs", "labels"])
def test_workers_do_not_change_results(model, dataset, engine, use_labels):
    if use_labels:
        dataset = Dataset(dataset.samples, [(i + 1) % 4 for i in range(len(dataset))])
    kw = dict(seed=51, use_labels=use_labels)
    seq = sweep_ber(Campaign(model, dataset, engine, workers=1, **kw), [2e-4], trials=6)
    par = sweep_ber(Campaign(model, dataset, engine, workers=2, **kw), [2e-4], trials=6)
    assert seq[0].per_trial_correct == par[0].per_trial_correct


@pytest.mark.parametrize("granularity", ["op", "neuron"])
def test_workers_do_not_change_a_replay(model, dataset, granularity, monkeypatch):
    import winofi.analyze

    kw = dict(granularity=Granularity(granularity), seed=53)
    camp = Campaign(model, dataset, "winograd", workers=1, **kw)
    protected = [(0, camp.opspace.total_ops // 3)] if granularity == "op" else []
    trace = FaultTrace()
    saved = camp.run_point(3e-3, 5, trace=trace, protected=protected)
    assert len(trace) > 0
    replaying = [Campaign(model, dataset, "winograd", workers=w, replay=trace, **kw) for w in (1, 2)]
    assert [c.run_point(3e-3, 5, protected=protected) for c in replaying] == [saved, saved]
    # a replaying Campaign keeps its points too: the same point again runs no inference
    real, ran = winofi.analyze.run_inference, []
    monkeypatch.setattr(winofi.analyze, "run_inference", lambda *a, **k: ran.append(a) or real(*a, **k))
    assert [c.run_point(3e-3, 5, protected=protected) for c in replaying] == [saved, saved]
    assert ran == []


def _protected_runs(camp, protected):
    """(per-trial counts, trace events) of a traced TMR point, and the
    logits of one TMR-voted inference, under the ``protected`` ranges."""
    trace = FaultTrace()
    res = camp.run_point(1e-3, 4, trace=trace, protected=protected)
    out = camp.corrupted_output(1, 2, 1e-3, Scope(), protected=protected).output
    return res.per_trial_correct, trace.events, out.array.tobytes()


def test_protected_ranges_are_sorted_and_merged(model, dataset, monkeypatch):
    camp = Campaign(model, dataset, "direct", seed=54)
    q = camp.opspace.total_ops // 8
    sorted_ranges = [(0, 2 * q), (4 * q, 6 * q)]
    expected = _protected_runs(camp, sorted_ranges)
    assert any(copy for *_, copy in expected[1])  # some flips strike the TMR copies
    for given in (sorted_ranges[::-1], [(5 * q, 6 * q), (q, 2 * q), (0, q + 7), (4 * q, 5 * q + 3)]):
        assert _protected_runs(camp, given) == expected
    # the stored point is keyed by the merged ranges: another spelling is a lookup
    camp.run_point(1e-3, 4, protected=sorted_ranges)
    monkeypatch.setattr(camp, "trial_correct", lambda *a, **k: pytest.fail("the point ran again"))
    assert camp.run_point(1e-3, 4, protected=sorted_ranges[::-1]).per_trial_correct == expected[0]


@pytest.mark.parametrize("protected", [[(5, 5)], [(9, 3)], [(-1, 5)], [(0, 1), (10, 10**9)]],
                         ids=["empty", "reversed", "negative", "past-end"])
def test_bad_protected_ranges_raise(model, dataset, protected):
    camp = Campaign(model, dataset, "direct", seed=54)
    assert camp.opspace.total_ops < 10**9
    with pytest.raises(ConfigError, match="op range"):
        camp.run_point(1e-3, 2, protected=protected)
    with pytest.raises(ConfigError, match="op range"):
        camp.corrupted_output(0, 0, 1e-3, Scope(), protected=protected)


# ---------------------------------------------------------------------------
# Pinned trace and logit bytes of scoped, replayed and TMR-protected runs


def _pinned_runs(engine, tmp_path):
    """The unscoped flip count and three toycnn-int16 runs of 2 trials x 3
    samples, each as (applied flips, trace JSONL bytes, logit bytes): a sweep
    point under layer, op-type and op-range exclusions; the unscoped trace
    replayed through a narrower scope; and an eval-tmr point with two
    protected ranges."""
    from winofi.modelio import builtin_model

    model = builtin_model("toycnn-int16")
    dataset = generate_dataset(model, 3, seed=61)
    camp = Campaign(model, dataset, engine, seed=62)
    total = camp.opspace.total_ops
    excluded = Scope(exclude_layers=frozenset({2}), exclude_optypes=frozenset({OpType.ADD}),
                     exclude_op_ranges=((total // 10, total // 5), (total - 900, total)))
    narrow = Scope(include_layers=frozenset({0, 4}), include_optypes=frozenset({OpType.MUL}),
                   exclude_op_ranges=((total // 2, total // 2 + 2000),))
    protected = [(0, total // 4), (total // 2, total // 2 + total // 8)]
    unscoped = FaultTrace()
    for t in range(2):
        for i in range(3):
            camp.corrupted_output(t, i, 1e-4, Scope(), trace=unscoped)

    def run(ber, scope, camp=camp, **kw):
        trace, logits = FaultTrace(), b""
        for t in range(2):
            for i in range(3):
                out = camp.corrupted_output(t, i, ber, scope, trace=trace, **kw).output
                logits += out.array.astype(np.int64).tobytes()
        path = tmp_path / f"{engine}-{len(trace)}.jsonl"
        trace.save_jsonl(str(path))
        return len(trace), path.read_bytes(), logits

    runs = [run(1e-4, excluded), run(1e-4, narrow, camp=Campaign(model, dataset, engine, seed=62, replay=unscoped)),
            run(1e-3, Scope(exclude_layers=frozenset({0})), protected=protected)]
    return len(unscoped), runs


# sha256 of (trace JSONL, logits) per run, computed before the scope and
# protection checks moved out of the per-op hook
PINNED_DIGESTS = {
    "direct": [
        ("2eef1aa7e0b405d7afa792375ac3b7b4ae72f5137fa5a9285999259868f1b29c",
         "d6dda657999aed93775b28646a8554444a3b6e9b0fe1bc74ba43c5d85e5ae2da"),
        ("8b5a0e7a901398a6cf06c87514c16bbbebf082addcff5ba2688b045ad327b46b",
         "4722f903f4116d5bea79e248e8e78f7dade2d599511663f2e3c5a68ad98d6da2"),
        ("f79eecceeac4a7d3dde5b074127c4b80b59dbe8880c9dd963815c9956eaa53f2",
         "28e171d1fe3e7a01fcc208b26926fc6f41b5666e8070509da9cc663de354a756"),
    ],
    "winograd": [
        ("f55ad853b70b980813dc170db8d0ae48d5565ee2446f408fb13b9ad37ce04246",
         "98adf1d177f85a66b8be19e2a1e3501cc3a969286eaa5fee83a106cf24de7dab"),
        ("014dd5fe8f186f19b0d51b36cc75a5f48b8a279c97c02ed8dd0f88ef013afadb",
         "bd9f505a86401e6cd869d4e67d0ce541198cf119975e358e7ae5f011ee676772"),
        ("21214aeef1c0da7bc96ac703542e9b994e3940371678b0fc761d8ac3fb6ff71b",
         "64272f40012421a09ea1db01b7d90988da6674e5e43a0d826a4a0c975aa6be15"),
    ],
}


@pytest.mark.parametrize("engine", ["direct", "winograd"])
def test_scoped_replayed_and_tmr_trace_bytes_are_pinned(engine, tmp_path):
    import hashlib

    n_unscoped, runs = _pinned_runs(engine, tmp_path)
    # every run applies flips, and the two scoped runs drop some
    assert all(n > 0 for n, _, _ in runs)
    assert runs[0][0] < n_unscoped and runs[1][0] < n_unscoped
    got = [(hashlib.sha256(trace).hexdigest(), hashlib.sha256(logits).hexdigest()) for _, trace, logits in runs]
    assert got == PINNED_DIGESTS[engine]


def test_threaded_points_equal_serial_points():
    """Campaign points run from 4 threads at once read as they do run one
    by one: no draw shares state with another."""
    from concurrent.futures import ThreadPoolExecutor

    from winofi.modelio import builtin_model

    model = builtin_model("toycnn-int16")
    dataset = generate_dataset(model, 4, seed=1)
    runs = [(engine, seed) for engine in ("direct", "winograd") for seed in range(3)]
    points = [(run, ber) for run in runs for ber in (1e-4, 1e-3)]

    def per_trial(camps):
        return lambda point: camps[point[0]].run_point(point[1], 3).per_trial_correct

    def campaigns():
        return {run: Campaign(model, dataset, run[0], seed=run[1]) for run in runs}

    serial = list(map(per_trial(campaigns()), points))
    with ThreadPoolExecutor(4) as pool:
        threaded = list(pool.map(per_trial(campaigns()), points, timeout=300))
    assert threaded == serial
