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
    rmse_layer,
    sweep_ber,
    vuln_csv,
)
from winofi.engine import OpType
from winofi.errors import ConfigError
from winofi.inject import FaultTrace, Granularity, InjectionConfig, Scope
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
from winofi.qtensor import QuantParams, quantize
from winofi.runtime import enumerate_ops, run_inference


@pytest.fixture(scope="module")
def model():
    return generate_toy_model(depth=2, channels=2, bit_width=16, seed=31, hw=6)


@pytest.fixture(scope="module")
def dataset(model):
    return generate_dataset(model, 6, seed=32)


def test_campaign_requires_samples(model):
    with pytest.raises(ConfigError):
        Campaign(model, Dataset([]))


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
    res = sweep_ber(model, dataset, "direct", [0.0], trials=5, seed=1)
    assert len(res) == 1
    r = res[0]
    assert r.mean_accuracy == r.clean_accuracy == 1.0
    assert r.ci95_halfwidth == 0.0
    assert r.per_trial_correct == [len(dataset)] * 5


def test_sweep_accuracy_degrades_with_ber(model, dataset):
    res = sweep_ber(model, dataset, "direct", [0.0, 3e-5, 3e-3], trials=20, seed=2)
    accs = [r.mean_accuracy for r in res]
    assert accs[0] == 1.0
    assert accs[2] < accs[0]
    assert accs[2] <= accs[1] + 0.15  # allow Monte-Carlo noise on the middle point


def test_sweep_is_reproducible(model, dataset):
    a = sweep_ber(model, dataset, "winograd", [1e-4], trials=10, seed=3)
    b = sweep_ber(model, dataset, "winograd", [1e-4], trials=10, seed=3)
    assert a[0].per_trial_correct == b[0].per_trial_correct


def test_neuron_sweep_engine_indistinguishable(model, dataset):
    kw = dict(trials=8, seed=4, granularity=Granularity.NEURON_LEVEL)
    d = sweep_ber(model, dataset, "direct", [1e-3, 1e-2], **kw)
    w = sweep_ber(model, dataset, "winograd", [1e-3, 1e-2], **kw)
    for rd, rw in zip(d, w):
        assert rd.per_trial_correct == rw.per_trial_correct
        assert rd.row()["mean_accuracy"] == rw.row()["mean_accuracy"]


def test_trace_and_replay_round_trip(model, dataset):
    trace = FaultTrace()
    first = sweep_ber(model, dataset, "direct", [2e-4], trials=6, seed=5, trace=trace)
    assert len(trace) > 0
    again = sweep_ber(model, dataset, "direct", [2e-4], trials=6, seed=5, replay=trace)
    assert first[0].per_trial_correct == again[0].per_trial_correct


def test_labeled_accuracy_mode(model, dataset):
    labels = [(i + 1) % 4 for i in range(len(dataset))]
    labeled = Dataset(dataset.samples, labels)
    camp = Campaign(model, labeled, "direct", seed=6, use_labels=True)
    assert camp.clean_accuracy <= 1.0
    res = camp.run_point(0.0, trials=3)
    assert res.mean_accuracy == camp.clean_accuracy


# ---------------------------------------------------------------------------
# RMSE


def test_rmse_zero_at_ber_zero(model, dataset):
    cfg = InjectionConfig(ber=0.0, seed=7)
    lid = model.conv_layer_ids()[0]
    assert rmse_layer(model, dataset.samples[0], lid, cfg, trials=3) == 0.0


def test_rmse_single_sign_flip_formula(model, dataset):
    # one forced sign-bit flip on one neuron of an N-element output:
    # RMSE = |delta| / sqrt(N)
    from winofi.qtensor import flip_array_with_masks

    lid = model.conv_layer_ids()[0]
    x = dataset.samples[0]
    clean = run_inference(model, x, "direct", capture=(lid,)).conv_outputs[lid]
    n = clean.size
    v = int(clean.data[0])
    flipped = v ^ (1 << 15)
    flipped = flipped - (1 << 16) if flipped >= (1 << 15) else flipped
    delta = (flipped - v) * clean.qparams.scale

    faulty = flip_array_with_masks(clean.data, np.array([0]), np.array([1 << 15]), 16)
    rmse = float(np.sqrt(np.mean((faulty * clean.qparams.scale - clean.dequantize().ravel()) ** 2)))
    assert rmse == pytest.approx(abs(delta) / np.sqrt(n))


def test_rmse_positive_under_injection(model, dataset):
    cfg = InjectionConfig(ber=1e-4, seed=8)
    lid = model.conv_layer_ids()[1]
    val = rmse_layer(model, dataset.samples[0], lid, cfg, engine="direct", trials=5)
    assert val > 0.0


def test_rmse_winograd_below_direct_trend(model, dataset):
    # paired op-level campaign at equal BER: fewer, cheaper ops per output in
    # the winograd stream lead to lower layer RMSE
    cfg = InjectionConfig(ber=2e-4, seed=9)
    lid = model.conv_layer_ids()[1]
    x = dataset.samples[0]
    direct = rmse_layer(model, x, lid, cfg, engine="direct", trials=40)
    wino = rmse_layer(model, x, lid, cfg, engine="winograd", trials=40)
    assert wino < direct


def test_rmse_rejects_non_conv_layer(model, dataset):
    cfg = InjectionConfig(ber=0.0)
    with pytest.raises(ConfigError):
        rmse_layer(model, dataset.samples[0], 99, cfg)


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
    reports = layer_vulnerability(model, ds, "direct", ber=2e-4, trials=60, seed=42)
    assert len(reports) == 2
    best = max(reports, key=lambda r: r.delta)
    assert best.subject_id == big
    assert best.delta > 0


def test_layer_vulnerability_ber_zero_all_deltas_zero(model, dataset):
    reports = layer_vulnerability(model, dataset, "direct", ber=0.0, trials=3, seed=43)
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
    mul, add = optype_vulnerability(model, dataset, "direct", ber=0.0, trials=3, seed=45)
    assert mul.delta == add.delta == 0.0
    assert mul.subject_id == "MUL" and add.subject_id == "ADD"


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
    full = t_full.key_set()
    scoped = t_scoped.key_set()
    assert scoped <= full
    assert all(camp.opspace.op_info(e[3])[0] == lid for e in full - scoped)


# ---------------------------------------------------------------------------
# Serialization golden surface


def test_campaign_csv_columns(model, dataset):
    res = sweep_ber(model, dataset, "direct", [0.0, 1e-4], trials=3, seed=48)
    text = campaign_csv(res, meta={"seed": 48})
    lines = text.strip().split("\n")
    assert lines[0] == "# seed=48"
    assert lines[1] == ",".join(CAMPAIGN_COLUMNS)
    assert lines[1] == "ber,trials,samples,mean_accuracy,ci95_halfwidth,clean_accuracy"
    assert len(lines) == 4


def test_vuln_csv_columns(model, dataset):
    mul, add = optype_vulnerability(model, dataset, "direct", ber=0.0, trials=2, seed=49)
    text = vuln_csv([mul, add])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(VULN_COLUMNS)
    assert lines[0] == "subject_kind,subject_id,acc_prot,acc_raw,delta,ci95_halfwidth"
    assert lines[1].startswith("optype,MUL,")


def test_campaign_json_shape(model, dataset):
    res = sweep_ber(model, dataset, "direct", [0.0], trials=2, seed=50)
    doc = campaign_json(res, meta={"engine": "direct"})
    assert doc["meta"]["engine"] == "direct"
    assert doc["results"][0]["ber"] == 0.0
    assert doc["results"][0]["per_trial_correct"] == [len(dataset)] * 2


def test_sweep_with_per_layer_rmse(model, dataset):
    lids = tuple(model.conv_layer_ids())
    res = sweep_ber(model, dataset, "direct", [0.0, 2e-4], trials=5, seed=52,
                    rmse_layers=lids)
    assert res[0].layer_rmse == {lid: 0.0 for lid in lids}
    assert set(res[1].layer_rmse) == set(lids)
    assert all(v > 0 for v in res[1].layer_rmse.values())


@pytest.mark.parametrize("engine", ["direct", "winograd"])
@pytest.mark.parametrize("use_labels", [False, True], ids=["clean-refs", "labels"])
def test_workers_do_not_change_results(model, dataset, engine, use_labels):
    if use_labels:
        dataset = Dataset(dataset.samples, [(i + 1) % 4 for i in range(len(dataset))])
    kw = dict(trials=6, seed=51, use_labels=use_labels)
    seq = sweep_ber(model, dataset, engine, [2e-4], workers=1, **kw)
    par = sweep_ber(model, dataset, engine, [2e-4], workers=2, **kw)
    assert seq[0].per_trial_correct == par[0].per_trial_correct
