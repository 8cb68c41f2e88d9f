import numpy as np
import pytest

from winofi.analyze import Campaign
from winofi.errors import ConfigError
from winofi.mitigate import RangeProfile, profile_ranges
from winofi.modelio import Dataset, generate_dataset, generate_toy_model
from winofi.qtensor import QTensor
from winofi.runtime import Program, constrain, run_inference


@pytest.fixture(scope="module")
def model():
    return generate_toy_model(depth=2, channels=2, bit_width=16, seed=81, hw=6)


@pytest.fixture(scope="module")
def dataset(model):
    return generate_dataset(model, 5, seed=82)


def test_profile_requires_samples(model):
    with pytest.raises(ConfigError):
        profile_ranges(model, Dataset([]))


def test_profile_zero_input_zero_bias():
    model = generate_toy_model(depth=2, channels=2, bit_width=8, seed=83, hw=6)
    zeros = Dataset([QTensor((1, 1, 6, 6), np.zeros(36), model.input_qparams)])
    prof = profile_ranges(model, zeros)
    for lid in model.conv_layer_ids():
        assert prof.get(lid) == (0, 0)


def test_profile_single_sample_is_that_sample(model, dataset):
    one = Dataset(dataset.samples[:1])
    prof = profile_ranges(model, one)
    conv_ids = tuple(model.conv_layer_ids())
    res = run_inference(model, dataset.samples[0], capture_act=conv_ids)
    for lid in conv_ids:
        arr = res.activations[lid].array
        assert prof.get(lid) == (int(arr.min()), int(arr.max()))


def test_profile_union_is_monotone_aggregation(model, dataset):
    a = Dataset(dataset.samples[:2])
    b = Dataset(dataset.samples[2:])
    both = profile_ranges(model, dataset)
    ra, rb = profile_ranges(model, a).ranges, profile_ranges(model, b).ranges
    merged = {lid: (min(ra[lid][0], rb[lid][0]), max(ra[lid][1], rb[lid][1])) for lid in ra}
    assert both.ranges == merged


def test_apply_clamp_and_zero_modes():
    arr = np.array([10, 120, -5])
    assert constrain(arr, 0, 40, "clamp").tolist() == [10, 40, 0]
    assert constrain(arr, 0, 40, "zero").tolist() == [10, 0, 0]
    with pytest.raises(ConfigError):
        constrain(arr, 0, 40, "bogus")


def test_apply_in_range_is_identity():
    arr = np.array([0, -10, 50, 20])
    assert constrain(arr, -10, 50, "clamp").tolist() == arr.tolist()


def test_clamp_output_always_within_profile(model, dataset):
    prof = profile_ranges(model, dataset)
    camp = Campaign(model, dataset, "direct", seed=84, ranges=prof)
    lid = model.conv_layer_ids()[0]
    res = camp.corrupted_output(0, 0, 1e-3, camp.base_scope, capture=(lid,))
    # capture is pre-activation; check the next activation instead via a
    # fresh run capturing activation points
    from winofi.inject import draw_op_flips, op_level_hook

    hook, _ = op_level_hook(camp.opspace, draw_op_flips(camp.opspace, 84, 1e-3, trial=0, sample=0), trial=0, sample=0)
    out = run_inference(model, dataset.samples[0], "direct", hook.reference, capture_act=(lid,),
                        program=Program(model, "direct", prof))
    lo, hi = prof.get(lid)
    arr = out.activations[lid].array
    assert arr.min() >= lo and arr.max() <= hi


def test_fault_free_idempotence(model, dataset):
    prof = profile_ranges(model, dataset)
    for mode in ("clamp", "zero"):
        for s in dataset.samples:
            plain = run_inference(model, s, "direct").output
            constrained = run_inference(model, s, "direct", program=Program(model, "direct", prof, mode)).output
            assert constrained == plain


def test_clamp_improves_accuracy_under_faults(model, dataset):
    # paired Monte-Carlo: same seeds with and without constrained activation
    prof = profile_ranges(model, dataset)
    ber, trials = 3e-4, 40
    for engine in ("direct", "winograd"):
        plain = Campaign(model, dataset, engine, seed=86).run_point(ber, trials)
        clamped = Campaign(model, dataset, engine, seed=86, ranges=prof).run_point(ber, trials)
        assert clamped.mean_accuracy >= plain.mean_accuracy
    # test is only meaningful if faults actually hurt the plain run
    assert plain.mean_accuracy < 1.0


def test_profile_json_roundtrip(tmp_path, model, dataset):
    prof = profile_ranges(model, dataset)
    path = tmp_path / "profile.json"
    import json

    path.write_text(json.dumps(prof.to_dict()))
    loaded = RangeProfile.load_json(str(path))
    assert loaded.ranges == prof.ranges

    doc = json.loads(path.read_text())
    for lid, (lo, hi) in prof.ranges.items():
        assert doc[str(lid)] == [lo, hi]
    assert doc["_meta"]["point"] == "post_activation"


def test_profile_rejects_inverted_range():
    with pytest.raises(ConfigError):
        RangeProfile({0: (5, 1)})


def test_profile_rejects_other_point():
    # ranges are applied after the activation only, so a profile taken
    # anywhere else would clamp the wrong values
    doc = RangeProfile({0: (0, 10)}).to_dict()
    doc["_meta"]["point"] = "pre_activation"
    with pytest.raises(ConfigError):
        RangeProfile.from_dict(doc)
