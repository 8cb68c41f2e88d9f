import hashlib
import json
import os

import numpy as np
import pytest

from winofi.cli import main
from winofi.engine import OpType
from winofi.errors import ConfigError, ShapeError
from winofi.modelio import (
    BUILTIN_MODELS,
    ConstrainedReluLayer,
    ConvLayer,
    Dataset,
    builtin_model,
    generate_dataset,
    generate_toy_model,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from winofi.runtime import enumerate_ops, run_inference


def _read_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            out[name] = f.read()
    return out


def _write_manifest(d, manifest):
    (d / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _mixed_model():
    """Every layer type, with a conv bias and a linear bias."""
    model = generate_toy_model(depth=2, channels=2, bit_width=16, seed=93, hw=6)
    model.layers[0].bias = np.array([100, -200], dtype=np.int64)
    model.layers[1] = ConstrainedReluLayer(lo=0, hi=500, mode="zero")
    model.layers[-1].bias = np.array([7, -3, 0, 12], dtype=np.int64)
    model.validate()
    return model


# sha256 of (manifest.json, weights.bin), as written by the format's first
# release; a codec change must keep every byte.
PINNED_MODEL_DIGESTS = {
    "toycnn-int8": (
        "7ae9d2abbcf2740013286130cbb21fa5f2b05f49c5ae88846fd1c4a7addb1bf2",
        "74b9e5d10cdafff4dcfd3b74b67c2b5be12cff27c973546fa81f714518c6dd65",
    ),
    "toycnn-int16": (
        "b35f2613f5240412bcfe3e007926d49188b1425b23953e12c317d59bdf40619d",
        "62554ddce36c22b8c04c60f993e8e022c06169899bbc087c6bf3521fa051bced",
    ),
    "microcnn-int16": (
        "0542994ca4c45a3a05985e9eb59c85958e9637c573b8c320d5af9126badb0021",
        "591fa9d917efa5d0cea36d49b85362dbb926f65a59c1693b4bdaf968278f9708",
    ),
    "mixed": (
        "d23f7b53e223bb05a653f9f5e887cacaed60b036a16f118c1c01fdf2fc554936",
        "120d7f310feeff32339c1a8fcebb658c87252171225ef938932a9f3f2abd9cc9",
    ),
}


def _digests(d):
    return tuple(hashlib.sha256((d / f).read_bytes()).hexdigest() for f in ("manifest.json", "weights.bin"))


@pytest.mark.parametrize("name", sorted(PINNED_MODEL_DIGESTS))
def test_saved_model_bytes_are_pinned(tmp_path, name):
    model = _mixed_model() if name == "mixed" else builtin_model(name)
    save_model(model, str(tmp_path / "m"))
    save_model(load_model(str(tmp_path / "m")), str(tmp_path / "m2"))
    assert _digests(tmp_path / "m") == _digests(tmp_path / "m2") == PINNED_MODEL_DIGESTS[name]


@pytest.mark.parametrize(
    "layer_type,foreign",
    [("conv3x3", "out_features"), ("relu", "lo"), ("constrained_relu", "stride"),
     ("flatten", "weight"), ("linear", "stride")],
)
def test_key_of_another_layer_type_rejected_strictly(tmp_path, layer_type, foreign):
    d = tmp_path / "m"
    save_model(_mixed_model(), str(d))
    manifest = json.loads((d / "manifest.json").read_text())
    next(l for l in manifest["layers"] if l["type"] == layer_type)[foreign] = 1
    _write_manifest(d, manifest)
    with pytest.raises(ConfigError, match=foreign):
        load_model(str(d))
    save_model(load_model(str(d), strict=False), str(tmp_path / "m2"))
    assert _digests(tmp_path / "m2") == PINNED_MODEL_DIGESTS["mixed"]


@pytest.mark.parametrize(
    "layer_type,key", [("conv3x3", "out_channels"), ("linear", "weight_scale"), ("constrained_relu", "lo")]
)
def test_missing_layer_key_exits_2(tmp_path, capsys, layer_type, key):
    model = _mixed_model()
    d = tmp_path / "m"
    save_model(model, str(d))
    save_dataset(generate_dataset(model, 2, seed=104), str(tmp_path / "ds"))
    manifest = json.loads((d / "manifest.json").read_text())
    del next(l for l in manifest["layers"] if l["type"] == layer_type)[key]
    _write_manifest(d, manifest)
    code = main(["sweep", "--model", str(d), "--dataset", str(tmp_path / "ds"), "--ber", "0", "--trials", "1"])
    assert code == 2
    assert key in json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]


@pytest.mark.parametrize(
    "key,value", [("padding", 1.9), ("out_channels", "4"), ("bit_width", 8.9), ("height", 8.0), ("offset", 0.0)]
)
def test_non_integer_manifest_field_exits_2(tmp_path, capsys, key, value):
    # A manifest int field takes only a JSON integer: a float or a string
    # is an error, not an integer after truncation or conversion.
    d = tmp_path / "m"
    save_model(builtin_model("toycnn-int8"), str(d))
    save_dataset(generate_dataset(builtin_model("toycnn-int8"), 2, seed=104), str(tmp_path / "ds"))
    manifest = json.loads((d / "manifest.json").read_text())
    convs = [l for l in manifest["layers"] if l["type"] == "conv3x3"]
    {"padding": convs[0], "out_channels": convs[1], "bit_width": manifest, "height": manifest["input"],
     "offset": manifest["tensors"]["layer0.weight"]}[key][key] = value
    _write_manifest(d, manifest)
    code = main(["sweep", "--model", str(d), "--dataset", str(tmp_path / "ds"), "--ber", "0", "--trials", "1"])
    assert code == 2
    assert key in json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]


@pytest.mark.parametrize("value", [True, float("inf"), float("nan")], ids=["true", "Infinity", "NaN"])
def test_bool_or_non_finite_scale_exits_2(tmp_path, capsys, value):
    # json writes inf and nan as Infinity and NaN, which it reads back as
    # floats; a bool would load as the scale 1.0
    model = builtin_model("toycnn-int16")
    d = tmp_path / "m"
    save_model(model, str(d))
    save_dataset(generate_dataset(model, 2, seed=108), str(tmp_path / "ds"))
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["layers"][0]["out_scale"] = value
    _write_manifest(d, manifest)
    code = main(["sweep", "--model", str(d), "--dataset", str(tmp_path / "ds"), "--ber", "1e-3", "--trials", "1"])
    assert code == 2
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rec["error"] == "ValueError"
    assert "scale" in rec["message"]


@pytest.mark.parametrize(
    "key,value", [("bit_width", "8"), ("bit_width", 8.0), ("shape", [1, 8.0, 8]), ("count", 2.0)]
)
def test_non_integer_dataset_field_exits_2(tmp_path, capsys, key, value):
    model = builtin_model("toycnn-int8")
    save_model(model, str(tmp_path / "m"))
    ds = tmp_path / "ds"
    save_dataset(generate_dataset(model, 2, seed=105), str(ds))
    meta = json.loads((ds / "dataset.json").read_text())
    meta[key] = value
    (ds / "dataset.json").write_text(json.dumps(meta))
    code = main(["sweep", "--model", str(tmp_path / "m"), "--dataset", str(ds), "--ber", "0", "--trials", "1"])
    assert code == 2
    assert key in json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]


def test_model_save_load_roundtrip(tmp_path):
    model = generate_toy_model(depth=2, channels=3, bit_width=8, seed=91, hw=6)
    d1 = tmp_path / "m1"
    save_model(model, str(d1))
    loaded = load_model(str(d1))
    d2 = tmp_path / "m2"
    save_model(loaded, str(d2))
    assert _read_bytes(str(d1)) == _read_bytes(str(d2))
    # loaded model behaves identically
    ds = generate_dataset(model, 2, seed=92)
    for s in ds.samples:
        assert run_inference(model, s).output == run_inference(loaded, s).output


def test_model_roundtrip_with_bias_and_constrained(tmp_path):
    model = generate_toy_model(depth=1, channels=2, bit_width=16, seed=93, hw=6)
    bias = np.array([100, -200], dtype=np.int64)
    model.layers[0].bias = bias
    model.layers[1] = ConstrainedReluLayer(lo=0, hi=500, mode="zero")
    model.validate()
    d = tmp_path / "m"
    save_model(model, str(d))
    loaded = load_model(str(d))
    assert np.array_equal(loaded.layers[0].bias, bias)
    assert loaded.layers[1].lo == 0 and loaded.layers[1].hi == 500
    assert loaded.layers[1].mode == "zero"
    d2 = tmp_path / "m2"
    save_model(loaded, str(d2))
    assert _read_bytes(str(d)) == _read_bytes(str(d2))


def test_checksum_mismatch_rejected(tmp_path):
    model = generate_toy_model(depth=1, channels=1, bit_width=8, seed=94, hw=4)
    d = tmp_path / "m"
    save_model(model, str(d))
    blob = (d / "weights.bin").read_bytes()
    (d / "weights.bin").write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
    with pytest.raises(ConfigError):
        load_model(str(d))


def test_stride2_winograd_model_rejected(tmp_path):
    model = generate_toy_model(depth=1, channels=1, bit_width=8, seed=95, hw=6, engine="winograd")
    d = tmp_path / "m"
    save_model(model, str(d))
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["layers"][0]["stride"] = 2
    _write_manifest(d, manifest)
    with pytest.raises(ShapeError):
        load_model(str(d))


def _biased_model_dir(d, layer_id, bias):
    """toycnn-int16 saved to ``d`` with ``bias`` as layer ``layer_id``'s
    bias, written into the files directly because save_model validates."""
    model = builtin_model("toycnn-int16")
    model.layers[layer_id].bias = np.zeros(len(bias), dtype=np.int64)
    save_model(model, str(d))
    manifest = json.loads((d / "manifest.json").read_text())
    offset = manifest["tensors"][f"layer{layer_id}.bias"]["offset"]
    blob = bytearray((d / "weights.bin").read_bytes())
    blob[offset : offset + 8 * len(bias)] = np.array(bias, dtype="<i8").tobytes()
    (d / "weights.bin").write_bytes(bytes(blob))
    manifest["blob"]["sha256"] = hashlib.sha256(blob).hexdigest()
    _write_manifest(d, manifest)
    return model


# Layer 0 of toycnn-int16 is a conv with one 16-bit input channel, so its
# Winograd sums stay below 81 * 4^16 before the int64 pass adds 4 * bias;
# layer 7 is a linear layer over 256 inputs, whose products stay below 4^15.
CONV_BIAS_LIMIT = (2**63 - 81 * 4**16) // 4
LINEAR_BIAS_LIMIT = 2**63 - 256 * 4**15


@pytest.mark.parametrize("layer_id,value", [(0, 2**61 + 5), (0, -(2**63)), (7, 2**63 - 1), (7, LINEAR_BIAS_LIMIT)])
def test_bias_that_can_overflow_int64_exits_2(tmp_path, capsys, layer_id, value):
    model = _biased_model_dir(tmp_path / "m", layer_id, [value, 1, 2, 3])
    save_dataset(generate_dataset(model, 2, seed=106), str(tmp_path / "ds"))
    code = main(["sweep", "--model", str(tmp_path / "m"), "--dataset", str(tmp_path / "ds"), "--engine", "winograd",
                 "--ber", "0", "--trials", "1"])
    assert code == 2
    assert "bias" in json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]


@pytest.mark.parametrize("layer_id,limit", [(0, CONV_BIAS_LIMIT), (7, LINEAR_BIAS_LIMIT)])
def test_bias_just_under_the_int64_bound_runs_exactly(tmp_path, layer_id, limit):
    _biased_model_dir(tmp_path / "m", layer_id, [limit - 1, 1 - limit, 5, -5])
    model = load_model(str(tmp_path / "m"))
    x = generate_dataset(model, 1, seed=107).samples[0]
    outs = [run_inference(model, x, engine, hook, capture=(0,))
            for engine in ("direct", "winograd") for hook in (None, lambda *op: op[-1])]
    assert all(o.output == outs[0].output and o.conv_outputs == outs[0].conv_outputs for o in outs)


def test_unknown_fields_strict_vs_lenient(tmp_path, caplog):
    model = generate_toy_model(depth=1, channels=1, bit_width=8, seed=96, hw=4)
    d = tmp_path / "m"
    save_model(model, str(d))
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["experimental_field"] = True
    _write_manifest(d, manifest)
    with pytest.raises(ConfigError):
        load_model(str(d), strict=True)
    loaded = load_model(str(d), strict=False)
    assert loaded.name == model.name


def test_missing_version_rejected(tmp_path):
    model = generate_toy_model(depth=1, channels=1, bit_width=8, seed=97, hw=4)
    d = tmp_path / "m"
    save_model(model, str(d))
    manifest = json.loads((d / "manifest.json").read_text())
    del manifest["format_version"]
    _write_manifest(d, manifest)
    with pytest.raises(ConfigError):
        load_model(str(d), strict=False)


def test_builtin_toycnn_layer_counts():
    # depth*2 (conv+relu) + flatten + linear
    m8 = builtin_model("toycnn-int8")
    assert len(m8.layers) == BUILTIN_MODELS["toycnn-int8"]["depth"] * 2 + 2 == 8
    assert m8.bit_width == 8
    m16 = builtin_model("toycnn-int16")
    assert m16.bit_width == 16
    with pytest.raises(ConfigError):
        builtin_model("nope")


def test_builtin_models_deterministic():
    a = builtin_model("toycnn-int8")
    b = builtin_model("toycnn-int8")
    for la, lb in zip(a.layers, b.layers):
        if isinstance(la, ConvLayer):
            assert la.weights == lb.weights


def test_generate_toy_model_deterministic():
    a = generate_toy_model(depth=2, channels=2, bit_width=8, seed=5)
    b = generate_toy_model(depth=2, channels=2, bit_width=8, seed=5)
    for la, lb in zip(a.layers, b.layers):
        if isinstance(la, ConvLayer):
            assert la.weights == lb.weights
    c = generate_toy_model(depth=2, channels=2, bit_width=8, seed=6)
    assert any(
        isinstance(lc, ConvLayer) and lc.weights != la.weights
        for la, lc in zip(a.layers, c.layers)
    )


def test_depth1_single_channel_direct_mul_count():
    model = generate_toy_model(depth=1, channels=1, bit_width=8, seed=98, hw=4, padding=0)
    space = enumerate_ops(model, "direct")
    assert space.count(op_type=OpType.MUL) == 36


def test_int16_variant_doubles_neuron_bits():
    m8 = generate_toy_model(depth=1, channels=2, bit_width=8, seed=99, hw=6)
    m16 = generate_toy_model(depth=1, channels=2, bit_width=16, seed=99, hw=6)
    s8 = enumerate_ops(m8, "direct")
    s16 = enumerate_ops(m16, "direct")
    assert s8.total_ops == s16.total_ops
    assert s16.total_neuron_bits == 2 * s8.total_neuron_bits
    assert s16.total_op_bits == 2 * s8.total_op_bits


def test_dataset_roundtrip(tmp_path):
    model = generate_toy_model(depth=1, channels=1, bit_width=16, seed=100, hw=6)
    ds = generate_dataset(model, 4, seed=101)
    labeled = Dataset(ds.samples, labels=[0, 1, 2, 3])
    d = tmp_path / "ds"
    save_dataset(labeled, str(d))
    loaded = load_dataset(str(d))
    assert len(loaded) == 4
    assert loaded.labels == [0, 1, 2, 3]
    for a, b in zip(labeled.samples, loaded.samples):
        assert a == b
    d2 = tmp_path / "ds2"
    save_dataset(loaded, str(d2))
    assert _read_bytes(str(d)) == _read_bytes(str(d2))


def test_dataset_generation_deterministic():
    model = generate_toy_model(depth=1, channels=1, bit_width=8, seed=102, hw=4)
    a = generate_dataset(model, 3, seed=7)
    b = generate_dataset(model, 3, seed=7)
    for s, t in zip(a.samples, b.samples):
        assert s == t


def test_dataset_label_length_checked():
    model = generate_toy_model(depth=1, channels=1, bit_width=8, seed=103, hw=4)
    ds = generate_dataset(model, 3, seed=8)
    with pytest.raises(ConfigError):
        Dataset(ds.samples, labels=[1])
