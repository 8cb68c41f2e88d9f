"""Model and dataset definitions with stable on-disk formats.

Models are a directory holding ``manifest.json`` (diff-able metadata) plus
``weights.bin`` (little-endian raw tensor blob, sha256-checksummed). Datasets
are a directory with ``dataset.json``, a raw sample blob, and an optional
``labels.csv``. Saving the result of a load is byte-identical for canonical
files.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import MISSING, dataclass, fields
from typing import Optional

import numpy as np

from .engine import ConvSpec, conv3x3_gemm, max_abs
from .errors import ConfigError, ShapeError, json_typed, open_input
from .qtensor import QTensor, QuantParams, pow2_scale_for, quantize

log = logging.getLogger("winofi")

FORMAT_VERSION = 1
ENGINES = ("direct", "winograd")

_DTYPES = {"int8": "<i1", "int16": "<i2", "int64": "<i8"}


@dataclass
class ConvLayer:
    out_channels: int
    padding: int
    weights: QTensor  # (K, C, 3, 3) at the model bit width
    out_scale: float
    bias: Optional[np.ndarray] = None
    stride: int = 1
    kernel_size: int = 3

    type = "conv3x3"


@dataclass
class ReluLayer:
    type = "relu"


@dataclass
class FlattenLayer:
    type = "flatten"


@dataclass
class LinearLayer:
    out_features: int
    weights: QTensor  # (F, D)
    out_scale: float
    bias: Optional[np.ndarray] = None

    type = "linear"


# A layer's manifest entry is ``type`` plus one key per dataclass field.
_LAYER_CLASSES = {
    cls.type: cls for cls in (ConvLayer, ReluLayer, FlattenLayer, LinearLayer)
}


@dataclass
class ModelDef:
    name: str
    bit_width: int
    input_shape: tuple  # (C, H, W)
    input_scale: float
    layers: list
    engine: str = "direct"

    def __post_init__(self):
        self.input_shape = tuple(int(d) for d in self.input_shape)
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}")

    @property
    def input_qparams(self) -> QuantParams:
        return QuantParams(self.bit_width, self.input_scale)

    def conv_layer_ids(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if isinstance(l, ConvLayer)]

    def validate(self) -> None:
        """Check the shape chain end to end; raises ShapeError/ConfigError."""
        self.execution_plan()

    def execution_plan(self):
        """Per-layer (layer, in_shape, out_shape, ConvSpec|None), input at (C, H, W)."""
        shape = self.input_shape
        plan = []
        for i, layer in enumerate(self.layers):
            in_shape = shape
            spec = None
            if isinstance(layer, ConvLayer):
                if len(shape) != 3:
                    raise ShapeError(f"layer {i}: conv3x3 needs (C, H, W) input, got {shape}")
                c, h, w = shape
                spec = ConvSpec(
                    in_channels=c,
                    out_channels=layer.out_channels,
                    padding=layer.padding,
                    weights=layer.weights,
                    out_qparams=QuantParams(self.bit_width, layer.out_scale),
                    bias=layer.bias,
                    kernel_size=layer.kernel_size,
                    stride=layer.stride,
                )
                oh, ow = spec.out_hw(h, w)
                shape = (layer.out_channels, oh, ow)
            elif isinstance(layer, ReluLayer):
                pass
            elif isinstance(layer, FlattenLayer):
                n = 1
                for d in shape:
                    n *= d
                shape = (n,)
            elif isinstance(layer, LinearLayer):
                if len(shape) != 1:
                    raise ShapeError(f"layer {i}: linear needs flat input, got {shape}")
                if layer.weights.shape != (layer.out_features, shape[0]):
                    raise ShapeError(
                        f"layer {i}: linear weights {layer.weights.shape} != "
                        f"({layer.out_features}, {shape[0]})"
                    )
                # the int64 sum of D products of two b-bit values, plus the bias
                bias = max_abs(layer.bias)
                if shape[0] * 4 ** (self.bit_width - 1) + bias >= 2**63:
                    raise ShapeError(f"layer {i}: linear bias magnitude {bias} can exceed 2^63 in int64")
                shape = (layer.out_features,)
            else:
                raise ConfigError(f"layer {i}: unsupported layer type {type(layer).__name__}")
            plan.append((layer, in_shape, shape, spec))
        return plan


# ---------------------------------------------------------------------------
# On-disk model format


def _canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _check_keys(what: str, d: dict, allowed: set, strict: bool) -> None:
    unknown = set(d) - allowed
    if unknown:
        msg = f"{what}: unknown fields {sorted(unknown)}"
        if strict:
            raise ConfigError(msg)
        log.warning("%s (ignored in lenient mode)", msg)


def _field_keys(f) -> tuple:
    """The manifest keys of layer field ``f``: ``weights`` is stored as the
    tensor name ``weight`` plus ``weight_scale``."""
    return ("weight", "weight_scale") if f.name == "weights" else (f.name,)


def save_model(model: ModelDef, path: str) -> None:
    model.validate()
    os.makedirs(path, exist_ok=True)
    tensors = {}
    arrays = {}
    w_dtype = "int8" if model.bit_width == 8 else "int16"
    layers_json = []
    for i, layer in enumerate(model.layers):
        entry = {"type": layer.type}
        for f in fields(layer):
            value = getattr(layer, f.name)
            if f.name == "weights":
                arrays[f"layer{i}.weight"] = (value.array, w_dtype)
                entry.update(weight=f"layer{i}.weight", weight_scale=value.qparams.scale)
            elif f.name == "bias" and value is not None:
                arrays[f"layer{i}.bias"] = (value, "int64")
                entry["bias"] = f"layer{i}.bias"
            else:
                entry[f.name] = value
        layers_json.append(entry)

    blob = bytearray()
    for name in sorted(arrays):
        arr, dtype = arrays[name]
        raw = np.ascontiguousarray(arr, dtype=_DTYPES[dtype]).tobytes()
        tensors[name] = {"dtype": dtype, "shape": list(np.asarray(arr).shape), "offset": len(blob)}
        blob.extend(raw)
    blob = bytes(blob)

    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "winofi-model",
        "name": model.name,
        "bit_width": model.bit_width,
        "engine": model.engine,
        "input": {
            "channels": model.input_shape[0],
            "height": model.input_shape[1],
            "width": model.input_shape[2],
            "scale": model.input_scale,
        },
        "layers": layers_json,
        "tensors": tensors,
        "blob": {"file": "weights.bin", "sha256": hashlib.sha256(blob).hexdigest()},
    }
    with open(os.path.join(path, "weights.bin"), "wb") as f:
        f.write(blob)
    with open(os.path.join(path, "manifest.json"), "w") as f:
        f.write(_canonical_json(manifest))


_TOP_KEYS = {"format_version", "kind", "name", "bit_width", "engine", "input", "layers", "tensors", "blob"}


def load_model(path: str, strict: bool = True) -> ModelDef:
    with open_input(os.path.join(path, "manifest.json"), "model manifest") as f:
        return _model_from_manifest(path, json.load(f), strict)


def _model_from_manifest(path: str, manifest: dict, strict: bool) -> ModelDef:
    _check_keys("manifest", json_typed(manifest, "model manifest", dict), _TOP_KEYS, strict)
    if "format_version" not in manifest:
        raise ConfigError("model manifest is missing the mandatory format_version field")
    if manifest["format_version"] != FORMAT_VERSION:
        raise ConfigError(f"unsupported model format_version {manifest['format_version']}")

    blob_meta = json_typed(manifest["blob"], "manifest blob", dict)
    blob_path = os.path.join(path, json_typed(blob_meta["file"], "manifest blob file", str))
    with open_input(blob_path, "weights blob", "rb") as f:
        blob = f.read()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != blob_meta["sha256"]:
        raise ConfigError("weights blob checksum mismatch")

    bit_width = json_typed(manifest["bit_width"], "bit_width")
    tensors = json_typed(manifest["tensors"], "manifest tensors", dict)

    def tensor(name: str) -> np.ndarray:
        meta = json_typed(tensors[json_typed(name, "a layer's tensor name", str)], f"tensor {name}", dict)
        dtype = json_typed(meta["dtype"], f"tensor {name} dtype", str)
        if dtype not in _DTYPES:
            raise ConfigError(f"tensor {name} has the unknown dtype {dtype!r}; known: {sorted(_DTYPES)}")
        dt = np.dtype(_DTYPES[dtype])
        shape = tuple(json_typed(d, f"tensor {name} shape entry")
                      for d in json_typed(meta["shape"], f"tensor {name} shape", list))
        n = int(np.prod(shape)) if shape else 1
        off = json_typed(meta["offset"], f"tensor {name} offset")
        return np.frombuffer(blob, dtype=dt, count=n, offset=off).reshape(shape).astype(np.int64)

    layers = []
    for i, lj in enumerate(json_typed(manifest["layers"], "manifest layers", list)):
        layer_type = json_typed(json_typed(lj, f"layer {i}", dict)["type"], f"layer {i} type", str)
        cls = _LAYER_CLASSES.get(layer_type)
        if cls is None:
            raise ConfigError(f"layer {i}: unsupported layer type {layer_type!r}")
        _check_keys(f"layer {i}", lj, {"type"}.union(*map(_field_keys, fields(cls))), strict)
        kwargs = {}
        for f in fields(cls):
            key = _field_keys(f)[0]
            if key not in lj and f.default is not MISSING:
                continue  # a missing required key is a KeyError, which open_input reports
            value = lj[key]
            if f.name == "weights":
                w = tensor(value)
                value = QTensor(w.shape, w, QuantParams(bit_width, lj["weight_scale"]))
            elif f.name == "bias":
                value = tensor(value) if value else None
            elif f.type == "int":
                value = json_typed(value, f"layer {i}: {key}")
            kwargs[f.name] = value
        layers.append(cls(**kwargs))

    inp = json_typed(manifest["input"], "manifest input", dict)
    model = ModelDef(
        name=json_typed(manifest["name"], "manifest name", str),
        bit_width=bit_width,
        input_shape=tuple(json_typed(inp[k], f"input {k}") for k in ("channels", "height", "width")),
        input_scale=inp["scale"],
        layers=layers,
        engine=manifest.get("engine", "direct"),
    )
    model.validate()
    return model


# ---------------------------------------------------------------------------
# Datasets


@dataclass
class Dataset:
    """Evaluation samples, each a (1, C, H, W) QTensor; labels optional."""

    samples: list
    labels: Optional[list] = None

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != len(self.samples):
            raise ConfigError("labels length does not match sample count")

    def __len__(self):
        return len(self.samples)


def save_dataset(ds: Dataset, path: str) -> None:
    if not ds.samples:
        raise ConfigError("refusing to save an empty dataset")
    os.makedirs(path, exist_ok=True)
    qp = ds.samples[0].qparams
    shape = ds.samples[0].shape
    dtype = "int8" if qp.bit_width == 8 else "int16"
    blob = b"".join(
        np.ascontiguousarray(s.array, dtype=_DTYPES[dtype]).tobytes() for s in ds.samples
    )
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "winofi-dataset",
        "count": len(ds.samples),
        "shape": list(shape[1:]),  # (C, H, W)
        "bit_width": qp.bit_width,
        "scale": qp.scale,
        "blob": {"file": "samples.bin", "sha256": hashlib.sha256(blob).hexdigest()},
        "labels": "labels.csv" if ds.labels is not None else None,
    }
    with open(os.path.join(path, "samples.bin"), "wb") as f:
        f.write(blob)
    if ds.labels is not None:
        with open(os.path.join(path, "labels.csv"), "w") as f:
            f.write("index,label\n")
            for i, lab in enumerate(ds.labels):
                f.write(f"{i},{lab}\n")
    with open(os.path.join(path, "dataset.json"), "w") as f:
        f.write(_canonical_json(meta))


def load_dataset(path: str, strict: bool = True) -> Dataset:
    with open_input(os.path.join(path, "dataset.json"), "dataset") as f:
        return _dataset_from_meta(path, json.load(f), strict)


def _dataset_from_meta(path: str, meta: dict, strict: bool) -> Dataset:
    _check_keys(
        "dataset.json",
        json_typed(meta, "dataset.json", dict),
        {"format_version", "kind", "count", "shape", "bit_width", "scale", "blob", "labels"},
        strict,
    )
    if meta.get("format_version") != FORMAT_VERSION:
        raise ConfigError("unsupported or missing dataset format_version")
    blob_meta = json_typed(meta["blob"], "dataset blob", dict)
    blob_path = os.path.join(path, json_typed(blob_meta["file"], "dataset blob file", str))
    with open_input(blob_path, "dataset blob", "rb") as f:
        blob = f.read()
    if hashlib.sha256(blob).hexdigest() != blob_meta["sha256"]:
        raise ConfigError("dataset blob checksum mismatch")
    qp = QuantParams(json_typed(meta["bit_width"], "dataset bit_width"), meta["scale"])
    shape = tuple(json_typed(d, "dataset shape entry") for d in json_typed(meta["shape"], "dataset shape", list))
    count = json_typed(meta["count"], "dataset count")
    n = int(np.prod(shape))
    dtype = np.dtype(_DTYPES["int8" if qp.bit_width == 8 else "int16"])
    flat = np.frombuffer(blob, dtype=dtype).astype(np.int64)
    if flat.size != count * n:
        raise ConfigError("dataset blob size does not match count * shape")
    samples = [
        QTensor((1,) + shape, flat[i * n : (i + 1) * n], qp) for i in range(count)
    ]
    labels = None
    if meta.get("labels") is not None:
        labels = []
        with open_input(os.path.join(path, json_typed(meta["labels"], "dataset labels", str)), "dataset labels") as f:
            next(f)
            for line in f:
                idx, lab = line.strip().split(",")
                if int(idx) != len(labels):
                    raise ConfigError(f"labels.csv index {idx} where {len(labels)} was expected; indices read 0..n-1")
                labels.append(int(lab))
    return Dataset(samples, labels)


def generate_dataset(model: ModelDef, count: int, seed: int) -> Dataset:
    """Random inputs matching the model's input spec (deterministic per seed)."""
    if count < 1:
        raise ConfigError("dataset count must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDA7A)))
    qp = model.input_qparams
    samples = []
    for _ in range(count):
        x = rng.normal(0.0, 1.0, size=model.input_shape)
        samples.append(quantize(x.reshape((1,) + model.input_shape), qp))
    return Dataset(samples)


# ---------------------------------------------------------------------------
# Toy model generation


def generate_toy_model(
    depth: int = 3,
    channels: int = 4,
    bit_width: int = 8,
    seed: int = 0,
    *,
    hw: int = 8,
    in_channels: int = 1,
    classes: int = 4,
    padding: int = 1,
    name: Optional[str] = None,
    engine: str = "direct",
) -> ModelDef:
    """Deterministic random-weight CNN: ``depth`` conv3x3+relu blocks, then
    flatten and a linear classifier head. Scales are power-of-two, calibrated
    on a small random batch so clean activations rarely saturate."""
    for arg, value, least in (("depth", depth, 1), ("channels", channels, 1), ("hw", hw, 4),
                              ("in_channels", in_channels, 1), ("classes", classes, 1)):
        if value < least:
            raise ConfigError(f"toy model needs {arg} >= {least}, got {value}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x70F)))
    cal = rng.normal(0.0, 1.0, size=(4, in_channels, hw, hw))
    input_scale = pow2_scale_for(float(np.abs(cal).max()), bit_width)

    layers = []
    x = cal
    c_in = in_channels
    for d in range(depth):
        w = rng.normal(0.0, 1.0 / math.sqrt(c_in * 9), size=(channels, c_in, 3, 3))
        w_scale = pow2_scale_for(float(np.abs(w).max()), bit_width)
        y = conv3x3_gemm(np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))), w)
        out_scale = pow2_scale_for(float(np.abs(y).max()) * 1.25, bit_width)
        layers.append(
            ConvLayer(
                out_channels=channels,
                padding=padding,
                weights=quantize(w, QuantParams(bit_width, w_scale)),
                out_scale=out_scale,
            )
        )
        layers.append(ReluLayer())
        x = np.maximum(y, 0.0)
        c_in = channels
    feat = x.reshape(x.shape[0], -1)
    wl = rng.normal(0.0, 1.0 / math.sqrt(feat.shape[1]), size=(classes, feat.shape[1]))
    wl_scale = pow2_scale_for(float(np.abs(wl).max()), bit_width)
    logits = feat @ wl.T
    logit_scale = pow2_scale_for(float(np.abs(logits).max()) * 1.25, bit_width)
    layers.append(FlattenLayer())
    layers.append(
        LinearLayer(
            out_features=classes,
            weights=quantize(wl, QuantParams(bit_width, wl_scale)),
            out_scale=logit_scale,
        )
    )
    model = ModelDef(
        name=name or f"toycnn-d{depth}c{channels}-int{bit_width}-s{seed}",
        bit_width=bit_width,
        input_shape=(in_channels, hw, hw),
        input_scale=input_scale,
        layers=layers,
        engine=engine,
    )
    model.validate()
    return model


# Built-in fixtures; layer count is depth*2 (conv+relu) + flatten + linear.
BUILTIN_MODELS = {
    "toycnn-int8": dict(depth=3, channels=4, bit_width=8, seed=1001, hw=8, classes=4),
    "toycnn-int16": dict(depth=3, channels=4, bit_width=16, seed=1002, hw=8, classes=4),
    "microcnn-int16": dict(depth=3, channels=3, bit_width=16, seed=1003, hw=6, classes=4),
}


def builtin_model(name: str) -> ModelDef:
    if name not in BUILTIN_MODELS:
        raise ConfigError(f"unknown builtin model {name!r}; have {sorted(BUILTIN_MODELS)}")
    return generate_toy_model(name=name, **BUILTIN_MODELS[name])
