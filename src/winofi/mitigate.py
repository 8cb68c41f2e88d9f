"""Constrained activation functions: profile fault-free activation ranges and
suppress out-of-range (fault-induced) values at inference.

Profiling records exact per-layer min/max at each conv layer's activation
point (after the following relu when one exists, otherwise the conv output
itself), in the integer domain. Applying the constraint to any fault-free run
over the profiling set is therefore a no-op.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError, json_typed, open_input
from .modelio import Dataset, ModelDef
from .qtensor import QTensor
from .runtime import constrain, run_inference

MODES = ("clamp", "zero")


@dataclass
class RangeProfile:
    """Per-conv-layer (min, max) of fault-free activations, integer domain."""

    ranges: dict = field(default_factory=dict)  # layer_id -> (lo, hi)
    point: str = "post_activation"

    def __post_init__(self):
        for lid, (lo, hi) in self.ranges.items():
            if lo > hi:
                raise ConfigError(f"layer {lid}: profile min {lo} > max {hi}")

    def get(self, layer_id: int):
        return self.ranges.get(layer_id)

    def __contains__(self, layer_id: int) -> bool:
        return layer_id in self.ranges

    def merged(self, other: "RangeProfile") -> "RangeProfile":
        out = dict(self.ranges)
        for lid, (lo, hi) in other.ranges.items():
            if lid in out:
                out[lid] = (min(out[lid][0], lo), max(out[lid][1], hi))
            else:
                out[lid] = (lo, hi)
        return RangeProfile(out, point=self.point)

    def to_dict(self) -> dict:
        d = {str(lid): [lo, hi] for lid, (lo, hi) in sorted(self.ranges.items())}
        d["_meta"] = {"point": self.point}
        return d

    def save_json(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @staticmethod
    def from_dict(d: dict) -> "RangeProfile":
        meta = d.get("_meta", {})
        ranges = {
            int(k): tuple(json_typed(b, f"range profile layer {k} bound") for b in v)
            for k, v in d.items() if not k.startswith("_")
        }
        return RangeProfile(ranges, point=meta.get("point", "post_activation"))

    @staticmethod
    def load_json(path: str) -> "RangeProfile":
        with open_input(path, "range profile") as f:
            return RangeProfile.from_dict(json.load(f))


def profile_ranges(model: ModelDef, dataset: Dataset, engine: Optional[str] = None) -> RangeProfile:
    """Exact per-layer min/max over all neurons and all profiling samples
    (fault-free execution)."""
    if len(dataset) == 0:
        raise ConfigError("profiling set is empty")
    conv_ids = tuple(model.conv_layer_ids())
    ranges: dict = {}
    for s in dataset.samples:
        res = run_inference(model, s, engine, capture_act=conv_ids)
        for lid in conv_ids:
            arr = res.activations[lid].array
            lo, hi = int(arr.min()), int(arr.max())
            if lid in ranges:
                ranges[lid] = (min(ranges[lid][0], lo), max(ranges[lid][1], hi))
            else:
                ranges[lid] = (lo, hi)
    return RangeProfile(ranges)


def apply_constrained_activation(
    layer_output: QTensor, profile: RangeProfile, layer_id: int, mode: str = "clamp"
) -> QTensor:
    """CLAMP saturates out-of-range values to the violated bound; ZERO drops
    them to 0. In-range values pass unchanged."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    bounds = profile.get(layer_id)
    if bounds is None:
        raise ConfigError(f"profile has no range for layer {layer_id}")
    return layer_output.with_data(constrain(layer_output.array, bounds[0], bounds[1], mode))
