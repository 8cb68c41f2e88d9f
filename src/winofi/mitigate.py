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
from .runtime import run_inference

# The activation point a profile's ranges are taken at and applied to.
POINT = "post_activation"


@dataclass
class RangeProfile:
    """Per-conv-layer (min, max) of fault-free activations, integer domain,
    taken at the post-activation point where ``run_inference`` applies them."""

    ranges: dict = field(default_factory=dict)  # layer_id -> (lo, hi)

    def __post_init__(self):
        for lid, (lo, hi) in self.ranges.items():
            if lo > hi:
                raise ConfigError(f"layer {lid}: profile min {lo} > max {hi}")

    def get(self, layer_id: int):
        return self.ranges.get(layer_id)

    def to_dict(self) -> dict:
        d = {str(lid): [lo, hi] for lid, (lo, hi) in sorted(self.ranges.items())}
        d["_meta"] = {"point": POINT}
        return d

    @staticmethod
    def from_dict(d: dict) -> "RangeProfile":
        json_typed(d, "a range profile", dict)
        point = json_typed(d.get("_meta", {}), "range profile _meta", dict).get("point", POINT)
        if point != POINT:
            raise ConfigError(f"range profile point {point!r} is not {POINT!r}, where ranges are applied")
        ranges = {}
        for k, v in d.items():
            if not k.startswith("_"):
                if not (k.isdecimal() and str(int(k)) == k):
                    raise ConfigError(f"range profile key {k!r} is not a layer id in plain decimal form")
                if len(json_typed(v, f"range profile layer {k}", list)) != 2:
                    raise ConfigError(f"range profile layer {k} must be a [min, max] pair, got {v!r}")
                ranges[int(k)] = tuple(json_typed(b, f"range profile layer {k} bound") for b in v)
        return RangeProfile(ranges)

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

