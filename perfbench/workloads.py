"""The benchmark's workloads: inputs made from a seed, the campaign commands
of one round, and how each command's output is checked.

Why each workload exists, and which layers it loads, is in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import winofi.modelio
from winofi.analyze import Campaign
from winofi.inject import Granularity
from winofi.mitigate import profile_ranges
from winofi.modelio import Dataset
from winofi.runtime import enumerate_ops

ENGINES = ("direct", "winograd")


@dataclass(frozen=True)
class Output:
    label: str  # key of the golden checksum, unique within a round
    path: str
    kind: str  # "csv" | "json" | "bytes"


@dataclass(frozen=True)
class Command:
    group: str  # per-command time this command adds to, e.g. "sweep"
    argv: tuple
    outputs: tuple
    count: Callable[[str], int]  # defined faulty inferences, from the first output's text
    same_bytes_as: Optional[str] = None  # path whose bytes the first output must equal


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict  # {"builtin": name} or generate_toy_model keyword arguments
    samples: int
    trials: int
    clean_per_slot: int  # samples run fault-free on both engines after each command
    commands: Callable  # (Workload, Inputs, out_dir) -> list[Command]
    probe: dict  # faulty inferences whose outputs are hashed, see output_digests


@dataclass
class Inputs:
    seed: int
    model_dir: str
    dataset_dir: str
    model: object
    dataset: object


def setup(wl: Workload, seed: int, directory: str) -> tuple[Inputs, dict]:
    """Generate the model and dataset, save them and load them back.

    Calls go through ``winofi.modelio`` attributes so a tracer sees them."""
    mio = winofi.modelio
    t0 = perf_counter()
    if "builtin" in wl.model:
        model = mio.builtin_model(wl.model["builtin"])
    else:
        model = mio.generate_toy_model(seed=seed, **wl.model)
    dataset = mio.generate_dataset(model, wl.samples, seed)
    t1 = perf_counter()
    model_dir = os.path.join(directory, "model")
    dataset_dir = os.path.join(directory, "dataset")
    mio.save_model(model, model_dir)
    mio.save_dataset(dataset, dataset_dir)
    t2 = perf_counter()
    model = mio.load_model(model_dir)
    dataset = mio.load_dataset(dataset_dir)
    t3 = perf_counter()
    times = {"gen": t1 - t0, "save": t2 - t1, "load": t3 - t2, "total": t3 - t0}
    return Inputs(seed, model_dir, dataset_dir, model, dataset), times


def digest(kind: str, text: str) -> str:
    """sha256 of a command's result, independent of paths and version.

    CSV comment lines carry the embedded config (with paths) and the tool
    version, and JSON ``meta``/``_meta`` blocks carry the same, so both are
    left out; the result rows and plan fields are hashed."""
    if kind == "csv":
        text = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
    elif kind == "json":
        doc = json.loads(text)
        doc.pop("meta", None)
        doc.pop("_meta", None)
        text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def output_digests(wl: Workload, inp: Inputs) -> dict:
    """sha256 of the logits and every conv layer's output of trial 0's faulty
    inferences on each engine. Result files hold only accuracies, which a
    wrong but top-1-preserving fault path would not change."""
    g, ber, n = wl.probe["granularity"], wl.probe["ber"], wl.probe["samples"]
    conv_ids = tuple(inp.model.conv_layer_ids())
    subset = Dataset(inp.dataset.samples[:n])
    out = {}
    for e in ENGINES:
        ranges = profile_ranges(inp.model, inp.dataset, e) if wl.probe.get("ranges") else None
        camp = Campaign(inp.model, subset, e, granularity=Granularity(g), seed=inp.seed,
                        ranges=ranges, range_mode="clamp", workers=1)
        h = hashlib.sha256()
        for i in range(n):
            res = camp.corrupted_output(0, i, ber, camp.base_scope, capture=conv_ids)
            h.update(res.output.array.tobytes())
            for lid in conv_ids:
                h.update(res.conv_outputs[lid].array.tobytes())
        out[f"outputs.{e}"] = h.hexdigest()
    return out


def _campaign_args(command: str, inp: Inputs, engine: str, trials: int) -> list:
    return [
        command, "--model", inp.model_dir, "--dataset", inp.dataset_dir, "--engine", engine,
        "--seed", str(inp.seed), "--trials", str(trials), "--workers", "1",
    ]


def _fixed(n: int) -> Callable[[str], int]:
    return lambda _text: n


def _toy_campaign(wl: Workload, inp: Inputs, out: str) -> list:
    t, s = wl.trials, wl.samples
    per_point = t * s
    conv_layers = len(inp.model.conv_layer_ids())
    seg_size = 2000
    segments = math.ceil(enumerate_ops(inp.model, "winograd").total_ops / seg_size)
    cmds = []
    for e in ENGINES:
        path = os.path.join(out, f"sweep.{e}.csv")
        argv = _campaign_args("sweep", inp, e, t) + ["--ber", "1e-6,1e-5,1e-4,1e-3", "--out", path]
        cmds.append(Command("sweep", tuple(argv), (Output(f"sweep.{e}", path, "csv"),), _fixed(4 * per_point)))
    for e in ENGINES:
        path = os.path.join(out, f"layer-vuln.{e}.csv")
        argv = _campaign_args("layer-vuln", inp, e, t) + ["--ber", "1e-4", "--out", path]
        cmds.append(Command("layer_vuln", tuple(argv), (Output(f"layer-vuln.{e}", path, "csv"),),
                            _fixed((1 + conv_layers) * per_point)))
    for e in ENGINES:
        path = os.path.join(out, f"optype-vuln.{e}.csv")
        argv = _campaign_args("optype-vuln", inp, e, t) + ["--ber", "1e-4", "--out", path]
        cmds.append(Command("optype_vuln", tuple(argv), (Output(f"optype-vuln.{e}", path, "csv"),),
                            _fixed(3 * per_point)))
    for e in ENGINES:
        csv_path = os.path.join(out, f"trace-sweep.{e}.csv")
        trace_path = os.path.join(out, f"trace.{e}.jsonl")
        argv = _campaign_args("sweep", inp, e, t) + [
            "--ber", "1e-4", "--save-trace", trace_path, "--out", csv_path,
        ]
        outputs = (Output(f"trace-sweep.{e}", csv_path, "csv"), Output(f"trace.{e}", trace_path, "bytes"))
        cmds.append(Command("sweep", tuple(argv), outputs, _fixed(per_point)))
        replay_path = os.path.join(out, f"replay.{e}.csv")
        argv = ["replay", "--results", csv_path, "--trace", trace_path, "--out", replay_path]
        cmds.append(Command("replay", tuple(argv), (Output(f"replay.{e}", replay_path, "csv"),),
                            _fixed(per_point), same_bytes_as=csv_path))
    plan_path = os.path.join(out, "plan.winograd.json")
    # At 1e-5 most segment reruns draw the baseline's flips (the case exact
    # reuse targets), and --literal-do-while protects at least one segment so
    # eval-tmr votes. The planner then stops after two evaluations for every
    # seed tried, which keeps the round's work independent of the seed.
    argv = _campaign_args("plan-tmr", inp, "winograd", t) + [
        "--ber", "1e-5", "--segment-size", str(seg_size), "--target-acc", "0.95", "--literal-do-while",
        "--out", plan_path,
    ]

    def plan_count(text: str) -> int:
        evals = len(json.loads(text)["eval_history"])
        return (1 + segments + evals) * per_point

    cmds.append(Command("plan_tmr", tuple(argv), (Output("plan-tmr.winograd", plan_path, "json"),), plan_count))
    path = os.path.join(out, "eval-tmr.winograd.csv")
    argv = _campaign_args("eval-tmr", inp, "winograd", t) + ["--plan", plan_path, "--ber", "1e-5", "--out", path]
    cmds.append(Command("eval_tmr", tuple(argv), (Output("eval-tmr.winograd", path, "csv"),), _fixed(per_point)))
    return cmds


def _wide_sweep(wl: Workload, inp: Inputs, out: str) -> list:
    cmds = []
    for e in ENGINES:
        path = os.path.join(out, f"sweep.{e}.csv")
        argv = _campaign_args("sweep", inp, e, wl.trials) + ["--ber", "1e-5", "--out", path]
        cmds.append(Command("sweep", tuple(argv), (Output(f"sweep.{e}", path, "csv"),),
                            _fixed(wl.trials * wl.samples)))
    return cmds


def _dense_neuron(wl: Workload, inp: Inputs, out: str) -> list:
    cmds = []
    for e in ENGINES:
        prof = os.path.join(out, f"profile.{e}.json")
        argv = ["profile-ranges", "--model", inp.model_dir, "--dataset", inp.dataset_dir,
                "--engine", e, "--seed", str(inp.seed), "--out", prof]
        cmds.append(Command("profile_ranges", tuple(argv), (Output(f"profile-ranges.{e}", prof, "json"),), _fixed(0)))
        path = os.path.join(out, f"neuron-sweep.{e}.csv")
        argv = _campaign_args("sweep", inp, e, wl.trials) + [
            "--granularity", "neuron", "--ber", "1e-4,1e-3", "--ranges", prof, "--range-mode", "clamp",
            "--out", path,
        ]
        cmds.append(Command("sweep", tuple(argv), (Output(f"neuron-sweep.{e}", path, "csv"),),
                            _fixed(2 * wl.trials * wl.samples)))
    return cmds


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "toy-campaign",
            "many short hooked inferences with 1-1000 flips: hook, flip sampling, scope, reruns, replay and TMR",
            {"builtin": "toycnn-int16"}, samples=8, trials=1, clean_per_slot=24, commands=_toy_campaign,
            probe={"granularity": "op", "ber": 1e-3, "samples": 8},
        ),
        Workload(
            "wide-sweep",
            "few 1.2M-2.4M-op hooked inferences with sparse flips: the hooked conv loop and Philox chunks",
            {"depth": 3, "channels": 16, "hw": 16}, samples=2, trials=1, clean_per_slot=20, commands=_wide_sweep,
            probe={"granularity": "op", "ber": 1e-5, "samples": 1},
        ),
        Workload(
            "dense-neuron",
            "neuron-level sweep with range clamping on a 32x32 model: only the vectorized conv path runs",
            {"depth": 3, "channels": 32, "hw": 32}, samples=16, trials=1, clean_per_slot=4, commands=_dense_neuron,
            probe={"granularity": "neuron", "ber": 1e-3, "samples": 4, "ranges": True},
        ),
    )
}

GROUPS = ("sweep", "layer_vuln", "optype_vuln", "replay", "plan_tmr", "eval_tmr", "profile_ranges")
