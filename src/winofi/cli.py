"""Command-line harness for fault-injection campaigns.

Subcommands: sweep, layer-vuln, optype-vuln, plan-tmr, eval-tmr,
profile-ranges, replay, gen-model, gen-dataset. Config files (--config) hold
the subcommand's flags plus ``command`` and nothing else; flags override file
values. Result files embed tool version, seed, config hash, and the effective
config, so any campaign can be re-run or replayed exactly. Logs go to stderr;
results go to files or stdout. Exit codes: 0 ok, 2 config error, 1 runtime
error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import sys

from . import __version__
from .analyze import (
    Campaign,
    campaign_csv,
    campaign_json,
    layer_vulnerability,
    optype_vulnerability,
    sweep_ber,
    vuln_csv,
    vuln_json,
)
from .errors import ConfigError, ShapeError, json_typed, open_input
from .inject import FaultTrace, Scope
from .mitigate import RangeProfile, profile_ranges
from .modelio import (
    builtin_model,
    generate_dataset,
    generate_toy_model,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from .runtime import enumerate_ops
from .tmr import (
    CostModel,
    TmrPlan,
    make_segment_eval,
    measure_segment_vulnerability,
    plan_tmr,
    segment_ops,
)
from .tmr import run_with_tmr  # noqa: F401 - perfbench/tracing.py rebinds cli.run_with_tmr

log = logging.getLogger("winofi")

TRIALS = 100  # Monte-Carlo trials per point without --trials

# Keys that say how a command writes or runs, not what it computes. Every
# other key a command sets determines its results, so it is hashed into
# config_hash and embedded in the result metadata.
_PRESENTATION_KEYS = frozenset({"out", "format", "workers", "save_trace", "lenient", "verbose"})


def _canonical(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(_canonical(cfg).encode()).hexdigest()[:16]


def _subcommand_flags(parser: argparse.ArgumentParser, command: str) -> dict:
    """The flags a config file of ``command`` may set, as {dest: argparse action}."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions if a.dest not in ("help", "config")}


def _file_config(cfg, command: str, flags: dict, source: str) -> dict:
    """``cfg``, read from ``source``, checked as the flags of ``command``
    would parse it. Every key but ``command`` (which result files embed so
    that their config runs again) must be a flag. Each value must be a JSON
    bool for a switch, an integer for an int flag, a number for a float flag,
    a string otherwise, and one of the flag's choices."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{source} must hold a JSON object")
    unknown = sorted(set(cfg) - set(flags) - {"command"})
    if unknown:
        raise ConfigError(f"{source}: {unknown} are not flags of {command}")
    cfg = dict(cfg)
    for key in [k for k in cfg if k != "command"]:
        flag, value = flags[key], cfg[key]
        if flag.nargs == 0:
            ok = isinstance(value, bool)
        elif flag.type is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif flag.type is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            value = float(value) if ok else value
        else:
            ok = isinstance(value, str)
        if not ok or (flag.choices is not None and value not in flag.choices):
            raise ConfigError(f"{source}: {value!r} is not a valid {flag.option_strings[0]} value")
        cfg[key] = value
    return cfg


def _effective_config(args: argparse.Namespace, command: str, flags: dict) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open_input(args.config, "config file") as f:
            cfg = json.load(f)
        cfg = _file_config(cfg, command, flags, f"config file {args.config}")
    for key, val in vars(args).items():
        if key in ("config", "func") or val is None:
            continue
        cfg[key] = val
    cfg["command"] = command
    return cfg


def _given(cfg: dict, *keys, **renamed) -> dict:
    """The keyword arguments ``keys`` (and ``param=key`` for ``renamed``)
    that ``cfg`` sets, so that the callee's own defaults apply to the rest."""
    pairs = [(key, key) for key in keys] + list(renamed.items())
    return {param: cfg[key] for param, key in pairs if key in cfg}


def _meta(cfg: dict) -> dict:
    repro = {k: v for k, v in cfg.items() if k not in _PRESENTATION_KEYS}
    return {
        "tool": "winofi",
        "version": __version__,
        "seed": cfg.get("seed", 0),
        "config_hash": _config_hash(repro),
        "config": _canonical(repro),
    }


def _flag_number(kind, text: str, flag: str, item: str):
    """``kind(text)`` (int or float), or a ConfigError naming ``flag`` and its item ``item``."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{flag} item {item!r}: {text.strip()!r} is not {what}") from None


def _parse_ber_list(cfg: dict) -> list:
    out = []
    for part in str(cfg.get("ber", "0")).split(","):
        part = part.strip()
        if part:
            out.append(_flag_number(float, part, "--ber", part))
    if not out:
        raise ConfigError("empty --ber list")
    return out


def _single_ber(cfg: dict) -> float:
    bers = _parse_ber_list(cfg)
    if len(bers) != 1:
        raise ConfigError(f"{cfg.get('command')} expects a single --ber")
    return bers[0]


def _parse_fault_bits(text: str):
    if ":" in text:
        out = {}
        for item in text.split(","):
            key, colon, val = item.partition(":")
            if not colon:
                raise ConfigError(f"--fault-bits item {item!r} is not TYPE:BITS, as in 'MUL:32,ADD:16'")
            key = key.strip().upper()
            if key in out:
                raise ConfigError(f"--fault-bits sets {key} twice")
            out[key] = _flag_number(int, val, "--fault-bits", item)
        return out
    return _flag_number(int, text, "--fault-bits", text)


def _write_output(cfg: dict, text: str) -> None:
    out = cfg.get("out")
    if out:
        with open(out, "w") as f:
            f.write(text)
        log.info("wrote %s", out)
    else:
        sys.stdout.write(text)


def _load_pair(cfg: dict):
    if "model" not in cfg:
        raise ConfigError("a --model directory is required")
    if "dataset" not in cfg:
        raise ConfigError("a --dataset directory is required")
    model = load_model(cfg["model"], strict=not cfg.get("lenient", False))
    dataset = load_dataset(cfg["dataset"], strict=not cfg.get("lenient", False))
    return model, dataset


def _campaign(cfg: dict, replay=None) -> Campaign:
    """The Campaign of every campaign command, replaying the fault trace
    ``replay`` if given; a flag that is not set (or that the command lacks)
    leaves Campaign's default."""
    model, dataset = _load_pair(cfg)
    if "range_mode" in cfg and "ranges" not in cfg:
        raise ConfigError("--range-mode needs --ranges: without a range profile no activation is constrained")
    kwargs = _given(cfg, "engine", "granularity", "seed", "use_labels", "range_mode", "workers")
    if "scope" in cfg:
        kwargs["scope"] = Scope.parse(cfg["scope"])
    if "fault_bits" in cfg:
        kwargs["fault_bits"] = _parse_fault_bits(cfg["fault_bits"])
    if "ranges" in cfg:
        kwargs["ranges"] = RangeProfile.load_json(cfg["ranges"])
    return Campaign(model, dataset, replay=replay, **kwargs)


def _render(cfg: dict, results, meta: dict, to_csv=campaign_csv, to_json=campaign_json) -> str:
    if cfg.get("format", "csv") == "json":
        return json.dumps(to_json(results, meta), indent=2, sort_keys=True) + "\n"
    return to_csv(results, meta)


# ---------------------------------------------------------------------------
# Commands


def cmd_sweep(cfg: dict, replay=None, plan=None) -> None:
    """Accuracy at each BER; eval-tmr passes its TMR ``plan``, whose
    protected op ranges then run under TMR."""
    bers = _parse_ber_list(cfg)
    trace = FaultTrace() if cfg.get("save_trace") else None
    if trace is not None and len(bers) != 1:
        raise ConfigError(
            "--save-trace needs a single-BER campaign (a trace cannot tell "
            "flips of different BER points apart); run one sweep per point"
        )
    camp = _campaign(cfg, replay)
    protected = camp.tmr_ranges(plan) if plan is not None else ()
    results = sweep_ber(camp, bers, cfg.get("trials", TRIALS), trace=trace, protected=protected)
    _write_output(cfg, _render(cfg, results, _meta(cfg)))
    if trace is not None:
        trace.save_jsonl(cfg["save_trace"])
        log.info("saved fault trace to %s", cfg["save_trace"])


def _cmd_vuln(cfg: dict, analysis) -> None:
    ber = _single_ber(cfg)
    reports = analysis(_campaign(cfg), ber, cfg.get("trials", TRIALS))
    meta = _meta(cfg)
    meta["ber"] = ber
    _write_output(cfg, _render(cfg, reports, meta, vuln_csv, vuln_json))


def cmd_plan_tmr(cfg: dict) -> None:
    if "segment_size" not in cfg:
        raise ConfigError("--segment-size is required")
    if "target_acc" not in cfg:
        raise ConfigError("--target-acc is required")
    if not 0.0 <= cfg["target_acc"] <= 1.0:
        raise ConfigError(f"--target-acc must lie in [0, 1], got {cfg['target_acc']}")
    ber = _single_ber(cfg)
    trials = cfg.get("trials", TRIALS)
    cost = CostModel(**_given(cfg, add_weight="cost_add", mul_weight="cost_mul"))
    camp = _campaign(cfg)
    segments = segment_ops(camp.opspace.total_ops, cfg["segment_size"])
    log.info("measuring vulnerability of %d segments", len(segments))
    reports = measure_segment_vulnerability(camp, ber, segments, trials)
    plan = plan_tmr(
        [r.delta for r in reports],
        segments,
        cfg["target_acc"],
        make_segment_eval(camp, ber, trials),
        opspace=camp.opspace,
        cost=cost,
        direct_opspace=(camp.opspace if camp.engine == "direct"
                        else enumerate_ops(camp.model, "direct", fault_bits=camp.fault_bits)),
        v_ci=[r.ci95_halfwidth for r in reports],
        **_given(cfg, "literal_do_while"),
    )
    doc = plan.to_dict()
    doc["meta"] = _meta(cfg)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _write_output(cfg, text)


def cmd_eval_tmr(cfg: dict, replay=None) -> None:
    if "plan" not in cfg:
        raise ConfigError("--plan file is required")
    cmd_sweep(cfg, replay, TmrPlan.load_json(cfg["plan"]))


def cmd_profile_ranges(cfg: dict) -> None:
    model, dataset = _load_pair(cfg)
    prof = profile_ranges(model, dataset, cfg.get("engine"))
    doc = prof.to_dict()
    doc["_meta"].update(_meta(cfg))
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _write_output(cfg, text)


_REPLAYABLE = {
    "sweep": cmd_sweep,
    "eval-tmr": cmd_eval_tmr,
}


def _extract_embedded_config(path: str) -> tuple[dict, str]:
    with open_input(path, "result file") as f:
        text = f.read()
        if text.lstrip().startswith("{"):
            meta = json_typed(json.loads(text)["meta"], f"result file {path} meta", dict)
            return json.loads(json_typed(meta["config"], f"result file {path} meta.config", str)), "json"
        for line in text.splitlines():
            if line.startswith("# config="):
                return json.loads(line[len("# config=") :]), "csv"
    raise ConfigError(f"result file {path} carries no embedded config")


def cmd_replay(cfg: dict) -> None:
    if "results" not in cfg or "trace" not in cfg:
        raise ConfigError("replay needs --results and --trace")
    embedded, fmt = _extract_embedded_config(cfg["results"])
    command = embedded.get("command", "sweep") if isinstance(embedded, dict) else "sweep"
    if command not in _REPLAYABLE:
        raise ConfigError(f"cannot replay a {command!r} result")
    run_cfg = _file_config(
        embedded, command, _subcommand_flags(_parser(), command), f"result file {cfg['results']}"
    )
    trace = FaultTrace.load_jsonl(cfg["trace"])
    run_cfg["format"] = cfg.get("format") or fmt
    run_cfg["out"] = cfg.get("out")
    run_cfg.pop("save_trace", None)
    _REPLAYABLE[command](run_cfg, replay=trace)


def cmd_gen_model(cfg: dict) -> None:
    if "out" not in cfg:
        raise ConfigError("--out directory is required")
    if cfg.get("name") and cfg["name"] != "custom":
        model = builtin_model(cfg["name"])
    else:
        model = generate_toy_model(
            **_given(cfg, "depth", "channels", "bit_width", "seed", "hw", "in_channels", "classes", "engine")
        )
    save_model(model, cfg["out"])
    log.info("wrote model %s to %s", model.name, cfg["out"])


def cmd_gen_dataset(cfg: dict) -> None:
    if "model" not in cfg or "out" not in cfg:
        raise ConfigError("gen-dataset needs --model and --out")
    model = load_model(cfg["model"])
    from .modelio import Dataset

    ds = generate_dataset(model, cfg.get("count", 8), cfg.get("seed", 0))
    if cfg.get("with_labels"):
        import numpy as np

        classes = int(np.prod(model.execution_plan()[-1][2]))  # the model's output size
        rng = np.random.default_rng(cfg.get("seed", 0) + 1)
        ds = Dataset(ds.samples, labels=rng.integers(0, classes, size=len(ds)).tolist())
    save_dataset(ds, cfg["out"])
    log.info("wrote %d samples to %s", len(ds), cfg["out"])


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p: argparse.ArgumentParser, *, campaign=True):
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--model", help="model directory")
    p.add_argument("--dataset", help="dataset directory")
    p.add_argument("--engine", choices=["direct", "winograd"], help="conv engine (default: model's)")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--lenient", action="store_true", default=None, help="warn instead of failing on unknown manifest fields")
    if campaign:
        p.add_argument("--ber", help="comma-separated bit error rates")
        p.add_argument("--trials", type=int, help=f"Monte-Carlo trials per point (default {TRIALS})")
        p.add_argument("--seed", type=int, help="campaign seed (default 0)")
        p.add_argument("--scope", help="injection scope, e.g. 'exclude_layers=0;exclude_optypes=MUL;exclude_ops=0-36'")
        p.add_argument("--format", choices=["csv", "json"], help="result format (default csv)")
        p.add_argument("--fault-bits", dest="fault_bits", help="exposed result window, e.g. '16' or 'MUL:32,ADD:16'")
        p.add_argument("--use-labels", dest="use_labels", action="store_true", default=None, help="score against dataset labels instead of functional agreement")
        p.add_argument("--workers", type=int, help="trial processes (default 1)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="winofi", description=__doc__)
    ap.add_argument("--version", action="version", version=f"winofi {__version__}")
    ap.add_argument("-v", "--verbose", action="store_true", help="chatty logging on stderr")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="accuracy-vs-BER campaign")
    _add_common(p)
    p.add_argument("--granularity", choices=["op", "neuron"], help="injection granularity (default op)")
    p.add_argument("--save-trace", dest="save_trace", help="write applied flips to a JSONL file")
    p.add_argument("--ranges", help="range profile JSON for constrained activation")
    p.add_argument("--range-mode", dest="range_mode", choices=["clamp", "zero"])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("layer-vuln", help="per-layer vulnerability report")
    _add_common(p)
    p.set_defaults(func=lambda cfg: _cmd_vuln(cfg, layer_vulnerability))

    p = sub.add_parser("optype-vuln", help="MUL vs ADD vulnerability report")
    _add_common(p)
    p.set_defaults(func=lambda cfg: _cmd_vuln(cfg, optype_vulnerability))

    p = sub.add_parser("plan-tmr", help="segment the op stream and plan selective TMR")
    _add_common(p)
    p.add_argument("--segment-size", dest="segment_size", type=int, help="ops per protection segment")
    p.add_argument("--target-acc", dest="target_acc", type=float, help="accuracy the protected model must reach")
    p.add_argument("--literal-do-while", dest="literal_do_while", action="store_true", default=None, help="always protect at least one segment")
    p.add_argument("--cost-mul", dest="cost_mul", type=float, help=f"multiply weight at 8 bit (default {CostModel.mul_weight})")
    p.add_argument("--cost-add", dest="cost_add", type=float, help=f"add weight at 8 bit (default {CostModel.add_weight})")
    p.set_defaults(func=cmd_plan_tmr)

    p = sub.add_parser("eval-tmr", help="Monte-Carlo accuracy of a TMR plan")
    _add_common(p)
    p.add_argument("--plan", help="plan JSON from plan-tmr")
    p.add_argument("--save-trace", dest="save_trace", help="write applied flips to a JSONL file")
    p.set_defaults(func=cmd_eval_tmr)

    p = sub.add_parser("profile-ranges", help="profile fault-free activation ranges")
    _add_common(p, campaign=False)
    p.add_argument("--seed", type=int, help="recorded in metadata")
    p.set_defaults(func=cmd_profile_ranges)

    p = sub.add_parser("replay", help="re-run a campaign from its saved fault trace")
    p.add_argument("--config", help=argparse.SUPPRESS)
    p.add_argument("--results", help="original result file (embeds the campaign config)")
    p.add_argument("--trace", help="fault trace JSONL")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"])
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("gen-model", help="write a builtin or parametric toy model")
    p.add_argument("--config", help=argparse.SUPPRESS)
    p.add_argument("--name", help="builtin name (toycnn-int8, toycnn-int16, microcnn-int16) or 'custom'")
    p.add_argument("--depth", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--bit-width", dest="bit_width", type=int, choices=[8, 16])
    p.add_argument("--hw", type=int)
    p.add_argument("--in-channels", dest="in_channels", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--engine", choices=["direct", "winograd"])
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_model)

    p = sub.add_parser("gen-dataset", help="write a random dataset matching a model's input")
    p.add_argument("--config", help=argparse.SUPPRESS)
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--with-labels", dest="with_labels", action="store_true", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_dataset)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: it holds no per-call state, so it is built once."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = _effective_config(args, args.command, _subcommand_flags(parser, args.command))
        args.func(cfg)
        return 0
    except (ConfigError, ShapeError, ValueError) as e:
        sys.stderr.write(json.dumps({"error": type(e).__name__, "message": str(e)}) + "\n")
        return 2
    except Exception as e:  # noqa: BLE001 - surface runtime failures as exit 1
        sys.stderr.write(json.dumps({"error": type(e).__name__, "message": str(e)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
