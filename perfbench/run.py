#!/usr/bin/env python3
"""winofi benchmark: campaign throughput end to end and module by module.

Runs one workload in this process for a fixed time, in rounds. Each round
runs the workload's campaign commands through ``winofi.cli.main`` and a
fault-free pass through ``winofi.runtime.run_inference``, and checks every
result against golden checksums. With ``--trace 1`` rounds alternate between
untraced and traced; traced rounds wrap the public functions of each module
(see ``tracing.py``) and give the per-layer metrics.

    python3 perfbench/run.py --workload toy-campaign --seed 0 --seconds 30 --trace 0

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (commands and checks) and ``metrics``. A human-readable report and
the environment go to stderr; the full record, and the spans of a traced run,
go to ``.perfbench/runs/`` in the checkout. Run from the root of a checkout
holding ``src/winofi``; the program is imported from there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = ROOT / ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPS = 5

# On the 2-vCPU Xeon VM this benchmark was defined on, host speed drifted by
# up to a third over minutes (other tenants on shared cores; no steal time
# was reported), moving every host time of a run alike. reference_slot runs
# after every command and around every set-up; each round's times are
# multiplied by REFERENCE_S / (its mean reference time), i.e. reported at the
# speed of a host on which the slot takes REFERENCE_S (its median on that
# VM). The record keeps the raw times.
REFERENCE_S = 0.014

# Inputs come from seed % POOL, whose golden checksums are stored. The
# held-out seed has its own inputs and checksums and was never used while
# the benchmark was tuned: confirm a claim on it with --seed HELD_OUT_SEED.
POOL = 32
HELD_OUT_SEED = 7919


def input_seed(seed: int) -> int:
    return seed if seed == HELD_OUT_SEED else seed % POOL


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measurement time after set-up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_environment() -> None:
    """Thread variables for this process only: one thread, as the engines
    and campaigns here are single-threaded."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["WINOFI_WORKERS"] = "1"


def import_program():
    """Import winofi from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "winofi" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no winofi sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import winofi

    if Path(winofi.__file__).resolve().parent != (src / "winofi").resolve():
        raise SystemExit(f"benchmark: imported winofi from {winofi.__file__}, not from {src}")
    return winofi


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, seed_in: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": seed_in,
        "held_out_seed": HELD_OUT_SEED,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_cli(argv) -> int:
    import winofi.cli

    try:
        return winofi.cli.main(list(argv))
    except SystemExit as e:  # argparse rejects bad flags with SystemExit
        return e.code if isinstance(e.code, int) else 2


def clean_slot(wl, inp, first: int, failures) -> float:
    """Fault-free inferences of ``clean_per_slot`` samples, from index
    ``first`` on, on both engines; checks that the engines agree. Slots run
    after every command, so they sample the same host conditions as the
    campaign does."""
    import numpy as np
    import winofi.runtime

    from workloads import ENGINES

    samples = inp.dataset.samples
    t0 = time.perf_counter()
    for j in range(wl.clean_per_slot):
        i = (first + j) % len(samples)
        outs = [winofi.runtime.run_inference(inp.model, samples[i], e).output.array for e in ENGINES]
        if not np.array_equal(outs[0], outs[1]):
            failures.append(f"clean outputs of sample {i} differ between engines")
    return time.perf_counter() - t0


_REF_ROWS = [[(r * 31 + c * 17) % 255 - 127 for c in range(128)] for r in range(128)]
_REF_MASKS = {i * 97: 1 << (i % 24) for i in range(2048)}


def reference_slot() -> float:
    """Seconds the host takes for fixed work shaped like the hooked engine
    (list indexing, and a closure call with a dict lookup per multiply and
    add) that shares no code with winofi; see REFERENCE_S."""
    t0 = time.perf_counter()
    get = _REF_MASKS.get

    def hook(op, value):
        m = get(op)
        return value if m is None else value ^ m

    op = acc = 0
    for r in range(1, 3 * 127):
        row, up = _REF_ROWS[r % 127 + 1], _REF_ROWS[r % 127]
        for c in range(1, 127):
            p = hook(op, row[c] * up[c - 1])
            acc = hook(op + 1, acc + p)
            op += 2
    return time.perf_counter() - t0


def run_round(wl, inp, out_dir, golden, tracer=None) -> dict:
    """Run every command of one round, each followed by a clean slot and a
    reference slot. ``golden`` None accepts any checksum."""
    from workloads import GROUPS, digest

    os.makedirs(out_dir, exist_ok=True)
    failures: list = []
    clean_failures: list = []
    digests: dict = {}
    group_s = dict.fromkeys(GROUPS, 0.0)
    ref_slots: list = []
    defined = n_clean = attempted = failed = 0
    clean_s = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for cmd in wl.commands(wl, inp, out_dir):
            attempted += 1
            if tracer is not None:
                tracer.new_command()
            t0 = time.perf_counter()
            code = tracer.call("cli.main", run_cli, cmd.argv) if tracer is not None else run_cli(cmd.argv)
            group_s[cmd.group] += time.perf_counter() - t0
            ok = code == 0
            if not ok:
                failures.append(f"{cmd.argv[0]} exited {code}")
            texts = {}
            for out in cmd.outputs:
                try:
                    texts[out.label] = Path(out.path).read_text()
                except OSError:
                    failures.append(f"{out.label}: no output")
                    ok = False
                    continue
                digests[out.label] = digest(out.kind, texts[out.label])
                want = golden.get(out.label) if golden is not None else digests[out.label]
                if digests[out.label] != want:
                    failures.append(f"{out.label}: checksum {digests[out.label][:16]} != golden {str(want)[:16]}")
                    ok = False
            first = cmd.outputs[0].label
            if cmd.same_bytes_as is not None and first in texts:
                if texts[first] != Path(cmd.same_bytes_as).read_text():
                    failures.append(f"{first}: not byte-identical to {Path(cmd.same_bytes_as).name}")
                    ok = False
            if first in texts:
                defined += cmd.count(texts[first])
            failed += not ok
            args = (wl, inp, n_clean // 2, clean_failures)
            clean_s += tracer.call("bench.clean", clean_slot, *args) if tracer is not None else clean_slot(*args)
            n_clean += 2 * wl.clean_per_slot
            ref_slots.append(reference_slot())
        attempted += 1  # the engine-agreement check of the clean slots
        failed += bool(clean_failures)
        failures += clean_failures
    finally:
        if tracer is not None:
            tracer.uninstall()
    rnd = {
        "traced": tracer is not None,
        "host_campaign_s": sum(group_s.values()),
        "host_group_s": group_s,
        "host_clean_s": clean_s,
        "defined_inferences": defined,
        "clean_inferences": n_clean,
        "reference_slots_s": ref_slots,
        "scale": REFERENCE_S / statistics.mean(ref_slots),
        "digests": digests,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        rnd["host_layer"] = tracer.layer_metrics()
        rnd["count_mismatches"] = tracer.count_mismatches()
    return rnd


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(args, wl, inp, golden, work, spans_out) -> list:
    """Rounds until the next one would end past --seconds (at least one
    round, and one untraced plus one traced round with --trace 1)."""
    from tracing import Tracer

    rounds: list = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        rnd = run_round(wl, inp, os.path.join(work, f"round{len(rounds)}"), golden, tracer)
        rnd["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            spans_out.extend(tracer.span_records(len(rounds)))
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        if len(rounds) >= (2 if args.trace else 1) and elapsed + rnd["wall_s"] > args.seconds:
            return rounds


def check_rounds(rounds) -> list:
    """Every round's checksums equal the first round's; traced rounds repeat
    their exact counters and agree with enumerate_ops."""
    from tracing import EXACT_COUNTERS

    problems = []
    for i, rnd in enumerate(rounds[1:], 1):
        if rnd["digests"] != rounds[0]["digests"]:
            problems.append(f"round {i} checksums differ from round 0")
    traced = [r for r in rounds if r["traced"]]
    for rnd in traced:
        problems.extend(rnd["count_mismatches"])
    for rnd in traced[1:]:
        for name in EXACT_COUNTERS:
            if rnd["host_layer"][name] != traced[0]["host_layer"][name]:
                problems.append(f"{name} is {rnd['host_layer'][name]} in one traced round, "
                                f"{traced[0]['host_layer'][name]} in another")
    return problems


def end_to_end(rounds, setups) -> dict:
    """Medians over the rounds, with times rescaled by each round's reference."""
    def med(fn):
        return median([fn(r) for r in rounds])

    return {
        "faulty_inf_per_s": (med(lambda r: r["defined_inferences"] / (r["host_campaign_s"] * r["scale"])), "1/s"),
        "campaign_s": (med(lambda r: r["host_campaign_s"] * r["scale"]), "s"),
        "sweep_s": (med(lambda r: r["host_group_s"]["sweep"] * r["scale"]), "s"),
        "clean_inf_per_s": (med(lambda r: r["clean_inferences"] / (r["host_clean_s"] * r["scale"])), "1/s"),
        "setup_s": (median([s["host_s"] * s["scale"] for s in setups]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(rounds, setups) -> dict:
    """Traced-round medians (counts are exact), times rescaled like the
    end-to-end ones; per-command times and the overhead from both kinds."""
    from workloads import GROUPS

    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out = {}
    for name, first in traced[0]["host_layer"].items():
        if isinstance(first, int):
            out[name] = first
        elif unit_of(name) in ("s", "ms", "ns"):
            out[name] = median([r["host_layer"][name] * r["scale"] for r in traced])
        else:
            out[name] = median([r["host_layer"][name] for r in traced])
    for name in ("modelio.gen_s", "modelio.save_s", "modelio.load_s"):
        out["setup." + name] = median([s["host_layer"][name] * s["scale"] for s in setups])
    for group in GROUPS:
        out[f"cli.{group}_s"] = median([r["host_group_s"][group] * r["scale"] for r in plain])
    untraced = median([r["host_campaign_s"] * r["scale"] for r in plain])
    out["trace_overhead_frac"] = median([r["host_campaign_s"] * r["scale"] for r in traced]) / untraced - 1.0
    return out


def unit_of(name: str) -> str:
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms_p50") or name.endswith("_ms_tail"):
        return "ms"
    if name.endswith("ns_per_op"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    from tracing import Tracer
    from workloads import GROUPS, WORKLOADS, output_digests, setup

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed_in = input_seed(args.seed)
    golden_doc = json.loads((BENCH_DIR / "golden.json").read_text())
    golden = golden_doc["checksums"].get(wl.name, {}).get(str(seed_in), {})

    env = environment(args, seed_in)
    work = STATE_DIR / f"work-{os.getpid()}"
    spans: list = []
    try:
        setups = []
        for rep in range(SETUP_REPS):
            tracer = Tracer() if args.trace else None
            before = reference_slot()
            if tracer is not None:
                tracer.install()
            try:
                inp, times = setup(wl, seed_in, str(work / f"setup{rep}"))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            rep_info = {"host_s": times["total"], "scale": 2 * REFERENCE_S / (before + reference_slot())}
            if tracer is not None:
                rep_info["host_layer"] = tracer.layer_metrics()
            setups.append(rep_info)
        # before the rounds, so that it also warms up the inference paths
        outputs = output_digests(wl, inp)
        rounds = measure(args, wl, inp, golden, str(work), spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    output_problems = [f"{label}: checksum {d[:16]} != golden {str(golden.get(label))[:16]}"
                       for label, d in outputs.items() if golden.get(label) != d]
    round_problems = check_rounds(rounds)
    # the commands and clean checks of every round, the faulty-output check
    # and the cross-round self-check
    attempted = sum(r["attempted"] for r in rounds) + 2
    failed = sum(r["failed"] for r in rounds) + bool(output_problems) + bool(round_problems)
    failures = [f for r in rounds for f in r["failures"]] + output_problems + round_problems
    correct = not failures

    if args.trace:
        metrics = {k: (v, unit_of(k)) for k, v in per_layer(rounds, setups).items()}
    else:
        metrics = end_to_end(rounds, setups)

    STATE_DIR.joinpath("runs").mkdir(parents=True, exist_ok=True)
    stem = STATE_DIR / "runs" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "seconds": args.seconds,
        "reference_s": REFERENCE_S,
        "setups": setups,
        "rounds": rounds,
        "output_digests": outputs,
        "failures": failures,
        "failed_frac": failed / attempted if attempted else 1.0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if spans:
        with open(stem.with_suffix(".spans.jsonl"), "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")

    report = sys.stderr
    print(f"# winofi benchmark {wl.name}: {wl.why}", file=report)
    print("# environment " + json.dumps(env, sort_keys=True), file=report)
    print(f"# rounds={len(rounds)} traced={sum(r['traced'] for r in rounds)} "
          f"attempted={attempted} failed={failed} failed_frac={record['failed_frac']:.4f}", file=report)
    plain = [r for r in rounds if not r["traced"]]
    print(f"# host speed scale (reference {REFERENCE_S} s / measured): median "
          f"{median([r['scale'] for r in plain]):.4f}; raw host campaign_s median "
          f"{median([r['host_campaign_s'] for r in plain]):.6g} s", file=report)
    for name in GROUPS[1:]:
        vals = [r["host_group_s"][name] * r["scale"] for r in plain]
        if any(vals):
            print(f"{name}_s = {median(vals):.6g} s", file=report)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}", file=report)
    for f in failures:
        print(f"FAILED: {f}", file=report)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
