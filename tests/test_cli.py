import hashlib
import json
import os
import shutil

import pytest

from winofi.cli import build_parser, main
from winofi.modelio import generate_dataset, generate_toy_model, save_dataset, save_model


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    root = tmp_path_factory.mktemp("assets")
    model = generate_toy_model(depth=2, channels=2, bit_width=16, seed=111, hw=6)
    mdir = root / "model"
    save_model(model, str(mdir))
    ds = generate_dataset(model, 4, seed=112)
    ddir = root / "data"
    save_dataset(ds, str(ddir))
    return {"model": str(mdir), "dataset": str(ddir), "root": root}


def run_cli(*argv):
    return main(list(argv))


def test_sweep_ber_zero_row_equals_clean(assets, tmp_path):
    out = tmp_path / "res.csv"
    code = run_cli(
        "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
        "--engine", "direct", "--ber", "0", "--trials", "4", "--seed", "1",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    header = [l for l in lines if not l.startswith("#")]
    assert header[0] == "ber,trials,samples,mean_accuracy,ci95_halfwidth,clean_accuracy"
    row = header[1].split(",")
    assert float(row[0]) == 0.0
    assert float(row[3]) == float(row[5])  # mean accuracy == clean accuracy
    assert float(row[4]) == 0.0


def test_sweep_metadata_embedded(assets, tmp_path):
    out = tmp_path / "res.csv"
    run_cli(
        "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "0,1e-4", "--trials", "3", "--seed", "2", "--out", str(out),
    )
    text = out.read_text()
    assert "# config_hash=" in text
    assert "# version=" in text
    assert "# config=" in text
    cfgline = next(l for l in text.splitlines() if l.startswith("# config="))
    cfg = json.loads(cfgline[len("# config=") :])
    assert cfg["command"] == "sweep"
    assert cfg["seed"] == 2


def test_config_file_with_flag_override(assets, tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "model": assets["model"], "dataset": assets["dataset"],
        "ber": "0", "trials": 2, "seed": 3, "format": "json",
    }))
    out = tmp_path / "res.json"
    code = run_cli("sweep", "--config", str(cfgfile), "--trials", "5", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"][0]["trials"] == 5  # flag wins
    embedded = json.loads(doc["meta"]["config"])
    assert embedded["trials"] == 5


def test_exit_code_2_on_config_error(assets, tmp_path, capsys):
    code = run_cli("sweep", "--model", str(tmp_path / "missing"), "--dataset", assets["dataset"])
    assert code == 2
    err = capsys.readouterr().err
    rec = json.loads(err.strip().splitlines()[-1])
    assert rec["error"] == "ConfigError"


def test_replay_reproduces_file_byte_identically(assets, tmp_path):
    out = tmp_path / "orig.csv"
    trace = tmp_path / "trace.jsonl"
    code = run_cli(
        "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "2e-4", "--trials", "5", "--seed", "4",
        "--out", str(out), "--save-trace", str(trace),
    )
    assert code == 0
    replayed = tmp_path / "replay.csv"
    code = run_cli("replay", "--results", str(out), "--trace", str(trace), "--out", str(replayed))
    assert code == 0
    assert replayed.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("edit", [{"trials": 2.5}, {"trials": "2"}, {"bogus": 1}])
def test_replay_checks_embedded_config_like_a_config_file(assets, tmp_path, capsys, edit):
    out = tmp_path / "orig.csv"
    trace = tmp_path / "trace.jsonl"
    code = run_cli(
        "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "2e-4", "--trials", "2", "--seed", "4",
        "--out", str(out), "--save-trace", str(trace),
    )
    assert code == 0
    lines = out.read_text().splitlines(keepends=True)
    i = next(i for i, l in enumerate(lines) if l.startswith("# config="))
    cfg = dict(json.loads(lines[i][len("# config="):]), **edit)
    lines[i] = "# config=" + json.dumps(cfg) + "\n"
    out.write_text("".join(lines))
    replayed = tmp_path / "replay.csv"
    assert run_cli("replay", "--results", str(out), "--trace", str(trace), "--out", str(replayed)) == 2
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rec["error"] == "ConfigError"
    assert str(out) in rec["message"]
    assert not replayed.exists()


def test_replay_json_format(assets, tmp_path):
    out = tmp_path / "orig.json"
    trace = tmp_path / "trace.jsonl"
    run_cli(
        "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "2e-4", "--trials", "4", "--seed", "5", "--format", "json",
        "--out", str(out), "--save-trace", str(trace),
    )
    replayed = tmp_path / "replay.json"
    code = run_cli("replay", "--results", str(out), "--trace", str(trace), "--out", str(replayed))
    assert code == 0
    assert replayed.read_bytes() == out.read_bytes()


def test_save_trace_rejects_multi_ber(assets, tmp_path):
    code = run_cli(
        "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "0,1e-4", "--save-trace", str(tmp_path / "t.jsonl"),
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 2


def test_neuron_sweep_identical_rows_across_engines(assets, tmp_path):
    rows = {}
    for engine in ("direct", "winograd"):
        out = tmp_path / f"{engine}.csv"
        run_cli(
            "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
            "--engine", engine, "--granularity", "neuron",
            "--ber", "1e-3,1e-2", "--trials", "4", "--seed", "6", "--out", str(out),
        )
        rows[engine] = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows["direct"] == rows["winograd"]


def test_layer_and_optype_vuln_commands(assets, tmp_path):
    out = tmp_path / "lv.csv"
    code = run_cli(
        "layer-vuln", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "1e-4", "--trials", "5", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "subject_kind,subject_id,acc_prot,acc_raw,delta,ci95_halfwidth"
    assert len(lines) == 3  # header + 2 conv layers

    out2 = tmp_path / "ov.json"
    code = run_cli(
        "optype-vuln", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "1e-4", "--trials", "5", "--seed", "7", "--format", "json", "--out", str(out2),
    )
    assert code == 0
    doc = json.loads(out2.read_text())
    kinds = [(r["subject_kind"], r["subject_id"]) for r in doc["results"]]
    assert kinds == [("optype", "MUL"), ("optype", "ADD")]


def test_plan_then_eval_tmr(assets, tmp_path):
    plan_path = tmp_path / "plan.json"
    code = run_cli(
        "plan-tmr", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "2e-4", "--trials", "8", "--seed", "8",
        "--segment-size", "2000", "--target-acc", "0.9", "--out", str(plan_path),
    )
    assert code == 0
    plan = json.loads(plan_path.read_text())
    for key in ("segment_size", "order", "n", "P", "achieved_acc", "overhead", "overhead_normalized"):
        assert key in plan
    assert 0.0 <= plan["P"] <= 1.0

    eval_out = tmp_path / "eval.csv"
    code = run_cli(
        "eval-tmr", "--model", assets["model"], "--dataset", assets["dataset"],
        "--plan", str(plan_path), "--ber", "2e-4", "--trials", "8", "--seed", "8",
        "--out", str(eval_out),
    )
    assert code == 0
    lines = [l for l in eval_out.read_text().splitlines() if not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    # TMR-executed accuracy meets the plan target within the trial CI
    assert float(row["mean_accuracy"]) + float(row["ci95_halfwidth"]) >= plan["achieved_acc"] - 2 * plan.get("ci", 0.1)


def test_eval_tmr_replay(assets, tmp_path):
    plan_path = tmp_path / "plan.json"
    run_cli(
        "plan-tmr", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "2e-4", "--trials", "4", "--seed", "9",
        "--segment-size", "3000", "--target-acc", "0.5", "--out", str(plan_path),
    )
    out = tmp_path / "eval.csv"
    trace = tmp_path / "trace.jsonl"
    run_cli(
        "eval-tmr", "--model", assets["model"], "--dataset", assets["dataset"],
        "--plan", str(plan_path), "--ber", "3e-4", "--trials", "4", "--seed", "9",
        "--out", str(out), "--save-trace", str(trace),
    )
    replayed = tmp_path / "replay.csv"
    code = run_cli("replay", "--results", str(out), "--trace", str(trace), "--out", str(replayed))
    assert code == 0
    assert replayed.read_bytes() == out.read_bytes()


def test_profile_ranges_command(assets, tmp_path):
    out = tmp_path / "profile.json"
    code = run_cli(
        "profile-ranges", "--model", assets["model"], "--dataset", assets["dataset"],
        "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    layer_keys = [k for k in doc if not k.startswith("_")]
    assert len(layer_keys) == 2
    for k in layer_keys:
        lo, hi = doc[k]
        assert lo <= hi
    # profile is usable by sweep --ranges
    res = tmp_path / "clamped.csv"
    code = run_cli(
        "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "0", "--trials", "2", "--ranges", str(out), "--out", str(res),
    )
    assert code == 0


def test_gen_model_and_dataset_commands(tmp_path):
    mdir = tmp_path / "m"
    code = run_cli("gen-model", "--name", "toycnn-int8", "--out", str(mdir))
    assert code == 0
    assert (mdir / "manifest.json").exists()
    ddir = tmp_path / "d"
    code = run_cli("gen-dataset", "--model", str(mdir), "--count", "3", "--seed", "1",
                   "--out", str(ddir), "--with-labels")
    assert code == 0
    assert (ddir / "labels.csv").exists()
    out = tmp_path / "r.csv"
    code = run_cli("sweep", "--model", str(mdir), "--dataset", str(ddir),
                   "--ber", "0", "--trials", "2", "--use-labels", "--out", str(out))
    assert code == 0


def test_stdout_output(assets, capsys):
    code = run_cli(
        "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "0", "--trials", "2",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ber,trials,samples" in out


def _sweep_with_trace(assets, tmp_path, granularity):
    out = tmp_path / "orig.csv"
    trace = tmp_path / "trace.jsonl"
    code = run_cli(
        "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
        "--engine", "direct", "--granularity", granularity,
        "--ber", "2e-4", "--trials", "2", "--seed", "4",
        "--out", str(out), "--save-trace", str(trace),
    )
    assert code == 0
    return out, trace


@pytest.mark.parametrize("granularity,record", [
    ("op", {"op_id": 99999999, "bit": 300}),  # op_id outside the op space
    ("op", {"op_id": 1, "bit": 16}),  # op 1 is a 16-bit ADD
    ("op", {"op_id": 0, "bit": 0, "copy": 1}),  # a TMR copy in an unprotected run
    ("neuron", {"neuron": 99999999, "bit": 0}),
    ("neuron", {"neuron": 0, "bit": 16}),  # the model is 16-bit
    ("op", {"op_id": 0}),  # a record without a bit
    ("op", None),  # no trace file at all
    ("op", {"op_id": 0, "bit": 0, "trial": 102}),  # the campaign ran trials 0-1
    ("op", {"op_id": 0, "bit": 0, "sample": 4}),  # and samples 0-3
    ("neuron", {"neuron": 0, "bit": 0, "trial": -1}),
    ("op", {"op_id": 0, "bit": 0, "sample": "0"}),  # a string, not an integer
    ("op", {"op_id": 0, "bit": 0, "copy": "1"}),
    ("op", {"neuron": 0, "bit": 0}),  # a record of the other granularity
    ("neuron", {"op_id": 0, "bit": 0}),
])
def test_replay_rejects_trace_outside_op_space(assets, tmp_path, capsys, granularity, record):
    out, trace = _sweep_with_trace(assets, tmp_path, granularity)
    if record is None:
        trace.unlink()
    else:
        trace.write_text(json.dumps(dict({"trial": 0, "sample": 0}, **record)) + "\n")
    code = run_cli("replay", "--results", str(out), "--trace", str(trace), "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "ConfigError"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("granularity", ["op", "neuron"])
def test_replay_rejects_repeated_trace_record(assets, tmp_path, capsys, granularity):
    # the tool never writes a record twice, so a repeated one is a damaged trace
    out, trace = _sweep_with_trace(assets, tmp_path, granularity)
    lines = trace.read_text().splitlines(keepends=True)
    assert lines
    trace.write_text("".join(lines + lines[:1]))
    code = run_cli("replay", "--results", str(out), "--trace", str(trace), "--out", str(tmp_path / "r.csv"))
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "repeats" in err["message"]
    assert not (tmp_path / "r.csv").exists()


def test_main_builds_the_parser_once(assets, tmp_path, monkeypatch):
    import winofi.cli

    built = []
    monkeypatch.setattr(winofi.cli, "build_parser", lambda: built.append(1) or build_parser())
    winofi.cli._parser.cache_clear()
    try:
        out, trace = _sweep_with_trace(assets, tmp_path, "op")
        assert run_cli("replay", "--results", str(out), "--trace", str(trace), "--out", str(tmp_path / "r.csv")) == 0
        assert run_cli("sweep", "--model", assets["model"], "--dataset", assets["dataset"],
                       "--ber", "0", "--trials", "1", "--out", str(tmp_path / "z.csv")) == 0
    finally:
        winofi.cli._parser.cache_clear()
    assert built == [1]


@pytest.mark.parametrize("scope", [
    "include_optypes=FOO",
    "exclude_optypes=MUL,DIV",
    "include_layers=5",  # the linear layer, which owns no ops
    "exclude_layers=1",  # a relu
    "include_layers=0,9",  # no such layer
])
def test_bad_scope_exits_2(assets, tmp_path, capsys, scope):
    code = run_cli(
        "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "1e-3", "--trials", "1", "--scope", scope, "--out", str(tmp_path / "r.csv"),
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "ConfigError"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("key", ["include_layers", "include_optypes"])
def test_empty_include_set_exits_2(assets, tmp_path, capsys, key):
    # a whitelist of nothing would run every inference fault-free and read
    # the clean accuracy at any BER
    out = tmp_path / "r.csv"
    code = run_cli("sweep", "--model", assets["model"], "--dataset", assets["dataset"],
                   "--ber", "1e-2", "--trials", "2", "--scope", f"{key}=", "--out", str(out))
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and key in err["message"]
    assert not out.exists()


def test_repeated_fault_bits_key_exits_2(assets, tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli("sweep", "--model", assets["model"], "--dataset", assets["dataset"],
                   "--ber", "1e-4", "--trials", "1", "--fault-bits", "MUL:8,ADD:16,mul:4", "--out", str(out))
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "MUL" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--ber", "1.5"), ("--ber", "-0.1"), ("--workers", "0"), ("--workers", "-4")],
                         ids=" ".join)
def test_bad_ber_or_workers_exits_2(assets, tmp_path, capsys, flags):
    code = run_cli(
        "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "1e-3", "--trials", "2", *flags, "--out", str(tmp_path / "r.csv"),
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "ConfigError"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("rows,code", [
    ("0,0\n1,1\n2,2\n3,3\n", 0),
    ("0,0\n1,1\n2,2\n3,9\n", 2),  # the model has 4 classes
    ("0,0\n1,-1\n2,2\n3,3\n", 2),
    ("1,1\n0,0\n2,2\n3,3\n", 2),  # the index column must read 0..n-1 in order
], ids=["in-range", "label-9", "label-minus-1", "index-out-of-order"])
def test_labels_must_be_scorable(assets, tmp_path, capsys, rows, code):
    from winofi.modelio import Dataset, load_dataset

    ddir = tmp_path / "labeled"
    save_dataset(Dataset(load_dataset(assets["dataset"]).samples, labels=[0, 1, 2, 3]), str(ddir))
    (ddir / "labels.csv").write_text("index,label\n" + rows)
    out = tmp_path / "r.csv"
    assert run_cli("sweep", "--model", assets["model"], "--dataset", str(ddir),
                   "--ber", "0", "--trials", "1", "--use-labels", "--out", str(out)) == code
    if code:
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "ConfigError"
    assert out.exists() == (code == 0)


def test_neuron_replay_honours_scope(assets, tmp_path):
    # The campaign excludes layer 0, so replayed flips on its neurons must not land.
    out = tmp_path / "orig.csv"
    code = run_cli(
        "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
        "--granularity", "neuron", "--scope", "exclude_layers=0",
        "--ber", "1e-3", "--trials", "1", "--seed", "4", "--out", str(out),
    )
    assert code == 0
    trace = tmp_path / "layer0.jsonl"
    trace.write_text("".join(
        json.dumps({"trial": 0, "sample": s, "neuron": i, "bit": 15}) + "\n"
        for s in range(4) for i in range(16)
    ))
    replayed = tmp_path / "replay.csv"
    code = run_cli("replay", "--results", str(out), "--trace", str(trace), "--out", str(replayed))
    assert code == 0
    header, row = _rows(replayed)
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["mean_accuracy"] == cols["clean_accuracy"]


@pytest.mark.parametrize("bits,expected", [("100", 2), ("MUL:65,ADD:16", 2), ("64", 0), ("MUL:32,ADDD:16", 2)])
def test_fault_window_at_most_64_bits(assets, tmp_path, bits, expected):
    code = run_cli(
        "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "1e-4", "--trials", "1", "--fault-bits", bits, "--out", str(tmp_path / "r.csv"),
    )
    assert code == expected


@pytest.mark.parametrize("seed,expected", [("-1", 2), ("18446744073709551617", 2), ("9223372036854775807", 0)])
def test_campaign_seed_must_lie_in_63_bits(assets, tmp_path, seed, expected):
    # the flip streams are keyed by a 63-bit seed, so any wider seed would
    # silently alias a seed inside the range
    code = run_cli(
        "sweep", "--model", assets["model"], "--dataset", assets["dataset"],
        "--ber", "1e-3", "--trials", "1", "--seed", seed, "--out", str(tmp_path / "r.csv"),
    )
    assert code == expected


@pytest.mark.parametrize("flags", [
    ("--granularity", "neuron", "--fault-bits", "4"),
    ("--granularity", "neuron", "--fault-bits", "MUL:3,ADD:2"),
    ("--granularity", "neuron", "--scope", "exclude_optypes=MUL"),
    ("--granularity", "neuron", "--scope", "include_optypes=ADD"),
    ("--granularity", "neuron", "--scope", "exclude_ops=0-999999"),
    ("--scope", "exclude_ops=99999999-100000000"),
])
def test_campaign_settings_that_cannot_act_exit_2(assets, tmp_path, capsys, flags):
    out = tmp_path / "r.csv"
    code = run_cli("sweep", "--model", assets["model"], "--dataset", assets["dataset"],
                   "--ber", "1e-3", "--trials", "1", *flags, "--out", str(out))
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "ConfigError"
    assert not out.exists()


def test_scope_op_range_must_fit_the_engines_op_space(assets, tmp_path):
    # the direct engine's op space is larger than Winograd's: a range past
    # the Winograd ops runs on direct and is rejected on Winograd
    from winofi.modelio import load_model
    from winofi.runtime import enumerate_ops

    model = load_model(assets["model"])
    wino, direct = (enumerate_ops(model, e).total_ops for e in ("winograd", "direct"))
    assert wino < direct
    for engine, expected in (("direct", 0), ("winograd", 2)):
        code = run_cli("sweep", "--model", assets["model"], "--dataset", assets["dataset"], "--engine", engine,
                       "--ber", "1e-3", "--trials", "1", "--scope", f"exclude_ops={wino}-{direct}",
                       "--out", str(tmp_path / f"{engine}.csv"))
        assert code == expected


def _write_plan(assets, path, engine, n, n_segments):
    from winofi.modelio import load_model
    from winofi.runtime import enumerate_ops
    from winofi.tmr import TmrPlan

    total = enumerate_ops(load_model(assets["model"]), engine).total_ops
    plan = TmrPlan(segment_size=-(-total // n_segments), total_ops=total,
                   order=list(range(n_segments))[::-1], n=n, achieved_acc=0.0, target_acc=0.0)
    path.write_text(json.dumps(plan.to_dict()))


def _rows(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def test_eval_tmr_without_protection_equals_sweep(assets, tmp_path):
    plan = tmp_path / "plan.json"
    _write_plan(assets, plan, "winograd", n=0, n_segments=1)
    common = ("--model", assets["model"], "--dataset", assets["dataset"], "--engine", "winograd",
              "--ber", "1e-4", "--trials", "6", "--seed", "5")
    assert run_cli("sweep", *common, "--out", str(tmp_path / "sweep.csv")) == 0
    assert run_cli("eval-tmr", *common, "--plan", str(plan), "--out", str(tmp_path / "eval.csv")) == 0
    assert _rows(tmp_path / "eval.csv") == _rows(tmp_path / "sweep.csv")


def test_eval_tmr_replay_rejects_copies_on_unprotected_ops(assets, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    _write_plan(assets, plan, "direct", n=1, n_segments=2)  # protects the upper half of the op stream
    common = ("--model", assets["model"], "--dataset", assets["dataset"], "--engine", "direct",
              "--ber", "1e-4", "--trials", "1")
    out = tmp_path / "eval.csv"
    assert run_cli("eval-tmr", *common, "--plan", str(plan), "--out", str(out)) == 0
    trace = tmp_path / "trace.jsonl"
    last_op = json.loads(plan.read_text())["total_ops"] - 1
    for op_id, code in ((last_op, 0), (0, 2)):
        trace.write_text(json.dumps({"trial": 0, "sample": 0, "op_id": op_id, "bit": 0, "copy": 1}) + "\n")
        replayed = tmp_path / f"replay{op_id}.csv"
        assert run_cli("replay", "--results", str(out), "--trace", str(trace), "--out", str(replayed)) == code
        assert replayed.exists() == (code == 0)
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "ConfigError"


@pytest.mark.parametrize("fields", [
    {"order": [9, 0, 1, 2]},  # no segment 9
    {"order": [1, 1, 0, 2]},  # segment 1 twice, so its op range is protected twice
    {"n": 5},  # more segments than the plan has
    # a number that is no JSON integer (or bool) is an error, not truncated
    {"n": 1.9},
    {"order": ["3", "2", "1", "0"]},
    {"segment_size": 864.7},  # the plan's own 864 segment size, as a float
    {"target_unreachable": "no"},
    {"order": 5},
    {"eval_history": [1]},
    [2, 4],  # a list, not a plan object
    # accuracies are JSON numbers: a list or a bool is no accuracy
    {"target_acc": [1]},
    {"achieved_acc": True},
])
def test_eval_tmr_rejects_malformed_plan(assets, tmp_path, capsys, fields):
    plan = tmp_path / "plan.json"
    _write_plan(assets, plan, "winograd", n=2, n_segments=4)
    plan.write_text(json.dumps(fields if isinstance(fields, list) else dict(json.loads(plan.read_text()), **fields)))
    code = run_cli("eval-tmr", "--model", assets["model"], "--dataset", assets["dataset"], "--engine", "winograd",
                   "--plan", str(plan), "--ber", "1e-4", "--trials", "1", "--out", str(tmp_path / "eval.csv"))
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "ConfigError"


def test_eval_tmr_workers_do_not_change_bytes(assets, tmp_path):
    plan = tmp_path / "plan.json"
    _write_plan(assets, plan, "direct", n=2, n_segments=3)
    for workers in ("1", "2"):
        code = run_cli(
            "eval-tmr", "--model", assets["model"], "--dataset", assets["dataset"], "--engine", "direct",
            "--plan", str(plan), "--ber", "1e-3,3e-3", "--trials", "4", "--seed", "10",
            "--workers", workers, "--out", str(tmp_path / f"eval{workers}.csv"),
        )
        assert code == 0
    assert (tmp_path / "eval2.csv").read_bytes() == (tmp_path / "eval1.csv").read_bytes()


@pytest.mark.parametrize("case", ["float-bound", "string-bound", "linear-layer", "meta-list", "scalar-bound",
                                  "one-bound", "list-document", "zero-padded-key", "signed-key"])
def test_malformed_range_profile_exits_2(assets, tmp_path, capsys, case):
    prof = tmp_path / "profile.json"
    common = ("--model", assets["model"], "--dataset", assets["dataset"])
    assert run_cli("profile-ranges", *common, "--out", str(prof)) == 0
    doc = json.loads(prof.read_text())
    lo, hi = doc["0"]
    # layer 5 is the model's linear layer, which no profile range applies to;
    # a layer key other than the id's plain decimal form would alias layer 0
    doc.update({"float-bound": {"0": [lo, hi + 0.9]}, "string-bound": {"0": [lo, str(hi)]},
                "linear-layer": {"5": [lo, hi]}, "meta-list": {"_meta": []}, "scalar-bound": {"0": 5},
                "one-bound": {"0": [lo]}, "list-document": {}, "zero-padded-key": {"00": [lo, lo]},
                "signed-key": {"+0": [lo, lo]}}[case])
    prof.write_text(json.dumps([1, 2] if case == "list-document" else doc))
    code = run_cli("sweep", *common, "--ber", "1e-4", "--trials", "1", "--ranges", str(prof),
                   "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "ConfigError"
    assert not (tmp_path / "r.csv").exists()


def _campaign_config(assets, tmp_path, command):
    """A config file's worth of flags that runs ``command`` on the test assets."""
    cfg = {"model": assets["model"], "dataset": assets["dataset"], "engine": "direct",
           "ber": "3e-4", "trials": 1}
    if command == "plan-tmr":
        cfg.update(segment_size=100000, target_acc=0.0)
    if command == "eval-tmr":
        _write_plan(assets, tmp_path / "plan.json", "direct", n=1, n_segments=2)
        cfg["plan"] = str(tmp_path / "plan.json")
    return cfg


@pytest.mark.parametrize("command,extra", [
    ("sweep", {"trails": 5, "bers": "1e-3"}),
    ("layer-vuln", {"granularity": "neuron", "ranges": "prof.json", "range_mode": "zero"}),
    ("optype-vuln", {"granularity": "neuron"}),
    ("plan-tmr", {"granularity": "neuron"}),
    ("eval-tmr", {"granularity": "neuron"}),
])
def test_config_keys_must_be_flags_of_the_subcommand(assets, tmp_path, capsys, command, extra):
    cfg = _campaign_config(assets, tmp_path, command)
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(cfg))
    assert run_cli(command, "--config", str(cfgfile), "--out", str(tmp_path / "ok")) == 0
    cfgfile.write_text(json.dumps(dict(cfg, **extra)))
    assert run_cli(command, "--config", str(cfgfile), "--out", str(tmp_path / "r")) == 2
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rec["error"] == "ConfigError"
    assert all(repr(key) in rec["message"] for key in extra)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("key,value", [("workers", "2"), ("trials", 2.5), ("use_labels", "no")])
def test_config_values_must_parse_as_their_flag(assets, tmp_path, capsys, key, value):
    cfg = _campaign_config(assets, tmp_path, "sweep")
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(cfg))
    assert run_cli("sweep", "--config", str(cfgfile), "--out", str(tmp_path / "ok")) == 0
    cfgfile.write_text(json.dumps(dict(cfg, **{key: value})))
    assert run_cli("sweep", "--config", str(cfgfile), "--out", str(tmp_path / "r")) == 2
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rec["error"] == "ConfigError"
    assert repr(value) in rec["message"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command,flags", [
    ("sweep", ("--fault-bits", "12")),
    ("layer-vuln", ("--scope", "exclude_optypes=ADD")),
    ("sweep", ("--granularity", "neuron", "--scope", "exclude_layers=0")),
])
def test_embedded_config_runs_again_as_config_file(assets, tmp_path, command, flags):
    first = tmp_path / "first.csv"
    code = run_cli(command, "--model", assets["model"], "--dataset", assets["dataset"],
                   "--ber", "3e-4", "--trials", "3", "--seed", "12", *flags, "--out", str(first))
    assert code == 0
    embedded = next(l for l in first.read_text().splitlines() if l.startswith("# config="))
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(embedded[len("# config="):])
    assert run_cli(command, "--config", str(cfgfile), "--out", str(tmp_path / "again.csv")) == 0
    assert (tmp_path / "again.csv").read_bytes() == first.read_bytes()


@pytest.mark.parametrize("case", [
    "no-weights", "manifest-without-blob", "conv-without-weight", "no-samples",
    "no-ranges", "no-plan", "plan-without-total_ops",
])
def test_missing_or_malformed_input_file_exits_2(assets, tmp_path, capsys, case):
    model, data = tmp_path / "model", tmp_path / "data"
    shutil.copytree(assets["model"], model)
    shutil.copytree(assets["dataset"], data)
    manifest = json.loads((model / "manifest.json").read_text())
    argv = ["sweep", "--model", str(model), "--dataset", str(data), "--ber", "1e-4", "--trials", "1"]
    if case == "no-weights":
        broken = model / "weights.bin"
        broken.unlink()
    elif case == "manifest-without-blob":
        del manifest["blob"]
        broken = model / "manifest.json"
        broken.write_text(json.dumps(manifest))
    elif case == "conv-without-weight":
        del manifest["layers"][0]["weight"]
        broken = model / "manifest.json"
        broken.write_text(json.dumps(manifest))
    elif case == "no-samples":
        broken = data / "samples.bin"
        broken.unlink()
    elif case == "no-ranges":
        broken = tmp_path / "missing-ranges.json"
        argv += ["--ranges", str(broken)]
    else:
        broken = tmp_path / "plan.json"
        if case == "plan-without-total_ops":
            _write_plan(assets, broken, "direct", n=1, n_segments=2)
            plan = json.loads(broken.read_text())
            del plan["total_ops"]
            broken.write_text(json.dumps(plan))
        argv = ["eval-tmr", *argv[1:], "--plan", str(broken)]
    assert run_cli(*argv, "--out", str(tmp_path / "r.csv")) == 2
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rec["error"] == "ConfigError"
    assert str(broken) in rec["message"]
    assert not (tmp_path / "r.csv").exists()


def _embedded_config(path) -> str:
    """The config lines a result file embeds: ``# config=`` and
    ``# config_hash=`` of a CSV, the config and hash of a JSON ``meta`` or
    ``_meta`` block."""
    text = path.read_text()
    if text.startswith("{"):
        doc = json.loads(text)
        meta = doc["meta"] if "meta" in doc else doc["_meta"]
        return meta["config"] + "\n" + meta["config_hash"]
    return "\n".join(l for l in text.splitlines() if l.startswith(("# config=", "# config_hash=")))


# sha256 of each output's embedded config lines. Every key a command sets is
# part of the config except out, format, workers, save_trace, lenient and
# verbose, so the flags these runs pass for those keys change no digest.
PINNED_CONFIG_DIGESTS = {
    "p.json": "3e92e37c1913041acba2480fdd626d668edb39690b94dccba4bf5bf8067b78cf",
    "sweep.csv": "34b8e49b093bc26240bb858680231dc5a25deb22d0c7abb3643e9e766187dce1",
    "neuron.json": "66ec72fe719a2041e43e931fdaac0faffb38f4f1a5ad95fa07d26dc9fc84ce98",
    "layers.json": "15498f0d08863efa48e02334b1b5cb8536e18353eb5aacda643340d2278b126a",
    "optypes.csv": "bfd4bfb07463a219666a21c000a5969b28012af0639deecd6a1a6446c2c8d511",
    "plan.json": "e2dfacb286e886067762f58ec604153136809888a72fe12453bf74ae466058d4",
    "tmr.csv": "0fe9d723c54d03a47bbdccec4b250c849944e03df8b04c6717b1ce06263e6c6c",
}


def test_embedded_configs_are_pinned(assets, tmp_path, monkeypatch):
    shutil.copytree(assets["model"], tmp_path / "m")
    shutil.copytree(assets["dataset"], tmp_path / "d")
    monkeypatch.chdir(tmp_path)  # relative paths, so the embedded ones are stable
    (tmp_path / "c.json").write_text(json.dumps({"model": "m", "dataset": "d", "trials": 2, "seed": 3}))
    runs = {
        "p.json": ("profile-ranges", "--model", "m", "--dataset", "d", "--seed", "4", "--engine", "winograd", "--lenient"),
        "sweep.csv": ("sweep", "--config", "c.json", "--ber", "1e-4", "--engine", "winograd",
                      "--scope", "exclude_optypes=MUL", "--fault-bits", "MUL:20,ADD:12",
                      "--workers", "2", "--lenient", "--save-trace", "sweep.jsonl"),
        "neuron.json": ("-v", "sweep", "--model", "m", "--dataset", "d", "--ber", "0,1e-3", "--trials", "2",
                        "--granularity", "neuron", "--ranges", "p.json", "--range-mode", "zero", "--format", "json"),
        "layers.json": ("layer-vuln", "--config", "c.json", "--ber", "3e-4", "--format", "json", "--workers", "2"),
        "optypes.csv": ("optype-vuln", "--config", "c.json", "--ber", "3e-4", "--scope", "exclude_layers=0", "--lenient"),
        "plan.json": ("plan-tmr", "--config", "c.json", "--ber", "2e-4", "--segment-size", "2000",
                      "--target-acc", "0.5", "--cost-mul", "5", "--literal-do-while", "--workers", "2"),
        "tmr.csv": ("eval-tmr", "--config", "c.json", "--plan", "plan.json", "--ber", "2e-4",
                    "--save-trace", "tmr.jsonl", "--lenient"),
    }
    for out, argv in runs.items():
        assert run_cli(*argv, "--out", out) == 0, argv
    digests = {out: hashlib.sha256(_embedded_config(tmp_path / out).encode()).hexdigest() for out in runs}
    assert digests == PINNED_CONFIG_DIGESTS


def test_gen_dataset_labels_span_the_output_of_a_model_without_a_linear_head(tmp_path):
    # toycnn-int16 cut after its last relu ends in a conv layer's (C, H, W)
    # output, so a label may name any of its C * H * W values
    from dataclasses import replace

    import numpy as np

    from winofi.modelio import ReluLayer, builtin_model, load_dataset

    model = builtin_model("toycnn-int16")
    last_relu = max(i for i, layer in enumerate(model.layers) if isinstance(layer, ReluLayer))
    headless = replace(model, layers=model.layers[:last_relu + 1])
    save_model(headless, str(tmp_path / "m"))
    assert run_cli("gen-dataset", "--model", str(tmp_path / "m"), "--count", "6", "--seed", "3", "--with-labels",
                   "--out", str(tmp_path / "d")) == 0
    labels = load_dataset(str(tmp_path / "d")).labels
    assert len(labels) == 6
    assert all(0 <= label < np.prod(headless.execution_plan()[-1][2]) for label in labels)
    assert max(labels) >= 4  # more than the 4 classes of the linear head
    assert run_cli("sweep", "--model", str(tmp_path / "m"), "--dataset", str(tmp_path / "d"), "--ber", "1e-4",
                   "--trials", "1", "--use-labels", "--out", str(tmp_path / "r.csv")) == 0
