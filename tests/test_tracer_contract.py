"""The benchmark tracer (perfbench/tracing.py) rebinds winofi module
attributes by name and reads a few winofi constants. This test runs it
against the checkout, so that renaming or deleting one of those names fails
here and not only in the benchmark run."""

import importlib.util
from pathlib import Path

import winofi.analyze
import winofi.cli
import winofi.engine
import winofi.inject
import winofi.mitigate
import winofi.modelio
import winofi.rng
import winofi.runtime
import winofi.tmr

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
NAMESPACES = (
    winofi.analyze, winofi.cli, winofi.engine, winofi.inject, winofi.mitigate, winofi.modelio,
    winofi.rng, winofi.runtime, winofi.tmr, winofi.analyze.Campaign, winofi.inject.FaultTrace,
)


def _tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_counts_match_and_uninstall_restores(tmp_path):
    main = winofi.cli.main
    model, data = str(tmp_path / "m"), str(tmp_path / "d")
    assert main(["gen-model", "--name", "toycnn-int8", "--out", model]) == 0
    assert main(["gen-dataset", "--model", model, "--count", "2", "--seed", "1", "--out", data]) == 0
    before = [dict(vars(ns)) for ns in NAMESPACES]
    conv_direct = winofi.engine.conv_direct

    tracer = _tracer_class()()
    tracer.install()
    applied, drawn = {}, {}
    try:
        assert winofi.engine.conv_direct is not conv_direct
        for engine in ("direct", "winograd"):
            counted, sampled = tracer.counts["inject.flips_applied"], tracer.counts["inject.flips_drawn"]
            code = main(["sweep", "--model", model, "--dataset", data, "--engine", engine,
                         "--ber", "1e-4", "--trials", "2", "--seed", "0", "--out", str(tmp_path / f"{engine}.csv"),
                         "--save-trace", str(tmp_path / f"{engine}.jsonl")])
            assert code == 0
            applied[engine] = tracer.counts["inject.flips_applied"] - counted
            drawn[engine] = tracer.counts["inject.flips_drawn"] - sampled
    finally:
        tracer.uninstall()

    # the tracer counts the flips the inferences wrote to the trace, and sees
    # every op draw: an unscoped sweep applies each flip it draws
    for engine, count in applied.items():
        lines = (tmp_path / f"{engine}.jsonl").read_text().splitlines()
        assert count == len(lines) > 0, engine
        assert drawn[engine] == count, engine

    assert tracer.count_mismatches() == []
    assert tracer.counts["engine.ops_emitted"] > 0
    for ns, saved in zip(NAMESPACES, before):
        changed = sorted(k for k in set(saved) | set(vars(ns)) if vars(ns).get(k) is not saved.get(k))
        assert changed == [], f"{ns.__name__} still rebinds {changed}"
