"""Spans and counters recorded around the calls into each winofi module.

A :class:`Tracer` rebinds the module attributes that callers look up at call
time (``winofi.analyze.run_inference``, ``winofi.engine.conv_winograd``, ...)
to wrappers that record a span (name, start, end, parent) and, for a few
functions, counts taken from the arguments and results. The per-op hook is
never wrapped, so the cost of tracing scales with module calls, not with ops.
``uninstall`` restores every original binding.

Spans stay in memory; :meth:`Tracer.layer_metrics` reduces them to the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from time import perf_counter

import winofi.analyze
import winofi.cli
import winofi.engine
import winofi.inject
import winofi.mitigate
import winofi.modelio
import winofi.rng
import winofi.runtime
import winofi.tmr
from winofi.engine import Stage

STAGE_METRICS = {
    Stage.DIRECT_MAC: "engine.ops.direct_mac",
    Stage.WG_INPUT_TF: "engine.ops.wg_input_tf",
    Stage.WG_EWMUL: "engine.ops.wg_ewmul",
    Stage.WG_CHANNEL_SUM: "engine.ops.wg_channel_sum",
    Stage.WG_INVERSE_TF: "engine.ops.wg_inverse_tf",
}

# Counters that must repeat exactly between two traced rounds of one input.
EXACT_COUNTERS = (
    "engine.ops_emitted",
    *STAGE_METRICS.values(),
    "rng.chunks",
    "inject.flips_drawn",
    "inject.flips_applied",
    "runtime.inferences_executed",
    "analyze.run_points",
    "tmr.plan_evals",
    "tmr.sample_calls",
)


class Span:
    """One call into a module. ``attrs`` holds per-name data: (hooked,
    layer_id) for ``engine.conv``, (campaign id, ber, is a scoped rerun) for
    ``analyze.run_point``, and neuron flips drawn for ``runtime.run_inference``."""

    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = None


def tail_percentile(values):
    """(median, tail value, tail percentile): the tail is the highest of
    99.9/99/90/75/50 with at least ten samples beyond it."""
    if not values:
        return 0.0, 0.0, 0.0
    vals = sorted(values)
    n = len(vals)

    def pct(p):
        return vals[min(n - 1, max(0, math.ceil(p / 100.0 * n) - 1))]

    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return pct(50.0), pct(p), p
    return pct(50.0), pct(50.0), 50.0


class Tracer:
    """Records spans for one benchmark round while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.expected: Counter = Counter()  # op counts derived from enumerate_ops
        self.inferences: list = []  # applied flips of each inference whose flips were sampled
        self.latencies_ms: list = []  # faulty run_inference wall times
        self._stack: list[int] = []
        self._saved: list = []
        self._pending = None  # op_level_hook result awaiting its run_inference
        self._baselines: dict = {}
        self._opspaces: dict = {}
        self._enumerate_ops = winofi.runtime.enumerate_ops

    # -- span recording --------------------------------------------------------

    def _open(self, name):
        span = Span(name, perf_counter(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _enclosing(self, name):
        for idx in reversed(self._stack):
            if self.spans[idx].name == name:
                return self.spans[idx]
        return None

    # -- installation ----------------------------------------------------------

    def _wrap(self, owner, attr, name, inspect=None):
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if inspect is not None:
                inspect(span, args, kwargs, result)
            return result

        self._saved.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def install(self):
        an, cli, eng, inj, mod, rt, tmr = (
            winofi.analyze, winofi.cli, winofi.engine, winofi.inject,
            winofi.modelio, winofi.runtime, winofi.tmr,
        )
        self._wrap(eng, "conv_direct", "engine.conv", self._on_conv_direct)
        self._wrap(eng, "conv_winograd", "engine.conv", self._on_conv_winograd)
        for ns in (an, tmr, winofi.mitigate, rt):
            self._wrap(ns, "run_inference", "runtime.run_inference", self._on_inference)
        for ns in (an, tmr, cli, rt):
            self._wrap(ns, "enumerate_ops", "runtime.enumerate_ops", self._on_enumerate)
        self._wrap(inj, "sample_flip_positions", "rng.sample", self._on_rng)
        self._wrap(inj, "sample_op_flips", "inject.sample_op_flips", self._on_sample_op_flips)
        self._wrap(tmr, "sample_op_flips", "inject.sample_op_flips", self._on_tmr_sample)
        self._wrap(an, "op_level_hook", "inject.op_level_hook", self._on_op_level_hook)
        self._wrap(an, "neuron_level_inject", "inject.neuron")
        self._wrap(inj.FaultTrace, "save_jsonl", "inject.trace_io")
        self._wrap(inj.FaultTrace, "load_jsonl", "inject.trace_io")
        self._wrap(an.Campaign, "__init__", "analyze.campaign_init")
        self._wrap_run_point()
        for fn in ("sweep_ber", "layer_vulnerability", "optype_vulnerability"):
            self._wrap(cli, fn, "analyze." + fn)
        self._wrap(cli, "measure_segment_vulnerability", "tmr.segment_vuln")
        self._wrap(cli, "plan_tmr", "tmr.plan", self._on_plan)
        self._wrap(cli, "run_with_tmr", "tmr.run_with_tmr")
        self._wrap(cli, "profile_ranges", "mitigate.profile")
        for ns in (cli, mod):
            self._wrap(ns, "load_model", "modelio.load")
            self._wrap(ns, "load_dataset", "modelio.load")
        for fn in ("generate_toy_model", "generate_dataset"):
            self._wrap(mod, fn, "modelio.gen")
        for fn in ("save_model", "save_dataset"):
            self._wrap(mod, fn, "modelio.save")

    def _wrap_run_point(self):
        camp_cls = winofi.analyze.Campaign
        raw = camp_cls.__dict__["run_point"]
        tracer = self

        @functools.wraps(raw)
        def run_point(camp, ber, trials, scope=None, **kwargs):
            span = tracer._open("analyze.run_point")
            effective = scope if scope is not None else camp.base_scope
            span.attrs = (id(camp), ber, effective != camp.base_scope)
            try:
                return raw(camp, ber, trials, scope, **kwargs)
            finally:
                tracer._close(span)
                tracer.counts["analyze.run_points"] += 1

        self._saved.append((camp_cls, "run_point", raw))
        camp_cls.run_point = run_point

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def new_command(self):
        """Baselines for the rerun comparison live within one command."""
        self._baselines.clear()

    # -- inspectors ------------------------------------------------------------

    def _on_conv_direct(self, span, args, kwargs, result):
        hook = args[2] if len(args) > 2 else kwargs.get("hook")
        self._conv_ops(span, args, kwargs, hook, winofi.engine.direct_layer_counts)

    def _on_conv_winograd(self, span, args, kwargs, result):
        cfg = (args[2] if len(args) > 2 else kwargs.get("cfg")) or winofi.engine.WINOGRAD_F2X2_3X3
        hook = args[3] if len(args) > 3 else kwargs.get("hook")

        def counts(n, c, k, oh, ow):
            return winofi.engine.winograd_layer_counts(n, c, k, oh, ow, cfg.instrument_filter_transform)

        self._conv_ops(span, args, kwargs, hook, counts)

    def _conv_ops(self, span, args, kwargs, hook, layer_counts):
        layer_id = kwargs.get("layer_id", 0)
        span.attrs = (hook is not None, layer_id)
        if hook is None:
            return
        x, spec = args[0], args[1]
        n, c, h, w = x.shape
        for stage, per_type in layer_counts(n, c, spec.out_channels, *spec.out_hw(h, w)).items():
            cnt = sum(per_type.values())
            self.counts[STAGE_METRICS.get(stage, "engine.ops.wg_filter_tf")] += cnt
            self.counts["engine.ops_emitted"] += cnt

    def _opspace(self, model, engine):
        key = (id(model), engine)
        if key not in self._opspaces:
            # the model is kept referenced so its id cannot be reused
            self._opspaces[key] = (model, self._enumerate_ops(model, engine))
        return self._opspaces[key][1]

    def _on_inference(self, span, args, kwargs, result):
        self.counts["runtime.inferences_executed"] += 1
        model = args[0]
        engine = (args[2] if len(args) > 2 else kwargs.get("engine")) or model.engine
        hook = args[3] if len(args) > 3 else kwargs.get("hook")
        neuron_flips = span.attrs
        faulty = hook is not None or kwargs.get("neuron_fn") is not None
        if faulty:
            self.latencies_ms.append((span.end - span.start) * 1e3)
        if hook is not None:
            space = self._opspace(model, engine)
            self.expected["engine.ops_emitted"] += space.total_ops
            for stage, name in STAGE_METRICS.items():
                self.expected[name] += space.count(stage=stage)
            pending, self._pending = self._pending, None
            if pending is not None:
                trace, start, key, rerun = pending
                events = trace.events[start:]
                flipset = frozenset((e[3], e[4]) for e in events)
                struck = len({e[3] for e in events})
                self.counts["inject.flips_applied"] += len(events)
                self.counts["inject.hook_flips_applied"] += len(events)
                self.counts["inject.hook_ops"] += space.total_ops
                self.counts["inject.hook_struck"] += struck
                self.inferences.append(len(events))
                if not rerun:
                    self._baselines[key] = flipset
                elif key in self._baselines:
                    self.counts["analyze.rerun_inferences"] += 1
                    self.counts["analyze.rerun_identical"] += flipset == self._baselines[key]
        elif neuron_flips is not None:
            self.counts["inject.flips_applied"] += neuron_flips
            self.inferences.append(neuron_flips)

    def _on_enumerate(self, span, args, kwargs, result):
        self.counts["runtime.enumerate_ops_calls"] += 1

    def _on_rng(self, span, args, kwargs, result):
        labels, total_bits, ber = args[1], args[2], args[3]
        if total_bits > 0 and 0.0 < ber < 1.0:
            chunk = winofi.rng.CHUNK_BITS
            self.counts["rng.chunks"] += (total_bits + chunk - 1) // chunk
        if labels[0] == winofi.rng.STREAM_NEURON:
            # scope is checked before a neuron draw, so every drawn flip is applied
            self.counts["inject.flips_drawn"] += int(result.size)
            inference = self._enclosing("runtime.run_inference")
            if inference is not None:
                inference.attrs = (inference.attrs or 0) + int(result.size)

    def _drawn(self, table):
        bits = sum(bin(m).count("1") for m in table.values())
        self.counts["inject.flips_drawn"] += bits
        return bits

    def _on_sample_op_flips(self, span, args, kwargs, result):
        self.counts["inject.hook_flips_drawn"] += self._drawn(result)

    def _on_tmr_sample(self, span, args, kwargs, result):
        self._drawn(result)
        self.counts["tmr.sample_calls"] += 1

    def _on_op_level_hook(self, span, args, kwargs, result):
        point = self._enclosing("analyze.run_point")
        camp_id, ber, rerun = point.attrs if point is not None else (None, None, False)
        key = (camp_id, ber, kwargs.get("trial", 0), kwargs.get("sample", 0))
        trace = result[1]
        self._pending = (trace, len(trace.events), key, rerun)

    def _on_plan(self, span, args, kwargs, result):
        self.counts["tmr.plan_evals"] += len(result.eval_history)

    # -- reduction -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this round (times in s, counts exact)."""
        total: Counter = Counter()
        self_time: Counter = Counter()
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        hooked_s = vec_s = 0.0
        layer_s: Counter = Counter()
        for i, span in enumerate(self.spans):
            dur = span.end - span.start
            total[span.name] += dur
            self_time[span.name] += dur - child[i]
            if span.name == "engine.conv":
                hooked, layer_id = span.attrs
                layer_s[layer_id] += dur
                if hooked:
                    hooked_s += dur
                else:
                    vec_s += dur
        c = self.counts
        ops = c["engine.ops_emitted"]
        flips_p50, flips_tail, flips_pct = tail_percentile(self.inferences)
        lat_p50, lat_tail, lat_pct = tail_percentile(self.latencies_ms)
        m = {
            "engine.hooked_conv_s": hooked_s,
            "engine.hooked_ns_per_op": hooked_s / ops * 1e9 if ops else 0.0,
            "engine.vec_conv_s": vec_s,
            "engine.ops_emitted": ops,
        }
        for layer_id in sorted(layer_s):
            m[f"engine.layer{layer_id}_s"] = layer_s[layer_id]
        for name in STAGE_METRICS.values():
            m[name] = c[name]
        m.update({
            "rng.sample_s": total["rng.sample"],
            "rng.chunks": c["rng.chunks"],
            "inject.sample_s": total["inject.sample_op_flips"],
            "inject.flips_drawn": c["inject.flips_drawn"],
            "inject.flips_applied": c["inject.flips_applied"],
            "inject.scope_applied_frac": _ratio(c["inject.hook_flips_applied"], c["inject.hook_flips_drawn"]),
            "inject.hook_hit_frac": _ratio(c["inject.hook_struck"], c["inject.hook_ops"]),
            "inject.flips_per_inf_p50": flips_p50,
            "inject.flips_per_inf_tail": flips_tail,
            "inject.flips_per_inf_tail_pct": flips_pct,
            "inject.sampled_inferences": len(self.inferences),
            "inject.zero_flip_frac": _ratio(sum(1 for f in self.inferences if f == 0), len(self.inferences)),
            "inject.neuron_s": total["inject.neuron"],
            "inject.trace_io_s": total["inject.trace_io"],
            "runtime.inferences_executed": c["runtime.inferences_executed"],
            "runtime.faulty_inferences": len(self.latencies_ms),
            "runtime.faulty_infer_ms_p50": lat_p50,
            "runtime.faulty_infer_ms_tail": lat_tail,
            "runtime.faulty_infer_tail_pct": lat_pct,
            "runtime.self_s": self_time["runtime.run_inference"],
            "runtime.enumerate_ops_calls": c["runtime.enumerate_ops_calls"],
            "runtime.enumerate_ops_s": total["runtime.enumerate_ops"],
            "analyze.campaign_init_s": total["analyze.campaign_init"],
            "analyze.run_points": c["analyze.run_points"],
            "analyze.self_s": sum(v for k, v in self_time.items() if k.startswith("analyze.")),
            "analyze.rerun_inferences": c["analyze.rerun_inferences"],
            "analyze.rerun_identical_frac": _ratio(c["analyze.rerun_identical"], c["analyze.rerun_inferences"]),
            "tmr.segment_vuln_s": total["tmr.segment_vuln"],
            "tmr.plan_s": total["tmr.plan"],
            "tmr.plan_evals": c["tmr.plan_evals"],
            "tmr.run_with_tmr_self_s": self_time["tmr.run_with_tmr"],
            "tmr.sample_calls": c["tmr.sample_calls"],
            "mitigate.profile_s": total["mitigate.profile"],
            "modelio.gen_s": total["modelio.gen"],
            "modelio.save_s": total["modelio.save"],
            "modelio.load_s": total["modelio.load"],
            "cli.self_s": self_time["cli.main"],
        })
        return m

    def count_mismatches(self) -> list:
        """Op counts seen at the conv boundary that disagree with enumerate_ops."""
        return [
            f"{name}: emitted {self.counts[name]} != enumerate_ops {self.expected[name]}"
            for name in ("engine.ops_emitted", *STAGE_METRICS.values())
            if self.counts[name] != self.expected[name]
        ]

    def span_records(self, round_index: int) -> list:
        return [
            {"round": round_index, "id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for i, s in enumerate(self.spans)
        ]


def _ratio(num, den) -> float:
    return num / den if den else 0.0
