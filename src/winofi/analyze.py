"""Monte-Carlo campaigns: accuracy-vs-BER sweeps, RMSE output variation,
layer-wise and op-type vulnerability.

Accuracy defaults to functional top-1 agreement with the fault-free model on
the evaluation set (usable with random-weight models); labeled accuracy is
used when the dataset carries labels and ``use_labels`` is set. Campaign
randomness is keyed per (seed, trial, sample), so campaigns that differ only
in scope are exactly paired, and trial workers cannot change any result.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .engine import OpType
from .errors import ConfigError
from .inject import (
    FaultTrace,
    Granularity,
    Scope,
    draw_neuron_flips,
    draw_op_flips,
    neuron_level_inject,
    op_level_hook,
)
from .modelio import Dataset, ModelDef
from .runtime import NeuronFaults, enumerate_ops, run_inference, top1


def mean_ci95(values) -> tuple[float, float]:
    """Mean and 1.96*sigma/sqrt(n) half-width over i.i.d. per-trial values."""
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean()) if arr.size else 0.0
    if arr.size < 2:
        return mean, 0.0
    return mean, float(1.96 * arr.std(ddof=1) / math.sqrt(arr.size))


@dataclass
class CampaignResult:
    ber: float
    trials: int
    sample_count: int
    per_trial_correct: list
    mean_accuracy: float
    ci95_halfwidth: float
    clean_accuracy: float
    layer_rmse: Optional[dict] = None  # conv layer_id -> mean RMSE over trials

    def row(self) -> dict:
        return {
            "ber": self.ber,
            "trials": self.trials,
            "samples": self.sample_count,
            "mean_accuracy": self.mean_accuracy,
            "ci95_halfwidth": self.ci95_halfwidth,
            "clean_accuracy": self.clean_accuracy,
        }


@dataclass
class VulnReport:
    subject_kind: str  # "layer" | "optype" | "segment"
    subject_id: object
    acc_prot: float
    acc_raw: float
    delta: float
    ci95_halfwidth: float = 0.0

    def row(self) -> dict:
        return {
            "subject_kind": self.subject_kind,
            "subject_id": self.subject_id,
            "acc_prot": self.acc_prot,
            "acc_raw": self.acc_raw,
            "delta": self.delta,
            "ci95_halfwidth": self.ci95_halfwidth,
        }


class Campaign:
    """Shared fixture for Monte-Carlo accuracy campaigns on one model/engine."""

    def __init__(
        self,
        model: ModelDef,
        dataset: Dataset,
        engine: Optional[str] = None,
        *,
        granularity: Granularity = Granularity.OP_LEVEL,
        seed: int = 0,
        scope: Scope = Scope(),
        fault_bits=None,
        use_labels: bool = False,
        ranges=None,
        range_mode: str = "clamp",
        workers: int = 1,
    ):
        if len(dataset) == 0:
            raise ConfigError("dataset is empty")
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if not 0 <= seed < 1 << 63:
            raise ConfigError(f"seed must lie in [0, 2^63), got {seed}")
        self.model = model
        self.dataset = dataset
        self.engine = engine or model.engine
        self.granularity = Granularity(granularity)
        self.seed = seed
        self.base_scope = scope
        self.fault_bits = fault_bits
        self.ranges = ranges
        self.range_mode = range_mode
        self.workers = workers
        self.opspace = enumerate_ops(model, self.engine, fault_bits=fault_bits)
        op_ranges = scope.exclude_op_ranges
        if self.granularity is Granularity.NEURON_LEVEL:
            if fault_bits is not None:
                raise ConfigError("fault_bits sets op result windows: neuron-level faults strike stored neuron bits")
            if scope.include_optypes is not None or scope.exclude_optypes or op_ranges:
                raise ConfigError("a neuron-level scope can filter only layers: neurons have no op type or op id")
        elif any(a < 0 or b > self.opspace.total_ops for a, b in op_ranges):
            raise ConfigError(f"scope op ranges {list(op_ranges)} reach outside the op space [0, {self.opspace.total_ops})")
        conv = set(self.opspace.conv_layer_ids())
        for what, layer_ids in (("scope", (scope.include_layers or frozenset()) | scope.exclude_layers),
                                ("range profile", set(ranges.ranges if ranges is not None else ()))):
            stray = sorted(layer_ids - conv)
            if stray:
                raise ConfigError(f"{what} layer ids {stray} are not conv layers of this model (conv layers: {sorted(conv)})")
        # a scope that can strike nothing would read the clean accuracy at any BER
        if not scope.admitted_layers(self.opspace):
            raise ConfigError(f"scope admits none of the conv layers {sorted(conv)}, so no fault can strike")
        if not (set(OpType) if scope.include_optypes is None else scope.include_optypes) - scope.exclude_optypes:
            raise ConfigError("scope admits neither MUL nor ADD ops, so no fault can strike")
        clean = [self._infer(i).output for i in range(len(dataset))]
        self.clean_top1 = [top1(o) for o in clean]
        if use_labels:
            if dataset.labels is None:
                raise ConfigError("use_labels requires a labeled dataset")
            classes = clean[0].size
            stray = sorted({lab for lab in dataset.labels if not 0 <= lab < classes})
            if stray:
                raise ConfigError(f"labels {stray} are outside the model's {classes} outputs [0, {classes})")
            self.refs = list(dataset.labels)
        else:
            self.refs = self.clean_top1
        self.clean_correct = sum(int(a == b) for a, b in zip(self.clean_top1, self.refs))
        self._clean_captures: dict = {}  # conv layer_id -> clean dequantized outputs
        self._results: dict = {}  # (ber, trials, scope, protected) -> CampaignResult of run_point

    @property
    def sample_count(self) -> int:
        return len(self.dataset)

    @property
    def clean_accuracy(self) -> float:
        return self.clean_correct / self.sample_count

    # -- single faulty inference ---------------------------------------------

    def _infer(self, sample_idx: int, faults=None, *, capture: tuple = ()):
        """Run sample ``sample_idx`` under ``faults``, an op table (the hook) or a neuron table."""
        hook, neuron_fn = (None, faults) if isinstance(faults, NeuronFaults) else (faults, None)
        return run_inference(self.model, self.dataset.samples[sample_idx], self.engine, hook, neuron_fn=neuron_fn,
                             ranges=self.ranges, range_mode=self.range_mode, capture=capture)

    def _tables(self, trial: int, sample_idx: int, ber: float, scopes, *, trace=None, replay=None, protected=()):
        """Yield (trial, sample)'s fault table under each of ``scopes``, each filtered from one draw of its flips."""
        kw = dict(trial=trial, sample=sample_idx)
        if self.granularity is Granularity.OP_LEVEL:
            draw = draw_op_flips(self.opspace, self.seed, ber, replay=replay, protected=protected, **kw)
            inject = op_level_hook
        else:
            draw = draw_neuron_flips(self.opspace, self.seed, ber, scopes, replay=replay, **kw)
            inject = neuron_level_inject
        for scope in scopes:
            yield inject(self.opspace, self.seed, ber, scope, trace=trace, draw=draw, **kw)[0]

    def corrupted_output(self, trial: int, sample_idx: int, ber: float, scope: Scope,
                         trace: Optional[FaultTrace] = None, replay: Optional[FaultTrace] = None,
                         capture: tuple = (), protected=()):
        faults = next(self._tables(trial, sample_idx, ber, [scope], trace=trace, replay=replay, protected=protected))
        return self._infer(sample_idx, faults, capture=capture)

    def _top1(self, sample_idx: int, res, rmse_acc: Optional[dict]) -> int:
        """Top-1 of sample ``sample_idx``'s faulty inference ``res`` (None: it
        was fault-free), appending its conv layers' RMSEs to ``rmse_acc``."""
        for lid, acc in (rmse_acc or {}).items():
            faulty = self._clean_capture(lid)[sample_idx] if res is None else res.conv_outputs[lid].dequantize()
            acc.append(float(np.sqrt(np.mean((faulty - self._clean_capture(lid)[sample_idx]) ** 2))))
        return self.clean_top1[sample_idx] if res is None else top1(res.output)

    def trial_correct(self, trial: int, ber: float, scopes, *, trace: Optional[FaultTrace] = None,
                      replay: Optional[FaultTrace] = None, rmse_acc: Optional[dict] = None, protected=()) -> list:
        """Correct samples of one trial under each of ``scopes``.

        Each sample's flips are drawn once and filtered by every scope; each
        distinct in-scope table runs once and scores for every scope that
        holds it, and an empty table scores the sample's clean top-1 without
        running. ``trace`` and ``rmse_acc`` (conv layer_id -> per-inference
        RMSEs) take one scope.
        """
        counts = [0] * len(scopes)
        capture = tuple(rmse_acc or ())
        for i, ref in enumerate(self.refs):
            outcomes: dict = {}  # (ids, masks) of a table that ran -> its top-1
            tables = self._tables(trial, i, ber, scopes, trace=trace, replay=replay, protected=protected)
            for j, faults in enumerate(tables):
                key = (faults.ids.tobytes(), faults.masks.tobytes())
                if key not in outcomes:
                    res = self._infer(i, faults, capture=capture) if faults.ids.size else None
                    outcomes[key] = self._top1(i, res, rmse_acc)
                counts[j] += int(outcomes[key] == ref)
        return counts

    def _clean_capture(self, layer_id: int) -> list:
        cache = self._clean_captures
        if layer_id not in cache:
            cache[layer_id] = [
                self._infer(i, capture=(layer_id,)).conv_outputs[layer_id].dequantize()
                for i in range(self.sample_count)
            ]
        return cache[layer_id]

    # -- campaign points -------------------------------------------------------

    @staticmethod
    def _check_point(ber: float, trials: int) -> None:
        if trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0.0 <= ber <= 1.0:
            raise ConfigError(f"ber must be in [0, 1], got {ber}")

    def run_point(
        self,
        ber: float,
        trials: int,
        scope: Optional[Scope] = None,
        *,
        trace: Optional[FaultTrace] = None,
        replay: Optional[FaultTrace] = None,
        rmse_layers: tuple = (),
        protected=(),
    ) -> CampaignResult:
        """Accuracy over ``trials`` trials of the dataset. ``replay`` supplies
        the flips, and ops inside the ``protected`` ranges run under TMR. A
        point without ``trace``, ``replay`` or ``rmse_layers`` is kept for the
        Campaign's lifetime, so running it again is a lookup."""
        self._check_point(ber, trials)
        for lid in rmse_layers:
            if lid not in self.opspace.neuron_sizes:
                raise ConfigError(f"layer {lid} is not a conv layer of this model")
        if protected:
            self.require_op_level("TMR protection")
        scope = scope if scope is not None else self.base_scope
        if trace is None and replay is None and not rmse_layers:
            return self._points(ber, trials, [scope], protected)[0]
        if replay is not None:
            replay.validate(self.opspace, trials, self.sample_count, self.granularity.value, protected)
        rmse_acc = {lid: [] for lid in rmse_layers}
        (per_trial,) = self._per_trial(ber, trials, [scope], trace=trace, replay=replay, rmse_acc=rmse_acc,
                                       protected=protected)
        layer_rmse = {lid: float(np.mean(v)) for lid, v in rmse_acc.items()} if rmse_layers else None
        return self._result(ber, trials, per_trial, layer_rmse)

    def _points(self, ber: float, trials: int, scopes, protected=()) -> list[CampaignResult]:
        """One CampaignResult per scope: the points this Campaign ran before
        are looked up, and the others run together in one pass."""
        protected = tuple(tuple(r) for r in protected)
        keys = [(ber, trials, scope, protected) for scope in scopes]
        missing = list(dict.fromkeys(scope for key, scope in zip(keys, scopes) if key not in self._results))
        if missing:
            for scope, per_trial in zip(missing, self._per_trial(ber, trials, missing, protected=protected)):
                self._results[(ber, trials, scope, protected)] = self._result(ber, trials, per_trial)
        return [replace(self._results[key], per_trial_correct=list(self._results[key].per_trial_correct))
                for key in keys]

    def _per_trial(self, ber: float, trials: int, scopes, *, trace=None, replay=None, rmse_acc=None,
                   protected=()) -> list:
        """Per scope, the correct samples of each trial."""
        if ber == 0.0 and replay is None:
            # zero flips: every trial is the same deterministic inference
            counts = self.trial_correct(0, 0.0, scopes, trace=trace, rmse_acc=rmse_acc)
            return [[c] * trials for c in counts]
        if self.workers > 1 and trials > 1 and replay is None and trace is None and not rmse_acc:
            by_trial = self._parallel_trials(ber, trials, scopes, protected)
        else:
            by_trial = [
                self.trial_correct(t, ber, scopes, trace=trace, replay=replay, rmse_acc=rmse_acc, protected=protected)
                for t in range(trials)
            ]
        return [list(col) for col in zip(*by_trial)]

    def _result(self, ber: float, trials: int, per_trial: list, layer_rmse: Optional[dict] = None) -> CampaignResult:
        mean, ci = mean_ci95([c / self.sample_count for c in per_trial])
        return CampaignResult(
            ber=ber,
            trials=trials,
            sample_count=self.sample_count,
            per_trial_correct=per_trial,
            mean_accuracy=mean,
            ci95_halfwidth=ci,
            clean_accuracy=self.clean_accuracy,
            layer_rmse=layer_rmse,
        )

    def _parallel_trials(self, ber: float, trials: int, scopes, protected) -> list:
        workers = min(self.workers, trials)
        blocks = [list(range(w, trials, workers)) for w in range(workers)]
        out: dict[int, list] = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for res in pool.map(_trial_block_worker, [(self, ber, scopes, protected, b) for b in blocks]):
                out.update(res)
        return [out[t] for t in range(trials)]

    def require_op_level(self, analysis: str) -> None:
        """Raise ConfigError unless faults strike ops, which ``analysis`` needs."""
        if self.granularity is not Granularity.OP_LEVEL:
            raise ConfigError(f"{analysis} needs an op-level Campaign: neuron faults have no op type or op id")

    def vulnerability(self, kind: str, subjects, ber: float, trials: int) -> list[VulnReport]:
        """One VulnReport per (subject_id, scope) pair: the paired per-trial
        accuracy gain of running under that scope against the base scope.
        The base and every subject scope run in one pass over the draws."""
        self._check_point(ber, trials)
        raw, *prots = self._points(ber, trials, [self.base_scope] + [scope for _, scope in subjects])
        reports = []
        for (subject_id, _), prot in zip(subjects, prots):
            deltas = [
                (p - r) / self.sample_count
                for p, r in zip(prot.per_trial_correct, raw.per_trial_correct)
            ]
            dmean, dci = mean_ci95(deltas)
            reports.append(VulnReport(kind, subject_id, prot.mean_accuracy, raw.mean_accuracy, dmean, dci))
        return reports


def _trial_block_worker(args):
    camp, ber, scopes, protected, block = args
    return {t: camp.trial_correct(t, ber, scopes, protected=protected) for t in block}


# ---------------------------------------------------------------------------
# Analyses


def sweep_ber(
    camp: Campaign,
    ber_list,
    trials: int,
    *,
    trace: Optional[FaultTrace] = None,
    replay: Optional[FaultTrace] = None,
    rmse_layers: tuple = (),
    protected=(),
) -> list[CampaignResult]:
    """One CampaignResult per BER; the BER=0 point equals clean accuracy
    exactly. ``protected`` op ranges run under TMR (see ``run_point``)."""
    return [
        camp.run_point(ber, trials, trace=trace, replay=replay, rmse_layers=rmse_layers, protected=protected)
        for ber in ber_list
    ]


def rmse_layer(camp: Campaign, layer_id: int, ber: float, trials: int) -> float:
    """RMSE between fault-free and faulty dequantized outputs of one conv
    layer, averaged over trials and ``camp``'s samples."""
    return camp.run_point(ber, trials, rmse_layers=(layer_id,)).layer_rmse[layer_id]


def layer_vulnerability(camp: Campaign, ber: float, trials: int) -> list[VulnReport]:
    """Per-layer accuracy gain from keeping that layer fault-free, paired
    against one shared unprotected baseline."""
    layers = camp.opspace.conv_layer_ids()
    if len(layers) < 2:
        raise ConfigError("layer vulnerability needs at least 2 conv layers")
    subjects = [(lid, camp.base_scope.excluding_layer(lid)) for lid in layers]
    return camp.vulnerability("layer", subjects, ber, trials)


def optype_vulnerability(camp: Campaign, ber: float, trials: int) -> tuple[VulnReport, VulnReport]:
    """(MUL report, ADD report): accuracy with that op type kept fault-free."""
    camp.require_op_level("optype_vulnerability")
    subjects = [(typ.name, camp.base_scope.excluding_optype(typ)) for typ in (OpType.MUL, OpType.ADD)]
    mul, add = camp.vulnerability("optype", subjects, ber, trials)
    return mul, add


# ---------------------------------------------------------------------------
# Result serialization (column names are a stable, golden-tested surface)

CAMPAIGN_COLUMNS = ["ber", "trials", "samples", "mean_accuracy", "ci95_halfwidth", "clean_accuracy"]
VULN_COLUMNS = ["subject_kind", "subject_id", "acc_prot", "acc_raw", "delta", "ci95_halfwidth"]


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(columns, rows, meta: Optional[dict] = None) -> str:
    lines = []
    for key in sorted(meta or {}):
        lines.append(f"# {key}={meta[key]}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def campaign_csv(results, meta: Optional[dict] = None) -> str:
    return render_csv(CAMPAIGN_COLUMNS, [r.row() for r in results], meta)


def vuln_csv(reports, meta: Optional[dict] = None) -> str:
    return render_csv(VULN_COLUMNS, [r.row() for r in reports], meta)


def campaign_json(results, meta: Optional[dict] = None) -> dict:
    return {
        "meta": dict(meta or {}),
        "results": [
            dict(r.row(), per_trial_correct=list(r.per_trial_correct)) for r in results
        ],
    }


def vuln_json(reports, meta: Optional[dict] = None) -> dict:
    return {"meta": dict(meta or {}), "results": [r.row() for r in reports]}
