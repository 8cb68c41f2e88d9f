"""Monte-Carlo campaigns: accuracy-vs-BER sweeps and layer-wise and op-type
vulnerability, all run by one loop, :meth:`Campaign.trial_correct`.

Accuracy defaults to functional top-1 agreement with the fault-free model on
the evaluation set (usable with random-weight models); labeled accuracy is
used when the dataset carries labels and ``use_labels`` is set. Campaign
randomness is keyed per (seed, trial, sample), so campaigns that differ only
in scope are exactly paired, and trial workers cannot change any result.
"""

from __future__ import annotations

import functools
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
    merge_ranges,
    neuron_level_inject,
    op_level_hook,
)
from .modelio import Dataset, ModelDef
from .runtime import NeuronFaults, OpSpace, Program, run_inference, top1
from .runtime import enumerate_ops  # noqa: F401 - perfbench/tracing.py rebinds analyze.enumerate_ops


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
    """Shared fixture for Monte-Carlo accuracy campaigns on one model/engine:
    every run's flips are drawn in ``_tables``, at the run's BER from
    ``seed``, or taken from the :class:`FaultTrace` ``replay``."""

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
        replay: Optional[FaultTrace] = None,
    ):
        if len(dataset) == 0:
            raise ConfigError("dataset is empty")
        for i, sample in enumerate(dataset.samples):
            if sample.shape != (1, *model.input_shape):
                raise ConfigError(f"sample {i} is shaped {sample.shape}; the model takes {(1, *model.input_shape)}")
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
        self.workers = workers
        self.program = Program(model, self.engine, ranges, range_mode)
        self.opspace = OpSpace(self.program, fault_bits)
        if self.granularity is Granularity.NEURON_LEVEL and fault_bits is not None:
            raise ConfigError("fault_bits sets op result windows: neuron-level faults strike stored neuron bits")
        # the trace is checked per run, against that run's trials and protected ranges
        self.replay = None
        self._checked([scope])
        self.replay = replay
        # a scope that can strike nothing would read the clean accuracy at any BER
        if not scope.admitted_layers(self.opspace):
            conv = self.opspace.conv_layer_ids()
            raise ConfigError(f"scope admits none of the conv layers {conv}, so no fault can strike")
        if not scope.admitted_optypes():
            raise ConfigError("scope admits neither MUL nor ADD ops, so no fault can strike")
        # base scope only: the derived scopes of a vulnerability run may exclude every op
        if scope.exclude_op_ranges and not scope.ops_left(self.opspace):
            raise ConfigError(f"scope's exclude_ops ranges {list(scope.exclude_op_ranges)} cover every op of its "
                              "admitted layers and op types, so no fault can strike")
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
                             capture=capture, program=self.program)

    def _tables(self, trial: int, sample_idx: int, ber: float, scopes, *, trace=None, protected=()):
        """Yield (trial, sample)'s fault table under each of ``scopes``, each
        filtered from one draw of its flips: sampled at ``ber`` from the seed,
        or taken from the Campaign's ``replay``."""
        kw = dict(trial=trial, sample=sample_idx)
        if self.granularity is Granularity.OP_LEVEL:
            draw = draw_op_flips(self.opspace, self.seed, ber, replay=self.replay, protected=protected, **kw)
            inject = op_level_hook
        else:
            draw = draw_neuron_flips(self.opspace, self.seed, ber, scopes, replay=self.replay, **kw)
            inject = neuron_level_inject
        for scope in scopes:
            yield inject(self.opspace, draw, scope, trace=trace, **kw)[0]

    def corrupted_output(self, trial: int, sample_idx: int, ber: float, scope: Scope,
                         trace: Optional[FaultTrace] = None, capture: tuple = (), protected=()):
        if trial < 0 or not 0 <= sample_idx < self.sample_count:
            raise ConfigError(f"trial {trial} must be >= 0 and sample {sample_idx} inside [0, {self.sample_count})")
        # the flips of one inference are keyed by (trial, sample), so ``replay`` may hold any trial's records
        protected = self._checked([scope], ber, math.inf, protected, capture)
        faults = next(self._tables(trial, sample_idx, ber, [scope], trace=trace, protected=protected))
        return self._infer(sample_idx, faults, capture=capture)

    def trial_correct(self, trial: int, ber: float, scopes, *, trace: Optional[FaultTrace] = None,
                      protected=()) -> list:
        """Correct samples of one trial under each of ``scopes``.

        Each sample's flips are drawn once and filtered by every scope; each
        distinct in-scope table runs once and scores for every scope that
        holds it, and an empty table scores the sample's clean top-1 without
        running. ``trace`` takes one scope.
        """
        counts = [0] * len(scopes)
        for i, ref in enumerate(self.refs):
            outcomes: dict = {}  # (ids, masks) of a table -> its top-1
            tables = self._tables(trial, i, ber, scopes, trace=trace, protected=protected)
            for j, faults in enumerate(tables):
                key = (faults.ids.tobytes(), faults.masks.tobytes())
                if key not in outcomes:
                    outcomes[key] = top1(self._infer(i, faults).output) if faults.ids.size else self.clean_top1[i]
                counts[j] += int(outcomes[key] == ref)
        return counts

    # -- campaign points -------------------------------------------------------

    def _op_ranges(self, what: str, ranges) -> tuple:
        """``ranges`` merged by ``merge_ranges``; they must lie inside an op-level Campaign's op space."""
        ranges = merge_ranges(ranges)
        if ranges and self.granularity is not Granularity.OP_LEVEL:
            raise ConfigError(f"{what} op ranges need an op-level Campaign: neurons have no op id")
        if ranges and (ranges[0][0] < 0 or ranges[-1][1] > self.opspace.total_ops):
            raise ConfigError(f"{what} op ranges {list(ranges)} reach outside the op space [0, {self.opspace.total_ops})")
        return ranges

    def _checked(self, scopes, ber=0.0, trials=1, protected=(), capture=()) -> tuple:
        """The merged ``protected`` ranges of a run that fits: BER in [0, 1], trials >= 1, ``scopes``
        that name only conv layers and op ranges inside the op space (at neuron level, only layers),
        ``capture`` layers that are conv layers, and a Campaign ``replay`` that passes
        ``FaultTrace.validate`` for these trials and ranges. Raise ConfigError for a run that does
        not fit."""
        if trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0.0 <= ber <= 1.0:
            raise ConfigError(f"ber must be in [0, 1], got {ber}")
        for scope in scopes:
            if self.granularity is Granularity.NEURON_LEVEL and (scope.include_optypes is not None or scope.exclude_optypes):
                raise ConfigError("scope op types need an op-level Campaign: neurons have no op type")
            self._op_ranges("scope", scope.exclude_op_ranges)
            self.program.check_conv_layers("scope", (scope.include_layers or frozenset()) | scope.exclude_layers)
        self.program.check_conv_layers("capture", capture)
        protected = self._op_ranges("protected", protected)
        if self.replay is not None:
            self.replay.validate(self.opspace, trials, self.sample_count, self.granularity.value, protected)
        return protected

    def tmr_ranges(self, plan) -> tuple:
        """The checked op ranges that TMR ``plan`` protects. TMR votes op
        results, so even a plan protecting nothing needs an op-level
        Campaign, and the plan must be cut from this Campaign's op space."""
        if self.granularity is not Granularity.OP_LEVEL:
            raise ConfigError("a TMR plan needs an op-level Campaign: neuron faults strike no op result")
        plan.check_fits(self.opspace)
        return self._op_ranges("protected", plan.protected_ranges)

    def run_point(
        self,
        ber: float,
        trials: int,
        scope: Optional[Scope] = None,
        *,
        trace: Optional[FaultTrace] = None,
        protected=(),
    ) -> CampaignResult:
        """Accuracy over ``trials`` trials of the dataset, with the flips the
        Campaign draws or replays; ops inside the ``protected`` ranges run
        under TMR. A point without ``trace`` is kept for the Campaign's
        lifetime, so running it again is a lookup."""
        return self._points(ber, trials, [scope or self.base_scope], protected, trace=trace)[0]

    def _points(self, ber: float, trials: int, scopes, protected=(), *, trace=None) -> list[CampaignResult]:
        """One CampaignResult per scope. Without ``trace``, the points this
        Campaign ran before are looked up, and the others run together in one
        pass and are kept, replayed or not, since the Campaign fixes its
        trace; with ``trace``, every scope runs fresh and nothing is kept.
        Trials run in ``workers`` processes unless ``trace`` must collect
        their flips here. Every scope is checked first (see ``_checked``)."""
        protected = self._checked(scopes, ber, trials, protected)
        results = self._results if trace is None else {}
        keys = [(ber, trials, scope, protected) for scope in scopes]
        missing = list(dict.fromkeys(scope for key, scope in zip(keys, scopes) if key not in results))
        if missing:
            count = functools.partial(self.trial_correct, ber=ber, scopes=missing, trace=trace, protected=protected)
            if self.workers > 1 and trials > 1 and trace is None:
                workers = min(self.workers, trials)
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    by_trial = list(pool.map(count, range(trials), chunksize=math.ceil(trials / workers)))
            else:
                by_trial = [count(t) for t in range(trials)]
            for scope, per_trial in zip(missing, zip(*by_trial)):
                mean, ci = mean_ci95([c / self.sample_count for c in per_trial])
                results[(ber, trials, scope, protected)] = CampaignResult(
                    ber, trials, self.sample_count, list(per_trial), mean, ci, self.clean_accuracy)
        return [replace(results[key], per_trial_correct=list(results[key].per_trial_correct)) for key in keys]

    def vulnerability(self, kind: str, subjects, ber: float, trials: int) -> list[VulnReport]:
        """One VulnReport per (subject_id, scope) pair: the paired per-trial
        accuracy gain of running under that scope against the base scope.
        The base and every subject scope run in one pass over the draws."""
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


# ---------------------------------------------------------------------------
# Analyses


def sweep_ber(
    camp: Campaign,
    ber_list,
    trials: int,
    *,
    trace: Optional[FaultTrace] = None,
    protected=(),
) -> list[CampaignResult]:
    """One CampaignResult per BER; the BER=0 point equals clean accuracy
    exactly. ``protected`` op ranges run under TMR (see ``run_point``)."""
    return [camp.run_point(ber, trials, trace=trace, protected=protected) for ber in ber_list]


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
