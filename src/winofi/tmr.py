"""Fine-grained selective TMR over the operation stream.

The op stream [0, M) is cut into contiguous equal-size segments. Each
segment's vulnerability factor is the paired accuracy gain from keeping just
that segment fault-free. Segments are then protected greedily in descending
vulnerability order until a target accuracy is met. Protection cost uses
weighted op counts (a multiply costs 6.67 adds at 8 bit), two extra
executions per protected op plus one add-weight vote.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .analyze import Campaign, VulnReport
from .errors import ConfigError, json_typed, open_input
from .inject import FaultTrace
from .inject import sample_op_flips  # noqa: F401 - perfbench/tracing.py rebinds tmr.sample_op_flips
from .qtensor import QTensor
from .runtime import OpSpace
from .runtime import enumerate_ops  # noqa: F401 - perfbench/tracing.py rebinds tmr.enumerate_ops
from .runtime import run_inference  # noqa: F401 - perfbench/tracing.py rebinds tmr.run_inference


@dataclass(frozen=True)
class Segment:
    """Contiguous op_id range [start, end); the last segment may be shorter."""

    index: int
    start: int
    end: int

    def __len__(self):
        return self.end - self.start

    @property
    def op_range(self) -> tuple[int, int]:
        return (self.start, self.end)


def segment_ops(total_ops: int, segment_size: int) -> list[Segment]:
    """ceil(M / m) contiguous segments partitioning [0, M)."""
    if segment_size < 1:
        raise ConfigError(f"segment_size must be >= 1, got {segment_size}")
    if total_ops < 0:
        raise ConfigError("total op count must be >= 0")
    return [
        Segment(i, start, min(start + segment_size, total_ops))
        for i, start in enumerate(range(0, total_ops, segment_size))
    ]


@dataclass
class CostModel:
    """Weighted op cost; the 8-bit reference puts a multiply at 6.67 adds.

    Adds scale linearly and multiplies quadratically with operand width.
    """

    REFERENCE_BITS = 8  # operand width the weights are given at

    add_weight: float = 1.0
    mul_weight: float = 6.67

    def __post_init__(self):
        if self.add_weight <= 0 or self.mul_weight <= 0:
            raise ConfigError("cost weights must be positive")

    def weights_at(self, bit_width: int) -> tuple[float, float]:
        r = bit_width / self.REFERENCE_BITS
        return self.mul_weight * r * r, self.add_weight * r


def tmr_overhead(protected_ranges, opspace: OpSpace, cost: Optional[CostModel] = None) -> float:
    """Weighted overhead of TMR over the given op_id ranges: two extra
    executions per protected op plus one add-weight majority vote per op."""
    cost = cost or CostModel()
    w_mul, w_add = cost.weights_at(opspace.bit_width)
    total = 0.0
    for start, end in protected_ranges:
        muls, adds = opspace.mul_add_in_range(start, end)
        total += 2.0 * (muls * w_mul + adds * w_add) + (muls + adds) * w_add
    return total


def full_protection_overhead(opspace: OpSpace, cost: Optional[CostModel] = None) -> float:
    return tmr_overhead([(0, opspace.total_ops)], opspace, cost)


@dataclass
class TmrPlan:
    segment_size: int
    total_ops: int
    order: list  # segment indices, descending vulnerability (ties: ascending index)
    n: int
    achieved_acc: float
    target_acc: float
    target_unreachable: bool = False
    vulnerability: list = field(default_factory=list)
    vulnerability_ci: list = field(default_factory=list)
    overhead: Optional[float] = None
    overhead_normalized: Optional[float] = None
    eval_history: list = field(default_factory=list)  # (n, accuracy) pairs

    @property
    def segments(self) -> list[Segment]:
        return segment_ops(self.total_ops, self.segment_size)

    @property
    def protected_segments(self) -> list[Segment]:
        segs = self.segments
        return [segs[i] for i in self.order[: self.n]]

    @property
    def protected_ranges(self) -> list:
        return sorted(s.op_range for s in self.protected_segments)

    @property
    def protected_op_count(self) -> int:
        return sum(len(s) for s in self.protected_segments)

    @property
    def protection_ratio(self) -> float:
        """P = (protected ops) / M; equals n*m/M except for a short tail segment."""
        return self.protected_op_count / self.total_ops if self.total_ops else 0.0

    def check_fits(self, opspace: OpSpace) -> None:
        if self.total_ops != opspace.total_ops:
            raise ConfigError(
                f"plan covers {self.total_ops} ops but {opspace.engine} enumeration has {opspace.total_ops}"
            )
        n_seg = len(self.segments)
        if sorted(self.order) != list(range(n_seg)) or not 0 <= self.n <= n_seg:
            raise ConfigError(f"plan order must list each of its {n_seg} segments once, and n must lie in [0, {n_seg}]")

    def to_dict(self) -> dict:
        return {
            "segment_size": self.segment_size,
            "order": list(self.order),
            "n": self.n,
            "P": self.protection_ratio,
            "achieved_acc": self.achieved_acc,
            "overhead": self.overhead,
            "overhead_normalized": self.overhead_normalized,
            "target_acc": self.target_acc,
            "target_unreachable": self.target_unreachable,
            "total_ops": self.total_ops,
            "vulnerability": list(self.vulnerability),
            "vulnerability_ci": list(self.vulnerability_ci),
            "eval_history": [list(t) for t in self.eval_history],
        }

    @staticmethod
    def from_dict(d: dict) -> "TmrPlan":
        json_typed(d, "a TMR plan", dict)
        history = json_typed(d.get("eval_history", []), "plan eval_history", list)
        for t in history:
            if len(json_typed(t, "plan eval_history entry", list)) != 2:
                raise ConfigError(f"plan eval_history entry must be an [n, accuracy] pair, got {t!r}")
        return TmrPlan(
            segment_size=json_typed(d["segment_size"], "plan segment_size"),
            total_ops=json_typed(d["total_ops"], "plan total_ops"),
            order=[json_typed(i, "plan order entry") for i in json_typed(d["order"], "plan order", list)],
            n=json_typed(d["n"], "plan n"),
            achieved_acc=float(json_typed(d["achieved_acc"], "plan achieved_acc", float)),
            target_acc=float(json_typed(d.get("target_acc", 0.0), "plan target_acc", float)),
            target_unreachable=json_typed(d.get("target_unreachable", False), "plan target_unreachable", bool),
            vulnerability=json_typed(d.get("vulnerability", []), "plan vulnerability", list),
            vulnerability_ci=json_typed(d.get("vulnerability_ci", []), "plan vulnerability_ci", list),
            overhead=d.get("overhead"),
            overhead_normalized=d.get("overhead_normalized"),
            eval_history=[tuple(t) for t in history],
        )

    @staticmethod
    def load_json(path: str) -> "TmrPlan":
        with open_input(path, "TMR plan") as f:
            return TmrPlan.from_dict(json.load(f))


def measure_segment_vulnerability(
    camp: Campaign, ber: float, segments: Sequence[Segment], trials: int
) -> list[VulnReport]:
    """V_i = paired accuracy gain with segment i's ops fault-free; acc_raw is
    measured once and shared. CI half-widths expose the vulnerability
    resolution limit at fine granularities."""
    camp.require_op_level("measure_segment_vulnerability")
    subjects = [(seg.index, camp.base_scope.excluding_op_ranges([seg.op_range])) for seg in segments]
    return camp.vulnerability("segment", subjects, ber, trials)


def plan_tmr(
    v: Sequence[float],
    segments: Sequence[Segment],
    target_acc: float,
    eval_fn: Callable[[Sequence[Segment]], float],
    *,
    opspace: Optional[OpSpace] = None,
    cost: Optional[CostModel] = None,
    direct_opspace: Optional[OpSpace] = None,
    v_ci: Optional[Sequence[float]] = None,
    literal_do_while: bool = False,
) -> TmrPlan:
    """Greedy selection: protect the smallest vulnerability-descending prefix
    whose measured accuracy reaches ``target_acc``.

    The default post-condition allows n=0 when the unprotected model already
    meets the target; ``literal_do_while`` reproduces the always-protect-one
    variant (n >= 1). If even full protection misses the target the plan
    covers all segments and carries ``target_unreachable``.
    """
    if len(v) != len(segments):
        raise ConfigError("vulnerability list and segments differ in length")
    n_seg = len(segments)
    if n_seg == 0:
        raise ConfigError("cannot plan over zero segments")
    seg_size = max(len(s) for s in segments)
    total_ops = max(s.end for s in segments)
    order = sorted(range(n_seg), key=lambda i: (-v[i], i))

    history = []
    chosen_n = None
    achieved = None
    for n in range(n_seg + 1):
        acc = eval_fn([segments[i] for i in order[:n]])
        history.append((n, acc))
        if acc >= target_acc:
            chosen_n = n
            achieved = acc
            break
    unreachable = chosen_n is None
    if unreachable:
        chosen_n = n_seg
        achieved = history[-1][1]
    if literal_do_while and chosen_n == 0:
        chosen_n = 1
        achieved = eval_fn([segments[order[0]]])
        history.append((1, achieved))

    plan = TmrPlan(
        segment_size=seg_size,
        total_ops=total_ops,
        order=order,
        n=chosen_n,
        achieved_acc=achieved,
        target_acc=target_acc,
        target_unreachable=unreachable,
        vulnerability=list(v),
        vulnerability_ci=list(v_ci) if v_ci is not None else [],
        eval_history=history,
    )
    if opspace is not None:
        cost = cost or CostModel()
        plan.overhead = tmr_overhead(plan.protected_ranges, opspace, cost)
        base = full_protection_overhead(direct_opspace or opspace, cost)
        plan.overhead_normalized = plan.overhead / base if base else 0.0
    return plan


def make_segment_eval(campaign: Campaign, ber: float, trials: int) -> Callable:
    """Accuracy-measurement callback for plan_tmr: protected segments are
    excluded from injection (paired seeds with the vulnerability campaign)."""

    def eval_fn(protected: Sequence[Segment]) -> float:
        scope = campaign.base_scope.excluding_op_ranges([s.op_range for s in protected])
        return campaign.run_point(ber, trials, scope).mean_accuracy

    return eval_fn


# ---------------------------------------------------------------------------
# TMR-executing inference


def run_with_tmr(
    camp: Campaign,
    plan: TmrPlan,
    ber: float,
    *,
    trial: int = 0,
    sample: int = 0,
    trace: Optional[FaultTrace] = None,
    replay: Optional[FaultTrace] = None,
) -> QTensor:
    """One inference of ``camp``'s sample ``sample`` with per-op TMR over
    ``plan``'s protected segments (see ``op_level_hook``)."""
    camp.require_op_level("run_with_tmr")
    plan.check_fits(camp.opspace)
    return camp.corrupted_output(trial, sample, ber, camp.base_scope, trace=trace, replay=replay,
                                 protected=plan.protected_ranges).output
