"""winofi: desk-scale soft-error fault injection for quantized direct and
Winograd convolution, with vulnerability analysis, fine-grained TMR planning,
and constrained-activation mitigation."""

__version__ = "0.1.0"

from .analyze import (
    Campaign,
    CampaignResult,
    VulnReport,
    layer_vulnerability,
    optype_vulnerability,
    sweep_ber,
)
from .engine import (
    AT_F2X2_3X3,
    BT_F2X2_3X3,
    G2_F2X2_3X3,
    G_F2X2_3X3,
    ConvSpec,
    OpType,
    Stage,
    conv_direct,
    conv_winograd,
)
from .errors import ConfigError, ShapeError
from .inject import (
    FaultTrace,
    Granularity,
    Scope,
    draw_neuron_flips,
    draw_op_flips,
    neuron_level_inject,
    op_level_hook,
)
from .modelio import (
    BUILTIN_MODELS,
    ConvLayer,
    Dataset,
    FlattenLayer,
    LinearLayer,
    ModelDef,
    ReluLayer,
    builtin_model,
    generate_dataset,
    generate_toy_model,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from .mitigate import RangeProfile, profile_ranges
from .qtensor import QTensor, QuantParams, quantize
from .runtime import OpSpace, Program, enumerate_ops, run_inference, top1
from .tmr import (
    CostModel,
    Segment,
    TmrPlan,
    full_protection_overhead,
    measure_segment_vulnerability,
    plan_tmr,
    run_with_tmr,
    segment_ops,
    tmr_overhead,
)

__all__ = [name for name in dir() if not name.startswith("_")]
