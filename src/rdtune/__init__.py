"""rdtune: per-clip tuning of the encoder Lagrange multiplier scale.

The library finds, for each clip, the scale factor k (applied inside the
encoder as lambda = k * lambda0 for targeted frame types) that minimizes
BD-Rate against the clip's own k=1 reference curve.  A synthetic encoder
model makes the whole pipeline runnable on a desk; real patched encoders
plug in through command templates.
"""

from .errors import (
    BracketError,
    CurveDataError,
    DomainError,
    EncodeFailure,
    ExtrapolationError,
    InsufficientPointsError,
    LadderMismatchError,
    ManifestError,
    MetricReportError,
    MissingPointError,
    OverlapError,
    QpRangeError,
    RdtuneError,
    SweepError,
    TemplateError,
)
from .lambda_model import CodecId, FrameTypeGroup, LambdaScope, validate_qp
from .pchip import PchipInterpolant, pchip_eval, pchip_fit
from .rd_curve import (
    RDCurve,
    RDPoint,
    bd_quality,
    bd_rate,
    db_to_msssim,
    matched_qp_savings,
    mean_matched_savings,
    mean_vmaf_delta,
    msssim_to_db,
)
from .scalar_opt import (
    Bracket,
    OptimizerConfig,
    bracket_minimum,
    brent_minimize,
)
from .encoder_bridge import (
    ClipInfo,
    CommandTemplate,
    EncodeJob,
    ExternalEncoder,
    SyntheticClipModel,
    SyntheticEncoder,
    encode_measure,
    load_manifest,
    parse_metric_report,
    synth_encode,
)
from .sweep import (
    DEFAULT_OPTIMIZER,
    DEFAULT_QP_LADDERS,
    OptimizationResult,
    PointCache,
    RunLedger,
    SweepConfig,
    TrialRecord,
    curves_from_ledger,
    evaluate_cost,
    load_result,
    optimize_clip,
    optimize_clips,
    run_sweep,
    save_result,
)
from .report import SummaryRow, render_csv, render_text, summarize
from .plot import PlotLayout, compute_layout, emit_plot, render_svg

__version__ = "0.1.0"
