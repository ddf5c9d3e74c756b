"""Cut-in collision avoidance simulation toolkit.

Core pieces: vehicle kinematics and gap geometry, TTC-family surrogate safety
metrics with analytic sensitivities, a rules-based safety check plus braking
law, simplified baseline models (rss, reg157, cc_human, fsm, idm), a
closed-loop scenario engine with parameter sweeps, and Gaussian TTC risk
summaries. The `cutinsim` command line wraps the same API; see README.md.
"""

from .engine import (
    ClassifyThresholds,
    ScenarioParams,
    SimResult,
    SweepGrid,
    classify_event,
    feasibility_bound,
    run_closed_loop,
    sweep,
)
from .kinematics import (
    LANE_WIDTH_M,
    TraceSample,
    VehicleDims,
    VehicleState,
    gap_lateral,
    gap_longitudinal,
    overlaps,
    step_vehicle,
)
from .metrics import (
    SensitivityResult,
    SurrogateFeatures,
    compute_features,
    finite_difference_sensitivity,
    ttc,
    ttc_sensitivity,
)
from .risk import (
    GaussianRisk,
    ModelSummary,
    fit_gaussian,
    gaussian_risk,
    normal_cdf,
    prob_below_threshold,
    summarize_models,
)
from .safety_models import (
    CcHumanParams,
    Decision,
    FsmParams,
    IdmParams,
    MODEL_NAMES,
    ModelParams,
    RbaParams,
    Reg157Params,
    RssParams,
    cc_human_evaluate,
    control_step,
    fsm_evaluate,
    idm_acceleration,
    idm_evaluate,
    rba_decel,
    rba_is_safe,
    rba_velocity_update,
    reg157_evaluate,
    rss_evaluate,
)

__version__ = "0.1.0"

__all__ = [
    "ClassifyThresholds",
    "ScenarioParams",
    "SimResult",
    "SweepGrid",
    "classify_event",
    "feasibility_bound",
    "run_closed_loop",
    "sweep",
    "LANE_WIDTH_M",
    "TraceSample",
    "VehicleDims",
    "VehicleState",
    "gap_lateral",
    "gap_longitudinal",
    "overlaps",
    "step_vehicle",
    "SensitivityResult",
    "SurrogateFeatures",
    "compute_features",
    "finite_difference_sensitivity",
    "ttc",
    "ttc_sensitivity",
    "GaussianRisk",
    "ModelSummary",
    "fit_gaussian",
    "gaussian_risk",
    "normal_cdf",
    "prob_below_threshold",
    "summarize_models",
    "CcHumanParams",
    "Decision",
    "FsmParams",
    "IdmParams",
    "MODEL_NAMES",
    "ModelParams",
    "RbaParams",
    "Reg157Params",
    "RssParams",
    "cc_human_evaluate",
    "control_step",
    "fsm_evaluate",
    "idm_acceleration",
    "idm_evaluate",
    "rba_decel",
    "rba_is_safe",
    "rba_velocity_update",
    "reg157_evaluate",
    "rss_evaluate",
    "__version__",
]
