"""Cut-in collision avoidance simulation toolkit.

Core pieces: the ego's constant-acceleration step along its lane and the
footprint gaps it is measured by, the TTC formula with its analytic
sensitivities, a rules-based safety check plus braking law, simplified
baseline models (rss, reg157, cc_human, fsm, idm), a closed-loop scenario
engine with parameter sweeps, and Gaussian TTC risk summaries. Trajectory
ingest (cutinsim.ingest) extracts cut-in events from recorded tracks and
exports their per-frame surrogate features (DHW, THW, TTC, ITTC). The
`cutinsim` command line wraps the same API; see README.md.
"""

from .engine import (
    ScenarioParams,
    SimResult,
    SweepGrid,
    Trace,
    feasibility_bound,
    run_closed_loop,
    sweep,
)
from .kinematics import (
    LANE_WIDTH_M,
    VehicleDims,
)
from .metrics import (
    SensitivityResult,
    finite_difference_sensitivity,
    ttc,
    ttc_sensitivity,
)
from .risk import (
    ModelSummary,
    fit_gaussian,
    normal_cdf,
    prob_below_threshold,
    summarize_models,
)
from .safety_models import (
    CcHumanParams,
    FsmParams,
    IdmParams,
    MODEL_NAMES,
    ModelParams,
    RbaParams,
    Reg157Params,
    RssParams,
    control_step,
)

__version__ = "0.1.0"

__all__ = [
    "ScenarioParams",
    "SimResult",
    "SweepGrid",
    "Trace",
    "feasibility_bound",
    "run_closed_loop",
    "sweep",
    "LANE_WIDTH_M",
    "VehicleDims",
    "SensitivityResult",
    "finite_difference_sensitivity",
    "ttc",
    "ttc_sensitivity",
    "ModelSummary",
    "fit_gaussian",
    "normal_cdf",
    "prob_below_threshold",
    "summarize_models",
    "CcHumanParams",
    "FsmParams",
    "IdmParams",
    "MODEL_NAMES",
    "ModelParams",
    "RbaParams",
    "Reg157Params",
    "RssParams",
    "control_step",
    "__version__",
]
