"""Scenario records, closed-loop simulation, parameter sweeps, classification."""

from __future__ import annotations

import itertools
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Sequence

from . import metrics
from .errors import ConfigError
from .kinematics import (
    TraceSample,
    VehicleDims,
    VehicleState,
    gap_lateral,
    gap_longitudinal,
    step_vehicle,
)
from .safety_models import ModelParams, control_step

SCENARIO_KINDS = ("cut_in", "cut_out", "car_following")
CRITICAL = "critical"
NON_CRITICAL = "non_critical"

DEFAULT_DIMS = VehicleDims(width_m=2.0, length_m=5.0)

# Upper bound on round(duration_s / dt_s), the steps of one run; a finer dt_s
# than this allows is a config error rather than an unbounded loop.
MAX_STEPS = 1_000_000


def check_finite(value: Any, key: str) -> Any:
    """Return value if it is a finite real number; otherwise a ConfigError naming key."""
    try:
        finite = (
            not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
        )
    except OverflowError:  # an integer beyond float range
        finite = False
    if not finite:
        raise ConfigError(f"{key} must be a finite number, got {value!r}", key=key)
    return value


@dataclass(frozen=True)
class ScenarioParams:
    """One two-vehicle scenario.

    d_x0_m is the initial bumper-to-bumper longitudinal gap and d_y0_m the
    initial center-to-center lateral offset. In cut_in the other vehicle merges
    from the adjacent lane into the ego lane over
    [lc_start_s, lc_start_s + lc_duration_s]; cut_out mirrors that in time;
    car_following keeps both vehicles in lane (d_y0_m must be 0) and allows a
    piecewise-constant speed profile for the other vehicle. ego_dims and
    other_dims are the two footprints that every gap is measured between.
    The ego starts at the origin of its lane.
    """

    kind: str
    v_e0_mps: float
    v_o0_mps: float
    d_x0_m: float
    d_y0_m: float
    lc_start_s: float = 1.0
    lc_duration_s: float = 2.0
    duration_s: float = 12.0
    dt_s: float = 0.05
    other_speed_profile: tuple[tuple[float, float], ...] = ()
    ego_dims: VehicleDims = DEFAULT_DIMS
    other_dims: VehicleDims = DEFAULT_DIMS

    def __post_init__(self) -> None:
        for key, value in zip(
            ("v_e0", "v_o0", "d_x0", "d_y0", "lc_start_s", "lc_duration_s", "duration_s", "dt_s"),
            (self.v_e0_mps, self.v_o0_mps, self.d_x0_m, self.d_y0_m,
             self.lc_start_s, self.lc_duration_s, self.duration_s, self.dt_s),
        ):
            check_finite(value, f"scenario.{key}")
        for value in itertools.chain.from_iterable(self.other_speed_profile):
            check_finite(value, "scenario.other_speed_profile")
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(
                f"scenario.kind {self.kind!r} not one of {SCENARIO_KINDS}", key="scenario.kind"
            )
        if not self.d_x0_m > 0.0:
            raise ConfigError("scenario.d_x0 must be > 0", key="scenario.d_x0")
        if not self.dt_s > 0.0:
            raise ConfigError("scenario.dt_s must be > 0", key="scenario.dt_s")
        if not self.lc_duration_s > 0.0:
            raise ConfigError("scenario.lc_duration_s must be > 0", key="scenario.lc_duration_s")
        if self.lc_start_s < 0.0:
            raise ConfigError("scenario.lc_start_s must be >= 0", key="scenario.lc_start_s")
        if self.duration_s < self.lc_start_s + self.lc_duration_s:
            raise ConfigError(
                "scenario.duration_s must cover lc_start_s + lc_duration_s",
                key="scenario.duration_s",
            )
        steps = self.duration_s / self.dt_s
        if math.isinf(steps) or round(steps) > MAX_STEPS:
            raise ConfigError(
                f"scenario.dt_s gives {steps:.3g} steps over duration_s; at most {MAX_STEPS}",
                key="scenario.dt_s",
            )
        for key, value in (("v_e0", self.v_e0_mps), ("v_o0", self.v_o0_mps)):
            if value < 0.0:
                raise ConfigError(f"scenario.{key} must be >= 0", key=f"scenario.{key}")
        if self.d_y0_m < 0.0:
            raise ConfigError("scenario.d_y0 must be >= 0", key="scenario.d_y0")
        if self.kind == "car_following" and self.d_y0_m != 0.0:
            raise ConfigError(
                "scenario.d_y0 must be 0 for car_following", key="scenario.d_y0"
            )
        if self.kind != "car_following" and self.other_speed_profile:
            raise ConfigError(
                "scenario.other_speed_profile is only valid for car_following",
                key="scenario.other_speed_profile",
            )
        last_t = 0.0
        for t, v in self.other_speed_profile:
            if t < last_t:
                raise ConfigError(
                    "scenario.other_speed_profile times must be nondecreasing",
                    key="scenario.other_speed_profile",
                )
            if v < 0.0:
                raise ConfigError(
                    "scenario.other_speed_profile velocities must be >= 0",
                    key="scenario.other_speed_profile",
                )
            last_t = t

    def lateral_offset(self, t_s: float) -> tuple[float, float]:
        """Lateral position of the other vehicle and its rate at time t."""
        if self.kind == "car_following":
            return 0.0, 0.0
        u = (t_s - self.lc_start_s) / self.lc_duration_s
        if u <= 0.0:
            s, rate = 0.0, 0.0
        elif u >= 1.0:
            s, rate = 1.0, 0.0
        else:
            s = _smoothstep(u)
            rate = _smoothstep_rate(u) / self.lc_duration_s
        if self.kind == "cut_in":
            return self.d_y0_m * (1.0 - s), -self.d_y0_m * rate
        return self.d_y0_m * s, self.d_y0_m * rate  # cut_out

    def other_state(self, t_s: float) -> VehicleState:
        """The other vehicle's closed-form motion plan: d_x0 (bumper gap) ahead
        of the ego at t = 0, lateral offset per the scenario kind."""
        x = self.d_x0_m + (self.ego_dims.length_m + self.other_dims.length_m) / 2.0
        t_prev, v = 0.0, self.v_o0_mps
        for t_change, v_new in self.other_speed_profile:
            if t_s < t_change:
                break
            x += v * (t_change - t_prev)
            t_prev, v = t_change, v_new
        x += v * (t_s - t_prev)
        y, vy = self.lateral_offset(t_s)
        return VehicleState(pos_long_m=x, pos_lat_m=y, vel_long_mps=v, vel_lat_mps=vy)


@dataclass(frozen=True)
class SimResult:
    trace: tuple[TraceSample, ...]  # empty in sweep results
    collided: bool
    min_gap_long_m: float
    min_ttc_s: float  # math.inf when the pair never closes
    peak_decel_mps2: float
    classification: str
    model_name: str


@dataclass(frozen=True)
class ClassifyThresholds:
    ttc_critical_s: float = 2.0
    comfort_decel_mps2: float = 3.5


def _smoothstep(u: float) -> float:
    return u * u * (3.0 - 2.0 * u)


def _smoothstep_rate(u: float) -> float:
    return 6.0 * u * (1.0 - u)


def _classify(collided: bool, min_ttc_s: float, peak_decel: float, th: ClassifyThresholds) -> str:
    if collided or min_ttc_s < th.ttc_critical_s or peak_decel > th.comfort_decel_mps2:
        return CRITICAL
    return NON_CRITICAL


def classify_event(result: SimResult, thresholds: ClassifyThresholds) -> str:
    """Critical when the run collided, dipped under the TTC threshold, or braked
    harder than the comfort level; non-critical otherwise."""
    return _classify(result.collided, result.min_ttc_s, result.peak_decel_mps2, thresholds)


def run_closed_loop(
    p: ScenarioParams,
    model_name: str,
    params: ModelParams = ModelParams(),
    thresholds: ClassifyThresholds = ClassifyThresholds(),
) -> SimResult:
    """Simulate one scenario under one safety model.

    Each step: compute gaps and TTC, ask the model for a decision, apply the
    commanded deceleration to the ego, advance both vehicles. Stepping stops
    (and the collision flag latches) as soon as the footprints overlap.
    """
    dt = p.dt_s
    ego_dims, other_dims = p.ego_dims, p.other_dims
    ego = VehicleState(pos_long_m=0.0, pos_lat_m=0.0, vel_long_mps=p.v_e0_mps)
    memory = 0
    n_steps = round(p.duration_s / dt)
    trace: list[TraceSample] = []
    collided = False

    for i in range(n_steps + 1):
        t = i * dt
        other = p.other_state(t)
        gap_long = gap_longitudinal(ego, other, ego_dims, other_dims)
        gap_lat = gap_lateral(ego, other, ego_dims, other_dims)
        if gap_long < 0.0 and gap_lat < 0.0:
            trace.append(
                TraceSample(t, ego, other, gap_long, gap_lat, 0.0, False, 0.0)
            )
            collided = True
            break
        if gap_long >= 0.0:
            ttc = metrics.ttc(gap_long, ego.vel_long_mps - other.vel_long_mps)
        else:
            # longitudinally alongside but laterally separated: no closing course
            ttc = math.inf
        decision, accel, memory = control_step(
            model_name, params, gap_long, gap_lat,
            ego.vel_long_mps, other.vel_long_mps, ttc, dt, memory,
        )
        trace.append(
            TraceSample(
                t, ego, other, gap_long, gap_lat, ttc, decision.safe, decision.decel_cmd_mps2
            )
        )
        if i == n_steps:
            break
        ego = step_vehicle(ego, accel, 0.0, dt)

    min_gap = min(s.gap_long_m for s in trace)
    min_ttc = min((s.ttc_s for s in trace if math.isfinite(s.ttc_s)), default=math.inf)
    peak_decel = max(s.decel_cmd_mps2 for s in trace)
    return SimResult(
        trace=tuple(trace),
        collided=collided,
        min_gap_long_m=min_gap,
        min_ttc_s=min_ttc,
        peak_decel_mps2=peak_decel,
        classification=_classify(collided, min_ttc, peak_decel, thresholds),
        model_name=model_name,
    )


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid over the four scenario scalars."""

    v_e0_mps: tuple[float, ...]
    v_o0_mps: tuple[float, ...]
    d_x0_m: tuple[float, ...]
    d_y0_m: tuple[float, ...]

    def __post_init__(self) -> None:
        for field in ("v_e0_mps", "v_o0_mps", "d_x0_m", "d_y0_m"):
            if not getattr(self, field):
                key = "sweep." + field.rsplit("_", 1)[0]  # the input key, without the unit
                raise ConfigError(f"{key} must be nonempty", key=key)

    def points(self) -> list[tuple[float, float, float, float]]:
        return list(
            itertools.product(self.v_e0_mps, self.v_o0_mps, self.d_x0_m, self.d_y0_m)
        )


@dataclass(frozen=True)
class SweepItem:
    """One grid point of a sweep: its coordinates plus the result or an error.
    The result is the run's summary only; its trace is empty."""

    model_name: str
    grid_index: int
    point: tuple[float, float, float, float]  # (v_e0, v_o0, d_x0, d_y0)
    result: SimResult | None
    error: str | None = None


def _run_sweep_point(
    args: tuple[ScenarioParams, str, int, tuple[float, float, float, float], ModelParams, ClassifyThresholds]
) -> SweepItem:
    base, model_name, index, point, params, thresholds = args
    v_e0, v_o0, d_x0, d_y0 = point
    try:
        scenario = replace(base, v_e0_mps=v_e0, v_o0_mps=v_o0, d_x0_m=d_x0, d_y0_m=d_y0)
        result = run_closed_loop(scenario, model_name, params, thresholds)
        return SweepItem(model_name, index, point, replace(result, trace=()))
    except Exception as exc:  # recorded as an error row, never aborts the sweep
        return SweepItem(model_name, index, point, None, error=f"{type(exc).__name__}: {exc}")


def sweep(
    grid: SweepGrid,
    models: Sequence[str],
    base: ScenarioParams,
    params: ModelParams = ModelParams(),
    thresholds: ClassifyThresholds = ClassifyThresholds(),
    jobs: int = 1,
) -> list[SweepItem]:
    """Simulate the full grid for every model.

    Results come back ordered by (model, grid index) regardless of how many
    worker processes execute them. At most min(jobs, CPU count, number of runs)
    workers start; with one, the runs execute in this process.
    """
    if not models:
        raise ConfigError("comparison needs at least one model", key="models")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}", key="jobs")
    points = grid.points()
    tasks = [
        (base, model_name, index, point, params, thresholds)
        for model_name in models
        for index, point in enumerate(points)
    ]
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_sweep_point, tasks, chunksize=8))
    return [_run_sweep_point(task) for task in tasks]


def feasibility_bound(
    v_e0_mps: float, v_o0_mps: float, a_max_mps2: float, t_react_s: float
) -> float:
    """Minimum initial gap at which full braking after the reaction time avoids
    intercept, assuming the other vehicle holds speed."""
    if a_max_mps2 <= 0.0:
        raise ConfigError("a_max must be positive", key="a_max")
    dv = max(v_e0_mps - v_o0_mps, 0.0)
    return dv * t_react_s + dv * dv / (2.0 * a_max_mps2)
