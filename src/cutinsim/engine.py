"""Scenario records, closed-loop simulation, parameter sweeps, classification."""

from __future__ import annotations

import collections
import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from .errors import ConfigError, CutinSimError
from .kinematics import (
    ARRAYS,
    FLOATS,
    VehicleDims,
    advance_axis_xp,
    axis_gap,
    require_finite,
)
from .metrics import ttc_xp
from .safety_models import MARGIN_PASS, ModelParams, control_step

SCENARIO_KINDS = ("cut_in", "cut_out", "car_following")
CRITICAL = "critical"
NON_CRITICAL = "non_critical"
COMFORT_DECEL_MPS2 = 3.5  # braking harder than this makes a run critical

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


def check_models(models: Sequence[str]) -> None:
    """A ConfigError on key models unless models names at least one model,
    each once."""
    if not models:
        raise ConfigError("models must be a nonempty list", key="models")
    for i, name in enumerate(models):
        if name in models[:i]:
            raise ConfigError(f"models lists {name!r} more than once", key="models")


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

    def other_motion(self, t_s: float) -> tuple[float, float, float, float]:
        """The other vehicle's closed-form motion plan at time t as
        (x, y, vx, vy): d_x0 (bumper gap) ahead of the ego at t = 0, lateral
        offset per the scenario kind."""
        return _other_motion(self, t_s, self.d_x0_m, self.v_o0_mps, self.d_y0_m)


@dataclass(frozen=True)
class Trace:
    """A run's per-step record as columns: one tuple per quantity, one entry
    per step. The ego holds its lane center (y = 0, no lateral speed), so it
    has no lateral columns. A collision step records ttc 0, unsafe and no
    braking, and ends the trace."""

    t_s: tuple[float, ...]
    ego_x_m: tuple[float, ...]
    ego_v_mps: tuple[float, ...]
    other_x_m: tuple[float, ...]
    other_y_m: tuple[float, ...]
    other_v_mps: tuple[float, ...]
    other_vy_mps: tuple[float, ...]
    gap_long_m: tuple[float, ...]
    gap_lat_m: tuple[float, ...]
    ttc_s: tuple[float, ...]  # math.inf when not on a closing course
    safe: tuple[bool, ...]
    decel_cmd_mps2: tuple[float, ...]


@dataclass(frozen=True)
class SimResult:
    trace: Trace | None  # None in sweep results
    collided: bool
    min_gap_long_m: float
    min_ttc_s: float  # math.inf when the pair never closes
    peak_decel_mps2: float
    classification: str
    model_name: str


# The other vehicle's plan under p's kind, lane change, speed profile and
# footprints, from the three scalars that a sweep varies per run. Those may be
# floats or arrays with one entry per run, in the same float operations.


def _lateral_motion(p: ScenarioParams, t_s: float, d_y0):
    if p.kind == "car_following":
        return 0.0, 0.0
    u = (t_s - p.lc_start_s) / p.lc_duration_s
    if u <= 0.0:
        s, rate = 0.0, 0.0
    elif u >= 1.0:
        s, rate = 1.0, 0.0
    else:
        s = _smoothstep(u)
        rate = _smoothstep_rate(u) / p.lc_duration_s
    if p.kind == "cut_in":
        return d_y0 * (1.0 - s), -d_y0 * rate
    return d_y0 * s, d_y0 * rate  # cut_out


def _other_motion(p: ScenarioParams, t_s: float, d_x0, v_o0, d_y0):
    x = d_x0 + (p.ego_dims.length_m + p.other_dims.length_m) / 2.0
    t_prev, v = 0.0, v_o0
    for t_change, v_new in p.other_speed_profile:
        if t_s < t_change:
            break
        x = x + v * (t_change - t_prev)
        t_prev, v = t_change, v_new
    x = x + v * (t_s - t_prev)
    y, vy = _lateral_motion(p, t_s, d_y0)
    return x, y, v, vy


def _smoothstep(u: float) -> float:
    return u * u * (3.0 - 2.0 * u)


def _smoothstep_rate(u: float) -> float:
    return 6.0 * u * (1.0 - u)


def _sense(xp, p: ScenarioParams, t_s: float, x, v, d_x0, v_o0, d_y0):
    """A step's sensing over the operations xp (FLOATS in run_closed_loop,
    ARRAYS in the sweep): the other vehicle's plan at t_s and what the ego at
    x with speed v measures against it, (ox, oy, ov, ovy, gap_long, gap_lat,
    collided, ttc). The footprints collide where they overlap on both axes.
    The TTC is 0 on a collision step and inf where the pair is
    longitudinally alongside in another lane, on no closing course."""
    ox, oy, ov, ovy = _other_motion(p, t_s, d_x0, v_o0, d_y0)
    gap_long = axis_gap(x, ox, p.ego_dims.length_m, p.other_dims.length_m)
    gap_lat = axis_gap(0.0, oy, p.ego_dims.width_m, p.other_dims.width_m)
    alongside = gap_long < 0.0
    collided = alongside & (gap_lat < 0.0)
    ttc = xp.where(alongside, xp.where(collided, 0.0, math.inf), ttc_xp(xp, gap_long, v - ov))
    return ox, oy, ov, ovy, gap_long, gap_lat, collided, ttc


def _summarize(xp, min_gap, min_ttc, peak_decel, gap_long, ttc, decel):
    """The running (min gap, min TTC, peak deceleration) over xp after one
    more step, from (inf, inf, -inf) before the first, with min's and max's
    tie rules. A recorded TTC is never NaN or negative, so its minimum from
    inf is the minimum of its finite values, inf when there are none."""
    return xp.pick_min(min_gap, gap_long), xp.pick_min(min_ttc, ttc), xp.pick_max(peak_decel, decel)


def _classify(collided: bool, min_ttc_s: float, peak_decel: float, ttc_crit_s: float) -> str:
    """Critical when the run collided, dipped under ttc_crit_s, or braked
    harder than COMFORT_DECEL_MPS2; non-critical otherwise."""
    if collided or min_ttc_s < ttc_crit_s or peak_decel > COMFORT_DECEL_MPS2:
        return CRITICAL
    return NON_CRITICAL


def run_closed_loop(
    p: ScenarioParams,
    model_name: str,
    params: ModelParams = ModelParams(),
    ttc_crit_s: float = 2.0,
    *,
    record: bool = True,
) -> SimResult:
    """Simulate one scenario under one safety model.

    Each step: compute gaps and TTC, run the model's control step on them,
    apply its acceleration to the ego, advance both vehicles. Stepping stops
    (and the collision flag latches) as soon as the footprints overlap.
    With record=False the result's trace is None and no step is kept.
    """
    dt = p.dt_s
    x, v = 0.0, p.v_e0_mps  # the ego, at the origin of its lane
    memory = 0
    min_gap, min_ttc, peak_decel = math.inf, math.inf, -math.inf
    n_steps = round(p.duration_s / dt)
    # one tuple per step, in Trace's field order; a deque that keeps none
    # when not recording, so that the step does not branch on it
    rows = [] if record else collections.deque(maxlen=0)

    for i in range(n_steps + 1):
        t = i * dt
        ox, oy, ov, ovy, gap_long, gap_lat, collided, ttc = _sense(
            FLOATS, p, t, x, v, p.d_x0_m, p.v_o0_mps, p.d_y0_m
        )
        # one sum screens all four values; only a non-finite one (or an
        # overflowing sum) pays for the named check
        if not math.isfinite(ox + oy + ov + ovy):
            require_finite(pos_long_m=ox, pos_lat_m=oy, vel_long_mps=ov, vel_lat_mps=ovy)
        if collided:  # the model is skipped: unsafe, no braking
            safe, decel = False, 0.0
        else:
            code, decel, accel, memory = control_step(
                FLOATS, model_name, params, gap_long, gap_lat, v, ov, ttc, dt, memory
            )
            safe = code <= MARGIN_PASS
        min_gap, min_ttc, peak_decel = _summarize(
            FLOATS, min_gap, min_ttc, peak_decel, gap_long, ttc, decel
        )
        rows.append((t, x, v, ox, oy, ov, ovy, gap_long, gap_lat, ttc, safe, decel))
        if collided or i == n_steps:
            break
        x, v = advance_axis_xp(FLOATS, x, v, accel, dt)
        if not math.isfinite(accel + x + v):
            require_finite(accel_long_mps2=accel, pos_long_m=x, vel_long_mps=v)

    return SimResult(
        trace=Trace(*zip(*rows)) if record else None,
        collided=collided,
        min_gap_long_m=min_gap,
        min_ttc_s=min_ttc,
        peak_decel_mps2=peak_decel,
        classification=_classify(collided, min_ttc, peak_decel, ttc_crit_s),
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
    The result is the run's summary only; its trace is None."""

    model_name: str
    grid_index: int
    point: tuple[float, float, float, float]  # (v_e0, v_o0, d_x0, d_y0)
    result: SimResult | None
    error: str | None = None


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class _Lanes:
    """Per-run state of a batched sweep, one array entry per run still
    stepping. keep(mask) drops the finished runs from every array at once."""

    def __init__(self, **arrays: np.ndarray) -> None:
        self.__dict__.update(arrays)

    def keep(self, mask: np.ndarray) -> None:
        self.__dict__.update({name: a[mask] for name, a in vars(self).items()})


def _scalar_item(
    lane: tuple[str, int, tuple[float, float, float, float]],
    base: ScenarioParams,
    params: ModelParams,
    ttc_crit_s: float,
) -> SweepItem:
    """The sweep item of one lane through run_closed_loop on its grid point:
    the summary without the trace, or the error row of what the run raises."""
    name, index, point = lane
    v_e0, v_o0, d_x0, d_y0 = point
    p = replace(base, v_e0_mps=v_e0, v_o0_mps=v_o0, d_x0_m=d_x0, d_y0_m=d_y0)
    try:
        result = run_closed_loop(p, name, params, ttc_crit_s, record=False)
    except Exception as exc:  # recorded as an error row, never aborts the sweep
        return SweepItem(name, index, point, None, error=_error_text(exc))
    return SweepItem(name, index, point, result)


def _run_lanes(
    lanes: Sequence[tuple[str, int, tuple[float, float, float, float]]],
    base: ScenarioParams,
    params: ModelParams,
    ttc_crit_s: float,
) -> list[SweepItem]:
    """run_closed_loop for many runs at once, summaries only: one float64
    array entry (lane) per (model, grid index, point) of lanes, which come
    grouped by model and with points valid over base.

    Each step runs run_closed_loop's step helpers over arrays, so every
    summary equals the scalar loop's. All lanes are sensed and advanced
    together; each model steps its own contiguous slice through
    control_step on ARRAYS. A lane whose step may raise leaves the arrays,
    and its item comes from run_closed_loop on its grid point: one whose
    other vehicle's plan is non-finite, every lane of a model slice whose
    control step raised, and one whose next state is non-finite. A lane that
    collides or reaches the end finishes. The lanes are compacted whenever
    some finish or leave.
    """
    n = len(lanes)
    models = list(dict.fromkeys(name for name, _, _ in lanes))
    model_of = {name: m for m, name in enumerate(models)}
    v_e0, v_o0, d_x0, d_y0 = np.array([pt for _, _, pt in lanes], dtype=float).reshape(n, 4).T
    state = _Lanes(
        lane=np.arange(n), model=np.array([model_of[name] for name, _, _ in lanes], dtype=int),
        v_o0=v_o0, d_x0=d_x0, d_y0=d_y0, x=np.zeros(n), v=v_e0, memory=np.zeros(n),
        min_gap=np.full(n, math.inf), min_ttc=np.full(n, math.inf),
        peak_decel=np.full(n, -math.inf),
    )
    items: list[SweepItem | None] = [None] * n
    dt = base.dt_s
    n_steps = round(base.duration_s / dt)
    with np.errstate(all="ignore"):
        for i in range(n_steps + 1):
            if not state.lane.size:
                break
            ox, oy, ov, ovy, gap_long, gap_lat, collided, ttc = _sense(
                ARRAYS, base, i * dt, state.x, state.v, state.d_x0, state.v_o0, state.d_y0
            )
            leave = ~np.isfinite(ox + oy + ov + ovy)
            shape = state.lane.shape
            gap_lat, ov = (  # a value shared by every lane becomes one entry each
                c if isinstance(c, np.ndarray) else np.full(shape, c) for c in (gap_lat, ov)
            )
            decel, accel, memory = np.zeros(shape), np.zeros(shape), state.memory.copy()
            bounds = np.searchsorted(state.model, np.arange(len(models) + 1)).tolist()
            for m, name in enumerate(models):
                s = slice(bounds[m], bounds[m + 1])
                features = (gap_long[s], gap_lat[s], state.v[s], ov[s], ttc[s])
                try:
                    _, decel[s], accel[s], memory[s] = control_step(
                        ARRAYS, name, params, *features, dt, state.memory[s]
                    )
                except (CutinSimError, ArithmeticError):
                    leave[s] = True
            # the model ran on every lane; a collision step brakes 0, as
            # run_closed_loop's skipped model does
            decel = np.where(collided, 0.0, decel)
            state.min_gap, state.min_ttc, state.peak_decel = _summarize(
                ARRAYS, state.min_gap, state.min_ttc, state.peak_decel, gap_long, ttc, decel
            )
            x, v = advance_axis_xp(ARRAYS, state.x, state.v, accel, dt)
            done = collided | (i == n_steps)
            leave |= ~done & ~np.isfinite(accel + x + v)
            done &= ~leave
            state.x, state.v, state.memory = x, v, memory
            for lane, hit, min_gap, min_ttc, peak in zip(
                *(a[done].tolist() for a in
                  (state.lane, collided, state.min_gap, state.min_ttc, state.peak_decel))
            ):
                name, index, point = lanes[lane]
                result = SimResult(
                    trace=None, collided=hit, min_gap_long_m=min_gap, min_ttc_s=min_ttc,
                    peak_decel_mps2=peak, classification=_classify(hit, min_ttc, peak, ttc_crit_s),
                    model_name=name,
                )
                items[lane] = SweepItem(name, index, point, result)
            for lane in state.lane[leave].tolist():
                items[lane] = _scalar_item(lanes[lane], base, params, ttc_crit_s)
            if (done | leave).any():
                state.keep(~(done | leave))
    return items


def sweep(
    grid: SweepGrid,
    models: Sequence[str],
    base: ScenarioParams,
    params: ModelParams = ModelParams(),
    ttc_crit_s: float = 2.0,
) -> list[SweepItem]:
    """Simulate the full grid for every model (each named once), all runs
    stepped together in this process.

    Each item's result equals run_closed_loop's summary (its trace is None),
    and a grid point whose scenario or run raises is an error row. Results
    come back ordered by (model, grid index).
    """
    check_models(models)  # _run_lanes slices its lanes by model
    points = grid.points()
    invalid = {}
    for index, (v_e0, v_o0, d_x0, d_y0) in enumerate(points):
        try:  # each grid point's scenario is validated once, for every model
            replace(base, v_e0_mps=v_e0, v_o0_mps=v_o0, d_x0_m=d_x0, d_y0_m=d_y0)
        except Exception as exc:  # recorded as an error row, never aborts the sweep
            invalid[index] = _error_text(exc)
    lanes = [
        (model_name, index, point)
        for model_name in models
        for index, point in enumerate(points)
        if index not in invalid
    ]
    done = iter(_run_lanes(lanes, base, params, ttc_crit_s))
    return [
        SweepItem(model_name, index, point, None, error=invalid[index])
        if index in invalid else next(done)
        for model_name in models
        for index, point in enumerate(points)
    ]


def feasibility_bound(
    v_e0_mps: float, v_o0_mps: float, a_max_mps2: float, t_react_s: float
) -> float:
    """Minimum initial gap at which full braking after the reaction time avoids
    intercept, assuming the other vehicle holds speed."""
    if not a_max_mps2 > 0.0:
        raise ConfigError("a_max must be positive", key="a_max")
    if not 0.0 <= t_react_s < math.inf:
        raise ConfigError("t_react must be finite and >= 0", key="t_react")
    dv = max(v_e0_mps - v_o0_mps, 0.0)
    return dv * t_react_s + dv * dv / (2.0 * a_max_mps2)
