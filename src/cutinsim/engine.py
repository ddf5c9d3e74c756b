"""Scenario records, closed-loop simulation and parameter sweeps.

The engine measures each run: whether it collided, its minimum gap and TTC,
and its peak braking. Judging a run critical is risk's (risk.is_critical).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from .errors import ConfigError, InvalidInputError
from .kinematics import (
    ARRAYS,
    FLOATS,
    VehicleDims,
    advance_axis_xp,
    axis_gap,
    require_finite,
)
from .metrics import ttc_xp
from .safety_models import MARGIN_PASS, MODEL_NAMES, ModelParams, control_step

SCENARIO_KINDS = ("cut_in", "cut_out", "car_following")

DEFAULT_DIMS = VehicleDims(width_m=2.0, length_m=5.0)

# Upper bound on round(duration_s / dt_s), the steps of one run; a finer dt_s
# than this allows is a config error rather than an unbounded loop.
MAX_STEPS = 1_000_000

# The most lanes a sweep steps together: its lanes run in ceil(n / LANE_CHUNK)
# chunks of equal size (within 1), so the stepping state is bounded by the
# chunk, not by the grid. On the 268,800-lane dense criterion-5 grid (2-vCPU
# AMD EPYC VM) the sweep took 1.16 s at 16,384, 1.08 s here and 1.07 s at
# 65,536, with peak RSS 50, 59 and 70 MB; unchunked, 1.36 s and 128 MB.
LANE_CHUNK = 32_768


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


def check_models(models: Sequence[str], key: str = "models") -> None:
    """A ConfigError on key unless models names at least one registered
    model, each once."""
    for name in models:
        if name not in MODEL_NAMES:
            raise ConfigError(
                f"{key}: {name!r} is not a registered model (choose from {MODEL_NAMES})",
                key=key,
            )
    if not models:
        raise ConfigError(f"{key} must be a nonempty list", key=key)
    for i, name in enumerate(models):
        if name in models[:i]:
            raise ConfigError(f"{key} lists {name!r} more than once", key=key)


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
    trace: Trace
    collided: bool
    min_gap_long_m: float
    min_ttc_s: float  # math.inf when the pair never closes
    peak_decel_mps2: float


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
    collided, ttc, closing_ttc). The footprints collide where they overlap on
    both axes. closing_ttc, computed once here, is the TTC of the gap and
    closing speed, 0 at a negative gap; it is what every model reads. ttc is
    what the trace records: closing_ttc, but inf where the pair is
    longitudinally alongside in another lane, on no closing course (a
    collision implies alongside, so its TTC stays 0)."""
    ox, oy, ov, ovy = _other_motion(p, t_s, d_x0, v_o0, d_y0)
    gap_long = axis_gap(x, ox, p.ego_dims.length_m, p.other_dims.length_m)
    gap_lat = axis_gap(0.0, oy, p.ego_dims.width_m, p.other_dims.width_m)
    alongside = gap_long < 0.0
    collided = alongside & (gap_lat < 0.0)
    closing_ttc = ttc_xp(xp, gap_long, v - ov)
    ttc = closing_ttc
    if xp.count(alongside):
        ttc = xp.where(alongside != collided, math.inf, closing_ttc)
    return ox, oy, ov, ovy, gap_long, gap_lat, collided, ttc, closing_ttc


def _check_step(ox, oy, ov, ovy, accel, x, v) -> None:
    """The rule that ends a run, in both loops: InvalidInputError naming the
    first non-finite value of a step's other-vehicle plan (ox, oy, ov, ovy),
    then of its command and the ego's next state (accel, x, v)."""
    require_finite(pos_long_m=ox, pos_lat_m=oy, vel_long_mps=ov, vel_lat_mps=ovy)
    require_finite(accel_long_mps2=accel, pos_long_m=x, vel_long_mps=v)


def run_closed_loop(
    p: ScenarioParams, model_name: str, params: ModelParams = ModelParams()
) -> SimResult:
    """Simulate one scenario under one safety model.

    Each step: compute gaps and the closing TTC, run the model's control
    step on them, apply its acceleration to the ego, advance both vehicles,
    and end the run with _check_step's error if any of its values is
    non-finite. Stepping stops (and the collision flag latches) as soon as
    the footprints overlap. The summary is read off the trace: the minimum
    of its gaps and of its TTCs and the maximum of its braking commands.
    """
    dt = p.dt_s
    x, v = 0.0, p.v_e0_mps  # the ego, at the origin of its lane
    memory = 0
    n_steps = round(p.duration_s / dt)
    rows = []  # one tuple per step, in Trace's field order

    for i in range(n_steps + 1):
        t = i * dt
        ox, oy, ov, ovy, gap_long, gap_lat, collided, ttc, closing_ttc = _sense(
            FLOATS, p, t, x, v, p.d_x0_m, p.v_o0_mps, p.d_y0_m
        )
        if collided:  # the model is skipped: unsafe, no braking
            safe, decel, accel = False, 0.0, 0.0
        else:
            code, decel, accel, memory = control_step(
                FLOATS, model_name, params, gap_long, gap_lat, v, ov, closing_ttc, dt, memory
            )
            safe = code <= MARGIN_PASS
        rows.append((t, x, v, ox, oy, ov, ovy, gap_long, gap_lat, ttc, safe, decel))
        x, v = advance_axis_xp(FLOATS, x, v, accel, dt)
        # one sum screens all seven values; only a non-finite one (or an
        # overflowing sum) pays for the named check
        if not math.isfinite(ox + oy + ov + ovy + accel + x + v):
            _check_step(ox, oy, ov, ovy, accel, x, v)
        if collided or i == n_steps:
            break

    trace = Trace(*zip(*rows))
    return SimResult(
        trace=trace,
        collided=collided,
        min_gap_long_m=min(trace.gap_long_m),
        min_ttc_s=min(trace.ttc_s),
        peak_decel_mps2=max(trace.decel_cmd_mps2),
    )


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid over the four scenario scalars. Grid index i is the
    i-th point of itertools.product over the axes, in points() order."""

    v_e0_mps: tuple[float, ...]
    v_o0_mps: tuple[float, ...]
    d_x0_m: tuple[float, ...]
    d_y0_m: tuple[float, ...]

    def __post_init__(self) -> None:
        for field in ("v_e0_mps", "v_o0_mps", "d_x0_m", "d_y0_m"):
            if not getattr(self, field):
                key = "sweep." + field.rsplit("_", 1)[0]  # the input key, without the unit
                raise ConfigError(f"{key} must be nonempty", key=key)

    @property
    def axes(self) -> tuple[tuple[float, ...], ...]:
        return (self.v_e0_mps, self.v_o0_mps, self.d_x0_m, self.d_y0_m)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.axes))

    def points(self) -> list[tuple[float, float, float, float]]:
        return list(itertools.product(*self.axes))

    def point(self, index: int) -> tuple[float, float, float, float]:
        return tuple(axis[i] for axis, i in zip(self.axes, np.unravel_index(index, self.shape)))


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's outcomes as columns: entry [m, i] of each summary array
    belongs to models[m] at grid index i. A (model index, grid index) in
    errors is an error row, whose text is recorded there and whose column
    entries mean nothing."""

    grid: SweepGrid
    models: tuple[str, ...]
    collided: np.ndarray  # bool
    min_gap_long_m: np.ndarray  # float64, as are the two below
    min_ttc_s: np.ndarray
    peak_decel_mps2: np.ndarray
    errors: dict[tuple[int, int], str]


class _Lanes:
    """Per-lane state of _run_lanes, one array entry per lane still
    stepping, or one float that every lane shares. lane is each entry's
    position in the call. keep(mask) drops the finished lanes from every
    array at once."""

    def __init__(self, **columns: np.ndarray | float) -> None:
        self.__dict__.update(columns)

    def keep(self, mask: np.ndarray) -> None:
        self.__dict__.update(
            {name: c[mask] for name, c in vars(self).items() if isinstance(c, np.ndarray)}
        )


def _lanes_of(column: np.ndarray | float, s: slice | int) -> np.ndarray | float:
    """The entries of lanes s, a model's slice or one lane; a float that
    every lane shares is its own."""
    return column[s] if isinstance(column, np.ndarray) else column


def _run_lanes(
    models: Sequence[str],
    model: np.ndarray,
    starts: Sequence[np.ndarray | float],
    base: ScenarioParams,
    params: ModelParams,
) -> tuple[tuple[np.ndarray, ...], dict[int, str]]:
    """run_closed_loop for many runs at once, summaries only: lane k runs
    models[model[k]] on base with its start values starts = (v_e0, v_o0,
    d_x0, d_y0), each an array with one entry per lane or one float that
    every lane shares. It reads no grid: the caller sorts the lanes by model
    (each model steps its own slice) and passes only starts that are valid
    over base. Returns the summary columns (collided, min_gap_long_m,
    min_ttc_s, peak_decel_mps2) in lane order, and {lane: error text} for
    each lane that fails; a failing lane's column entries mean nothing.

    Each step runs run_closed_loop's step helpers over ARRAYS and folds
    each lane's summary from (inf, inf, -inf) with ARRAYS' pick_min and
    pick_max, which keep the first of tied values as min and max over the
    scalar loop's trace do, so every summary equals the scalar loop's. A
    recorded TTC is never NaN. Where a start column is one float, the
    other vehicle's plan on it and what depends on it alone (its lateral
    gap on a shared d_y0) are computed once per step, as in the scalar
    loop. All lanes are sensed and advanced together; each model steps its
    own contiguous slice through control_step, whose step never raises. A
    collided lane brakes and accelerates 0, as run_closed_loop's skipped
    model does.

    One rule ends a run in both loops: _check_step on the step's plan,
    command and next state, on every step. The sum of those seven values
    only screens for it, since a sum also overflows on finite values: on a
    step where some lane's sum is non-finite, each lane that holds a
    non-finite value runs _check_step on its own values as floats, and
    its text is the lane's error. A step that passes
    had finite features: its state passed the check a step before, its
    plan passes now, and no gap or closing speed of positions and speeds
    >= 0 overflows. There control_step and the advance give both forms the
    same bits (no memory of -0.0: control_step), and a NaN decel, which
    comes with a NaN accel, does not pass. A non-finite plan depends only
    on t and the start values, so both loops name the same value first. A
    lane that collides or reaches the end and passes its check finishes.
    Only on a step where some lane may finish or fail are the lane columns
    written, the lanes compacted and the model slices found again.
    """
    n = len(model)
    v_e0, v_o0, d_x0, d_y0 = starts
    state = _Lanes(
        model=model, lane=np.arange(n), v_o0=v_o0, d_x0=d_x0, d_y0=d_y0, x=np.zeros(n),
        v=np.full(n, v_e0), memory=np.zeros(n), min_gap=np.full(n, math.inf),
        min_ttc=np.full(n, math.inf), peak_decel=np.full(n, -math.inf),
    )
    summary = (np.zeros(n, dtype=bool), *(np.full(n, math.nan) for _ in range(3)))
    errors: dict[int, str] = {}
    indices = range(len(models))
    bounds = np.searchsorted(state.model, indices[1:]).tolist()
    dt = base.dt_s
    n_steps = round(base.duration_s / dt)
    with np.errstate(all="ignore"):
        for i in range(n_steps + 1):
            if not state.lane.size:
                break
            ox, oy, ov, ovy, gap_long, gap_lat, collided, ttc, closing_ttc = _sense(
                ARRAYS, base, i * dt, state.x, state.v, state.d_x0, state.v_o0, state.d_y0
            )
            shape = state.lane.shape
            decel, accel, memory = np.zeros(shape), np.zeros(shape), state.memory.copy()
            for m, start, stop in zip(indices, [0, *bounds], [*bounds, shape[0]]):
                if start == stop:  # a chunk may hold no lane of this model
                    continue
                s = slice(start, stop)
                _, decel[s], accel[s], memory[s] = control_step(
                    ARRAYS, models[m], params, gap_long[s], _lanes_of(gap_lat, s), state.v[s],
                    _lanes_of(ov, s), closing_ttc[s], dt, state.memory[s],
                )
            # the model ran on every lane; a collision step brakes 0 and
            # accelerates 0, as run_closed_loop's skipped model does
            n_collided = np.count_nonzero(collided)
            if n_collided:
                decel[collided] = accel[collided] = 0.0
            state.min_gap = ARRAYS.pick_min(state.min_gap, gap_long)
            state.min_ttc = ARRAYS.pick_min(state.min_ttc, ttc)
            state.peak_decel = ARRAYS.pick_max(state.peak_decel, decel)
            x, v = advance_axis_xp(ARRAYS, state.x, state.v, accel, dt)
            state.x, state.v, state.memory = x, v, memory
            # short of the last step, a lane finishes only by colliding and
            # fails only on _check_step, where one of its seven values is
            # non-finite; their sum screens for that, as in run_closed_loop
            values = (ox, oy, ov, ovy, accel, x, v)
            failed = ~np.isfinite(ox + oy + ov + ovy + accel + x + v)
            n_failed = np.count_nonzero(failed)
            if n_failed:  # a sum also overflows on finite values
                failed = ~np.isfinite(np.broadcast_arrays(*values)).all(axis=0)
                n_failed = np.count_nonzero(failed)
            if i < n_steps and not (n_collided or n_failed):
                continue
            for k in np.flatnonzero(failed).tolist():
                try:
                    _check_step(*(float(_lanes_of(c, k)) for c in values))
                except InvalidInputError as exc:  # the lane's error text
                    errors[state.lane[k].item()] = f"{type(exc).__name__}: {exc}"
            done = (collided | (i == n_steps)) & ~failed
            at = state.lane[done]
            for column, values in zip(
                summary, (collided, state.min_gap, state.min_ttc, state.peak_decel)
            ):
                column[at] = values[done]
            state.keep(~(done | failed))
            bounds = np.searchsorted(state.model, indices[1:]).tolist()
    return summary, errors


def _field_passes(base: ScenarioParams, field: str, value: Any) -> bool:
    try:
        replace(base, **{field: value})
    except Exception:  # the point's own replace records what it raises
        return False
    return True


def sweep(
    grid: SweepGrid,
    models: Sequence[str],
    base: ScenarioParams,
    params: ModelParams = ModelParams(),
) -> SweepResult:
    """Simulate the full grid for every model (each registered and named
    once), all runs stepped in this process in chunks of at most LANE_CHUNK
    lanes, of equal size within 1.

    Every (model, grid point) gets run_closed_loop's summary in the result's
    columns, or an error row when its scenario or run raises: an invalid
    point's text comes from replace on the whole point, as for every model.

    sweep alone reads the grid. Every check of ScenarioParams on v_e0, v_o0,
    d_x0 or d_y0 reads that one value, so each axis becomes a float64 column
    once, NaN where its value fails set alone into base, and a point is valid
    exactly when none of its four values is NaN: one replace per axis value,
    not per point. Each chunk's (model, grid index) lanes, sorted by model,
    go to _run_lanes as start columns, a one-value axis as one float that
    every lane shares, and the lane columns and errors it returns are
    scattered into the result.
    """
    # _run_lanes slices its lanes by model, and a registered model's step never raises
    check_models(models)
    fields = ("v_e0_mps", "v_o0_mps", "d_x0_m", "d_y0_m")
    columns = [np.array([float(v) if _field_passes(base, f, v) else math.nan for v in axis])
               for f, axis in zip(fields, grid.axes)]
    valid = functools.reduce(np.logical_and.outer, [~np.isnan(c) for c in columns]).ravel()
    shape = (len(models), valid.size)
    summary = (np.zeros(shape, dtype=bool), *(np.full(shape, math.nan) for _ in range(3)))
    errors: dict[tuple[int, int], str] = {}
    for index in np.flatnonzero(~valid).tolist():
        v_e0, v_o0, d_x0, d_y0 = grid.point(index)
        try:  # some value of the point fails its check alone, so this raises
            replace(base, v_e0_mps=v_e0, v_o0_mps=v_o0, d_x0_m=d_x0, d_y0_m=d_y0)
        except Exception as exc:  # recorded as an error row, never aborts the sweep
            for m in range(len(models)):
                errors[m, index] = f"{type(exc).__name__}: {exc}"
    runs = np.flatnonzero(valid)
    n = len(models) * len(runs)
    n_chunks = -(-n // LANE_CHUNK)
    for c in range(n_chunks):
        lane = np.arange(n * c // n_chunks, n * (c + 1) // n_chunks)
        model, index = lane // len(runs), runs[lane % len(runs)]
        starts = [float(col[0]) if col.size == 1 else col[pos]
                  for col, pos in zip(columns, np.unravel_index(index, grid.shape))]
        lanes, lane_errors = _run_lanes(models, model, starts, base, params)
        for column, values in zip(summary, lanes):
            column[model, index] = values
        for k, text in lane_errors.items():
            errors[model[k].item(), index[k].item()] = text
    return SweepResult(grid, tuple(models), *summary, errors)


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
