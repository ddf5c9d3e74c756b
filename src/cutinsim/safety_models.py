"""Safety decision models over one step's gaps and speeds, behind one step function.

The primary model ("rba") is a rules-based check: a lateral clearance gate
combined with a longitudinal gate that accepts either a raw distance margin or
a stopping-time margin, plus a proportional braking law driven by distance and
TTC shortfalls. The baselines (rss, reg157, cc_human, fsm, idm) are compact
parameterized stand-ins for the systems they are named after, not
full-fidelity ports of those systems.

`control_step` steps one run; `control_step_array` steps many runs at once,
one array entry per run, with the same values bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInputError
from .metrics import CLOSING_SPEED_FLOOR_MPS, ttc, ttc_array

MODEL_NAMES = ("rba", "rss", "reg157", "cc_human", "fsm", "idm", "none")

RATIONALE_SAFE = "safe"
RATIONALE_MARGIN_PASS = "margin-pass"
RATIONALE_LATERAL_FAIL = "lateral-fail"
RATIONALE_LONGITUDINAL_FAIL = "longitudinal-fail"
RATIONALE_LANE_CHANGE_ADVISED = "lane-change-advised"


@dataclass(frozen=True)
class Decision:
    """Outcome of one safety evaluation."""

    safe: bool
    decel_cmd_mps2: float = 0.0
    rationale: str = RATIONALE_SAFE

    def __post_init__(self) -> None:
        if self.decel_cmd_mps2 < 0.0:
            raise InvalidInputError("decel_cmd_mps2 must be >= 0")
        if self.safe and self.decel_cmd_mps2 != 0.0:
            raise InvalidInputError("a safe decision must not command braking")


@dataclass(frozen=True)
class RbaParams:
    """Thresholds and constants of the rules-based check and braking law.

    ttc_safe_s sets where proportional braking starts to engage: below ~5 s the
    controller cannot shed closing speeds above roughly 14 m/s in time, so the
    default is deliberately conservative.
    """

    d_lat_safe_m: float = 0.5
    d_safe_m: float = 10.0
    a_max_mps2: float = 6.0
    t_react_s: float = 0.5
    v_min_mps: float = 0.0
    ttc_safe_s: float = 6.0
    safety_buffer_m: float = 2.0
    time_margin_s: float = 0.1
    headway_gain_s: float = 0.0  # speed-proportional growth of the safe distance

    def __post_init__(self) -> None:
        if self.a_max_mps2 <= 0.0:
            raise InvalidInputError("a_max_mps2 must be positive")
        if self.ttc_safe_s <= 0.0:
            raise InvalidInputError("ttc_safe_s must be positive")
        if self.d_safe_m + self.safety_buffer_m <= 0.0:
            raise InvalidInputError("d_safe_m + safety_buffer_m must be positive")
        if self.v_min_mps < 0.0:
            raise InvalidInputError("v_min_mps must be >= 0")


def rba_is_safe(
    gap_long_m: float, gap_lat_m: float, v_ego_mps: float, v_cut_mps: float, p: RbaParams
) -> Decision:
    """Rules-based safety check for an ego/cut-in pair.

    Safe requires the lateral clearance gate AND the longitudinal gate, where
    the longitudinal gate accepts either a raw gap above the (speed-adjusted)
    safe distance or a stopping-time margin: gap / |dv| must exceed
    dv / (2 a_max) + reaction time + fixed time margin. Non-closing pairs pass
    the margin clause by definition.
    """
    if not (gap_lat_m > p.d_lat_safe_m):
        return Decision(safe=False, rationale=RATIONALE_LATERAL_FAIL)
    if gap_long_m > p.d_safe_m + p.headway_gain_s * v_ego_mps:
        return Decision(safe=True, rationale=RATIONALE_SAFE)
    dv = v_ego_mps - v_cut_mps
    if dv < CLOSING_SPEED_FLOOR_MPS:
        # not closing: the stopping-time margin holds trivially
        return Decision(safe=True, rationale=RATIONALE_MARGIN_PASS)
    margin_s = dv / (2.0 * p.a_max_mps2) + p.t_react_s + p.time_margin_s
    if ttc(gap_long_m, dv) > margin_s:
        return Decision(safe=True, rationale=RATIONALE_MARGIN_PASS)
    return Decision(safe=False, rationale=RATIONALE_LONGITUDINAL_FAIL)


def rba_decel(gap_long_m: float, ttc_s: float, p: RbaParams, step_freq_hz: float) -> float:
    """Per-step velocity decrement (m/s) commanded once the check reports unsafe.

    The decrement is the larger of the distance shortfall and the TTC shortfall
    (both normalized), scaled by a_max / step frequency, clamped to
    [0, a_max / step frequency] so the implied deceleration never exceeds
    a_max. An infinite TTC contributes -inf and never dominates.
    """
    denom = p.d_safe_m + p.safety_buffer_m
    shortfall_gap = (denom - gap_long_m) / denom
    if math.isfinite(ttc_s):
        shortfall_ttc = (p.ttc_safe_s - ttc_s) / p.ttc_safe_s
    else:
        shortfall_ttc = -math.inf
    dv = max(shortfall_gap, shortfall_ttc) * p.a_max_mps2 / step_freq_hz
    return min(max(dv, 0.0), p.a_max_mps2 / step_freq_hz)


def rba_velocity_update(v_ego_mps: float, dv_dec_mps: float, p: RbaParams) -> float:
    """Apply one braking decrement, never dropping below the configured floor."""
    if dv_dec_mps < 0.0:
        raise InvalidInputError("dv_dec_mps must be >= 0")
    return max(v_ego_mps - dv_dec_mps, p.v_min_mps)


# ---------------------------------------------------------------------------
# Baseline models (simplified stand-ins; each is a few lines by design)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RssParams:
    response_time_s: float = 0.75
    accel_max_response_mps2: float = 2.0
    ego_brake_min_mps2: float = 4.0
    other_brake_max_mps2: float = 6.0

    def __post_init__(self) -> None:
        if self.response_time_s <= 0.0:
            raise InvalidInputError("response_time_s must be positive")
        if self.ego_brake_min_mps2 <= 0.0 or self.other_brake_max_mps2 <= 0.0:
            raise InvalidInputError("braking levels must be positive")


def rss_min_gap(v_ego_mps: float, v_cut_mps: float, p: RssParams) -> float:
    """Minimum longitudinal distance of the responsibility-sensitive envelope."""
    rho = p.response_time_s
    try:
        reach = (v_ego_mps + rho * p.accel_max_response_mps2) ** 2
    except OverflowError:
        raise InvalidInputError(f"rss minimum gap overflows at v_ego_mps={v_ego_mps!r}") from None
    d = (
        v_ego_mps * rho
        + 0.5 * p.accel_max_response_mps2 * rho * rho
        + reach / (2.0 * p.ego_brake_min_mps2)
        - v_cut_mps * v_cut_mps / (2.0 * p.other_brake_max_mps2)
    )
    return max(d, 0.0)


def rss_evaluate(
    gap_long_m: float, gap_lat_m: float, v_ego_mps: float, v_cut_mps: float, p: RssParams
) -> Decision:
    if gap_lat_m > 0.0:
        return Decision(safe=True)
    if gap_long_m < rss_min_gap(v_ego_mps, v_cut_mps, p):
        return Decision(
            safe=False,
            decel_cmd_mps2=p.ego_brake_min_mps2,
            rationale=RATIONALE_LONGITUDINAL_FAIL,
        )
    return Decision(safe=True)


@dataclass(frozen=True)
class Reg157Params:
    min_time_gap_s: float = 1.0
    min_standstill_gap_m: float = 2.0
    brake_mps2: float = 6.0

    def __post_init__(self) -> None:
        if self.min_time_gap_s <= 0.0:
            raise InvalidInputError("min_time_gap_s must be positive")
        if self.brake_mps2 <= 0.0:
            raise InvalidInputError("brake_mps2 must be positive")


def reg157_evaluate(
    gap_long_m: float, gap_lat_m: float, v_ego_mps: float, p: Reg157Params
) -> Decision:
    """Minimum following-distance threshold, a low-speed regulatory baseline."""
    if gap_lat_m > 0.0:
        return Decision(safe=True)
    if gap_long_m < max(p.min_standstill_gap_m, v_ego_mps * p.min_time_gap_s):
        return Decision(
            safe=False, decel_cmd_mps2=p.brake_mps2, rationale=RATIONALE_LONGITUDINAL_FAIL
        )
    return Decision(safe=True)


@dataclass(frozen=True)
class CcHumanParams:
    lat_intrusion_trigger_m: float = 0.3
    perception_ttc_s: float = 2.0
    reaction_delay_s: float = 0.75
    brake_mps2: float = 6.0

    def __post_init__(self) -> None:
        if self.perception_ttc_s <= 0.0 or self.reaction_delay_s < 0.0:
            raise InvalidInputError("cc_human time constants must be positive")
        if self.brake_mps2 <= 0.0:
            raise InvalidInputError("brake_mps2 must be positive")


def cc_human_evaluate(
    gap_long_m: float,
    gap_lat_m: float,
    v_ego_mps: float,
    v_cut_mps: float,
    p: CcHumanParams,
    timer_s: float,
    dt_s: float,
) -> tuple[Decision, float]:
    """One step of the cautious-driver state machine.

    Risk is perceived while the cut vehicle intrudes laterally beyond the
    trigger AND the TTC is below the perception threshold. timer_s is the time
    already spent perceiving (0 at scenario start, or when perception lapses);
    braking begins only once it reaches the reaction delay. Returns the
    decision plus the updated timer.
    """
    perceived = (
        -gap_lat_m > p.lat_intrusion_trigger_m
        and ttc(gap_long_m, v_ego_mps - v_cut_mps) < p.perception_ttc_s
    )
    if not perceived:
        return Decision(safe=True), 0.0
    if timer_s >= p.reaction_delay_s:
        decision = Decision(
            safe=False, decel_cmd_mps2=p.brake_mps2, rationale=RATIONALE_LONGITUDINAL_FAIL
        )
    else:
        # still within the reaction delay: risk is seen but no braking yet
        decision = Decision(safe=False, rationale=RATIONALE_LONGITUDINAL_FAIL)
    return decision, timer_s + dt_s


@dataclass(frozen=True)
class FsmParams:
    proximity_scale_m: float = 20.0
    ttc_scale_s: float = 3.0
    braking_gain: float = 1.0
    a_max_mps2: float = 6.0

    def __post_init__(self) -> None:
        if self.proximity_scale_m <= 0.0 or self.ttc_scale_s <= 0.0:
            raise InvalidInputError("fsm scales must be positive")
        if self.braking_gain < 0.0:
            raise InvalidInputError("braking_gain must be >= 0")
        if self.a_max_mps2 <= 0.0:
            raise InvalidInputError("a_max_mps2 must be positive")


def fsm_risk(gap_long_m: float, ttc_s: float, p: FsmParams) -> float:
    """Unitless risk in [0, 1]: max of proximity and urgency indicators."""
    u_d = (p.proximity_scale_m - gap_long_m) / p.proximity_scale_m
    if math.isfinite(ttc_s):
        u_t = (p.ttc_scale_s - ttc_s) / p.ttc_scale_s
    else:
        u_t = -math.inf
    return max(min(max(u_d, 0.0), 1.0), min(max(u_t, 0.0), 1.0))


def fsm_evaluate(
    gap_long_m: float, gap_lat_m: float, v_ego_mps: float, v_cut_mps: float, p: FsmParams
) -> Decision:
    if gap_lat_m > 0.0:
        return Decision(safe=True)
    risk = fsm_risk(gap_long_m, ttc(gap_long_m, v_ego_mps - v_cut_mps), p)
    if risk > 0.0:
        return Decision(
            safe=False,
            decel_cmd_mps2=risk * p.braking_gain * p.a_max_mps2,
            rationale=RATIONALE_LONGITUDINAL_FAIL,
        )
    return Decision(safe=True)


@dataclass(frozen=True)
class IdmParams:
    v_desired_mps: float = 30.0
    time_headway_s: float = 1.5
    min_spacing_m: float = 2.0
    a_max_mps2: float = 1.5
    b_comfort_mps2: float = 2.0
    delta: float = 4.0

    def __post_init__(self) -> None:
        if self.v_desired_mps <= 0.0 or self.time_headway_s <= 0.0:
            raise InvalidInputError("idm desired speed and headway must be positive")
        if self.a_max_mps2 <= 0.0 or self.b_comfort_mps2 <= 0.0:
            raise InvalidInputError("idm acceleration bounds must be positive")
        if not self.delta > 0.0:
            raise InvalidInputError("delta must be positive")


def idm_acceleration(
    v_mps: float, gap_m: float, rel_vel_mps: float, p: IdmParams
) -> float:
    """Intelligent-driver-model acceleration; rel_vel_mps positive when closing.

    Clamped below at -2 b (emergency braking floor); gap_m may be math.inf for
    free flow but must be positive. A speed (or gap) for which either power
    overflows is an InvalidInputError naming v_mps.
    """
    if not gap_m > 0.0:
        raise InvalidInputError(f"gap_m must be > 0, got {gap_m}")
    s_star = (
        p.min_spacing_m
        + v_mps * p.time_headway_s
        + v_mps * rel_vel_mps / (2.0 * math.sqrt(p.a_max_mps2 * p.b_comfort_mps2))
    )
    try:
        free_road = (v_mps / p.v_desired_mps) ** p.delta
        interaction = (s_star / gap_m) ** 2
    except OverflowError:
        raise InvalidInputError(
            f"idm acceleration overflows at v_mps={v_mps!r}, gap_m={gap_m!r}"
        ) from None
    a = p.a_max_mps2 * (1.0 - free_road - interaction)
    return max(a, -2.0 * p.b_comfort_mps2)


def idm_evaluate(
    gap_long_m: float, gap_lat_m: float, v_ego_mps: float, v_cut_mps: float, p: IdmParams
) -> tuple[Decision, float]:
    """IDM car following. Returns the decision plus the signed acceleration.

    With nothing in the ego lane the ego accelerates freely toward the desired
    speed; an overlapping gap commands the emergency floor -2 b.
    """
    if gap_lat_m > 0.0:
        a = idm_acceleration(v_ego_mps, math.inf, 0.0, p)
    elif gap_long_m <= 0.0:
        a = -2.0 * p.b_comfort_mps2
    else:
        a = idm_acceleration(v_ego_mps, gap_long_m, v_ego_mps - v_cut_mps, p)
    if a >= 0.0:
        return Decision(safe=True), a
    return Decision(safe=False, decel_cmd_mps2=-a, rationale=RATIONALE_LONGITUDINAL_FAIL), a


@dataclass(frozen=True)
class ModelParams:
    """Parameter bundle holding one record per registered model."""

    rba: RbaParams = RbaParams()
    rss: RssParams = RssParams()
    reg157: Reg157Params = Reg157Params()
    cc_human: CcHumanParams = CcHumanParams()
    fsm: FsmParams = FsmParams()
    idm: IdmParams = IdmParams()


# ---------------------------------------------------------------------------
# Engine-facing step function
# ---------------------------------------------------------------------------

RBA_SATURATION_STEPS = 5


def control_step(
    name: str,
    params: ModelParams,
    gap_long_m: float,
    gap_lat_m: float,
    v_ego_mps: float,
    v_other_mps: float,
    ttc_s: float,
    dt_s: float,
    memory: float,
) -> tuple[Decision, float, float]:
    """One control step of the named model: (decision, acceleration in m/s^2, memory).

    The inputs are the features the engine records for the step; only the rba
    braking law reads ttc_s. memory is the model's per-run state, 0 at
    scenario start, fed back on the next step: rba counts consecutive steps
    braking at a_max, cc_human carries its perception timer in seconds, the
    other models return it unchanged.
    """
    if name == "rba":
        p = params.rba
        checked = rba_is_safe(gap_long_m, gap_lat_m, v_ego_mps, v_other_mps, p)
        if checked.safe:
            decision, dv_step, memory = checked, 0.0, 0
        else:
            step_freq_hz = 1.0 / dt_s
            dv_step = rba_decel(gap_long_m, ttc_s, p, step_freq_hz)
            decel = dv_step * step_freq_hz
            # braking pinned at the physical limit for several consecutive steps
            # means braking alone is not enough; advise an evasive lane change
            memory = memory + 1 if decel >= p.a_max_mps2 * (1.0 - 1e-9) else 0
            rationale = checked.rationale
            if memory >= RBA_SATURATION_STEPS:
                rationale = RATIONALE_LANE_CHANGE_ADVISED
            decision = Decision(safe=False, decel_cmd_mps2=decel, rationale=rationale)
        accel = (rba_velocity_update(v_ego_mps, dv_step, p) - v_ego_mps) / dt_s
        return decision, accel, memory
    if name == "rss":
        decision = rss_evaluate(gap_long_m, gap_lat_m, v_ego_mps, v_other_mps, params.rss)
    elif name == "reg157":
        decision = reg157_evaluate(gap_long_m, gap_lat_m, v_ego_mps, params.reg157)
    elif name == "cc_human":
        decision, memory = cc_human_evaluate(
            gap_long_m, gap_lat_m, v_ego_mps, v_other_mps, params.cc_human, memory, dt_s
        )
    elif name == "fsm":
        decision = fsm_evaluate(gap_long_m, gap_lat_m, v_ego_mps, v_other_mps, params.fsm)
    elif name == "idm":
        decision, accel = idm_evaluate(gap_long_m, gap_lat_m, v_ego_mps, v_other_mps, params.idm)
        return decision, accel, memory
    elif name == "none":
        # uncontrolled ego: never brakes; the collision baseline
        return Decision(safe=True), 0.0, memory
    else:
        raise ConfigError(
            f"unknown safety model {name!r}; expected one of {MODEL_NAMES}", key="model"
        )
    return decision, -decision.decel_cmd_mps2, memory


# ---------------------------------------------------------------------------
# Array step: control_step over many runs at once
# ---------------------------------------------------------------------------


def _pick_max(a, b):
    """Python's max(a, b) entry by entry: a unless b > a, so of equal values
    (0.0 and -0.0) the first is kept, as it is by max."""
    return np.where(b > a, b, a)


def _pick_min(a, b):
    """Python's min(a, b) entry by entry: a unless b < a."""
    return np.where(b < a, b, a)


def _py_pow(base: np.ndarray, exponent: float, where: np.ndarray) -> np.ndarray:
    """base ** exponent with Python's float power at the entries where `where`
    holds, 0 elsewhere. numpy's power differs from it in the last bit for
    some inputs; Python's raises OverflowError where the scalar model does."""
    out = np.zeros(base.shape)
    out[where] = [b ** exponent for b in base[where].tolist()]
    return out


def control_step_array(
    name: str,
    params: ModelParams,
    gap_long_m: np.ndarray,
    gap_lat_m: np.ndarray,
    v_ego_mps: np.ndarray,
    v_other_mps: np.ndarray,
    ttc_s: np.ndarray,
    dt_s: float,
    memory: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """control_step over float64 arrays, one entry per run:
    (decel_cmd_mps2, accel_mps2, memory) arrays.

    Each entry equals control_step's decision.decel_cmd_mps2, acceleration
    and memory bit for bit: the same IEEE operations in the same order,
    Python's tie rules for max and min, and the idm and rss powers through
    Python's ** entry by entry. Every branch is computed for every entry and
    the taken one selected, so run it under np.errstate(all="ignore"). Where
    control_step raises for some entry this raises a CutinSimError or an
    ArithmeticError, not always the one control_step raises, and names no
    entry; engine.sweep reruns every run of the call through run_closed_loop
    for the scalar error.
    """
    if name == "rba":
        p = params.rba
        dv = v_ego_mps - v_other_mps
        margin_s = dv / (2.0 * p.a_max_mps2) + p.t_react_s + p.time_margin_s
        safe = (gap_lat_m > p.d_lat_safe_m) & (
            (gap_long_m > p.d_safe_m + p.headway_gain_s * v_ego_mps)
            | (dv < CLOSING_SPEED_FLOOR_MPS)
            | (ttc_array(gap_long_m, dv) > margin_s)
        )
        step_freq_hz = 1.0 / dt_s
        denom = p.d_safe_m + p.safety_buffer_m
        shortfall_gap = (denom - gap_long_m) / denom
        shortfall_ttc = np.where(
            np.isfinite(ttc_s), (p.ttc_safe_s - ttc_s) / p.ttc_safe_s, -math.inf
        )
        dv_step = _pick_max(shortfall_gap, shortfall_ttc) * p.a_max_mps2 / step_freq_hz
        dv_step = _pick_min(_pick_max(dv_step, 0.0), p.a_max_mps2 / step_freq_hz)
        dv_step = np.where(safe, 0.0, dv_step)
        decel = np.where(safe, 0.0, dv_step * step_freq_hz)
        saturated = ~safe & (decel >= p.a_max_mps2 * (1.0 - 1e-9))
        memory = np.where(saturated, memory + 1, 0.0)
        accel = (_pick_max(v_ego_mps - dv_step, p.v_min_mps) - v_ego_mps) / dt_s
        return decel, accel, memory
    if name == "rss":
        p = params.rss
        rho = p.response_time_s
        checked = ~(gap_lat_m > 0.0)
        reach = _py_pow(v_ego_mps + rho * p.accel_max_response_mps2, 2, checked)
        min_gap = (
            v_ego_mps * rho
            + 0.5 * p.accel_max_response_mps2 * rho * rho
            + reach / (2.0 * p.ego_brake_min_mps2)
            - v_other_mps * v_other_mps / (2.0 * p.other_brake_max_mps2)
        )
        unsafe = checked & (gap_long_m < _pick_max(min_gap, 0.0))
        decel = np.where(unsafe, p.ego_brake_min_mps2, 0.0)
    elif name == "reg157":
        p = params.reg157
        threshold = _pick_max(p.min_standstill_gap_m, v_ego_mps * p.min_time_gap_s)
        unsafe = ~(gap_lat_m > 0.0) & (gap_long_m < threshold)
        decel = np.where(unsafe, p.brake_mps2, 0.0)
    elif name == "cc_human":
        p = params.cc_human
        perceived = (-gap_lat_m > p.lat_intrusion_trigger_m) & (
            ttc_array(gap_long_m, v_ego_mps - v_other_mps) < p.perception_ttc_s
        )
        decel = np.where(perceived & (memory >= p.reaction_delay_s), p.brake_mps2, 0.0)
        memory = np.where(perceived, memory + dt_s, 0.0)
    elif name == "fsm":
        p = params.fsm
        urgency_ttc = ttc_array(gap_long_m, v_ego_mps - v_other_mps)
        u_d = (p.proximity_scale_m - gap_long_m) / p.proximity_scale_m
        u_t = np.where(
            np.isfinite(urgency_ttc), (p.ttc_scale_s - urgency_ttc) / p.ttc_scale_s, -math.inf
        )
        risk = _pick_max(
            _pick_min(_pick_max(u_d, 0.0), 1.0), _pick_min(_pick_max(u_t, 0.0), 1.0)
        )
        unsafe = ~(gap_lat_m > 0.0) & (risk > 0.0)
        decel = np.where(unsafe, risk * p.braking_gain * p.a_max_mps2, 0.0)
    elif name == "idm":
        p = params.idm
        floor = -2.0 * p.b_comfort_mps2
        free_road = gap_lat_m > 0.0
        # the entries for which idm_evaluate calls idm_acceleration
        calls = free_road | ~(gap_long_m <= 0.0)
        gap = np.where(free_road, math.inf, gap_long_m)
        rel = np.where(free_road, 0.0, v_ego_mps - v_other_mps)
        sqrt_ab2 = 2.0 * math.sqrt(p.a_max_mps2 * p.b_comfort_mps2)
        if calls.any() and (sqrt_ab2 == 0.0 or not (gap[calls] > 0.0).all()):
            # idm_acceleration raises: 2 sqrt(a b) underflowed to 0 (a Python
            # division by zero) or a gap is not positive
            raise InvalidInputError("idm acceleration is undefined for some entry")
        s_star = p.min_spacing_m + v_ego_mps * p.time_headway_s + v_ego_mps * rel / sqrt_ab2
        free = _py_pow(v_ego_mps / p.v_desired_mps, p.delta, calls)
        interaction = _py_pow(s_star / gap, 2, calls)
        accel = np.where(
            calls, _pick_max(p.a_max_mps2 * (1.0 - free - interaction), floor), floor
        )
        return np.where(accel >= 0.0, 0.0, -accel), accel, memory
    elif name == "none":
        # uncontrolled ego: never brakes; the collision baseline
        return np.zeros(v_ego_mps.shape), np.zeros(v_ego_mps.shape), memory
    else:
        raise ConfigError(
            f"unknown safety model {name!r}; expected one of {MODEL_NAMES}", key="model"
        )
    return decel, -decel, memory
