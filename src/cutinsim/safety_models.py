"""Safety decision models over one step's gaps and speeds, behind one step function.

The primary model ("rba") is a rules-based check: a lateral clearance gate
combined with a longitudinal gate that accepts either a raw distance margin or
a stopping-time margin, plus a proportional braking law driven by distance and
TTC shortfalls. The baselines (rss, reg157, cc_human, fsm, idm) are compact
parameterized stand-ins for the systems they are named after, not
full-fidelity ports of those systems.

Each model is written once, in `control_step`, over the float/array
operations namespace of `kinematics`: on `FLOATS` it steps one run, on
`ARRAYS` many runs at once, one entry per run, with the same values bit for
bit. A step reports its rationale as an integer code (`SAFE` ...
`LANE_CHANGE_ADVISED`); `RATIONALES[code]` is its name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, InvalidInputError
from .metrics import CLOSING_SPEED_FLOOR_MPS

MODEL_NAMES = ("rba", "rss", "reg157", "cc_human", "fsm", "idm", "none")

# A step's rationale code; the codes up to MARGIN_PASS are the safe ones, and
# RATIONALES[code] names each.
SAFE, MARGIN_PASS, LATERAL_FAIL, LONGITUDINAL_FAIL, LANE_CHANGE_ADVISED = range(5)
RATIONALES = ("safe", "margin-pass", "lateral-fail", "longitudinal-fail", "lane-change-advised")


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


@dataclass(frozen=True)
class IdmParams:
    v_desired_mps: float = 30.0
    time_headway_s: float = 1.5
    min_spacing_m: float = 2.0
    a_max_mps2: float = 1.5
    b_comfort_mps2: float = 2.0

    def __post_init__(self) -> None:
        if self.v_desired_mps <= 0.0 or self.time_headway_s <= 0.0:
            raise InvalidInputError("idm desired speed and headway must be positive")
        if self.a_max_mps2 <= 0.0 or self.b_comfort_mps2 <= 0.0:
            raise InvalidInputError("idm acceleration bounds must be positive")
        if not self.a_max_mps2 * self.b_comfort_mps2 > 0.0:
            # 2 sqrt(a_max b) divides the law's closing-speed term
            raise InvalidInputError("idm a_max_mps2 * b_comfort_mps2 underflows to 0")


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
# The step: each model written once, over floats or arrays
# ---------------------------------------------------------------------------

RBA_SATURATION_STEPS = 5


def control_step(
    xp, name, params, gap_long_m, gap_lat_m, v_ego_mps, v_other_mps, ttc_s, dt_s, memory
):
    """One control step of the named model over the operations xp:
    (rationale code, decel_cmd_mps2, accel_mps2, memory).

    The inputs are the step's features, which the engine senses once per
    step. ttc_s is the step's closing TTC, metrics.ttc(gap_long_m,
    v_ego_mps - v_other_mps): rba's margin and braking law, cc_human's
    perception test and fsm's urgency all read it, and no model computes a
    TTC of its own (where the pair is alongside in another lane, the trace
    records inf instead). memory is the model's per-run state, 0 at
    scenario start, fed back on the next step: rba counts consecutive steps
    braking at a_max, cc_human carries its perception timer in seconds, the
    other models return it unchanged. The step is safe where
    code <= MARGIN_PASS, and a safe step brakes 0.

    With kinematics.FLOATS the features, memory and results are Python
    numbers. With kinematics.ARRAYS the features and memory are float64 arrays,
    one entry per run, dt_s a float; run it under np.errstate(all="ignore").
    Where the features are finite (ttc_s may also be inf) and no memory is
    -0.0, each entry equals the float form's values bit for bit. On finite
    features no pick_max or pick_min of the step gets a NaN second operand,
    the one case where ARRAYS' np.maximum and np.minimum differ from max and
    min. The engine keeps no result of other features: in both loops,
    engine._check_step ends a run whose plan, command or next state is
    non-finite, on every step, its last too. rba's saturation count
    differs at -0.0: the float form skips its update (bool(-0.0) is False)
    and keeps -0.0, while a batch where another entry carries a count
    updates it to +0.0; the engine passes no -0.0, since a count starts at
    0 and only grows. gap_lat_m
    and v_other_mps may also be one float that every run shares, as the
    engine passes them where they depend only on the time and one-value
    start axes; a result that depends on them alone (rba's code where no
    run clears its lateral gate) is then one value for every run.

    Every branch that some entry takes is computed and the taken one
    selected by xp.where, so both forms do the same IEEE operations in the
    same order; rba's longitudinal tests run only where xp.count finds some
    entry clearing the lateral gate, since otherwise no entry selects them,
    and its saturation count is updated only where some entry saturates or
    carries a count, since otherwise every count stays 0. A registered
    model's step never raises: every divisor is a parameter validated
    positive, dt_s, or idm's gap, which is 1.0 where its law does not run,
    and a value past float range is inf or nan in both forms. The step takes
    no power: rss's reach and idm's interaction term are squares, and idm's
    free-road term (v / v_desired) ** 4, with the IDM paper's exponent 4, is
    the square of a square, all products in both forms.
    """
    where, pick_max, pick_min = xp.where, xp.pick_max, xp.pick_min
    if name == "rba":
        p = params.rba
        # the check: lateral clearance AND (a gap over the speed-adjusted safe
        # distance OR a stopping-time margin: gap / dv over dv / (2 a_max) +
        # reaction time + time margin); a non-closing pair passes the margin.
        # Where no entry clears laterally, none selects the longitudinal
        # code, so its tests are skipped
        lateral_ok = gap_lat_m > p.d_lat_safe_m
        longitudinal = LATERAL_FAIL
        if xp.count(lateral_ok):
            dv = v_ego_mps - v_other_mps
            margin_s = dv / (2.0 * p.a_max_mps2) + p.t_react_s + p.time_margin_s
            margin_pass = (dv < CLOSING_SPEED_FLOOR_MPS) | (ttc_s > margin_s)
            longitudinal = where(
                gap_long_m > p.d_safe_m + p.headway_gain_s * v_ego_mps,
                SAFE,
                where(margin_pass, MARGIN_PASS, LONGITUDINAL_FAIL),
            )
        code = where(lateral_ok, longitudinal, LATERAL_FAIL)
        safe = code <= MARGIN_PASS
        # the braking law, once unsafe: the larger normalized distance or TTC
        # shortfall (an infinite TTC gives -inf) times a_max, clamped to
        # [0, a_max]
        denom = p.d_safe_m + p.safety_buffer_m
        shortfall = pick_max((denom - gap_long_m) / denom, (p.ttc_safe_s - ttc_s) / p.ttc_safe_s)
        decel = where(safe, 0.0, pick_min(pick_max(shortfall * p.a_max_mps2, 0.0), p.a_max_mps2))
        # braking pinned at the physical limit for several consecutive steps
        # means braking alone is not enough; advise an evasive lane change (a
        # safe step brakes 0, so it resets the count). Where no entry
        # saturates or carries a count, every count stays 0 and no advice is
        # given, so the update is skipped
        saturated = decel >= p.a_max_mps2
        if xp.count(saturated) or xp.count(memory):
            memory = where(saturated, memory + 1, 0)
            code = where(memory >= RBA_SATURATION_STEPS, LANE_CHANGE_ADVISED, code)
        # the speed floor never speeds the ego up: below v_min_mps it holds v;
        # a safe step accelerates 0.0 - 0.0 = +0.0, where -decel is -0.0
        accel = pick_max(0.0 - decel, (pick_min(v_ego_mps, p.v_min_mps) - v_ego_mps) / dt_s)
        return code, decel, accel, memory
    if name == "none":
        # uncontrolled ego: never brakes; the collision baseline (code 0 is SAFE)
        zeros = xp.zeros
        return zeros(v_ego_mps, int), zeros(v_ego_mps, float), zeros(v_ego_mps, float), memory

    # the baselines' lateral gate; rss, reg157 and fsm select its complement,
    # in_lane, each in its own law
    lateral_clear = gap_lat_m > 0.0
    if name == "rss":
        # the responsibility-sensitive envelope's minimum longitudinal gap
        p = params.rss
        in_lane = where(lateral_clear, False, True)
        rho = p.response_time_s
        r = v_ego_mps + rho * p.accel_max_response_mps2
        min_gap = (
            v_ego_mps * rho
            + 0.5 * p.accel_max_response_mps2 * rho * rho
            + r * r / (2.0 * p.ego_brake_min_mps2)
            - v_other_mps * v_other_mps / (2.0 * p.other_brake_max_mps2)
        )
        unsafe = in_lane & (gap_long_m < pick_max(min_gap, 0.0))
        decel = where(unsafe, p.ego_brake_min_mps2, 0.0)
    elif name == "reg157":
        # a minimum following distance, a low-speed regulatory baseline
        p = params.reg157
        in_lane = where(lateral_clear, False, True)
        threshold = pick_max(p.min_standstill_gap_m, v_ego_mps * p.min_time_gap_s)
        unsafe = in_lane & (gap_long_m < threshold)
        decel = where(unsafe, p.brake_mps2, 0.0)
    elif name == "cc_human":
        # a cautious driver: risk is perceived while the other vehicle intrudes
        # beyond the trigger AND the TTC is below the perception threshold;
        # memory is the time spent perceiving, and braking waits for it to
        # reach the reaction delay
        p = params.cc_human
        unsafe = (-gap_lat_m > p.lat_intrusion_trigger_m) & (ttc_s < p.perception_ttc_s)
        decel = where(unsafe & (memory >= p.reaction_delay_s), p.brake_mps2, 0.0)
        memory = where(unsafe, memory + dt_s, 0.0)
    elif name == "fsm":
        # risk in [0, 1], the larger of a proximity and an urgency indicator
        # (an infinite TTC gives -inf urgency), brakes in proportion
        p = params.fsm
        u_d = (p.proximity_scale_m - gap_long_m) / p.proximity_scale_m
        u_t = (p.ttc_scale_s - ttc_s) / p.ttc_scale_s
        risk = pick_max(pick_min(pick_max(u_d, 0.0), 1.0), pick_min(pick_max(u_t, 0.0), 1.0))
        in_lane = where(lateral_clear, False, True)
        unsafe = in_lane & (risk > 0.0)
        decel = where(unsafe, risk * p.braking_gain * p.a_max_mps2, 0.0)
    elif name == "idm":
        # intelligent-driver-model car following: the law on a free road (gap
        # inf, no closing speed) and behind a positive gap, clamped below at
        # the emergency floor -2 b that an overlapping gap commands
        p = params.idm
        floor = -2.0 * p.b_comfort_mps2
        law = lateral_clear | (gap_long_m > 0.0)
        gap = where(lateral_clear, math.inf, where(law, gap_long_m, 1.0))
        rel = where(lateral_clear, 0.0, v_ego_mps - v_other_mps)
        s_star = (
            p.min_spacing_m
            + v_ego_mps * p.time_headway_s
            + v_ego_mps * rel / (2.0 * math.sqrt(p.a_max_mps2 * p.b_comfort_mps2))
        )
        x = v_ego_mps / p.v_desired_mps
        x2 = x * x
        q = s_star / gap
        a = p.a_max_mps2 * (1.0 - x2 * x2 - q * q)
        accel = where(law, pick_max(a, floor), floor)
        coasting = accel >= 0.0
        return (
            where(coasting, SAFE, LONGITUDINAL_FAIL), where(coasting, 0.0, -accel), accel, memory
        )
    else:
        raise ConfigError(
            f"unknown safety model {name!r}; expected one of {MODEL_NAMES}", key="model"
        )
    return where(unsafe, LONGITUDINAL_FAIL, SAFE), decel, -decel, memory

