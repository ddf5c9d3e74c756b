import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutinsim.errors import ConfigError, InvalidInputError
from cutinsim.kinematics import ARRAYS, FLOATS, VehicleDims, advance_axis_xp
from cutinsim.metrics import CLOSING_SPEED_FLOOR_MPS, ttc
from cutinsim.safety_models import (
    LANE_CHANGE_ADVISED,
    LATERAL_FAIL,
    LONGITUDINAL_FAIL,
    MARGIN_PASS,
    MODEL_NAMES,
    SAFE,
    CcHumanParams,
    FsmParams,
    IdmParams,
    ModelParams,
    RbaParams,
    Reg157Params,
    RssParams,
    control_step,
)
from step_features import State, step_features

DIMS = VehicleDims(width_m=2.0, length_m=5.0)
DT = 0.05


def veh(x=0.0, y=0.0, v=0.0):
    return State(pos_long_m=x, pos_lat_m=y, vel_long_mps=v)


def closing_ttc(features):
    """The TTC the engine hands control_step for (gap_long_m, gap_lat_m,
    v_ego_mps, v_other_mps): metrics.ttc of the gap and closing speed."""
    gap_long, _, v_ego, v_other = features
    return ttc(gap_long, v_ego - v_other)


def step(name, features, memory=0, ttc_s=None, dt=DT, **params):
    """control_step of one model on floats, on (gap_long_m, gap_lat_m,
    v_ego_mps, v_other_mps), with that model's parameters and ttc_s, by
    default the features' closing TTC: (code, decel, accel, memory)."""
    if ttc_s is None:
        ttc_s = closing_ttc(features)
    return control_step(FLOATS, name, ModelParams(**params), *features, ttc_s, dt, memory)


def rba_brake(gap_long, ttc_s, p, dt=DT, v_ego=40.0):
    """The rba braking law on a step the check fails (the other vehicle
    overlaps laterally): (decel_cmd_mps2, accel_mps2)."""
    code, decel, accel, _ = control_step(
        FLOATS, "rba", ModelParams(rba=p), gap_long, 0.0, v_ego, v_ego, ttc_s, dt, 0
    )
    assert code > MARGIN_PASS
    return decel, accel


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def smallest_safe_gap(brakes, hi=1e6):
    """The smallest gap >= 0 at which brakes(gap) is False, exactly: bisection
    over the bit patterns of the non-negative floats, which order as the
    floats do. brakes(hi) must be False."""
    if not brakes(0.0):
        return 0.0
    lo, hi = 0, _bits(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if brakes(_float(mid)) else (lo, mid)
    return _float(hi)


def rss_min_gap(v_ego, v_other, p):
    """The rss minimum gap, read from control_step: the smallest in-lane gap
    at which rss does not brake."""
    return smallest_safe_gap(
        lambda gap: step("rss", (gap, 0.0, v_ego, v_other), rss=p)[0] > MARGIN_PASS
    )


def eq1_oracle(ego, cut, ego_dims, cut_dims, p):
    """Literal transcription of the published safety condition, kept separate
    from the production path on purpose."""
    lat = abs(ego.pos_lat_m - cut.pos_lat_m) - (ego_dims.width_m + cut_dims.width_m) / 2.0
    long = abs(ego.pos_long_m - cut.pos_long_m) - (ego_dims.length_m + cut_dims.length_m) / 2.0
    dv = ego.vel_long_mps - cut.vel_long_mps
    if dv < 1e-6:
        ratio_ok = True
    else:
        ratio_ok = long / abs(dv) > dv / (2.0 * p.a_max_mps2) + p.t_react_s + p.time_margin_s
    d_safe_eff = p.d_safe_m + p.headway_gain_s * ego.vel_long_mps
    return (lat > p.d_lat_safe_m) and (long > d_safe_eff or ratio_ok)


def rba_check(ego, cut, p, ego_dims=DIMS, cut_dims=DIMS):
    """The rba step's (code, decel) for a pair of vehicle states."""
    return step("rba", step_features(ego, cut, ego_dims, cut_dims), rba=p)[:2]


def test_large_separation_is_safe():
    code, decel = rba_check(veh(0, 0, 20), veh(200, 3.75, 20), RbaParams())
    assert code <= MARGIN_PASS and decel == 0.0


def test_lateral_overlap_forces_unsafe():
    code, _ = rba_check(veh(0, 0, 20), veh(40, 0.5, 18), RbaParams())
    assert code > MARGIN_PASS
    assert code == LATERAL_FAIL


def test_margin_clause_passes_short_gap():
    # gap_long 8 <= d_safe 10, but 8/2 = 4.0 beats 2/12 + 0.5 + 0.1
    p = RbaParams(a_max_mps2=6.0, t_react_s=0.5)
    ego, cut = veh(0, 0, 20), veh(13, 3.0, 18)
    code, _ = rba_check(ego, cut, p)
    assert code <= MARGIN_PASS
    assert code == MARGIN_PASS
    assert eq1_oracle(ego, cut, DIMS, DIMS, p)


def test_check_agrees_with_literal_oracle_on_random_states():
    rng = np.random.default_rng(42)
    p = RbaParams()
    big = VehicleDims(width_m=4.0, length_m=10.0)
    for _ in range(2000):
        gap_long = rng.uniform(-10.0, 200.0)
        gap_lat = rng.uniform(-3.0, 5.0)
        ego = veh(0.0, 0.0, rng.uniform(0, 40))
        cut = veh(gap_long + 10.0, gap_lat + 4.0, rng.uniform(0, 40))
        expected = eq1_oracle(ego, cut, big, big, p)
        code, decel, a, _ = step("rba", step_features(ego, cut, big, big), rba=p)
        assert (code <= MARGIN_PASS) == expected
        # the braking comes back as an acceleration, never beyond a_max, and
        # stopping at v_min (0) within the step only shortens it
        assert decel <= p.a_max_mps2
        assert a <= 0.0
        assert -a == min(decel, ego.vel_long_mps / DT)


def test_monotone_in_gaps_and_braking_authority():
    rng = np.random.default_rng(3)
    for _ in range(300):
        ego = veh(0, 0, rng.uniform(0, 40))
        x = rng.uniform(0, 60)
        y = rng.uniform(0, 6)
        cut = veh(x, y, rng.uniform(0, 40))
        p = RbaParams()
        if rba_check(ego, cut, p)[0] > MARGIN_PASS:
            continue
        for bump in (0.5, 2.0, 10.0):
            farther = veh(x + bump, y, cut.vel_long_mps)
            wider = veh(x, y + bump, cut.vel_long_mps)
            assert rba_check(ego, farther, p)[0] <= MARGIN_PASS
            assert rba_check(ego, wider, p)[0] <= MARGIN_PASS
            stronger = RbaParams(a_max_mps2=p.a_max_mps2 + bump)
            assert rba_check(ego, cut, stronger)[0] <= MARGIN_PASS


def test_braking_law_hand_transcription():
    p = RbaParams(d_safe_m=10.0, safety_buffer_m=2.0, ttc_safe_s=3.0, a_max_mps2=6.0)
    # max((12-6)/12, (3-1.5)/3) * 6 = 3 m/s², at any step length
    for dt in (0.1, 1.0):
        assert rba_brake(6.0, 1.5, p, dt) == (3.0, -3.0)


def test_braking_law_zero_at_boundary_and_saturation():
    p = RbaParams(d_safe_m=10.0, safety_buffer_m=2.0, ttc_safe_s=3.0, a_max_mps2=6.0)
    assert rba_brake(12.0, 3.0, p, 0.1) == (0.0, 0.0)
    assert rba_brake(0.0, 0.0, p, 1.0) == (6.0, -6.0)
    # a negative gap doubles the distance shortfall; the braking still stops
    # at a_max
    assert rba_brake(-12.0, 0.0, p, 0.1) == (6.0, -6.0)


def test_braking_law_bounds_and_exact_zero():
    rng = np.random.default_rng(5)
    p = RbaParams()
    for _ in range(2000):
        gap = rng.uniform(-50.0, 300.0)
        ttc = math.inf if rng.random() < 0.1 else rng.uniform(0.0, 20.0)
        decel, accel = rba_brake(gap, ttc, p)
        assert 0.0 <= decel <= p.a_max_mps2
        gap_short = (p.d_safe_m + p.safety_buffer_m - gap)
        ttc_short = (p.ttc_safe_s - ttc) if math.isfinite(ttc) else -math.inf
        if gap_short <= 0.0 and ttc_short <= 0.0:
            assert decel == 0.0 and accel == 0.0
        if gap_short > 0.0 or ttc_short > 0.0:
            assert decel > 0.0 and accel < 0.0


def test_velocity_update():
    def next_speed(v, gap_long, ttc_s, dt, p):
        """The speed the engine steps to under rba's acceleration."""
        _, _, accel, _ = control_step(
            FLOATS, "rba", ModelParams(rba=p), gap_long, 0.0, v, v, ttc_s, dt, 0
        )
        return advance_axis_xp(FLOATS, 0.0, v, accel, dt)[1]

    p = RbaParams(d_safe_m=10.0, safety_buffer_m=2.0, ttc_safe_s=3.0, v_min_mps=0.0)
    assert next_speed(20.0, 6.0, 1.5, 0.1, p) == 19.7  # braking 3 m/s² for 0.1 s
    assert next_speed(0.2, 0.0, 0.0, 1.0, p) == 0.0  # braking 6 m/s² for 1 s from 0.2 m/s
    floored = RbaParams(d_safe_m=10.0, safety_buffer_m=2.0, ttc_safe_s=3.0, v_min_mps=2.0)
    assert next_speed(2.5, 0.0, 0.0, 1.0, floored) == 2.0  # stops at v_min
    # a safe step keeps the speed
    code, _, accel, _ = step("rba", (200.0, 1.0, 5.0, 5.0), rba=RbaParams(v_min_mps=2.0))
    assert code <= MARGIN_PASS and accel == 0.0
    # under v_min the floor is the speed itself: braking holds it there
    assert next_speed(1.0, 0.0, 0.0, 1.0, floored) == 1.0


def test_rba_speed_floor_never_speeds_the_ego_up():
    # a stopped ego under a 3 m/s floor, braking at a_max: both forms hold it
    # at 0 rather than accelerating it to the floor in one step
    params = ModelParams(rba=RbaParams(v_min_mps=3.0))
    _, decel, accel, _ = control_step(FLOATS, "rba", params, 5.0, 0.0, 0.0, 0.0, 0.0, 0.05, 0)
    assert (decel, accel) == (6.0, 0.0)
    columns = [np.array([value]) for value in (5.0, 0.0, 0.0, 0.0, 0.0)]
    with np.errstate(all="ignore"):
        _, decel, accel, _ = control_step(ARRAYS, "rba", params, *columns, 0.05, np.zeros(1))
    assert (decel.tolist(), accel.tolist()) == ([6.0], [0.0])


def test_rss_hand_evaluated_envelope():
    p = RssParams(response_time_s=0.75, accel_max_response_mps2=2.0,
                  ego_brake_min_mps2=4.0, other_brake_max_mps2=6.0)
    d_min = rss_min_gap(20.0, 20.0, p)
    expected = 20 * 0.75 + 0.5 * 2 * 0.75**2 + 21.5**2 / 8.0 - 400.0 / 12.0
    assert d_min == pytest.approx(expected)
    assert expected == pytest.approx(40.01, abs=0.01)
    # gap 60 > d_min: safe even when laterally overlapping
    code, *_ = step("rss", step_features(veh(0, 0, 20), veh(65, 0, 20), DIMS, DIMS), rss=p)
    assert code <= MARGIN_PASS
    # below it rss brakes at its minimum braking level
    code, decel, accel, _ = step("rss", (expected - 0.01, -1.0, 20.0, 20.0), rss=p)
    assert code > MARGIN_PASS and decel == 4.0 and accel == -4.0


def test_rss_standstill_and_lateral_gate():
    p = RssParams()
    # at standstill only the response-time acceleration terms remain
    residual = 0.5 * 2.0 * 0.75**2 + (0.75 * 2.0) ** 2 / 8.0
    assert rss_min_gap(0.0, 0.0, p) == pytest.approx(residual)
    code, *_ = step("rss", step_features(veh(0, 0, 0), veh(5.0 + residual + 0.1, 0, 0), DIMS, DIMS),
                    rss=p)
    assert code <= MARGIN_PASS
    # laterally separated: safe regardless of longitudinal gap
    code2, *_ = step("rss", step_features(veh(0, 0, 30), veh(6, 3.75, 0), DIMS, DIMS), rss=p)
    assert code2 <= MARGIN_PASS


def test_rss_envelope_monotone_in_speeds():
    p = RssParams()
    rng = np.random.default_rng(9)
    for _ in range(200):
        ve, vc = rng.uniform(0, 40), rng.uniform(0, 40)
        assert rss_min_gap(ve + 1.0, vc, p) >= rss_min_gap(ve, vc, p)
        assert rss_min_gap(ve, vc + 1.0, p) <= rss_min_gap(ve, vc, p)


def test_reg157_threshold():
    p = Reg157Params(min_time_gap_s=1.0, min_standstill_gap_m=2.0)
    code, *_ = step("reg157", step_features(veh(0, 0, 16.67), veh(25.0, 0, 16.67), DIMS, DIMS),
                    reg157=p)
    assert code <= MARGIN_PASS  # gap 20 > 16.67
    code2, *_ = step("reg157", step_features(veh(0, 0, 0.0), veh(6.9, 0, 0.0), DIMS, DIMS),
                     reg157=p)
    assert code2 > MARGIN_PASS  # gap 1.9 < standstill floor 2
    code3, *_ = step("reg157", step_features(veh(0, 0, 30.0), veh(6.9, 3.75, 0.0), DIMS, DIMS),
                     reg157=p)
    assert code3 <= MARGIN_PASS  # lateral gate


def test_cc_human_delay_window():
    p = CcHumanParams(lat_intrusion_trigger_m=0.3, perception_ttc_s=2.0,
                      reaction_delay_s=0.75, brake_mps2=6.0)
    ego = veh(0, 0, 20)
    intruder = step_features(ego, veh(20.0, 1.5, 10), DIMS, DIMS)  # intrusion 0.5 m, ttc 1.5 s
    no_risk = step_features(ego, veh(20.0, 3.75, 10), DIMS, DIMS)

    code, _, _, timer = step("cc_human", no_risk, 0.0, dt=0.1, cc_human=p)
    assert code <= MARGIN_PASS and timer == 0.0

    code, decel, _, timer = step("cc_human", intruder, 0.3, dt=0.1, cc_human=p)
    assert code > MARGIN_PASS and decel == 0.0  # still reacting
    assert timer == pytest.approx(0.4)

    code, decel, _, timer = step("cc_human", intruder, 0.8, dt=0.1, cc_human=p)
    assert code > MARGIN_PASS and decel == 6.0


def test_cc_human_timer_crosses_boundary_in_scripted_trace():
    p = CcHumanParams(reaction_delay_s=0.75)
    intruder = step_features(veh(0, 0, 20), veh(20.0, 1.5, 10), DIMS, DIMS)
    timer = 0.0
    braked_at = []
    for i in range(5):
        _, decel, _, timer = step("cc_human", intruder, timer, dt=0.3, cc_human=p)
        if decel > 0:
            braked_at.append(i)
    # perception accumulates 0.3 s per step; braking allowed once >= 0.75 s
    assert braked_at == [3, 4]


def test_cc_human_never_brakes_before_delay():
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = CcHumanParams(reaction_delay_s=rng.uniform(0.2, 1.5))
        dt = rng.uniform(0.02, 0.2)
        timer, elapsed = 0.0, 0.0
        ego = veh(0, 0, 25)
        intruder = veh(rng.uniform(8, 30), rng.uniform(0.0, 1.8), 10)
        for _ in range(40):
            code, decel, _, timer = step("cc_human", step_features(ego, intruder, DIMS, DIMS),
                                         timer, dt=dt, cc_human=p)
            if decel > 0.0:
                assert elapsed >= p.reaction_delay_s - 1e-12
            if code > MARGIN_PASS:
                elapsed += dt
            else:
                elapsed = 0.0


def fsm_decel(gap_long, ttc_s, p):
    """fsm's braking at an in-lane gap whose TTC is ttc_s: the ego closes at
    gap / ttc_s on a stopped vehicle."""
    closing = gap_long / ttc_s if gap_long > 0.0 else 1.0
    return step("fsm", (gap_long, 0.0, closing, 0.0), fsm=p)[1]


def test_fsm_risk_regions():
    # with braking_gain * a_max = 6, the braking is the risk times 6
    p = FsmParams(proximity_scale_m=20.0, ttc_scale_s=3.0, braking_gain=1.0, a_max_mps2=6.0)
    assert fsm_decel(25.0, 4.0, p) == 0.0
    assert fsm_decel(10.0, 3.0, p) == pytest.approx(0.5 * 6.0)
    assert fsm_decel(0.0, 0.5, p) == 6.0
    code, decel, _, _ = step("fsm", step_features(veh(0, 0, 20), veh(15.0, 0, 14.0), DIMS, DIMS),
                             fsm=p)
    # gap 10 = half scale, ttc 10/6 -> urgency (3-10/6)/3 ~ 0.444 -> proximity dominates
    assert code > MARGIN_PASS
    assert decel == pytest.approx(0.5 * 1.0 * 6.0)


def test_fsm_risk_bounds_and_monotone_decel():
    p = FsmParams()
    rng = np.random.default_rng(13)
    for _ in range(500):
        v_ego, v_other = rng.uniform(0, 40), rng.uniform(0, 40)
        gaps = np.sort(rng.uniform(-5, 50, size=4))
        decels = [step("fsm", (g, 0.0, v_ego, v_other), fsm=p)[1] for g in gaps]
        assert all(0.0 <= d <= p.braking_gain * p.a_max_mps2 for d in decels)
        # risk, and so braking, never grows with the gap
        assert all(b <= a for a, b in zip(decels, decels[1:]))


def idm_accel(v, gap, rel_vel, p):
    """idm's acceleration at speed v behind an in-lane gap closing at
    rel_vel; gap inf is a free road (nothing in the ego lane)."""
    features = (0.0, 1.0, v, v) if gap == math.inf else (gap, 0.0, v, v - rel_vel)
    return step("idm", features, idm=p)[2]


def test_idm_equilibria_and_bounds():
    p = IdmParams(v_desired_mps=30.0, time_headway_s=1.5, min_spacing_m=2.0,
                  a_max_mps2=1.5, b_comfort_mps2=2.0)
    assert idm_accel(30.0, math.inf, 0.0, p) == 0.0
    assert idm_accel(0.0, 2.0, 0.0, p) == 0.0
    rng = np.random.default_rng(17)
    for _ in range(500):
        a = idm_accel(rng.uniform(0, 40), rng.uniform(0.5, 200), rng.uniform(-20, 20), p)
        assert a <= p.a_max_mps2 + 1e-12
        assert a >= -2.0 * p.b_comfort_mps2 - 1e-12


def test_idm_transcription_oracle():
    p = IdmParams(v_desired_mps=30.0, time_headway_s=1.5, min_spacing_m=2.0,
                  a_max_mps2=1.5, b_comfort_mps2=2.0)
    v, gap, dv = 20.0, 30.0, 5.0
    s_star = 2.0 + v * 1.5 + v * dv / (2.0 * math.sqrt(1.5 * 2.0))
    raw = 1.5 * (1.0 - (v / 30.0) ** 4 - (s_star / gap) ** 2)
    expected = max(raw, -4.0)
    code, decel, a, _ = step("idm", (gap, 0.0, v, v - dv), idm=p)
    assert a == pytest.approx(expected)
    assert a < 0.0  # braking expected here
    assert code > MARGIN_PASS and decel == -a
    # an overlapping gap commands the emergency floor -2 b
    _, decel, a, _ = step("idm", (0.0, 0.0, v, v - dv), idm=p)
    assert a == -4.0 and decel == 4.0


# Each parameter check at its boundary value: (record, field, value, the
# error it raises there, or None where the value is valid).
PARAMETER_CHECKS = [
    (RbaParams, "a_max_mps2", 0.0, "a_max_mps2 must be positive"),
    (RbaParams, "ttc_safe_s", 0.0, "ttc_safe_s must be positive"),
    (RbaParams, "safety_buffer_m", -10.0, r"d_safe_m \+ safety_buffer_m must be positive"),
    (RbaParams, "v_min_mps", 0.0, None),
    (RbaParams, "v_min_mps", -0.1, "v_min_mps must be >= 0"),
    (RssParams, "response_time_s", 0.0, "response_time_s must be positive"),
    (RssParams, "ego_brake_min_mps2", 0.0, "braking levels must be positive"),
    (RssParams, "other_brake_max_mps2", 0.0, "braking levels must be positive"),
    (Reg157Params, "min_time_gap_s", 0.0, "min_time_gap_s must be positive"),
    (Reg157Params, "brake_mps2", 0.0, "brake_mps2 must be positive"),
    (CcHumanParams, "perception_ttc_s", 0.0, "time constants must be positive"),
    (CcHumanParams, "reaction_delay_s", 0.0, None),
    (CcHumanParams, "brake_mps2", 0.0, "brake_mps2 must be positive"),
    (FsmParams, "proximity_scale_m", 0.0, "fsm scales must be positive"),
    (FsmParams, "ttc_scale_s", 0.0, "fsm scales must be positive"),
    (FsmParams, "braking_gain", 0.0, None),
    (FsmParams, "a_max_mps2", 0.0, "a_max_mps2 must be positive"),
    (IdmParams, "v_desired_mps", 0.0, "desired speed and headway must be positive"),
    (IdmParams, "time_headway_s", 0.0, "desired speed and headway must be positive"),
    (IdmParams, "a_max_mps2", 0.0, "acceleration bounds must be positive"),
    (IdmParams, "b_comfort_mps2", 0.0, "acceleration bounds must be positive"),
]


@pytest.mark.parametrize("record, field, value, error", PARAMETER_CHECKS)
def test_each_parameter_check_at_its_boundary(record, field, value, error):
    if error is None:
        assert getattr(record(**{field: value}), field) == value
    else:
        with pytest.raises(InvalidInputError, match=error):
            record(**{field: value})


def test_saturated_braking_advises_lane_change():
    params = ModelParams()
    ego = veh(0, 0, 30.0)
    stuck = veh(4.0, 0.0, 10.0)  # gap -1 m, laterally overlapping, closing hard
    codes = []
    memory = 0
    for _ in range(6):
        code, _, _, memory = control_step(
            FLOATS, "rba", params, *step_features(ego, stuck, DIMS, DIMS), 0.0, 0.05, memory
        )
        assert code > MARGIN_PASS
        codes.append(code)
    assert LANE_CHANGE_ADVISED not in codes[:4]
    assert codes[4] == LANE_CHANGE_ADVISED
    assert codes[5] == LANE_CHANGE_ADVISED
    far = step_features(ego, veh(200.0, 3.75, 30.0), DIMS, DIMS)
    code, *_ = control_step(FLOATS, "rba", params, *far, math.inf, 0.05, 0)
    assert code <= MARGIN_PASS


def test_control_step_rejects_unknown_model():
    with pytest.raises(ConfigError, match="bogus"):
        control_step(
            FLOATS, "bogus", ModelParams(), *step_features(veh(), veh(20.0), DIMS, DIMS), math.inf,
            0.05, 0,
        )


# Every gate at exact equality, with the side it takes there:
# (model, (gap_long_m, gap_lat_m, v_ego_mps, v_other_mps), ttc_s, dt_s, memory,
#  parameters, (rationale code, decel_cmd_mps2, memory)). control_step is
# handed the smaller of the features' closing TTC, the one the engine hands
# every model, and ttc_s; inf hands it the closing TTC.
GATES = [
    # rba: the lateral gap must exceed d_lat_safe_m
    ("rba", (20.0, 0.5, 10.0, 10.0), math.inf, 0.05, 0, {}, (LATERAL_FAIL, 0.0, 0)),
    # rba: the raw gap must exceed d_safe_m; closing at 30 m/s fails the margin,
    # and the TTC shortfall (6 - 1/3) / 6 brakes a_max times it
    ("rba", (10.0, 1.0, 30.0, 0.0), math.inf, 0.05, 0, {"rba": RbaParams(safety_buffer_m=0.0)},
     (LONGITUDINAL_FAIL, 17.0 / 3.0, 0)),
    # rba: the TTC must exceed the stopping-time margin, 12/12 + 0.5 + 0.25 s
    ("rba", (21.0, 1.0, 12.0, 0.0), math.inf, 0.05, 0,
     {"rba": RbaParams(d_safe_m=30.0, safety_buffer_m=-9.0, time_margin_s=0.25)},
     (LONGITUDINAL_FAIL, 4.25, 0)),
    # rba: a closing speed at the floor counts as closing, so a negative gap
    # fails the margin; the distance shortfall then saturates the braking
    ("rba", (-1.0, 1.0, CLOSING_SPEED_FLOOR_MPS, 0.0), math.inf, 0.05, 0, {},
     (LONGITUDINAL_FAIL, 6.0, 1)),
    # rba: braking just under a_max is not saturated and resets the count (a
    # TTC under the closing one, inf at equal speeds, drives the braking)
    ("rba", (100.0, 0.0, 40.0, 40.0), 1e-9, 1.0, 4, {"rba": RbaParams(ttc_safe_s=1.0)},
     (LATERAL_FAIL, 5.999999994, 0)),
    # rss: a gap equal to the minimum gap (0.84375 m at standstill) is safe
    ("rss", (0.84375, 0.0, 0.0, 0.0), math.inf, 0.05, 0, {}, (SAFE, 0.0, 0)),
    # the baselines' lateral gate: a lateral gap of 0 is in lane
    ("rss", (0.5, 0.0, 0.0, 0.0), math.inf, 0.05, 0, {}, (LONGITUDINAL_FAIL, 4.0, 0)),
    # reg157: a gap equal to the standstill gap is safe
    ("reg157", (2.0, 0.0, 0.0, 0.0), math.inf, 0.05, 0, {}, (SAFE, 0.0, 0)),
    ("reg157", (1.0, 0.0, 0.0, 0.0), math.inf, 0.05, 0, {}, (LONGITUDINAL_FAIL, 6.0, 0)),
    # cc_human: an intrusion equal to the trigger is not perceived
    ("cc_human", (10.0, -0.3, 20.0, 10.0), math.inf, 0.05, 0.5, {}, (SAFE, 0.0, 0.0)),
    # cc_human: a TTC equal to perception_ttc_s (20 m at 10 m/s) is not perceived
    ("cc_human", (20.0, -1.0, 20.0, 10.0), math.inf, 0.05, 0.5, {}, (SAFE, 0.0, 0.0)),
    # cc_human: braking starts when the timer equals the reaction delay
    ("cc_human", (10.0, -1.0, 20.0, 10.0), math.inf, 0.25, 0.75, {},
     (LONGITUDINAL_FAIL, 6.0, 1.0)),
    # fsm: a gap equal to proximity_scale_m with no closing is no risk
    ("fsm", (20.0, 0.0, 10.0, 10.0), math.inf, 0.05, 0, {}, (SAFE, 0.0, 0)),
    ("fsm", (10.0, 0.0, 10.0, 10.0), math.inf, 0.05, 0, {}, (LONGITUDINAL_FAIL, 3.0, 0)),
    # idm: a gap of 0 commands the emergency floor
    ("idm", (0.0, 0.0, 10.0, 10.0), math.inf, 0.05, 0, {}, (LONGITUDINAL_FAIL, 4.0, 0)),
    # idm: at v_desired_mps on a free road the acceleration is exactly 0: safe
    ("idm", (0.0, 1.0, 30.0, 0.0), math.inf, 0.05, 0, {}, (SAFE, 0.0, 0)),
    # rba: braking at exactly a_max is saturated, so the fifth such step
    # advises a lane change
    ("rba", (100.0, 0.0, 40.0, 40.0), 0.0, 0.05, 4, {"rba": RbaParams(ttc_safe_s=1.0)},
     (LANE_CHANGE_ADVISED, 6.0, 5)),
]


@pytest.mark.parametrize("name, features, ttc_s, dt, memory, params, expected", GATES)
def test_each_gate_at_its_boundary(name, features, ttc_s, dt, memory, params, expected):
    ttc_s = min(closing_ttc(features), ttc_s)
    code, decel, _, new_memory = step(name, features, memory, ttc_s, dt, **params)
    assert (code, decel, new_memory) == expected
    assert (code <= MARGIN_PASS) == (expected[0] in (SAFE, MARGIN_PASS))
    columns = [np.array([value]) for value in (*features, ttc_s)]
    with np.errstate(all="ignore"):
        code, decel, _, new_memory = control_step(
            ARRAYS, name, ModelParams(**params), *columns, dt, np.array([float(memory)])
        )
    assert (code[0], decel[0], new_memory[0]) == expected


# (a, b) operand pairs of max and min: zeros of both signs in both orders,
# infinities, and a NaN in a, which both forms keep
PICK_PAIRS = (
    (-0.0, 0.0), (0.0, -0.0), (1.0, 2.0), (2.0, 1.0), (-0.0, -0.0), (0.0, 0.0),
    (math.inf, 0.0), (0.0, math.inf), (-math.inf, -0.0), (-0.0, -math.inf),
    (math.inf, -math.inf), (-math.inf, math.inf), (math.inf, math.inf),
    (math.nan, 0.0), (math.nan, -0.0), (math.nan, math.inf), (math.nan, -math.inf),
)
# numpy's maximum and minimum run a SIMD body and a scalar tail for the
# entries left over; these lengths reach both
PICK_LENGTHS = (1, 3, 8, 17, 144, 1008)


def test_max_and_min_of_both_forms_keep_the_first_of_equal_values():
    # max and min keep their first argument on a tie, so the sign of a zero
    # survives them; both forms of the step must keep the same one, with an
    # array or one float in either position. A NaN in b is outside the rule
    # (max(a, nan) is a, np.maximum gives nan); the engine never lets a
    # summary read one
    def picks(a, b):
        return list(map(repr, ARRAYS.pick_max(a, b).tolist() + ARRAYS.pick_min(a, b).tolist()))

    for a, b in PICK_PAIRS:
        assert repr(FLOATS.pick_max(a, b)) == repr(max(a, b))
        assert repr(FLOATS.pick_min(a, b)) == repr(min(a, b))
        for n in PICK_LENGTHS:
            expected = [repr(max(a, b))] * n + [repr(min(a, b))] * n
            for a_n, b_n in ((np.full(n, a), np.full(n, b)), (np.full(n, a), b), (a, np.full(n, b))):
                assert picks(a_n, b_n) == expected
    for n in PICK_LENGTHS:  # every pair in one array, at each offset of the SIMD body
        for shift in range(len(PICK_PAIRS)):
            pairs = [PICK_PAIRS[(shift + k) % len(PICK_PAIRS)] for k in range(n)]
            expected = [repr(max(*p)) for p in pairs] + [repr(min(*p)) for p in pairs]
            assert picks(*(np.array(column) for column in zip(*pairs))) == expected


no_nan = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(no_nan, st.just(math.nan)), no_nan), min_size=1, max_size=40),
       st.booleans())
def test_array_max_and_min_equal_the_float_forms_where_b_holds_no_nan(pairs, b_shared):
    """ARRAYS.pick_max and pick_min equal FLOATS' entry by entry, by repr,
    wherever b holds no NaN, with b an array or one float shared by every
    entry: the tie rule that the step's bit equality rests on."""
    if b_shared:
        pairs = [(a, pairs[0][1]) for a, _ in pairs]
    a = np.array([a for a, _ in pairs])
    b = pairs[0][1] if b_shared else np.array([b for _, b in pairs])
    for name in ("pick_max", "pick_min"):
        expected = [repr(getattr(FLOATS, name)(x, y)) for x, y in pairs]
        assert list(map(repr, getattr(ARRAYS, name)(a, b).tolist())) == expected


# Step features around every gate: exact zeros of both signs, overlaps,
# stopped and huge speeds, an infinite TTC, and each default parameter's
# boundary: gap_lat at rba's d_lat_safe_m (0.5) and at minus cc_human's
# lat_intrusion_trigger_m (-0.3), gap_long at rba's d_safe_m (10) and fsm's
# proximity_scale_m (20), a closing speed exactly at the floor, memory at
# cc_human's reaction_delay_s (0.75) and rba's saturation count (5), and
# idm's v_desired_mps (30), where on a free road its acceleration is 0.
edge_gaps = st.one_of(st.floats(-20.0, 80.0), st.sampled_from((0.0, -0.0, 0.5, 10.0, 12.0, 20.0)))
speeds = st.one_of(
    st.tuples(st.one_of(st.floats(0.0, 45.0), st.sampled_from((0.0, -0.0, 1e80, 30.0))),
              st.one_of(st.floats(0.0, 35.0), st.just(0.0))),
    st.sampled_from(((CLOSING_SPEED_FLOOR_MPS, 0.0),
                     (2.0 * CLOSING_SPEED_FLOOR_MPS, CLOSING_SPEED_FLOOR_MPS))),
)
feature_rows = st.tuples(
    edge_gaps,
    st.one_of(st.floats(-3.0, 5.0), st.sampled_from((0.0, -0.0, 0.3, -0.3, 0.5))),
    speeds,
    st.one_of(st.floats(0.0, 20.0), st.sampled_from((0.0, math.inf))),
    st.one_of(st.integers(0, 7).map(float), st.floats(0.0, 2.0), st.just(0.75)),
).map(lambda row: (row[0], row[1], *row[2], row[3], row[4]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODEL_NAMES), st.sampled_from((0.025, 0.05, 0.2)),
       st.lists(feature_rows, min_size=1, max_size=12))
def test_array_step_equals_the_scalar_step_entry_by_entry(name, dt, rows):
    """control_step on ARRAYS is control_step on FLOATS entry by entry: the
    same rationale code, decel, accel and memory bit for bit; neither form
    raises. Each float step also keeps the step contract: the baselines
    accelerate by minus their braking, only rba and cc_human change memory,
    and none never brakes."""
    scalar = []
    for gap_long, gap_lat, v_ego, v_other, ttc_s, memory in rows:
        code, decel, accel, new_memory = control_step(
            FLOATS, name, ModelParams(), gap_long, gap_lat, v_ego, v_other, ttc_s, dt, memory
        )
        if name in ("rss", "reg157", "cc_human", "fsm"):
            assert repr(accel) == repr(-decel)
        if name not in ("rba", "cc_human"):
            assert new_memory == memory
        if name == "none":
            assert (code, decel, accel) == (SAFE, 0.0, 0.0)
        scalar.append(repr((code, float(decel), float(accel), float(new_memory))))
    columns = [np.array(column, dtype=float) for column in zip(*rows)]
    with np.errstate(all="ignore"):
        code, decel, accel, memory = control_step(
            ARRAYS, name, ModelParams(), *columns[:5], dt, columns[5]
        )
    assert [
        repr(entry)
        for entry in zip(code.tolist(), decel.tolist(), accel.tolist(), memory.tolist())
    ] == scalar


# A finite feature of either sign whose magnitude runs from the smallest
# subnormal to 1.7e308, with the edges of that range and of a square's
# overflow (1e154, 1e306) drawn often.
finite_features = st.tuples(
    st.sampled_from((1.0, -1.0)),
    st.one_of(st.floats(5e-324, 1.7e308),
              st.sampled_from((0.0, 5e-324, 1e-310, 1e154, 1.4e154, 1e79, 1e306, 1.7e308))),
).map(lambda sign_magnitude: sign_magnitude[0] * sign_magnitude[1])
wide_rows = st.tuples(
    finite_features, finite_features, finite_features, finite_features,
    st.one_of(finite_features, st.just(math.inf)),
    st.one_of(st.integers(0, 7).map(float), st.floats(0.0, 2.0)),  # memory: a count or a timer
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MODEL_NAMES), st.sampled_from((5e-324, 0.05, 1.0)),
       st.lists(wide_rows, min_size=1, max_size=8))
def test_no_models_step_raises_at_any_finite_feature(name, dt, rows):
    """control_step on FLOATS raises nothing, for every registered model,
    over finite features whose magnitudes run from 5e-324 to 1.7e308 (ttc_s
    also inf); ARRAYS gives the same values entry by entry, bit for bit."""
    scalar = [
        repr(tuple(map(float, control_step(FLOATS, name, ModelParams(), *row[:5], dt, row[5]))))
        for row in rows
    ]
    columns = [np.array(column, dtype=float) for column in zip(*rows)]
    with np.errstate(all="ignore"):
        out = control_step(ARRAYS, name, ModelParams(), *columns[:5], dt, columns[5])
    arrays = zip(*(np.broadcast_to(column, (len(rows),)).tolist() for column in out))
    assert [repr(tuple(map(float, entry))) for entry in arrays] == scalar


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODEL_NAMES), st.sampled_from((0.025, 0.05, 0.2)),
       st.lists(feature_rows, min_size=1, max_size=12))
def test_no_step_commands_negative_braking_or_brakes_when_safe(name, dt, rows):
    """Both forms of every model's step command no negative braking, and
    brake 0 where the step is safe (code <= MARGIN_PASS): the float form
    row by row, the array form on the batch of rows."""
    outcomes = []
    for gap_long, gap_lat, v_ego, v_other, ttc_s, memory in rows:
        code, decel, _, _ = control_step(
            FLOATS, name, ModelParams(), gap_long, gap_lat, v_ego, v_other, ttc_s, dt, memory
        )
        outcomes.append((code, decel))
    columns = [np.array(column, dtype=float) for column in zip(*rows)]
    with np.errstate(all="ignore"):
        code, decel, _, _ = control_step(ARRAYS, name, ModelParams(), *columns[:5], dt, columns[5])
    outcomes += zip(code.tolist(), decel.tolist())
    for code, decel in outcomes:
        assert not decel < 0.0
        if code <= MARGIN_PASS:
            assert decel == 0.0


@settings(max_examples=150, deadline=None)
@given(
    st.builds(RbaParams, d_safe_m=st.floats(-5.0, 30.0), safety_buffer_m=st.floats(6.0, 10.0),
              a_max_mps2=st.floats(0.1, 12.0), ttc_safe_s=st.floats(0.5, 20.0),
              v_min_mps=st.floats(0.0, 5.0)),
    st.lists(feature_rows, min_size=1, max_size=12),
)
def test_rba_braking_is_the_same_at_every_dt(p, rows):
    """rba's decel_cmd_mps2 has the same bits for every dt_s, from the
    smallest subnormal to 1 s, in both forms; and an unsafe step whose
    shortfall is at least 1 brakes exactly a_max_mps2 and counts as
    saturated."""
    params = ModelParams(rba=p)
    columns = [np.array(column, dtype=float) for column in zip(*rows)]
    denom = p.d_safe_m + p.safety_buffer_m
    seen = set()
    for dt in (5e-324, 1e-310, 0.01, 0.05, 0.2, 1.0):
        decels = []
        for gap_long, gap_lat, v_ego, v_other, ttc_s, memory in rows:
            code, decel, _, new_memory = control_step(
                FLOATS, "rba", params, gap_long, gap_lat, v_ego, v_other, ttc_s, dt, memory
            )
            shortfall = max((denom - gap_long) / denom, (p.ttc_safe_s - ttc_s) / p.ttc_safe_s)
            if code > MARGIN_PASS and shortfall >= 1.0:
                assert (decel, new_memory) == (p.a_max_mps2, memory + 1)
            decels.append(decel)
        with np.errstate(all="ignore"):
            _, array_decels, _, _ = control_step(
                ARRAYS, "rba", params, *columns[:5], dt, columns[5]
            )
        seen.add(repr(decels))
        seen.add(repr(array_decels.tolist()))
    assert len(seen) == 1


@settings(max_examples=150, deadline=None)
@given(
    st.builds(RbaParams, d_safe_m=st.floats(-5.0, 30.0), safety_buffer_m=st.floats(6.0, 10.0),
              ttc_safe_s=st.floats(0.5, 20.0), v_min_mps=st.floats(0.0, 5.0)),
    st.sampled_from((0.025, 0.05, 0.2)),
    st.lists(st.tuples(
        st.floats(-100.0, 0.0).filter(lambda gap: gap < 0.0),
        st.one_of(st.floats(-3.0, 0.5), st.sampled_from((0.0, -0.0, 0.5))),
        st.floats(0.0, 45.0),
        st.floats(0.0, 35.0),
        st.integers(0, 7).map(float),
    ), min_size=1, max_size=12),
)
def test_rba_ignores_the_ttc_at_a_negative_gap_where_the_lateral_check_fails(p, dt, rows):
    """At a negative gap with the lateral check failed, rba gives the same
    (code, decel, accel, memory) bit for bit for ttc_s 0 and inf, in both
    forms. Those are the closing TTC and the recorded TTC of a step alongside
    in another lane, so the braking law may read the closing one: its
    distance shortfall there is at least 1, the shortfall of TTC 0 exactly 1
    and of TTC inf -inf, so the larger of the two is the distance term."""
    params = ModelParams(rba=p)
    for gap_long, gap_lat, v_ego, v_other, memory in rows:
        at_zero, at_inf = (
            repr(control_step(FLOATS, "rba", params, gap_long, gap_lat, v_ego, v_other, t, dt, memory))
            for t in (0.0, math.inf)
        )
        assert at_zero == at_inf
    gap_long, gap_lat, v_ego, v_other, memory = (np.array(c, dtype=float) for c in zip(*rows))
    with np.errstate(all="ignore"):
        at_zero, at_inf = (
            repr([column.tolist() for column in control_step(
                ARRAYS, "rba", params, gap_long, gap_lat, v_ego, v_other,
                np.full(len(rows), t), dt, memory,
            )])
            for t in (0.0, math.inf)
        )
    assert at_zero == at_inf
