import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutinsim.errors import ConfigError, InvalidInputError
from cutinsim.kinematics import VehicleDims, VehicleState
from cutinsim.safety_models import (
    CcHumanParams,
    Decision,
    FsmParams,
    IdmParams,
    ModelParams,
    RATIONALE_LANE_CHANGE_ADVISED,
    RATIONALE_LATERAL_FAIL,
    RATIONALE_MARGIN_PASS,
    RbaParams,
    Reg157Params,
    RssParams,
    cc_human_evaluate,
    MODEL_NAMES,
    control_step,
    control_step_array,
    fsm_evaluate,
    fsm_risk,
    idm_acceleration,
    idm_evaluate,
    rba_decel,
    rba_is_safe,
    rba_velocity_update,
    reg157_evaluate,
    rss_evaluate,
    rss_min_gap,
)
from step_features import step_features

DIMS = VehicleDims(width_m=2.0, length_m=5.0)


def veh(x=0.0, y=0.0, v=0.0):
    return VehicleState(pos_long_m=x, pos_lat_m=y, vel_long_mps=v)


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


def test_large_separation_is_safe():
    p = RbaParams()
    d = rba_is_safe(*step_features(veh(0, 0, 20), veh(200, 3.75, 20), DIMS, DIMS), p)
    assert d.safe and d.decel_cmd_mps2 == 0.0


def test_lateral_overlap_forces_unsafe():
    p = RbaParams()
    d = rba_is_safe(*step_features(veh(0, 0, 20), veh(40, 0.5, 18), DIMS, DIMS), p)
    assert not d.safe
    assert d.rationale == RATIONALE_LATERAL_FAIL


def test_margin_clause_passes_short_gap():
    # gap_long 8 <= d_safe 10, but 8/2 = 4.0 beats 2/12 + 0.5 + 0.1
    p = RbaParams(a_max_mps2=6.0, t_react_s=0.5)
    ego, cut = veh(0, 0, 20), veh(13, 3.0, 18)
    d = rba_is_safe(*step_features(ego, cut, DIMS, DIMS), p)
    assert d.safe
    assert d.rationale == RATIONALE_MARGIN_PASS
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
        assert rba_is_safe(*step_features(ego, cut, big, big), p).safe == expected


def test_monotone_in_gaps_and_braking_authority():
    rng = np.random.default_rng(3)
    for _ in range(300):
        ego = veh(0, 0, rng.uniform(0, 40))
        x = rng.uniform(0, 60)
        y = rng.uniform(0, 6)
        cut = veh(x, y, rng.uniform(0, 40))
        p = RbaParams()
        if not rba_is_safe(*step_features(ego, cut, DIMS, DIMS), p).safe:
            continue
        for bump in (0.5, 2.0, 10.0):
            farther = veh(x + bump, y, cut.vel_long_mps)
            wider = veh(x, y + bump, cut.vel_long_mps)
            assert rba_is_safe(*step_features(ego, farther, DIMS, DIMS), p).safe
            assert rba_is_safe(*step_features(ego, wider, DIMS, DIMS), p).safe
            stronger = RbaParams(a_max_mps2=p.a_max_mps2 + bump)
            assert rba_is_safe(*step_features(ego, cut, DIMS, DIMS), stronger).safe


def test_braking_law_hand_transcription():
    p = RbaParams(d_safe_m=10.0, safety_buffer_m=2.0, ttc_safe_s=3.0, a_max_mps2=6.0)
    # max((12-6)/12, (3-1.5)/3) * 6 / 10 = 0.3
    assert rba_decel(6.0, 1.5, p, 10.0) == pytest.approx(0.3)


def test_braking_law_zero_at_boundary_and_saturation():
    p = RbaParams(d_safe_m=10.0, safety_buffer_m=2.0, ttc_safe_s=3.0, a_max_mps2=6.0)
    assert rba_decel(12.0, 3.0, p, 10.0) == 0.0
    assert rba_decel(0.0, 0.0, p, 1.0) == 6.0
    # a negative gap doubles the distance shortfall; the decrement still stops
    # at a_max / step frequency
    assert rba_decel(-12.0, 0.0, p, 10.0) == pytest.approx(0.6)


def test_braking_law_bounds_and_exact_zero():
    rng = np.random.default_rng(5)
    p = RbaParams()
    step_freq_hz = 20.0
    for _ in range(2000):
        gap = rng.uniform(-50.0, 300.0)
        ttc = math.inf if rng.random() < 0.1 else rng.uniform(0.0, 20.0)
        dv = rba_decel(gap, ttc, p, step_freq_hz)
        assert 0.0 <= dv <= p.a_max_mps2 / step_freq_hz
        gap_short = (p.d_safe_m + p.safety_buffer_m - gap)
        ttc_short = (p.ttc_safe_s - ttc) if math.isfinite(ttc) else -math.inf
        if gap_short <= 0.0 and ttc_short <= 0.0:
            assert dv == 0.0
        if gap_short > 0.0 or ttc_short > 0.0:
            assert dv > 0.0


def test_velocity_update():
    p = RbaParams(v_min_mps=0.0)
    assert rba_velocity_update(20.0, 0.3, p) == 19.7
    assert rba_velocity_update(0.2, 6.0, p) == 0.0
    assert rba_velocity_update(5.0, 0.0, RbaParams(v_min_mps=2.0)) == 5.0
    with pytest.raises(InvalidInputError):
        rba_velocity_update(5.0, -0.1, p)


def test_rss_hand_evaluated_envelope():
    p = RssParams(response_time_s=0.75, accel_max_response_mps2=2.0,
                  ego_brake_min_mps2=4.0, other_brake_max_mps2=6.0)
    d_min = rss_min_gap(20.0, 20.0, p)
    expected = 20 * 0.75 + 0.5 * 2 * 0.75**2 + 21.5**2 / 8.0 - 400.0 / 12.0
    assert d_min == pytest.approx(expected)
    assert expected == pytest.approx(40.01, abs=0.01)
    # gap 60 > d_min: safe even when laterally overlapping
    d = rss_evaluate(*step_features(veh(0, 0, 20), veh(65, 0, 20), DIMS, DIMS), p)
    assert d.safe


def test_rss_standstill_and_lateral_gate():
    p = RssParams()
    # at standstill only the response-time acceleration terms remain
    residual = 0.5 * 2.0 * 0.75**2 + (0.75 * 2.0) ** 2 / 8.0
    assert rss_min_gap(0.0, 0.0, p) == pytest.approx(residual)
    d = rss_evaluate(*step_features(veh(0, 0, 0), veh(5.0 + residual + 0.1, 0, 0), DIMS, DIMS), p)
    assert d.safe
    # laterally separated: safe regardless of longitudinal gap
    d2 = rss_evaluate(*step_features(veh(0, 0, 30), veh(6, 3.75, 0), DIMS, DIMS), p)
    assert d2.safe


def test_rss_envelope_monotone_in_speeds():
    p = RssParams()
    rng = np.random.default_rng(9)
    for _ in range(200):
        ve, vc = rng.uniform(0, 40), rng.uniform(0, 40)
        assert rss_min_gap(ve + 1.0, vc, p) >= rss_min_gap(ve, vc, p)
        assert rss_min_gap(ve, vc + 1.0, p) <= rss_min_gap(ve, vc, p)


def test_reg157_threshold():
    p = Reg157Params(min_time_gap_s=1.0, min_standstill_gap_m=2.0)
    d = reg157_evaluate(*step_features(veh(0, 0, 16.67), veh(25.0, 0, 16.67), DIMS, DIMS)[:3], p)
    assert d.safe  # gap 20 > 16.67
    d2 = reg157_evaluate(*step_features(veh(0, 0, 0.0), veh(6.9, 0, 0.0), DIMS, DIMS)[:3], p)
    assert not d2.safe  # gap 1.9 < standstill floor 2
    d3 = reg157_evaluate(*step_features(veh(0, 0, 30.0), veh(6.9, 3.75, 0.0), DIMS, DIMS)[:3], p)
    assert d3.safe  # lateral gate


def test_cc_human_delay_window():
    p = CcHumanParams(lat_intrusion_trigger_m=0.3, perception_ttc_s=2.0,
                      reaction_delay_s=0.75, brake_mps2=6.0)
    ego = veh(0, 0, 20)
    intruder = veh(20.0, 1.5, 10)  # intrusion 0.5 m, ttc 1.5 s
    no_risk = veh(20.0, 3.75, 10)

    d, timer = cc_human_evaluate(*step_features(ego, no_risk, DIMS, DIMS), p, 0.0, 0.1)
    assert d.safe and timer == 0.0

    d, timer = cc_human_evaluate(*step_features(ego, intruder, DIMS, DIMS), p, 0.3, 0.1)
    assert not d.safe and d.decel_cmd_mps2 == 0.0  # still reacting
    assert timer == pytest.approx(0.4)

    d, timer = cc_human_evaluate(*step_features(ego, intruder, DIMS, DIMS), p, 0.8, 0.1)
    assert not d.safe and d.decel_cmd_mps2 == 6.0


def test_cc_human_timer_crosses_boundary_in_scripted_trace():
    p = CcHumanParams(reaction_delay_s=0.75)
    ego = veh(0, 0, 20)
    intruder = veh(20.0, 1.5, 10)
    timer = 0.0
    braked_at = []
    for step in range(5):
        d, timer = cc_human_evaluate(*step_features(ego, intruder, DIMS, DIMS), p, timer, 0.3)
        if d.decel_cmd_mps2 > 0:
            braked_at.append(step)
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
            d, timer = cc_human_evaluate(*step_features(ego, intruder, DIMS, DIMS), p, timer, dt)
            if d.decel_cmd_mps2 > 0.0:
                assert elapsed >= p.reaction_delay_s - 1e-12
            if not d.safe:
                elapsed += dt
            else:
                elapsed = 0.0


def test_fsm_risk_regions():
    p = FsmParams(proximity_scale_m=20.0, ttc_scale_s=3.0, braking_gain=1.0, a_max_mps2=6.0)
    assert fsm_risk(25.0, 4.0, p) == 0.0
    assert fsm_risk(10.0, 3.0, p) == pytest.approx(0.5)
    assert fsm_risk(0.0, 0.5, p) == 1.0
    d = fsm_evaluate(*step_features(veh(0, 0, 20), veh(15.0, 0, 14.0), DIMS, DIMS), p)
    # gap 10 = half scale, ttc 10/6 -> urgency (3-10/6)/3 ~ 0.444 -> proximity dominates
    assert not d.safe
    assert d.decel_cmd_mps2 == pytest.approx(0.5 * 1.0 * 6.0)


def test_fsm_risk_bounds_and_monotone_decel():
    p = FsmParams()
    rng = np.random.default_rng(13)
    risks = []
    for _ in range(500):
        r = fsm_risk(rng.uniform(-5, 50), rng.uniform(0, 10), p)
        assert 0.0 <= r <= 1.0
        risks.append(r)
    rs = sorted(set(risks))
    decs = [r * p.braking_gain * p.a_max_mps2 for r in rs]
    assert all(b >= a for a, b in zip(decs, decs[1:]))


def test_idm_equilibria_and_bounds():
    p = IdmParams(v_desired_mps=30.0, time_headway_s=1.5, min_spacing_m=2.0,
                  a_max_mps2=1.5, b_comfort_mps2=2.0, delta=4.0)
    assert idm_acceleration(30.0, math.inf, 0.0, p) == pytest.approx(0.0, abs=1e-12)
    assert idm_acceleration(0.0, 2.0, 0.0, p) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(17)
    for _ in range(500):
        a = idm_acceleration(rng.uniform(0, 40), rng.uniform(0.5, 200), rng.uniform(-20, 20), p)
        assert a <= p.a_max_mps2 + 1e-12
        assert a >= -2.0 * p.b_comfort_mps2 - 1e-12


def test_idm_transcription_oracle():
    p = IdmParams(v_desired_mps=30.0, time_headway_s=1.5, min_spacing_m=2.0,
                  a_max_mps2=1.5, b_comfort_mps2=2.0, delta=4.0)
    v, gap, dv = 20.0, 30.0, 5.0
    s_star = 2.0 + v * 1.5 + v * dv / (2.0 * math.sqrt(1.5 * 2.0))
    raw = 1.5 * (1.0 - (v / 30.0) ** 4 - (s_star / gap) ** 2)
    expected = max(raw, -4.0)
    a = idm_acceleration(v, gap, dv, p)
    assert a == pytest.approx(expected)
    assert a < 0.0  # braking expected here
    with pytest.raises(InvalidInputError):
        idm_acceleration(20.0, 0.0, 5.0, p)


def test_decision_invariants():
    with pytest.raises(InvalidInputError):
        Decision(safe=True, decel_cmd_mps2=1.0)
    with pytest.raises(InvalidInputError):
        Decision(safe=False, decel_cmd_mps2=-1.0)


def test_saturated_braking_advises_lane_change():
    params = ModelParams()
    ego = veh(0, 0, 30.0)
    stuck = veh(4.0, 0.0, 10.0)  # gap -1 m, laterally overlapping, closing hard
    rationales = []
    memory = 0
    for _ in range(6):
        decision, _, memory = control_step(
            "rba", params, *step_features(ego, stuck, DIMS, DIMS), 0.0, 0.05, memory
        )
        assert not decision.safe
        rationales.append(decision.rationale)
    assert RATIONALE_LANE_CHANGE_ADVISED not in rationales[:4]
    assert rationales[4] == RATIONALE_LANE_CHANGE_ADVISED
    assert rationales[5] == RATIONALE_LANE_CHANGE_ADVISED
    far = step_features(ego, veh(200.0, 3.75, 30.0), DIMS, DIMS)
    decision, _, _ = control_step("rba", params, *far, math.inf, 0.05, 0)
    assert decision.safe


def test_control_step_dispatches_to_the_model_functions():
    params = ModelParams()
    dt = 0.05
    rng = np.random.default_rng(31)
    for _ in range(300):
        ego = veh(0.0, 0.0, rng.uniform(0.0, 35.0))
        other = veh(rng.uniform(-8.0, 60.0), rng.uniform(0.0, 4.0), rng.uniform(0.0, 35.0))
        ttc_s = rng.uniform(0.0, 10.0)
        f = step_features(ego, other, DIMS, DIMS)
        for name, evaluate, n_features in (
            ("rss", rss_evaluate, 4), ("reg157", reg157_evaluate, 3), ("fsm", fsm_evaluate, 4)
        ):
            d, a, memory = control_step(name, params, *f, ttc_s, dt, 7)
            assert d == evaluate(*f[:n_features], getattr(params, name))
            assert (a, memory) == (-d.decel_cmd_mps2, 7)
        d, a, timer = control_step("cc_human", params, *f, ttc_s, dt, 0.5)
        assert (d, timer) == cc_human_evaluate(*f, params.cc_human, 0.5, dt)
        assert a == -d.decel_cmd_mps2
        d, a, memory = control_step("idm", params, *f, ttc_s, dt, 7)
        assert (d, a, memory) == (*idm_evaluate(*f, params.idm), 7)
        assert control_step("none", params, *f, ttc_s, dt, 7) == (Decision(safe=True), 0.0, 7)
        # rba: the per-step decrement comes back as an acceleration, never
        # beyond a_max, and stopping at v_min only shortens it
        d, a, _ = control_step("rba", params, *f, ttc_s, dt, 0)
        assert d.decel_cmd_mps2 <= params.rba.a_max_mps2 * (1.0 + 1e-12)
        assert a <= 0.0
        assert -a == pytest.approx(min(d.decel_cmd_mps2, ego.vel_long_mps / dt), abs=1e-9)


def test_control_step_rejects_unknown_model():
    with pytest.raises(ConfigError, match="bogus"):
        control_step(
            "bogus", ModelParams(), *step_features(veh(), veh(20.0), DIMS, DIMS), math.inf, 0.05, 0
        )


# Step features around every gate: exact zeros of both signs, overlaps,
# stopped and huge speeds, an infinite TTC.
edge_gaps = st.one_of(st.floats(-20.0, 80.0), st.sampled_from((0.0, -0.0, 0.5, 10.0, 12.0)))
feature_rows = st.tuples(
    edge_gaps,
    st.one_of(st.floats(-3.0, 5.0), st.sampled_from((0.0, -0.0, 0.3, 0.5))),
    st.one_of(st.floats(0.0, 45.0), st.sampled_from((0.0, -0.0, 1e80))),
    st.one_of(st.floats(0.0, 35.0), st.just(0.0)),
    st.one_of(st.floats(0.0, 20.0), st.sampled_from((0.0, math.inf))),
    st.one_of(st.integers(0, 7).map(float), st.floats(0.0, 2.0)),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODEL_NAMES), st.sampled_from((0.025, 0.05, 0.2)),
       st.lists(feature_rows, min_size=1, max_size=12))
def test_array_step_equals_the_scalar_step_entry_by_entry(name, dt, rows):
    """control_step_array is control_step over arrays: the same decel, accel
    and memory bit for bit, or an error where any entry's scalar step raises."""
    scalar, raised = [], False
    for gap_long, gap_lat, v_ego, v_other, ttc_s, memory in rows:
        try:
            decision, accel, memory = control_step(
                name, ModelParams(), gap_long, gap_lat, v_ego, v_other, ttc_s, dt, memory
            )
        except InvalidInputError:
            raised = True
            continue
        scalar.append(repr((float(decision.decel_cmd_mps2), float(accel), float(memory))))
    columns = [np.array(column, dtype=float) for column in zip(*rows)]
    with np.errstate(all="ignore"):
        if raised:
            with pytest.raises((InvalidInputError, ArithmeticError)):
                control_step_array(name, ModelParams(), *columns[:5], dt, columns[5])
            return
        decel, accel, memory = control_step_array(name, ModelParams(), *columns[:5], dt, columns[5])
    assert [repr(entry) for entry in zip(decel.tolist(), accel.tolist(), memory.tolist())] == scalar
