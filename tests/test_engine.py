import itertools
import json
import math
import os
import pickle
import tempfile
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutinsim.engine as engine
import cutinsim.risk as risk
from cutinsim.config import load_config, parse_config
from cutinsim.engine import (
    MAX_STEPS,
    SCENARIO_KINDS,
    ScenarioParams,
    SimResult,
    SweepGrid,
    Trace,
    feasibility_bound,
    run_closed_loop,
    sweep,
)
from cutinsim.errors import ConfigError, InvalidInputError
from cutinsim.reports import write_comparison_store
from cutinsim.kinematics import ARRAYS, FLOATS, VehicleDims
from cutinsim.metrics import ttc
from cutinsim.safety_models import (
    MARGIN_PASS,
    MODEL_NAMES,
    CcHumanParams,
    IdmParams,
    ModelParams,
    RbaParams,
    control_step,
)
from sweep_entries import at_point, classification, entries, reprs, scalar_entry, scalar_sweep

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def cutin(v_e0=25.0, v_o0=20.0, d_x0=30.0, d_y0=3.75, lc_start=1.0, lc_dur=2.0,
          duration=12.0, dt=0.05, kind="cut_in", profile=()):
    return ScenarioParams(
        kind=kind, v_e0_mps=v_e0, v_o0_mps=v_o0, d_x0_m=d_x0, d_y0_m=d_y0,
        lc_start_s=lc_start, lc_duration_s=lc_dur, duration_s=duration, dt_s=dt,
        other_speed_profile=profile,
    )


def lateral_overlap_onset(p: ScenarioParams, clearance_m: float) -> float:
    """Bisection oracle: first time the cut vehicle's lateral offset drops
    below clearance_m (cut_in only)."""
    def offset(t):
        return p.other_motion(t)[1]

    lo, hi = p.lc_start_s, p.lc_start_s + p.lc_duration_s
    assert offset(lo) > clearance_m >= offset(hi)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if offset(mid) > clearance_m:
            lo = mid
        else:
            hi = mid
    return hi


def test_cut_in_lateral_profile_endpoints():
    p = cutin(lc_start=1.0, lc_dur=2.0)
    assert p.other_motion(0.0)[1] == 3.75
    assert p.other_motion(1.0)[1] == 3.75
    assert p.other_motion(3.0)[1] == 0.0
    assert p.other_motion(12.0)[1] == 0.0
    offsets = [p.other_motion(t)[1] for t in np.linspace(1.01, 2.99, 100)]
    assert all(b < a for a, b in zip(offsets, offsets[1:]))


def test_cut_out_is_time_mirror():
    p = cutin(kind="cut_out", lc_start=1.0, lc_dur=2.0)
    assert p.other_motion(0.5)[1] == 0.0
    assert p.other_motion(3.0)[1] == 3.75
    assert p.other_motion(10.0)[1] == 3.75


def test_car_following_stays_in_lane():
    p = cutin(kind="car_following", d_y0=0.0)
    for t in np.linspace(0, 12, 25):
        assert p.other_motion(t)[1::2] == (0.0, 0.0)


def test_car_following_speed_profile():
    p = cutin(kind="car_following", d_y0=0.0, v_o0=20.0, profile=((4.0, 5.0),))
    assert p.other_motion(3.9)[2] == 20.0
    assert p.other_motion(4.0)[2] == 5.0
    # position continuous across the speed change
    x_before = p.other_motion(4.0 - 1e-9)[0]
    assert p.other_motion(4.0)[0] == pytest.approx(x_before, abs=1e-6)


@pytest.mark.parametrize("x, d_y0, v_e0, expected", [
    # touching side to side (gap_lat exactly 0) while alongside: no
    # collision; the trace records TTC inf, the models read the closing 0
    (35.0, 2.0, 20.0, (-5.0, 0.0, False, math.inf, 0.0)),
    # overlapping on both axes: a collision, TTC 0
    (35.0, 1.0, 20.0, (-5.0, -1.0, True, 0.0, 0.0)),
    # bumper to bumper (gap_long exactly 0) in one lane: not alongside, and
    # the TTC formula's 0 when closing, inf when not
    (30.0, 1.0, 25.0, (0.0, -1.0, False, 0.0, 0.0)),
    (30.0, 1.0, 20.0, (0.0, -1.0, False, math.inf, math.inf)),
])
def test_step_sensing_at_each_gap_boundary(x, d_y0, v_e0, expected):
    # the other vehicle, at 20 m/s, sits 35 m ahead (center to center) in its
    # start lane at t = 0; both forms of the step sense the same
    p = cutin(v_e0=v_e0, v_o0=20.0, d_x0=30.0, d_y0=d_y0)
    *_, gap_long, gap_lat, collided, recorded, closing = engine._sense(
        FLOATS, p, 0.0, x, v_e0, p.d_x0_m, p.v_o0_mps, p.d_y0_m
    )
    assert (gap_long, gap_lat, collided, recorded, closing) == expected
    lanes = (np.array([value]) for value in (x, v_e0, p.d_x0_m, p.v_o0_mps, p.d_y0_m))
    *_, gap_long, gap_lat, collided, recorded, closing = engine._sense(ARRAYS, p, 0.0, *lanes)
    assert (gap_long[0], gap_lat[0], collided[0], recorded[0], closing[0]) == expected


def test_initial_bumper_gap_matches_d_x0():
    p = cutin(d_x0=30.0)
    tr = run_closed_loop(p, "none").trace
    first_other = (tr.other_x_m[0], tr.other_y_m[0], tr.other_v_mps[0], tr.other_vy_mps[0])
    assert first_other == p.other_motion(0.0)
    assert tr.other_x_m[0] - tr.ego_x_m[0] - 5.0 == pytest.approx(30.0)


def test_equal_speeds_never_collide():
    r = run_closed_loop(cutin(v_e0=20.0, v_o0=20.0, d_x0=60.0), "rba")
    assert not r.collided
    assert math.isinf(r.min_ttc_s)


def test_null_controller_intercept_time_matches_closed_form():
    p = cutin(v_e0=30.0, v_o0=10.0, d_x0=20.0, lc_start=0.0, lc_dur=1.0)
    r = run_closed_loop(p, "none")
    assert r.collided
    t_gap = 20.0 / 20.0
    t_lat = lateral_overlap_onset(p, 2.0)
    expected = max(t_gap, t_lat)
    assert abs(r.trace.t_s[-1] - expected) <= 2 * p.dt_s


def test_collision_latch_stops_the_trace():
    p = cutin(v_e0=30.0, v_o0=10.0, d_x0=20.0, lc_start=0.0, lc_dur=1.0)
    r = run_closed_loop(p, "none")
    assert r.collided
    gaps = list(zip(r.trace.gap_long_m, r.trace.gap_lat_m))
    assert gaps[-1][0] < 0 and gaps[-1][1] < 0
    assert all(not (gap_long < 0 and gap_lat < 0) for gap_long, gap_lat in gaps[:-1])
    assert r.trace.t_s[-1] < p.duration_s


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_trace_records_the_other_vehicles_plan_in_its_slots(kind, model):
    if kind == "car_following":
        p = cutin(kind=kind, d_y0=0.0, profile=((2.0, 15.0), (5.0, 22.0)))
    else:
        p = cutin(kind=kind)
    tr = run_closed_loop(p, model).trace
    assert len({len(getattr(tr, f.name)) for f in fields(Trace)}) == 1
    for i, t in enumerate(tr.t_s):
        recorded = (tr.other_x_m[i], tr.other_y_m[i], tr.other_v_mps[i], tr.other_vy_mps[i])
        assert [v.hex() for v in recorded] == [float(v).hex() for v in p.other_motion(t)], t


def test_rba_avoids_feasible_intercept():
    # well above the feasibility bound: 60 > 43.3 + 5
    p = cutin(v_e0=30.0, v_o0=10.0, d_x0=60.0, lc_start=0.0, lc_dur=1.0)
    r = run_closed_loop(p, "rba")
    assert not r.collided
    assert r.min_gap_long_m > 0.0


@pytest.mark.parametrize("dt", (0.025, 0.05, 0.1))
def test_rba_deceleration_never_exceeds_a_max(dt):
    # the ego passes the cut vehicle while it merges from two lanes over: the
    # gap goes negative and the normalised distance shortfall exceeds 1
    r = run_closed_loop(cutin(v_e0=40.0, v_o0=15.0, d_x0=10.0, d_y0=7.5, dt=dt), "rba")
    peak = max(r.trace.decel_cmd_mps2)
    assert peak == pytest.approx(6.0)
    assert peak <= 6.0 * (1.0 + 1e-12)
    assert not r.collided


def test_recorded_step_features_reproduce_each_decision():
    # the model sees exactly what the trace records: replaying each sample's
    # gaps and speeds, with the closing TTC they give, through control_step
    # gives back its safe flag and braking
    collided_runs = braking_steps = 0
    for kind, d_x0 in itertools.product(SCENARIO_KINDS, (20.0, 45.0)):
        d_y0 = 0.0 if kind == "car_following" else 3.75
        p = cutin(v_e0=30.0, v_o0=10.0, d_x0=d_x0, d_y0=d_y0, lc_start=0.0, lc_dur=1.0,
                  kind=kind)
        for model in MODEL_NAMES:
            r = run_closed_loop(p, model)
            memory = 0
            tr = r.trace
            steps = zip(tr.gap_long_m, tr.gap_lat_m, tr.ego_v_mps, tr.other_v_mps, tr.safe,
                        tr.decel_cmd_mps2)
            for gap_long, gap_lat, v_ego, v_other, safe, decel in (
                list(steps)[:-1] if r.collided else steps
            ):
                code, decel_cmd, _, memory = control_step(
                    FLOATS, model, ModelParams(), gap_long, gap_lat, v_ego, v_other,
                    ttc(gap_long, v_ego - v_other), p.dt_s, memory,
                )
                assert (code <= MARGIN_PASS, decel_cmd) == (safe, decel)
                braking_steps += decel > 0.0
            collided_runs += r.collided
            # the summary, kept as the run steps, is the trace's
            assert repr(r.min_gap_long_m) == repr(min(tr.gap_long_m))
            assert repr(r.min_ttc_s) == repr(min(filter(math.isfinite, tr.ttc_s), default=math.inf))
            assert repr(r.peak_decel_mps2) == repr(max(tr.decel_cmd_mps2))
    assert collided_runs > 0 and braking_steps > 0


def test_every_model_reads_the_closing_ttc_of_its_step(monkeypatch):
    # the engine computes each step's closing TTC once and hands it to every
    # model: on every step of run_closed_loop and on every lane of a sweep,
    # control_step's ttc_s is metrics.ttc of that step's gap and closing speed
    calls, checked, alongside = set(), 0, 0

    def spy(xp, name, params, gap_long, gap_lat, v_ego, v_other, ttc_s, dt, memory):
        nonlocal checked, alongside
        calls.add((name, xp is FLOATS))
        for entry in zip(*map(np.atleast_1d, (gap_long, v_ego, v_other, ttc_s))):
            g, v_e, v_o, t = map(float, entry)
            assert repr(t) == repr(ttc(g, v_e - v_o)), (name, entry)
            checked += 1
            alongside += g < 0.0
        return control_step(xp, name, params, gap_long, gap_lat, v_ego, v_other, ttc_s, dt, memory)

    monkeypatch.setattr(engine, "control_step", spy)
    for kind in SCENARIO_KINDS:
        d_y0 = 0.0 if kind == "car_following" else 3.75
        p = cutin(v_e0=30.0, v_o0=10.0, d_x0=20.0, d_y0=d_y0, lc_start=0.0, lc_dur=1.0,
                  kind=kind)
        for model in MODEL_NAMES:
            run_closed_loop(p, model)
        sweep(SweepGrid((20.0, 30.0), (10.0, 25.0), (5.0, 45.0), (d_y0,)), MODEL_NAMES, p)
    assert calls == {(name, scalar) for name in MODEL_NAMES for scalar in (True, False)}
    # the steps include some where the trace records inf alongside
    assert checked > 0 and alongside > 0


def test_velocity_stays_in_bounds_for_braking_models():
    for model in ("rba", "rss", "reg157", "cc_human", "fsm", "none"):
        r = run_closed_loop(cutin(v_e0=30.0, v_o0=15.0, d_x0=40.0), model)
        vels = r.trace.ego_v_mps
        assert all(v >= 0.0 for v in vels)
        assert all(v <= 30.0 + 1e-9 for v in vels), model


def test_rba_speed_floor_keeps_a_stopped_ego_stopped():
    # cut in 5 m ahead of a stopped ego by a stopped vehicle: under a 3 m/s
    # floor rba must not drive the ego into it
    p = cutin(v_e0=0.0, v_o0=0.0, d_x0=5.0)
    r = run_closed_loop(p, "rba", ModelParams(rba=RbaParams(v_min_mps=3.0)))
    assert not r.collided
    assert set(r.trace.ego_v_mps) == {0.0}


def test_idm_can_accelerate_toward_desired_speed():
    r = run_closed_loop(cutin(v_e0=20.0, v_o0=20.0, d_x0=150.0), "idm")
    assert max(r.trace.ego_v_mps) > 20.0


def test_scenario_determinism():
    p = cutin(v_e0=30.0, v_o0=12.0, d_x0=35.0)
    r1 = run_closed_loop(p, "rba")
    r2 = run_closed_loop(p, "rba")
    assert r1 == r2


def test_unknown_model_is_a_config_error():
    with pytest.raises(ConfigError, match="bogus"):
        run_closed_loop(cutin(), "bogus")


def test_scenario_validation():
    with pytest.raises(ConfigError, match="kind"):
        cutin(kind="drift")
    with pytest.raises(ConfigError, match="d_x0"):
        cutin(d_x0=0.0)
    with pytest.raises(ConfigError, match="d_y0"):
        cutin(kind="car_following", d_y0=3.75)
    with pytest.raises(ConfigError, match="duration"):
        cutin(lc_start=10.0, lc_dur=3.0, duration=12.0)
    with pytest.raises(ConfigError, match="other_speed_profile"):
        cutin(profile=((1.0, 5.0),))
    with pytest.raises(ConfigError, match="dt_s"):
        cutin(dt=5e-324)  # duration / dt overflows to inf
    with pytest.raises(ConfigError, match="dt_s"):
        cutin(dt=0.0)
    with pytest.raises(ConfigError, match="lc_duration_s"):
        cutin(lc_dur=0.0)
    with pytest.raises(ConfigError, match="lc_start_s must be >= 0"):
        cutin(lc_start=-0.1)
    with pytest.raises(ConfigError, match="d_y0 must be >= 0"):
        cutin(d_y0=-0.1)
    with pytest.raises(ConfigError, match="times must be nondecreasing"):
        cutin(kind="car_following", d_y0=0.0, profile=((3.0, 5.0), (2.0, 1.0)))
    with pytest.raises(ConfigError, match="velocities must be >= 0"):
        cutin(kind="car_following", d_y0=0.0, profile=((1.0, -0.1),))
    # each bound itself is valid: a repeated profile time, a stop, no lateral offset
    cutin(lc_start=0.0, d_y0=0.0)
    cutin(kind="car_following", d_y0=0.0, profile=((2.0, 0.0), (2.0, 1.0)))
    cutin(duration=12.0, dt=12.0 / MAX_STEPS)  # exactly at the step bound


def test_every_dt_down_to_the_smallest_subnormal_brakes_finitely():
    # no model brakes at a rate of 1 / dt_s: at dt_s 1e-310, whose inverse is
    # inf, and at the smallest subnormal, every model brakes finitely in both
    # loops, and rba's first step brakes as it does at 0.05 s (a TTC of 1 m
    # over 20 m/s, 0.05 s, gives the shortfall (6 - 0.05) / 6 of a_max 6)
    def instant_cut_in(dt):
        return cutin(v_e0=30.0, v_o0=10.0, d_x0=1.0, lc_start=0.0, lc_dur=dt, duration=2 * dt,
                     dt=dt)

    assert run_closed_loop(instant_cut_in(0.05), "rba").trace.decel_cmd_mps2[0] == 5.95
    grid = SweepGrid(v_e0_mps=(30.0,), v_o0_mps=(10.0,), d_x0_m=(1.0,), d_y0_m=(3.75,))
    for dt in (1e-310, 5e-324):
        p = instant_cut_in(dt)
        for model in MODEL_NAMES:
            r = run_closed_loop(p, model)
            assert all(map(math.isfinite, (*r.trace.decel_cmd_mps2, r.peak_decel_mps2))), model
        assert run_closed_loop(p, "rba").trace.decel_cmd_mps2[0] == 5.95
        result = sweep(grid, MODEL_NAMES, p)
        assert not result.errors and np.isfinite(result.peak_decel_mps2).all()
        assert reprs(entries(result)) == reprs(scalar_sweep(grid, MODEL_NAMES, p, ModelParams()))


def test_sweep_cardinality_order_and_determinism():
    grid = SweepGrid(v_e0_mps=(20.0, 30.0), v_o0_mps=(10.0,), d_x0_m=(20.0, 40.0), d_y0_m=(3.75,))
    base = cutin()
    result = sweep(grid, ["rba"], base)
    assert result.collided.shape == (1, 4) and not result.errors
    rows = entries(result)
    assert [(model, index, point) for model, index, point, _ in rows] == [
        ("rba", i, point) for i, point in enumerate(grid.points())
    ]
    assert reprs(entries(sweep(grid, ["rba"], base))) == reprs(rows)
    both = entries(sweep(grid, ["rba", "rss"], base))
    assert len(both) == 8
    assert [model for model, *_ in both] == ["rba"] * 4 + ["rss"] * 4
    assert reprs(both[:4]) == reprs(rows)


def test_sweep_columns_hold_the_summary_of_the_recorded_run():
    grid = SweepGrid(v_e0_mps=(30.0,), v_o0_mps=(10.0, 15.0), d_x0_m=(25.0,), d_y0_m=(3.75,))
    base = cutin()
    for model, _, point, outcome in entries(sweep(grid, ["rba", "none"], base)):
        full = run_closed_loop(at_point(base, point), model)
        assert full.trace.t_s
        assert outcome == (full.collided, full.min_gap_long_m, full.min_ttc_s,
                           full.peak_decel_mps2, classification(full))
        assert full.peak_decel_mps2 == max(full.trace.decel_cmd_mps2)


def test_sweep_records_error_rows_instead_of_aborting():
    grid = SweepGrid(v_e0_mps=(20.0,), v_o0_mps=(10.0,), d_x0_m=(20.0,), d_y0_m=(3.75,))
    base = cutin(kind="car_following", d_y0=0.0)  # grid d_y0 3.75 is invalid here
    result = sweep(grid, ["rba"], base)
    assert list(result.errors) == [(0, 0)]
    assert "d_y0" in result.errors[0, 0]


def test_sweep_rejects_a_repeated_model():
    # the batched sweep slices its lanes by model, so a model named twice
    # would take another model's slice
    grid = SweepGrid(v_e0_mps=(30.0,), v_o0_mps=(10.0,), d_x0_m=(20.0,), d_y0_m=(3.75,))
    base = cutin(v_e0=25.0, v_o0=20.0, d_x0=30.0)
    for models in (["none", "rba", "none"], ["rba", "rba"]):
        with pytest.raises(ConfigError, match="more than once") as raised:
            sweep(grid, models, base)
        assert raised.value.key == "models"
    with pytest.raises(ConfigError) as raised:
        sweep(grid, [], base)
    assert raised.value.key == "models"


@st.composite
def sweep_cases(draw):
    """A small grid over every kind, with points that collide, stop (a lead
    that stops, slow egos) or raise (an invalid point, a non-finite other
    vehicle, an overflowing idm or rss step)."""
    kind = draw(st.sampled_from(SCENARIO_KINDS))
    lc_start = draw(st.sampled_from((0.0, 0.5, 1.0)))
    lc_duration = draw(st.sampled_from((0.5, 1.0, 2.5)))
    duration = lc_start + lc_duration + draw(st.sampled_from((0.0, 1.5, 3.0)))
    profile = ()
    if kind == "car_following":
        changes = st.tuples(st.floats(0.0, duration), st.sampled_from((0.0, 4.0, 25.0)))
        profile = tuple(sorted(draw(st.lists(changes, max_size=2))))
    ego, other = (VehicleDims(*draw(st.sampled_from(((2.0, 5.0), (1.8, 4.2), (2.5, 16.0)))))
                  for _ in range(2))
    base = ScenarioParams(
        kind=kind, v_e0_mps=20.0, v_o0_mps=10.0, d_x0_m=30.0,
        d_y0_m=0.0 if kind == "car_following" else 3.75,
        lc_start_s=lc_start, lc_duration_s=lc_duration, duration_s=duration,
        dt_s=draw(st.sampled_from((0.025, 0.05, 0.1, 0.2))),
        other_speed_profile=profile, ego_dims=ego, other_dims=other,
    )

    def axis(values):
        return tuple(draw(st.lists(values, min_size=1, max_size=2, unique=True)))

    grid = SweepGrid(
        v_e0_mps=axis(st.one_of(st.floats(0.0, 40.0), st.sampled_from((-0.0, 1e306)))),
        v_o0_mps=axis(st.one_of(st.floats(0.0, 30.0), st.just(1e308))),
        d_x0_m=axis(st.one_of(st.floats(0.5, 60.0), st.just(0.0))),
        d_y0_m=axis(st.sampled_from((0.0, 1.0, 3.75, 7.5))),
    )
    params = ModelParams(
        rba=RbaParams(v_min_mps=draw(st.sampled_from((0.0, 3.0))),
                      headway_gain_s=draw(st.sampled_from((0.0, 0.8)))),
        cc_human=CcHumanParams(reaction_delay_s=draw(st.sampled_from((0.0, 0.75)))),
        idm=IdmParams(v_desired_mps=draw(st.sampled_from((30.0, 22.0)))),
    )
    return grid, base, params


def valid(base, point):
    try:
        at_point(base, point)
    except ConfigError:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(sweep_cases(), st.data())
def test_batched_sweep_equals_the_scalar_loop(case, data):
    grid, base, params = case
    rows = entries(sweep(grid, MODEL_NAMES, base, params))
    assert reprs(rows) == reprs(scalar_sweep(grid, MODEL_NAMES, base, params))
    # a lane's result depends neither on the other lanes of its batch nor on
    # its place there: any subset of the valid lanes, in any order sorted
    # stably by model, split into any chunks, gives each lane the scalar
    # loop's entry. A one-value axis is one float, as in sweep
    ran = [row for row in rows if valid(base, row[2])]
    lanes = data.draw(st.permutations(ran))[:data.draw(st.integers(0, len(ran)))]
    lanes.sort(key=lambda row: MODEL_NAMES.index(row[0]))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(lanes)), max_size=3)))
    for chunk in (lanes[a:b] for a, b in zip([0, *cuts], [*cuts, len(lanes)])):
        model = np.array([MODEL_NAMES.index(row[0]) for row in chunk], dtype=int)
        starts = [axis[0] if len(axis) == 1 else np.array([row[2][j] for row in chunk])
                  for j, axis in enumerate(grid.axes)]
        summary, errors = engine._run_lanes(MODEL_NAMES, model, starts, base, params)
        got = [errors[k] if k in errors else tuple(c[k].item() for c in summary)
               for k in range(len(chunk))]
        want = (scalar_entry(base, *row[:3], params)[3] for row in chunk)
        assert reprs(got) == reprs(w if isinstance(w, str) else w[:4] for w in want)


def results_bytes(result):
    """Every results_<model>.csv the comparison store writes for result."""
    with tempfile.TemporaryDirectory() as out:
        write_comparison_store(out, result, {"risk": {"ttc_crit_s": 2.0}, "seed": 0})
        return {name: open(os.path.join(out, name), "rb").read()
                for name in sorted(os.listdir(out)) if name.startswith("results_")}


@settings(max_examples=25, deadline=None)
@given(sweep_cases())
def test_chunking_changes_no_byte(case):
    grid, base, params = case
    with mock.patch.object(engine, "LANE_CHUNK", 10**9):
        whole = sweep(grid, MODEL_NAMES, base, params)
    run_lanes = engine._run_lanes
    for chunk in (1, 2, 5, 64):
        sizes = []

        def spy(models, model, *rest):
            sizes.append(len(model))
            return run_lanes(models, model, *rest)

        with mock.patch.object(engine, "LANE_CHUNK", chunk), \
                mock.patch.object(engine, "_run_lanes", spy):
            chunked = sweep(grid, MODEL_NAMES, base, params)
        # equal chunks within 1, none above LANE_CHUNK, every valid lane run once
        n_valid = sum(valid(base, point) for point in grid.points()) * len(MODEL_NAMES)
        assert sum(sizes) == n_valid
        assert not sizes or (max(sizes) - min(sizes) <= 1 and max(sizes) <= chunk)
        assert reprs(entries(chunked)) == reprs(entries(whole))
        assert chunked.errors == whole.errors
        assert results_bytes(chunked) == results_bytes(whole)


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
@pytest.mark.parametrize("axis", range(4))
def test_a_one_value_axis_steps_each_lane_as_the_value_repeated_does(kind, axis, monkeypatch):
    # one value on a start axis is a float that every lane shares; the same
    # value twice is an array entry per lane. Each lane gets the same bits,
    # also where lanes collide, stop, leave and raise
    following = kind == "car_following"
    base = cutin(kind=kind, d_y0=0.0 if following else 3.75, lc_start=0.0, lc_dur=1.0,
                 duration=6.0, profile=((3.0, 0.0),) if following else ())
    axes = [(10.0, 30.0), (10.0, 25.0), (5.0, 40.0), (0.0, -0.0) if following else (0.0, 3.75)]
    values = [(0.0, 30.0, 1e306), (10.0, 1e308), (5.0, 40.0, 0.0),
              (0.0,) if following else (0.0, 3.75, 1e308)][axis]
    sense = engine._sense
    plan_inputs = []

    def spy(xp, p, t, x, v, d_x0, v_o0, d_y0):
        if xp is ARRAYS:  # the batch, not a rerun's scalar loop
            plan_inputs.append((None, type(v_o0), type(d_x0), type(d_y0)))  # in axis order
        return sense(xp, p, t, x, v, d_x0, v_o0, d_y0)

    monkeypatch.setattr(engine, "_sense", spy)

    def outcomes(repeat):
        """Each (model, point)'s outcome reprs, and the types of the plan's
        start inputs."""
        plan_inputs.clear()
        grid = SweepGrid(*(axes[:axis] + [(value,) * repeat] + axes[axis + 1:]))
        rows = entries(sweep(grid, MODEL_NAMES, base))
        by_lane = {}
        for model, _, point, outcome in rows:
            by_lane.setdefault((model, point), set()).add(repr(outcome))
        return by_lane, set(plan_inputs)

    for value in values:
        shared, shared_types = outcomes(1)
        repeated, repeated_types = outcomes(2)
        assert shared == repeated, value
        if axis and shared_types:  # v_e0 starts the ego's state, one entry per lane
            assert {types[axis] for types in shared_types} == {float}
            assert {types[axis] for types in repeated_types} == {np.ndarray}


def test_a_sweep_result_survives_pickling():
    grid = SweepGrid(v_e0_mps=(20.0, -1.0), v_o0_mps=(10.0,), d_x0_m=(25.0,), d_y0_m=(3.75,))
    result = sweep(grid, ["rba", "idm"], cutin())
    again = pickle.loads(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
    assert again.errors == result.errors and len(result.errors) == 2
    assert (again.grid, again.models) == (result.grid, result.models)
    for name in ("collided", "min_gap_long_m", "min_ttc_s", "peak_decel_mps2"):
        a, b = getattr(again, name), getattr(result, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert reprs(entries(again)) == reprs(entries(result))


def test_sweep_rejects_an_unregistered_model():
    grid = SweepGrid(v_e0_mps=(30.0,), v_o0_mps=(10.0,), d_x0_m=(20.0,), d_y0_m=(3.75,))
    with pytest.raises(ConfigError, match="'bogus' is not a registered model") as raised:
        sweep(grid, ["bogus", "rba"], cutin())
    assert raised.value.key == "models"


def test_a_point_with_two_rejected_values_keeps_the_first_failing_checks_text():
    # __post_init__ checks every value is finite, then d_x0 > 0, then the
    # speeds are >= 0: the text is that of the first check that fails
    grid = SweepGrid(v_e0_mps=(-1.0, math.nan), v_o0_mps=(10.0,), d_x0_m=(0.0,), d_y0_m=(3.75,))
    rows = entries(sweep(grid, ["rba", "none"], cutin()))
    assert [outcome for *_, outcome in rows] == [
        "ConfigError: scenario.d_x0 must be > 0",
        "ConfigError: scenario.v_e0 must be a finite number, got nan",
    ] * 2
    assert reprs(rows) == reprs(scalar_sweep(grid, ["rba", "none"], cutin(), ModelParams()))


@pytest.mark.parametrize("value", (True, 10**400, math.nan))
@pytest.mark.parametrize("axis", range(4))
def test_an_axis_value_that_is_no_finite_number_is_an_error_row_for_every_model(axis, value):
    axes = [(25.0, 30.0), (10.0,), (20.0,), (3.75,)]
    axes[axis] = (axes[axis][0], value)
    grid = SweepGrid(*axes)
    rows = entries(sweep(grid, MODEL_NAMES, cutin()))
    assert reprs(rows) == reprs(scalar_sweep(grid, MODEL_NAMES, cutin(), ModelParams()))
    for row in rows:
        point, outcome = row[2:]
        bad = point[axis] is value
        assert isinstance(outcome, str) == bad, row
        if bad:
            assert outcome.startswith("ConfigError: scenario.") and "must be a finite number" in outcome


def test_the_sweeps_memory_grows_by_its_output_columns_not_per_lane(monkeypatch):
    # with the chunk fixed, 4N lanes step in no more memory than N lanes do;
    # what grows is the output: a bool and three float64 columns per lane,
    # plus an int64 grid index per valid point
    monkeypatch.setattr(engine, "LANE_CHUNK", 128)
    base = cutin(lc_start=0.0, lc_dur=0.5, duration=1.0, dt=0.1)

    def peak(n_points):
        grid = SweepGrid(tuple(np.linspace(10.0, 30.0, n_points).tolist()), (10.0,), (20.0,),
                         (3.75,))
        tracemalloc.start()
        try:
            result = sweep(grid, MODEL_NAMES, base)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not result.errors
        return peak

    n = 500  # points: 3,500 lanes against 14,000
    peak(n)  # warm up: first-call allocations
    added_lanes = 3 * n * len(MODEL_NAMES)
    columns = added_lanes * (1 + 3 * 8) + 3 * n * (8 + 1)
    assert peak(4 * n) - peak(n) <= columns + 64 * 1024


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_batched_sweep_equals_the_scalar_loop_where_runs_collide_stop_and_raise(kind):
    base = cutin(kind=kind, d_y0=0.0 if kind == "car_following" else 3.75,
                 lc_start=0.0, lc_dur=1.0, duration=6.0,
                 profile=((3.0, 0.0),) if kind == "car_following" else ())
    grid = SweepGrid(v_e0_mps=(0.0, 10.0, 30.0, 1e306), v_o0_mps=(10.0, 1e308),
                     d_x0_m=(5.0, 40.0), d_y0_m=(0.0, 3.75))
    rows = entries(sweep(grid, MODEL_NAMES, base))
    assert reprs(rows) == reprs(scalar_sweep(grid, MODEL_NAMES, base, ModelParams()))
    errors = [outcome for *_, outcome in rows if isinstance(outcome, str)]
    message = "InvalidInputError: pos_long_m must be finite"  # the other vehicle, or the ego
    assert any(error.startswith(message) for error in errors), message
    # no step raises: where idm's and rss's squares overflow, both brake at 4.0 m/s²
    huge = [outcome for model, _, point, outcome in rows
            if model in ("idm", "rss") and point[:2] == (1e306, 10.0) and valid(base, point)]
    assert huge and all(not isinstance(outcome, str) and outcome[3] == 4.0 for outcome in huge)
    assert any(outcome[0] is True for *_, outcome in rows)
    if kind == "car_following":  # the lead stops at 3 s; reg157 brakes the ego to a standstill
        run = run_closed_loop(at_point(base, (10.0, 10.0, 5.0, 0.0)), "reg157")
        assert not run.collided and run.trace.ego_v_mps[-1] == 0.0


def test_idm_params_reject_an_acceleration_product_that_underflows():
    # 2 sqrt(a_max b) would underflow to 0, and every in-lane idm step would
    # divide by it; config names the section
    with pytest.raises(InvalidInputError, match="underflows to 0"):
        IdmParams(a_max_mps2=1e-170, b_comfort_mps2=1e-170)
    IdmParams(a_max_mps2=1e-150, b_comfort_mps2=1e-150)
    with open(os.path.join(CONFIGS, "comparison.json")) as fh:
        data = json.load(fh)
    data["model_params"] = {"idm": {"a_max_mps2": 1e-170, "b_comfort_mps2": 1e-170}}
    with pytest.raises(ConfigError, match="underflows to 0") as raised:
        parse_config(data)
    assert raised.value.key == "model_params.idm"


# Two ego speeds on each side of the one where a model's square first
# overflows to inf: idm's free-road term ((v / v_desired)²)², rss's reach
# (v + rho a)².
def _square(x):
    return x * x


SQUARE_EDGES = {
    "idm": ((3e78, 1e79), lambda v: _square(_square(v / 30.0))),
    "rss": ((1.3e154, 1.4e154), lambda v: _square(v + 1.5)),
}


@pytest.mark.parametrize("model", SQUARE_EDGES)
def test_braking_is_continuous_where_a_models_square_overflows(model):
    speeds, square = SQUARE_EDGES[model]
    assert [math.isinf(square(v)) for v in speeds] == [False, True]
    base = load_config(os.path.join(CONFIGS, "cutin.json")).scenario
    grid = SweepGrid(v_e0_mps=speeds, v_o0_mps=(20.0,), d_x0_m=(30.0,), d_y0_m=(3.75,))
    rows = entries(sweep(grid, [model], base))
    assert reprs(rows) == reprs(scalar_sweep(grid, [model], base, ModelParams()))
    for *_, outcome in rows:  # both loops give a result braking at the model's 4.0 m/s²
        assert not isinstance(outcome, str) and outcome[3] == 4.0, outcome


def test_batched_sweep_equals_the_scalar_loop_where_the_ego_position_overflows():
    # at 1.7e308 m/s the ego's position passes float range within the run,
    # before rss sees the other vehicle in its lane; idm's acceleration is nan first
    grid = SweepGrid(v_e0_mps=(20.0, 1.7e308), v_o0_mps=(10.0,), d_x0_m=(25.0,), d_y0_m=(3.75,))
    base = cutin()
    rows = entries(sweep(grid, MODEL_NAMES, base))
    assert reprs(rows) == reprs(scalar_sweep(grid, MODEL_NAMES, base, ModelParams()))
    for model, _, point, outcome in rows:
        assert isinstance(outcome, str) == (point[0] != 20.0), (model, point, outcome)
        if isinstance(outcome, str) and model != "idm":
            assert outcome == "InvalidInputError: pos_long_m must be finite, got inf"


@pytest.mark.parametrize("v_e0", [(1.5e308,), (1.5e308, 10.0)], ids=("one-lane", "two-lane"))
def test_batched_sweep_equals_the_scalar_loop_where_the_last_step_commands_nan(v_e0):
    # one step, which is also the last: at 1.5e308 m/s behind 1.7e308 m/s
    # idm's s_star is inf - inf, so it commands a NaN deceleration and
    # acceleration. The step's check ends the run on its last step too, so
    # no summary takes the NaN, which max skips and np.maximum keeps
    base = cutin(d_x0=20.0, d_y0=0.0, dt=100.0)
    grid = SweepGrid(v_e0_mps=v_e0, v_o0_mps=(1.7e308,), d_x0_m=(20.0,), d_y0_m=(0.0,))
    with pytest.raises(InvalidInputError) as raised:
        run_closed_loop(at_point(base, grid.point(0)), "idm")
    assert str(raised.value) == "accel_long_mps2 must be finite, got nan"
    rows = entries(sweep(grid, MODEL_NAMES, base))
    assert reprs(rows) == reprs(scalar_sweep(grid, MODEL_NAMES, base, ModelParams()))


# The braking each model declares as its most: the cap of its peak_decel_mps2.
DECEL_CAPS = {
    "rba": lambda p: p.rba.a_max_mps2,
    "rss": lambda p: p.rss.ego_brake_min_mps2,
    "reg157": lambda p: p.reg157.brake_mps2,
    "cc_human": lambda p: p.cc_human.brake_mps2,
    "fsm": lambda p: p.fsm.braking_gain * p.fsm.a_max_mps2,
    "idm": lambda p: 2.0 * p.idm.b_comfort_mps2,
    "none": lambda p: 0.0,
}


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_no_sweep_run_brakes_harder_than_its_model_declares(kind):
    cfg = load_config(os.path.join(CONFIGS, "comparison.json"))
    grid, base = cfg.sweep, cfg.scenario
    if kind == "cut_out":
        base = replace(base, kind=kind)
    elif kind == "car_following":  # the lead stops at 2 s and pulls away at 6 s
        grid = replace(grid, d_y0_m=(0.0,))
        base = replace(base, kind=kind, d_y0_m=0.0, other_speed_profile=((2.0, 0.0), (6.0, 15.0)))
    result = sweep(grid, cfg.models, base, cfg.model_params)
    assert not result.errors
    rows = entries(result, cfg.ttc_crit_s)
    assert len(rows) == len(grid.points()) * len(MODEL_NAMES)
    for model, _, point, outcome in rows:
        peak_decel = outcome[3]
        assert peak_decel <= DECEL_CAPS[model](cfg.model_params), (model, point, outcome)
        # and no run drives the ego backwards, nor rba under its speed floor
        run = run_closed_loop(at_point(base, point), model, cfg.model_params)
        assert outcome == (run.collided, run.min_gap_long_m, run.min_ttc_s, run.peak_decel_mps2,
                           classification(run, cfg.ttc_crit_s))
        floor = cfg.model_params.rba.v_min_mps if model == "rba" else 0.0
        assert min(run.trace.ego_v_mps) >= floor, (model, point)
    assert (result.peak_decel_mps2[result.models.index("idm")] > 0.0).any()


# The models whose step reads only relative motion: gaps, the closing speed
# and TTC (rba at its defaults, whose headway gain and speed floor are 0).
GALILEAN_MODELS = ("rba", "cc_human", "fsm", "none")


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(SCENARIO_KINDS),
    v_e0=st.floats(0.0, 40.0),
    v_o0=st.floats(0.0, 30.0),
    # off the simple values (v_e0 1, v_o0 0, d_x0 1.5) that put a contact or
    # a threshold crossing exactly on a step instant, where rounding under
    # the offset decides the side
    d_x0=st.floats(0.5, 60.0).map(lambda d: d + math.pi * 1e-4),
    lc_start=st.floats(0.0, 3.0),
    c=st.floats(1.0, 15.0),
)
def test_a_common_speed_offset_leaves_relative_behaviour_unchanged(
    kind, v_e0, v_o0, d_x0, lc_start, c
):
    # Galilean invariance: adding c to both initial speeds moves both
    # vehicles at c more, and every gap, closing speed and TTC stays the same
    base = cutin(v_e0=v_e0, v_o0=v_o0, d_x0=d_x0, d_y0=0.0 if kind == "car_following" else 3.75,
                 lc_start=lc_start, kind=kind)
    moved = replace(base, v_e0_mps=v_e0 + c, v_o0_mps=v_o0 + c)
    grid = SweepGrid((v_e0, v_e0 + c), (v_o0, v_o0 + c), (d_x0,), (base.d_y0_m,))
    swept = {(model, point[:2]): outcome
             for model, _, point, outcome in entries(sweep(grid, GALILEAN_MODELS, base, ModelParams()))}
    for model in GALILEAN_MODELS:
        a, b = run_closed_loop(base, model), run_closed_loop(moved, model)
        if min(a.trace.ego_v_mps) < 1e-9:
            # a stopped ego (rba's speed floor leaves a rounding residue of
            # the order of 1e-17 m/s) cannot shed the offset's speed as well
            continue
        assert b.collided == a.collided, model
        assert b.trace.decel_cmd_mps2 == pytest.approx(a.trace.decel_cmd_mps2, abs=1e-6), model
        assert b.min_gap_long_m == pytest.approx(a.min_gap_long_m, abs=1e-6), model
        # (collided, min_gap_long_m, min_ttc_s, peak_decel_mps2, classification)
        swept_a, swept_b = swept[model, (v_e0, v_o0)], swept[model, (v_e0 + c, v_o0 + c)]
        assert swept_b[0] == swept_a[0], model
        assert swept_b[1] == pytest.approx(swept_a[1], abs=1e-6), model
        assert swept_b[3] == pytest.approx(swept_a[3], abs=1e-6), model


# A scenario start for the metamorphic properties below: every kind, a lane
# change at any time, and starts that collide, brake and pass.
def metamorphic_base(draw):
    kind = draw(st.sampled_from(SCENARIO_KINDS))
    return cutin(v_e0=draw(st.floats(0.0, 40.0)), v_o0=draw(st.floats(0.0, 30.0)),
                 d_x0=draw(st.floats(0.5, 60.0)), d_y0=0.0 if kind == "car_following" else 3.75,
                 lc_start=draw(st.floats(0.0, 3.0)), kind=kind)


def grid_around(base):
    """Four grid points from base's start, for the batch loop."""
    return SweepGrid((base.v_e0_mps, base.v_e0_mps + 7.0), (base.v_o0_mps,),
                     (base.d_x0_m, base.d_x0_m + 15.0), (base.d_y0_m,))


# a motorcycle, a car, a van and a truck
footprints = st.sampled_from((VehicleDims(0.8, 2.2), VehicleDims(1.8, 4.5), VehicleDims(2.0, 5.0),
                              VehicleDims(2.5, 16.0)))


@settings(max_examples=40, deadline=None)
@given(st.data(), footprints, footprints)
def test_exchanging_the_footprints_changes_no_gap_and_no_summary(data, a, b):
    # a gap reads the two footprints only through their sum on each axis, so
    # which vehicle has which footprint changes no bit of any run
    base = replace(metamorphic_base(data.draw), ego_dims=a, other_dims=b)
    swapped = replace(base, ego_dims=b, other_dims=a)
    for model in MODEL_NAMES:
        assert repr(run_closed_loop(swapped, model)) == repr(run_closed_loop(base, model)), model
    grid = grid_around(base)
    assert reprs(entries(sweep(grid, MODEL_NAMES, swapped))) == reprs(
        entries(sweep(grid, MODEL_NAMES, base))
    )


def batch_ego_positions(grid, models, base, params):
    """The ego's x after each step of each lane of sweep's batch loop, by
    (model, grid index)."""
    positions = {}
    states, calls = [], []
    init, advance, run_lanes = engine._Lanes.__init__, engine.advance_axis_xp, engine._run_lanes
    index_of = {point: k for k, point in enumerate(grid.points())}

    def spy_run_lanes(names, model, starts, *rest):
        # each lane's (model, grid index), found from its start values
        points = zip(*(c.tolist() for c in np.broadcast_arrays(*starts)))
        calls.append([(names[m], index_of[p]) for m, p in zip(model.tolist(), points)])
        return run_lanes(names, model, starts, *rest)

    def spy_init(self, **columns):
        init(self, **columns)
        states.append(self)

    def spy_advance(xp, pos, vel, accel, dt):
        x, v = advance(xp, pos, vel, accel, dt)
        if xp is ARRAYS:  # the lanes, before the step drops those that end
            for lane, x_k in zip(states[-1].lane.tolist(), x.tolist()):
                positions.setdefault(calls[-1][lane], []).append(x_k)
        return x, v

    with mock.patch.object(engine, "_run_lanes", spy_run_lanes), \
            mock.patch.object(engine._Lanes, "__init__", spy_init), \
            mock.patch.object(engine, "advance_axis_xp", spy_advance):
        sweep(grid, models, base, params)
    return positions


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from((0.0, 3.0)))
def test_braking_never_puts_the_ego_ahead_of_the_uncontrolled_ego(data, v_min):
    # every model but idm only brakes, so at each step its ego is at most
    # where none's is from the same start, over the steps both run
    base = metamorphic_base(data.draw)
    params = ModelParams(rba=RbaParams(v_min_mps=v_min))
    grid = grid_around(base)
    batch = batch_ego_positions(grid, MODEL_NAMES, base, params)
    for k, point in enumerate(grid.points()):
        free = run_closed_loop(at_point(base, point), "none", params).trace.ego_x_m
        for model in MODEL_NAMES:
            if model == "idm":
                continue
            ego = run_closed_loop(at_point(base, point), model, params).trace.ego_x_m
            assert all(x <= x_free for x, x_free in zip(ego, free)), (model, point)
            assert batch[model, k] and all(
                x <= x_free for x, x_free in zip(batch[model, k], batch.get(("none", k), ()))
            ), (model, point)


def test_classification_rules():
    th = 2.0

    def classify_event(r, th):
        # the one rule, over a run's floats and over one-entry columns alike
        flag = risk.is_critical(r.collided, r.min_ttc_s, r.peak_decel_mps2, th)
        columns = risk.is_critical(np.array([r.collided]), np.array([r.min_ttc_s]),
                                     np.array([r.peak_decel_mps2]), th)
        assert type(flag) is bool and columns.dtype == bool and columns.tolist() == [flag]
        return "critical" if flag else "non_critical"

    collided = run_closed_loop(cutin(v_e0=30.0, v_o0=10.0, d_x0=20.0, lc_start=0.0, lc_dur=1.0), "none")
    assert classify_event(collided, th) == classification(collided, th) == "critical"
    quiet = run_closed_loop(cutin(v_e0=20.0, v_o0=20.0, d_x0=100.0), "none")
    assert math.isinf(quiet.min_ttc_s)
    assert classify_event(quiet, th) == classification(quiet, th) == "non_critical"
    shaved = SimResult(trace=quiet.trace, collided=False, min_gap_long_m=quiet.min_gap_long_m,
                       min_ttc_s=1.5, peak_decel_mps2=0.0)
    assert classify_event(shaved, th) == "critical"
    # the peak braking is read from the result, not rescanned from a trace
    hard = SimResult(trace=None, collided=False, min_gap_long_m=quiet.min_gap_long_m,
                     min_ttc_s=math.inf, peak_decel_mps2=3.6)
    assert classify_event(hard, th) == "critical"
    # each term alone makes a run critical: here the collision flag
    assert classify_event(replace(hard, collided=True, peak_decel_mps2=0.0), th) == "critical"
    # the ties are non-critical
    assert classify_event(replace(hard, peak_decel_mps2=3.5), th) == "non_critical"
    assert classify_event(replace(shaved, min_ttc_s=2.0), th) == "non_critical"


def test_feasibility_bound_values():
    assert feasibility_bound(20.0, 20.0, 6.0, 0.5) == 0.0
    assert feasibility_bound(20.0, 10.0, 6.0, 0.5) == pytest.approx(5.0 + 100.0 / 12.0)
    assert feasibility_bound(30.0, 10.0, 6.0, 0.5) == pytest.approx(10.0 + 400.0 / 12.0)
    with pytest.raises(ConfigError, match="a_max"):
        feasibility_bound(30.0, 10.0, 0.0, 0.5)


@pytest.mark.parametrize("a_max, t_react, key", [
    (math.nan, 0.5, "a_max"), (-6.0, 0.5, "a_max"),
    (6.0, -5.0, "t_react"), (6.0, math.nan, "t_react"), (6.0, math.inf, "t_react"),
])
def test_feasibility_bound_rejects_an_input_outside_its_domain(a_max, t_react, key):
    with pytest.raises(ConfigError, match=key) as exc:
        feasibility_bound(30.0, 10.0, a_max, t_react)
    assert exc.value.key == key
    # a zero reaction time is the braking distance alone
    assert feasibility_bound(30.0, 10.0, 6.0, 0.0) == 400.0 / 12.0


def test_feasibility_bound_against_fine_step_braking_sim():
    """Full braking after the reaction time, simulated at fine dt, avoids the
    intercept exactly above the bound and fails just below it."""

    def min_gap_full_braking(dv0, gap0, a_max=6.0, t_react=0.5, dt=1e-4):
        gap, dv, t = gap0, dv0, 0.0
        min_gap = gap
        while dv > 0.0:
            if t >= t_react:
                dv = max(dv - a_max * dt, 0.0)
            gap -= dv * dt
            t += dt
            min_gap = min(min_gap, gap)
        return min_gap

    for dv in (5.0, 10.0, 20.0):
        bound = feasibility_bound(dv, 0.0, 6.0, 0.5)
        assert min_gap_full_braking(dv, bound + 0.05) > 0.0
        assert min_gap_full_braking(dv, bound - 0.05) < 0.0
