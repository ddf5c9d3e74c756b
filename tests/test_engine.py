import itertools
import json
import math
import os
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutinsim.engine as engine
from cutinsim.config import load_config, parse_config
from cutinsim.engine import (
    MAX_STEPS,
    SCENARIO_KINDS,
    ClassifyThresholds,
    ScenarioParams,
    SimResult,
    SweepGrid,
    SweepItem,
    Trace,
    feasibility_bound,
    run_closed_loop,
    sweep,
)
from cutinsim.errors import ConfigError, InvalidInputError
from cutinsim.kinematics import ARRAYS, FLOATS, VehicleDims
from cutinsim.safety_models import (
    MARGIN_PASS,
    MODEL_NAMES,
    CcHumanParams,
    IdmParams,
    ModelParams,
    RbaParams,
    control_step,
)

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
    # touching side to side (gap_lat exactly 0) while alongside: no collision
    (35.0, 2.0, 20.0, (-5.0, 0.0, False, math.inf)),
    # overlapping on both axes: a collision, TTC 0
    (35.0, 1.0, 20.0, (-5.0, -1.0, True, 0.0)),
    # bumper to bumper (gap_long exactly 0) in one lane: not alongside, and
    # the TTC formula's 0 when closing, inf when not
    (30.0, 1.0, 25.0, (0.0, -1.0, False, 0.0)),
    (30.0, 1.0, 20.0, (0.0, -1.0, False, math.inf)),
])
def test_step_sensing_at_each_gap_boundary(x, d_y0, v_e0, expected):
    # the other vehicle, at 20 m/s, sits 35 m ahead (center to center) in its
    # start lane at t = 0; both forms of the step sense the same
    p = cutin(v_e0=v_e0, v_o0=20.0, d_x0=30.0, d_y0=d_y0)
    *_, gap_long, gap_lat, collided, ttc = engine._sense(
        FLOATS, p, 0.0, x, v_e0, p.d_x0_m, p.v_o0_mps, p.d_y0_m
    )
    assert (gap_long, gap_lat, collided, ttc) == expected
    lanes = (np.array([value]) for value in (x, v_e0, p.d_x0_m, p.v_o0_mps, p.d_y0_m))
    *_, gap_long, gap_lat, collided, ttc = engine._sense(ARRAYS, p, 0.0, *lanes)
    assert (gap_long[0], gap_lat[0], collided[0], ttc[0]) == expected


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
    # gaps, speeds and TTC through control_step gives back its safe flag and
    # braking
    collided_runs = braking_steps = 0
    for kind, d_x0 in itertools.product(SCENARIO_KINDS, (20.0, 45.0)):
        d_y0 = 0.0 if kind == "car_following" else 3.75
        p = cutin(v_e0=30.0, v_o0=10.0, d_x0=d_x0, d_y0=d_y0, lc_start=0.0, lc_dur=1.0,
                  kind=kind)
        for model in MODEL_NAMES:
            r = run_closed_loop(p, model)
            memory = 0
            tr = r.trace
            steps = zip(tr.gap_long_m, tr.gap_lat_m, tr.ego_v_mps, tr.other_v_mps, tr.ttc_s,
                        tr.safe, tr.decel_cmd_mps2)
            for gap_long, gap_lat, v_ego, v_other, ttc, safe, decel in (
                list(steps)[:-1] if r.collided else steps
            ):
                code, decel_cmd, _, memory = control_step(
                    FLOATS, model, ModelParams(), gap_long, gap_lat, v_ego, v_other, ttc, p.dt_s,
                    memory,
                )
                assert (code <= MARGIN_PASS, decel_cmd) == (safe, decel)
                braking_steps += decel > 0.0
            collided_runs += r.collided
            # the summary, kept as the run steps, is the trace's
            assert repr(r.min_gap_long_m) == repr(min(tr.gap_long_m))
            assert repr(r.min_ttc_s) == repr(min(filter(math.isfinite, tr.ttc_s), default=math.inf))
            assert repr(r.peak_decel_mps2) == repr(max(tr.decel_cmd_mps2))
    assert collided_runs > 0 and braking_steps > 0


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
    cutin(duration=12.0, dt=12.0 / MAX_STEPS)  # exactly at the step bound


def test_sweep_cardinality_order_and_determinism():
    grid = SweepGrid(v_e0_mps=(20.0, 30.0), v_o0_mps=(10.0,), d_x0_m=(20.0, 40.0), d_y0_m=(3.75,))
    base = cutin()
    items = sweep(grid, ["rba"], base)
    assert len(items) == 4
    assert [it.grid_index for it in items] == [0, 1, 2, 3]
    again = sweep(grid, ["rba"], base)
    assert items == again
    both = sweep(grid, ["rba", "rss"], base)
    assert len(both) == 8
    assert [it.model_name for it in both] == ["rba"] * 4 + ["rss"] * 4
    assert both[:4] == items


def test_sweep_parallel_matches_serial():
    # 1e306 overflows idm's power: an error row made inside a worker
    grid = SweepGrid(v_e0_mps=(20.0, 30.0, 1e306), v_o0_mps=(10.0, 15.0), d_x0_m=(25.0,),
                     d_y0_m=(3.75,))
    base = cutin()
    serial = sweep(grid, ["rba", "idm", "none"], base, jobs=1)
    parallel = sweep(grid, ["rba", "idm", "none"], base, jobs=2)
    assert serial == parallel
    assert any(it.error for it in serial)


def test_sweep_items_carry_the_summary_without_the_trace():
    grid = SweepGrid(v_e0_mps=(30.0,), v_o0_mps=(10.0, 15.0), d_x0_m=(25.0,), d_y0_m=(3.75,))
    base = cutin()
    items = sweep(grid, ["rba", "none"], base)
    for it in items:
        assert it.result.trace is None
        assert len(pickle.dumps(it, pickle.HIGHEST_PROTOCOL)) < 2048
        v_e0, v_o0, d_x0, d_y0 = it.point
        full = run_closed_loop(
            replace(base, v_e0_mps=v_e0, v_o0_mps=v_o0, d_x0_m=d_x0, d_y0_m=d_y0), it.model_name
        )
        assert full.trace.t_s
        assert it.result == replace(full, trace=None)
        assert full.peak_decel_mps2 == max(full.trace.decel_cmd_mps2)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

    started: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "jobs, cpus, started",
    [(100_000, 64, [6]), (100_000, 3, [3]), (2, 64, [2]), (100_000, None, []), (1, 64, [])],
)
def test_sweep_worker_count_is_bounded(monkeypatch, jobs, cpus, started):
    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingPool, "started", [])
    grid = SweepGrid(v_e0_mps=(20.0, 30.0, 35.0), v_o0_mps=(10.0,), d_x0_m=(25.0,), d_y0_m=(3.75,))
    items = sweep(grid, ["rba", "none"], cutin(), jobs=jobs)
    assert RecordingPool.started == started
    assert items == sweep(grid, ["rba", "none"], cutin())


def test_sweep_records_error_rows_instead_of_aborting():
    grid = SweepGrid(v_e0_mps=(20.0,), v_o0_mps=(10.0,), d_x0_m=(20.0,), d_y0_m=(3.75,))
    base = cutin(kind="car_following", d_y0=0.0)  # grid d_y0 3.75 is invalid here
    items = sweep(grid, ["rba"], base)
    assert len(items) == 1
    assert items[0].result is None
    assert "d_y0" in items[0].error


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


def at_point(base, point):
    v_e0, v_o0, d_x0, d_y0 = point
    return replace(base, v_e0_mps=v_e0, v_o0_mps=v_o0, d_x0_m=d_x0, d_y0_m=d_y0)


def scalar_item(base, model, index, point, params, thresholds=ClassifyThresholds()):
    """One sweep item through the scalar loop: the reference for the batched sweep."""
    try:
        result = run_closed_loop(at_point(base, point), model, params, thresholds)
    except Exception as exc:
        return SweepItem(model, index, point, None, error=f"{type(exc).__name__}: {exc}")
    return SweepItem(model, index, point, replace(result, trace=None))


def scalar_sweep(grid, models, base, params):
    return [
        scalar_item(base, model, index, point, params)
        for model in models
        for index, point in enumerate(grid.points())
    ]


def reprs(items):
    # repr shows every field, so -0.0 against 0.0 and error texts count
    return [repr(item) for item in items]


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
        idm=IdmParams(delta=draw(st.sampled_from((4.0, 2.7)))),
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
    items = sweep(grid, MODEL_NAMES, base, params)
    assert reprs(items) == reprs(scalar_sweep(grid, MODEL_NAMES, base, params))
    # a lane's result does not depend on the batch it runs in
    ran = [it for it in items if valid(base, it.point)]
    start = data.draw(st.integers(0, len(ran)))
    stop = data.draw(st.integers(start, len(ran)))
    chunk = [(it.model_name, it.grid_index, it.point) for it in ran[start:stop]]
    alone = engine._run_lanes(chunk, base, params, ClassifyThresholds())
    assert reprs(alone) == reprs(ran[start:stop])


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_batched_sweep_equals_the_scalar_loop_where_runs_collide_stop_and_raise(kind):
    base = cutin(kind=kind, d_y0=0.0 if kind == "car_following" else 3.75,
                 lc_start=0.0, lc_dur=1.0, duration=6.0,
                 profile=((3.0, 0.0),) if kind == "car_following" else ())
    grid = SweepGrid(v_e0_mps=(0.0, 10.0, 30.0, 1e306), v_o0_mps=(10.0, 1e308),
                     d_x0_m=(5.0, 40.0), d_y0_m=(0.0, 3.75))
    items = sweep(grid, MODEL_NAMES, base)
    assert reprs(items) == reprs(scalar_sweep(grid, MODEL_NAMES, base, ModelParams()))
    errors = [it.error for it in items if it.error]
    for message in (
        "InvalidInputError: pos_long_m must be finite",  # the other vehicle, or the ego
        "InvalidInputError: idm acceleration overflows",
        "InvalidInputError: rss minimum gap overflows",
    ):
        assert any(error.startswith(message) for error in errors), message
    assert any(it.result and it.result.collided for it in items)
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


def test_batched_sweep_equals_the_scalar_loop_where_the_ego_position_overflows():
    # at 1.7e308 m/s the ego's position passes float range within the run,
    # before rss sees the other vehicle in its lane; idm's power overflows first
    grid = SweepGrid(v_e0_mps=(20.0, 1.7e308), v_o0_mps=(10.0,), d_x0_m=(25.0,), d_y0_m=(3.75,))
    base = cutin()
    items = sweep(grid, MODEL_NAMES, base)
    assert reprs(items) == reprs(scalar_sweep(grid, MODEL_NAMES, base, ModelParams()))
    for it in items:
        assert (it.error is None) == (it.point[0] == 20.0), it
        if it.error and it.model_name != "idm":
            assert it.error == "InvalidInputError: pos_long_m must be finite, got inf"


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
    items = sweep(grid, cfg.models, base, cfg.model_params, cfg.classify)
    assert len(items) == len(grid.points()) * len(MODEL_NAMES)
    for it in items:
        assert it.error is None, it
        assert it.result.peak_decel_mps2 <= DECEL_CAPS[it.model_name](cfg.model_params), it
        # and no run drives the ego backwards, nor rba under its speed floor
        run = run_closed_loop(at_point(base, it.point), it.model_name, cfg.model_params,
                              cfg.classify)
        assert it.result == replace(run, trace=None)
        floor = cfg.model_params.rba.v_min_mps if it.model_name == "rba" else 0.0
        assert min(run.trace.ego_v_mps) >= floor, it
    assert any(it.result.peak_decel_mps2 > 0.0 for it in items if it.model_name == "idm")


def test_classification_rules():
    th = ClassifyThresholds(ttc_critical_s=2.0, comfort_decel_mps2=3.5)

    def classify_event(r, th):
        return engine._classify(r.collided, r.min_ttc_s, r.peak_decel_mps2, th)

    collided = run_closed_loop(cutin(v_e0=30.0, v_o0=10.0, d_x0=20.0, lc_start=0.0, lc_dur=1.0), "none")
    assert classify_event(collided, th) == "critical"
    quiet = run_closed_loop(cutin(v_e0=20.0, v_o0=20.0, d_x0=100.0), "none")
    assert math.isinf(quiet.min_ttc_s)
    assert classify_event(quiet, th) == "non_critical"
    shaved = SimResult(trace=quiet.trace, collided=False, min_gap_long_m=quiet.min_gap_long_m,
                       min_ttc_s=1.5, peak_decel_mps2=0.0, classification="", model_name="none")
    assert classify_event(shaved, th) == "critical"
    # the peak braking is read from the result, not rescanned from a trace
    hard = SimResult(trace=None, collided=False, min_gap_long_m=quiet.min_gap_long_m,
                     min_ttc_s=math.inf, peak_decel_mps2=3.6, classification="", model_name="rba")
    assert classify_event(hard, th) == "critical"
    assert classify_event(replace(hard, peak_decel_mps2=3.5), th) == "non_critical"
    assert classify_event(replace(shaved, min_ttc_s=2.0), th) == "non_critical"


def test_feasibility_bound_values():
    assert feasibility_bound(20.0, 20.0, 6.0, 0.5) == 0.0
    assert feasibility_bound(20.0, 10.0, 6.0, 0.5) == pytest.approx(5.0 + 100.0 / 12.0)
    assert feasibility_bound(30.0, 10.0, 6.0, 0.5) == pytest.approx(10.0 + 400.0 / 12.0)
    with pytest.raises(ConfigError, match="a_max"):
        feasibility_bound(30.0, 10.0, 0.0, 0.5)


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
