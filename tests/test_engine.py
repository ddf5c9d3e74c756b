import itertools
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

import cutinsim.engine as engine
from cutinsim.engine import (
    MAX_STEPS,
    SCENARIO_KINDS,
    ClassifyThresholds,
    ScenarioParams,
    SimResult,
    SweepGrid,
    classify_event,
    feasibility_bound,
    run_closed_loop,
    sweep,
)
from cutinsim.errors import ConfigError
from cutinsim.safety_models import MODEL_NAMES, ModelParams, control_step


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
        return p.lateral_offset(t)[0]

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
    assert p.lateral_offset(0.0)[0] == 3.75
    assert p.lateral_offset(1.0)[0] == 3.75
    assert p.lateral_offset(3.0)[0] == 0.0
    assert p.lateral_offset(12.0)[0] == 0.0
    offsets = [p.lateral_offset(t)[0] for t in np.linspace(1.01, 2.99, 100)]
    assert all(b < a for a, b in zip(offsets, offsets[1:]))


def test_cut_out_is_time_mirror():
    p = cutin(kind="cut_out", lc_start=1.0, lc_dur=2.0)
    assert p.lateral_offset(0.5)[0] == 0.0
    assert p.lateral_offset(3.0)[0] == 3.75
    assert p.lateral_offset(10.0)[0] == 3.75


def test_car_following_stays_in_lane():
    p = cutin(kind="car_following", d_y0=0.0)
    for t in np.linspace(0, 12, 25):
        assert p.lateral_offset(t) == (0.0, 0.0)


def test_car_following_speed_profile():
    p = cutin(kind="car_following", d_y0=0.0, v_o0=20.0, profile=((4.0, 5.0),))
    assert p.other_state(3.9).vel_long_mps == 20.0
    assert p.other_state(4.0).vel_long_mps == 5.0
    # position continuous across the speed change
    x_before = p.other_state(4.0 - 1e-9).pos_long_m
    assert p.other_state(4.0).pos_long_m == pytest.approx(x_before, abs=1e-6)


def test_initial_bumper_gap_matches_d_x0():
    p = cutin(d_x0=30.0)
    first = run_closed_loop(p, "none").trace[0]
    assert first.other == p.other_state(0.0)
    assert first.other.pos_long_m - first.ego.pos_long_m - 5.0 == pytest.approx(30.0)


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
    assert abs(r.trace[-1].t_s - expected) <= 2 * p.dt_s


def test_collision_latch_stops_the_trace():
    p = cutin(v_e0=30.0, v_o0=10.0, d_x0=20.0, lc_start=0.0, lc_dur=1.0)
    r = run_closed_loop(p, "none")
    assert r.collided
    last = r.trace[-1]
    assert last.gap_long_m < 0 and last.gap_lat_m < 0
    assert all(not (s.gap_long_m < 0 and s.gap_lat_m < 0) for s in r.trace[:-1])
    assert last.t_s < p.duration_s


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
    peak = max(s.decel_cmd_mps2 for s in r.trace)
    assert peak == pytest.approx(6.0)
    assert peak <= 6.0 * (1.0 + 1e-12)
    assert not r.collided


def test_recorded_step_features_reproduce_each_decision():
    # the model sees exactly what the trace records: replaying each sample's
    # gaps, speeds and TTC through control_step gives back its decision
    collided_runs = braking_steps = 0
    for kind, d_x0 in itertools.product(SCENARIO_KINDS, (20.0, 45.0)):
        d_y0 = 0.0 if kind == "car_following" else 3.75
        p = cutin(v_e0=30.0, v_o0=10.0, d_x0=d_x0, d_y0=d_y0, lc_start=0.0, lc_dur=1.0,
                  kind=kind)
        for model in MODEL_NAMES:
            r = run_closed_loop(p, model)
            memory = 0
            for s in r.trace[:-1] if r.collided else r.trace:
                decision, _, memory = control_step(
                    model, ModelParams(), s.gap_long_m, s.gap_lat_m,
                    s.ego.vel_long_mps, s.other.vel_long_mps, s.ttc_s, p.dt_s, memory,
                )
                assert (decision.safe, decision.decel_cmd_mps2) == (s.safe, s.decel_cmd_mps2)
                braking_steps += s.decel_cmd_mps2 > 0.0
            collided_runs += r.collided
    assert collided_runs > 0 and braking_steps > 0


def test_velocity_stays_in_bounds_for_braking_models():
    for model in ("rba", "rss", "reg157", "cc_human", "fsm", "none"):
        r = run_closed_loop(cutin(v_e0=30.0, v_o0=15.0, d_x0=40.0), model)
        vels = [s.ego.vel_long_mps for s in r.trace]
        assert all(v >= 0.0 for v in vels)
        assert all(v <= 30.0 + 1e-9 for v in vels), model


def test_idm_can_accelerate_toward_desired_speed():
    r = run_closed_loop(cutin(v_e0=20.0, v_o0=20.0, d_x0=150.0), "idm")
    assert max(s.ego.vel_long_mps for s in r.trace) > 20.0


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
    grid = SweepGrid(v_e0_mps=(20.0, 30.0), v_o0_mps=(10.0, 15.0), d_x0_m=(25.0,), d_y0_m=(3.75,))
    base = cutin()
    serial = sweep(grid, ["rba", "none"], base, jobs=1)
    parallel = sweep(grid, ["rba", "none"], base, jobs=2)
    assert serial == parallel


def test_sweep_items_carry_the_summary_without_the_trace():
    grid = SweepGrid(v_e0_mps=(30.0,), v_o0_mps=(10.0, 15.0), d_x0_m=(25.0,), d_y0_m=(3.75,))
    base = cutin()
    items = sweep(grid, ["rba", "none"], base)
    for it in items:
        assert it.result.trace == ()
        assert len(pickle.dumps(it, pickle.HIGHEST_PROTOCOL)) < 2048
        v_e0, v_o0, d_x0, d_y0 = it.point
        full = run_closed_loop(
            replace(base, v_e0_mps=v_e0, v_o0_mps=v_o0, d_x0_m=d_x0, d_y0_m=d_y0), it.model_name
        )
        assert full.trace
        assert it.result == replace(full, trace=())
        assert full.peak_decel_mps2 == max(s.decel_cmd_mps2 for s in full.trace)


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


def test_classification_rules():
    th = ClassifyThresholds(ttc_critical_s=2.0, comfort_decel_mps2=3.5)
    collided = run_closed_loop(cutin(v_e0=30.0, v_o0=10.0, d_x0=20.0, lc_start=0.0, lc_dur=1.0), "none")
    assert classify_event(collided, th) == "critical"
    quiet = run_closed_loop(cutin(v_e0=20.0, v_o0=20.0, d_x0=100.0), "none")
    assert math.isinf(quiet.min_ttc_s)
    assert classify_event(quiet, th) == "non_critical"
    shaved = SimResult(trace=quiet.trace, collided=False, min_gap_long_m=quiet.min_gap_long_m,
                       min_ttc_s=1.5, peak_decel_mps2=0.0, classification="", model_name="none")
    assert classify_event(shaved, th) == "critical"
    # the peak braking is read from the result, not rescanned from a trace
    hard = SimResult(trace=(), collided=False, min_gap_long_m=quiet.min_gap_long_m,
                     min_ttc_s=math.inf, peak_decel_mps2=3.6, classification="", model_name="rba")
    assert classify_event(hard, th) == "critical"
    assert classify_event(replace(hard, peak_decel_mps2=3.5), th) == "non_critical"


def test_feasibility_bound_values():
    assert feasibility_bound(20.0, 20.0, 6.0, 0.5) == 0.0
    assert feasibility_bound(20.0, 10.0, 6.0, 0.5) == pytest.approx(5.0 + 100.0 / 12.0)
    assert feasibility_bound(30.0, 10.0, 6.0, 0.5) == pytest.approx(10.0 + 400.0 / 12.0)


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
