"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected-value oracles live in this file and are written independently
of the production code paths they check.
"""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import qmc

from cutinsim.cli import main as cli_main
from cutinsim.engine import (
    ScenarioParams,
    SweepGrid,
    feasibility_bound,
    run_closed_loop,
    sweep,
)
from cutinsim.ingest import extract_cut_in_events, read_tracks_csv, trace_to_track_rows, write_tracks_csv
from cutinsim.kinematics import FLOATS, VehicleDims, advance_axis_xp
from cutinsim.metrics import finite_difference_sensitivity, ttc_sensitivity
from cutinsim.risk import fit_gaussian, prob_below_threshold
from cutinsim.safety_models import MARGIN_PASS, ModelParams, RbaParams, control_step
from step_features import State, step_features

# Sweep scenario for criteria 5/6: an abrupt cut starting at t=0, so the
# check's detection delay (~0.4 s of lateral travel) mirrors the reaction-time
# allowance inside the feasibility bound.
SWEEP_LC_START_S = 0.0
SWEEP_LC_DURATION_S = 1.0
SWEEP_DT_S = 0.05
SWEEP_DURATION_S = 12.0

DIMS = VehicleDims(width_m=2.0, length_m=5.0)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def eq1_literal(ego, cut, ego_dims, cut_dims, p):
    """Independent transcription of the published safety condition."""
    lat = abs(ego.pos_lat_m - cut.pos_lat_m) - (ego_dims.width_m + cut_dims.width_m) / 2.0
    lon = abs(ego.pos_long_m - cut.pos_long_m) - (ego_dims.length_m + cut_dims.length_m) / 2.0
    dv = ego.vel_long_mps - cut.vel_long_mps
    if dv < 1e-6:
        ratio_clause = True
    else:
        ratio_clause = lon / abs(dv) > dv / (2.0 * p.a_max_mps2) + p.t_react_s + p.time_margin_s
    d_safe_eff = p.d_safe_m + p.headway_gain_s * ego.vel_long_mps
    return (lat > p.d_lat_safe_m) and (lon > d_safe_eff or ratio_clause)


def rba_safe(ego, cut, dims, p):
    """The rba check's verdict for a pair of vehicle states, through control_step."""
    features = step_features(ego, cut, dims, dims)
    code, *_ = control_step(
        FLOATS, "rba", ModelParams(rba=p), *features, math.inf, SWEEP_DT_S, 0
    )
    return code <= MARGIN_PASS


def smoothstep_crossing_time(p: ScenarioParams, clearance_m: float) -> float:
    """Bisection oracle for the first time the lateral offset dips below
    clearance_m in a cut_in scenario."""
    lo, hi = p.lc_start_s, p.lc_start_s + p.lc_duration_s
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if p.other_motion(mid)[1] > clearance_m:
            lo = mid
        else:
            hi = mid
    return hi


def test_criterion_01_safety_check_oracle_equivalence():
    n = 100_000
    sampler = qmc.Sobol(d=4, scramble=True, seed=20260809)
    unit = sampler.random_base2(m=17)[:n]
    lows = np.array([-10.0, -3.0, 0.0, 0.0])
    highs = np.array([200.0, 5.0, 40.0, 40.0])
    points = qmc.scale(unit, lows, highs)

    big = VehicleDims(width_m=4.0, length_m=10.0)
    p = RbaParams()
    start = time.perf_counter()
    mismatches = 0
    for gap_long, gap_lat, v_ego, v_cut in points:
        ego = State(0.0, 0.0, v_ego)
        cut = State(gap_long + 10.0, gap_lat + 4.0, v_cut)
        expected = eq1_literal(ego, cut, big, big, p)
        if rba_safe(ego, cut, big, p) != expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "safety check agrees with the literal transcription",
        mismatches == 0 and elapsed < 5.0,
        f"{n} quasi-random inputs, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_02_braking_law_contract():
    rng = np.random.default_rng(2)
    n = 100_000
    params = [
        RbaParams(),
        RbaParams(d_safe_m=5.0, safety_buffer_m=1.0, ttc_safe_s=2.0, a_max_mps2=4.0),
        RbaParams(d_safe_m=20.0, safety_buffer_m=5.0, ttc_safe_s=8.0, a_max_mps2=9.0, v_min_mps=3.0),
    ]
    gaps = rng.uniform(-50.0, 300.0, size=n)
    ttcs = rng.uniform(0.0, 20.0, size=n)
    inf_mask = rng.random(n) < 0.1
    ttcs[inf_mask] = math.inf
    vels = rng.uniform(0.0, 40.0, size=n)
    step_freq_hz = 20.0
    dt = 1.0 / step_freq_hz
    violations = 0
    for i in range(n):
        p = params[i % len(params)]
        # the other vehicle overlaps laterally, so the check fails and the
        # braking law sets the step: decel is its decrement times the step
        # frequency, and accel takes the speed down by it, or to v_min; a
        # speed already under v_min is held, never raised to it
        code, decel, accel, _ = control_step(
            FLOATS, "rba", ModelParams(rba=p), gaps[i], 0.0, vels[i], vels[i], ttcs[i], dt, 0
        )
        gap_short = (p.d_safe_m + p.safety_buffer_m) - gaps[i]
        ttc_short = (p.ttc_safe_s - ttcs[i]) if math.isfinite(ttcs[i]) else -math.inf
        ok = code > MARGIN_PASS and 0.0 <= decel <= p.a_max_mps2
        if gap_short <= 0.0 and ttc_short <= 0.0:
            ok = ok and decel == 0.0
        v_next = advance_axis_xp(FLOATS, 0.0, vels[i], accel, dt)[1]
        ok = ok and accel <= 0.0 and v_next >= min(vels[i], p.v_min_mps)
        if not ok:
            violations += 1
    _report(
        2,
        "per-step braking bounds, exact zero region, velocity floor",
        violations == 0,
        f"{n} random inputs, {violations} violations",
    )


def test_criterion_03_no_safe_to_unsafe_flips():
    rng = np.random.default_rng(3)
    n_base = 10_000
    increments = (0.1, 0.5, 1.5, 4.0, 12.0)
    p = RbaParams()
    flips = 0
    checked = 0
    for _ in range(n_base):
        gap_long = rng.uniform(-10.0, 120.0)
        gap_lat = rng.uniform(-3.0, 5.0)
        v_ego, v_cut = rng.uniform(0.0, 40.0, size=2)
        ego = State(0.0, 0.0, v_ego)
        big = VehicleDims(width_m=4.0, length_m=10.0)
        cut = State(gap_long + 10.0, gap_lat + 4.0, v_cut)
        if not rba_safe(ego, cut, big, p):
            continue
        checked += 1
        for inc in increments:
            farther = State(gap_long + 10.0 + inc, gap_lat + 4.0, v_cut)
            wider = State(gap_long + 10.0, gap_lat + 4.0 + inc, v_cut)
            stronger = RbaParams(a_max_mps2=p.a_max_mps2 + inc)
            if not rba_safe(ego, farther, big, p):
                flips += 1
            if not rba_safe(ego, wider, big, p):
                flips += 1
            if not rba_safe(ego, cut, big, stronger):
                flips += 1
    _report(
        3,
        "monotone in gap_long, gap_lat and braking authority",
        flips == 0,
        f"{checked} safe base points x 5 increments x 3 knobs, {flips} flips",
    )


def test_criterion_04_sensitivity_gradient_check():
    start = time.perf_counter()
    h = 1e-4
    worst_rel = 0.0
    worst_identity = 0.0
    for d in np.linspace(1.0, 200.0, 40):
        for v in np.linspace(0.5, 40.0, 40):
            analytic = ttc_sensitivity(d, v)
            fd = finite_difference_sensitivity(d, v, h)
            rel_long = abs(fd.s_long_s_per_m - analytic.s_long_s_per_m) / abs(analytic.s_long_s_per_m)
            rel_rel = abs(fd.s_rel_s2_per_m - analytic.s_rel_s2_per_m) / abs(analytic.s_rel_s2_per_m)
            worst_rel = max(worst_rel, rel_long, rel_rel)
            ttc = d / v
            identity = abs(analytic.s_rel_s2_per_m - (-ttc * analytic.s_long_s_per_m))
            worst_identity = max(worst_identity, identity / max(abs(analytic.s_rel_s2_per_m), 1e-300))
    elapsed = time.perf_counter() - start
    _report(
        4,
        "analytic vs central-difference sensitivities on the 40x40 grid",
        worst_rel < 1e-6 and worst_identity < 1e-10 and elapsed < 1.0,
        f"max rel err {worst_rel:.2e}, identity err {worst_identity:.2e}, {elapsed:.2f}s",
    )


def _sweep_base() -> ScenarioParams:
    return ScenarioParams(
        kind="cut_in",
        v_e0_mps=25.0,
        v_o0_mps=20.0,
        d_x0_m=30.0,
        d_y0_m=3.75,
        lc_start_s=SWEEP_LC_START_S,
        lc_duration_s=SWEEP_LC_DURATION_S,
        duration_s=SWEEP_DURATION_S,
        dt_s=SWEEP_DT_S,
    )


def test_criterion_05_closed_loop_no_collision_sweep():
    start = time.perf_counter()
    grid = SweepGrid(
        v_e0_mps=(15.0, 20.0, 25.0, 30.0, 35.0),
        v_o0_mps=(10.0, 15.0, 20.0, 25.0, 30.0),
        d_x0_m=(10.0, 20.0, 30.0, 40.0, 60.0),
        d_y0_m=(3.75,),
    )
    base = _sweep_base()
    items = sweep(grid, ["rba", "none"], base)
    by_model = {"rba": {}, "none": {}}
    for item in items:
        assert item.result is not None, item.error
        by_model[item.model_name][item.point] = item.result

    p = RbaParams()
    t_lat = smoothstep_crossing_time(base, 2.0)  # lateral overlap onset
    rba_failures = []
    null_failures = []
    n_rba_asserted = 0
    n_null_asserted = 0
    for point, result in by_model["rba"].items():
        v_e0, v_o0, d_x0, _ = point
        if v_o0 > v_e0:
            continue
        bound = feasibility_bound(v_e0, v_o0, p.a_max_mps2, p.t_react_s)
        if d_x0 > bound + 5.0:
            n_rba_asserted += 1
            if result.collided:
                rba_failures.append(point)
    for point, result in by_model["none"].items():
        v_e0, v_o0, d_x0, _ = point
        if not v_e0 > v_o0:
            continue
        dv = v_e0 - v_o0
        intercept_gap = dv * (SWEEP_DURATION_S - t_lat)
        reaches_after_alignment = (d_x0 + 2 * DIMS.length_m) / dv >= t_lat + 2 * SWEEP_DT_S
        if d_x0 <= intercept_gap - 2 * SWEEP_DT_S * dv and reaches_after_alignment:
            n_null_asserted += 1
            if not result.collided:
                null_failures.append(point)
    elapsed = time.perf_counter() - start
    _report(
        5,
        "no collisions above the feasibility bound; null controller intercepts below it",
        not rba_failures and not null_failures and elapsed < 30.0,
        f"rba {n_rba_asserted} asserted points ({len(rba_failures)} collided: {rba_failures}), "
        f"null {n_null_asserted} asserted points ({len(null_failures)} missed), {elapsed:.1f}s",
    )


def test_criterion_06_null_controller_intercept_timing():
    configs = []
    for v_e0, v_o0, d_x0 in [
        (30.0, 10.0, 20.0), (30.0, 10.0, 40.0), (25.0, 15.0, 15.0), (25.0, 5.0, 50.0),
        (35.0, 20.0, 30.0), (20.0, 12.0, 24.0), (28.0, 21.0, 21.0), (33.0, 11.0, 55.0),
        (18.0, 9.0, 27.0), (40.0, 25.0, 45.0), (22.0, 16.0, 12.0), (26.0, 13.0, 39.0),
    ]:
        configs.append(("car_following", v_e0, v_o0, d_x0, 0.0))
    for v_e0, v_o0, d_x0 in [
        (30.0, 10.0, 25.0), (28.0, 14.0, 30.0), (35.0, 15.0, 44.0), (24.0, 12.0, 18.0),
        (32.0, 18.0, 35.0), (27.0, 9.0, 54.0), (21.0, 7.0, 28.0), (36.0, 24.0, 24.0),
    ]:
        configs.append(("cut_in", v_e0, v_o0, d_x0, 3.75))

    worst = 0.0
    for kind, v_e0, v_o0, d_x0, d_y0 in configs:
        p = ScenarioParams(
            kind=kind, v_e0_mps=v_e0, v_o0_mps=v_o0, d_x0_m=d_x0, d_y0_m=d_y0,
            lc_start_s=SWEEP_LC_START_S, lc_duration_s=SWEEP_LC_DURATION_S,
            duration_s=SWEEP_DURATION_S, dt_s=SWEEP_DT_S,
        )
        result = run_closed_loop(p, "none")
        assert result.collided, (kind, v_e0, v_o0, d_x0)
        t_gap = d_x0 / (v_e0 - v_o0)
        t_expected = t_gap if kind == "car_following" else max(t_gap, smoothstep_crossing_time(p, 2.0))
        worst = max(worst, abs(result.trace.t_s[-1] - t_expected))
    _report(
        6,
        "intercept timing matches the uniform-motion closed form",
        worst <= 2 * SWEEP_DT_S,
        f"20 configurations, worst |dt| = {worst:.3f}s vs bound {2 * SWEEP_DT_S:.2f}s",
    )


def test_criterion_07_gaussian_recovery_and_tail_probability():
    mu, sigma, crit = 3.76, 0.69, 2.0

    rng = np.random.default_rng(20260809)
    mean, std = fit_gaussian(rng.normal(mu, sigma, size=100_000))
    recover_ok = abs(mean - mu) < 0.01 and abs(std - sigma) < 0.01

    p = prob_below_threshold(mu, sigma, crit)

    mc = np.random.default_rng(7).normal(mu, sigma, size=10_000_000)
    frac = float(np.mean(mc < crit))
    se = math.sqrt(p * (1.0 - p) / 10_000_000)
    mc_ok = abs(frac - p) <= 3.0 * se

    # independent series evaluation of the same tail probability
    x = (crit - mu) / sigma * math.sqrt(0.5)
    parts, term = [], x
    for n in range(80):
        parts.append(term / (2 * n + 1))
        term *= -x * x / (n + 1)
    series = 0.5 * (1.0 + 2.0 / math.sqrt(math.pi) * math.fsum(parts))
    series_ok = abs(p - series) < 1e-7
    value_ok = abs(p - 0.0054) < 1e-4

    _report(
        7,
        "Gaussian fit recovery and below-threshold probability",
        recover_ok and mc_ok and series_ok and value_ok,
        f"fit ({mean:.4f}, {std:.4f}), p={p:.6f}, mc={frac:.6f} (3se={3*se:.1e}), "
        f"series diff {abs(p - series):.1e}",
    )


def test_criterion_08_ingest_round_trip(tmp_path):
    fps = 25.0
    cases = [
        (22.0, 18.0, 25.0, 3.75, 0.5, 1.5),
        (25.0, 20.0, 30.0, 3.75, 1.0, 2.0),
        (28.0, 24.0, 35.0, 3.75, 1.5, 2.5),
        (30.0, 25.0, 40.0, 3.75, 0.5, 2.0),
        (33.0, 27.0, 55.0, 3.75, 1.0, 1.5),
        (24.0, 20.0, 28.0, 7.5, 0.5, 2.0),
        (26.0, 22.0, 33.0, 7.5, 1.0, 2.5),
        (29.0, 26.0, 45.0, 3.75, 2.0, 2.0),
        (31.0, 28.0, 50.0, 3.75, 1.5, 1.5),
        (23.0, 19.0, 26.0, 3.75, 0.8, 1.8),
    ]
    failures = []
    for i, (v_e0, v_o0, d_x0, d_y0, lc_start, lc_dur) in enumerate(cases):
        p = ScenarioParams(
            kind="cut_in", v_e0_mps=v_e0, v_o0_mps=v_o0, d_x0_m=d_x0, d_y0_m=d_y0,
            lc_start_s=lc_start, lc_duration_s=lc_dur, duration_s=8.0, dt_s=1.0 / fps,
        )
        result = run_closed_loop(p, "none")
        path = tmp_path / f"fixture_{i}.csv"
        write_tracks_csv(path, trace_to_track_rows(result.trace, DIMS, DIMS))
        events = extract_cut_in_events(read_tracks_csv(path, fps))
        quantum = (v_e0 - v_o0) / fps
        ok = (
            len(events) == 1
            and abs(events[0].params.v_e0_mps - v_e0) < 1e-4
            and abs(events[0].params.v_o0_mps - v_o0) < 1e-4
            and abs(events[0].params.d_x0_m - d_x0) <= quantum + 0.01
            and abs(events[0].params.d_y0_m - d_y0) <= 0.01
        )
        if not ok:
            failures.append(i)
    _report(
        8,
        "generator -> csv -> reader -> event extraction recovers the parameters",
        not failures,
        f"10 fixtures, failures: {failures}",
    )


@pytest.fixture(scope="module")
def comparison_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_cmp")
    cfg = {
        "schema_version": 1,
        "seed": 0,
        "scenario": {
            "kind": "cut_in", "v_e0": 25.0, "v_o0": 20.0, "d_x0": 30.0, "d_y0": 3.75,
            "lc_start_s": 0.0, "lc_duration_s": 1.0, "duration_s": 12.0, "dt_s": 0.05,
        },
        "models": ["rba", "rss", "reg157", "cc_human", "fsm", "idm", "none"],
        "sweep": {
            "v_e0": [20.0, 25.0, 30.0],
            "v_o0": [10.0, 15.0, 20.0],
            "d_x0": [20.0, 40.0, 60.0],
            "d_y0": [3.75],
        },
        "risk": {"ttc_crit_s": 2.0},
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = root / "run1", root / "run2"
    assert cli_main(["comparison", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["comparison", "--config", str(cfg_path), "--out", str(out2)]) == 0
    return out1, out2


def _tree_digest(root):
    digest = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                digest[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def test_criterion_09_comparison_determinism(comparison_run):
    out1, out2 = comparison_run
    d1, d2 = _tree_digest(out1), _tree_digest(out2)
    _report(
        9,
        "same config and seed produce byte-identical output trees",
        d1 == d2 and len(d1) > 0,
        f"{len(d1)} files compared",
    )


def test_criterion_10_histogram_and_density_conservation(comparison_run):
    out1, _ = comparison_run
    assert cli_main(["post-process", "--results", str(out1), "--ttc-crit", "2.0"]) == 0
    summary = json.loads((out1 / "summary.json").read_text())
    problems = []
    for row in summary["models"]:
        hist_path = out1 / f"hist_{row['model']}.csv"
        lines = hist_path.read_text().splitlines()[1:]
        total = sum(int(line.split(",")[2]) for line in lines)
        if total != row["n"]:
            problems.append(f"{row['model']}: hist sum {total} != n {row['n']}")
        if row["available"] and row["std_ttc"] >= 0.2:
            dens = (out1 / f"density_{row['model']}.csv").read_text().splitlines()[1:]
            xs = np.array([float(l.split(",")[0]) for l in dens])
            ys = np.array([float(l.split(",")[1]) for l in dens])
            integral = float(np.trapezoid(ys, xs))
            if abs(integral - 1.0) > 1e-3:
                problems.append(f"{row['model']}: density integral {integral:.5f}")
    _report(
        10,
        "histogram counts conserve n and densities integrate to one",
        not problems,
        "; ".join(problems) if problems else f"{len(summary['models'])} model rows checked",
    )
