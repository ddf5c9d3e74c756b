import math

import numpy as np
import pytest

from cutinsim.engine import ScenarioParams
from cutinsim.errors import InvalidInputError, UndefinedSensitivityError
from cutinsim.ingest import CutInEvent, TrackSet, export_features, tracks_from_rows
from cutinsim.kinematics import ARRAYS
from cutinsim.metrics import (
    CLOSING_SPEED_FLOOR_MPS,
    finite_difference_sensitivity,
    ttc,
    ttc_sensitivity,
    ttc_xp,
)

LENGTH_M = 5.0
PAIR = CutInEvent(
    ego_track=1, cut_track=2, start_frame=0, end_frame=0,
    params=ScenarioParams("cut_in", 10.0, 10.0, 15.0, 3.75, 0.0, 0.2, 1.0, 0.04),
)


def features(gap_m, follower_vel_mps, rel_vel_mps):
    """export_features' (dhw, thw, ttc, ittc) at the one frame of a follower
    (track 1) at x = 0 and a leader (track 2) gap_m ahead, bumper to bumper.

    rel_vel_mps is follower velocity minus leader velocity (positive = closing).
    """
    track_set = TrackSet(25.0, tracks_from_rows([
        (0, 1, 0.0, 0.0, LENGTH_M, 2.0, follower_vel_mps, 0.0, 0),
        (0, 2, gap_m + LENGTH_M, 0.0, LENGTH_M, 2.0, follower_vel_mps - rel_vel_mps, 0.0, 0),
    ]))
    (row0,), flagged = export_features(PAIR, track_set)
    assert flagged == []
    return row0[1:]


def test_direct_formula_case():
    assert features(40.0, 20.0, 10.0) == (40.0, 2.0, 4.0, 0.25)


def test_non_closing_gives_infinite_ttc():
    _, _, ttc_s, ittc = features(50.0, 20.0, 0.0)
    assert math.isinf(ttc_s)
    assert ittc == 0.0


def test_opening_gap_sign_convention():
    _, _, ttc_s, ittc = features(50.0, 20.0, -5.0)
    assert math.isinf(ttc_s)
    assert ittc == 0.0


def test_stopped_follower_has_infinite_thw():
    _, thw, ttc_s, _ = features(50.0, 0.0, 5.0)
    assert math.isinf(thw)
    assert ttc_s == 10.0


def test_ttc_convention():
    assert ttc(40.0, 10.0) == 4.0
    assert ttc(0.0, 5.0) == 0.0
    # not closing: infinite, including at the floor itself
    for closing in (-5.0, 0.0, CLOSING_SPEED_FLOOR_MPS):
        assert ttc(40.0, closing) == math.inf
    # a negative gap is 0 whether or not the pair closes; a zero gap is not
    # negative, so it is inf when the pair does not close
    for closing in (-5.0, 0.0, 5.0):
        assert ttc(-0.1, closing) == 0.0
    assert ttc(0.0, 0.0) == math.inf
    # the array form gives the float form's values, boundaries included
    gaps, closings = zip(*((g, c) for g in (-0.1, 0.0, 40.0)
                           for c in (-5.0, 0.0, CLOSING_SPEED_FLOOR_MPS, 5.0)))
    with np.errstate(all="ignore"):
        array_form = ttc_xp(ARRAYS, np.array(gaps), np.array(closings)).tolist()
    assert repr(array_form) == repr([ttc(g, c) for g, c in zip(gaps, closings)])


def test_features_at_a_zero_gap_and_a_follower_at_the_floor():
    _, _, ttc_s, ittc = features(0.0, 20.0, 5.0)
    assert (ttc_s, ittc) == (0.0, math.inf)
    assert features(50.0, CLOSING_SPEED_FLOOR_MPS, 0.0)[1] == math.inf


def test_ttc_times_closing_speed_recovers_dhw():
    rng = np.random.default_rng(7)
    for _ in range(500):
        gap = rng.uniform(0.1, 300.0)
        v_rel = rng.uniform(0.01, 50.0)
        dhw, _, ttc_s, ittc = features(gap, 20.0, v_rel)
        assert abs(ttc_s * v_rel - dhw) <= 1e-12 * dhw
        assert abs(ittc * ttc_s - 1.0) <= 1e-12


def test_sensitivity_analytic_forms():
    s = ttc_sensitivity(50.0, 10.0)
    assert s.s_long_s_per_m == 0.1
    assert s.s_rel_s2_per_m == -0.5
    s0 = ttc_sensitivity(0.0, 10.0)
    assert s0.s_long_s_per_m == 0.1
    assert s0.s_rel_s2_per_m == 0.0


def test_sensitivity_cross_checked_against_finite_differences():
    s = ttc_sensitivity(30.0, 2.0)
    assert s.s_long_s_per_m == pytest.approx(0.5)
    assert s.s_rel_s2_per_m == pytest.approx(-7.5)
    fd = finite_difference_sensitivity(30.0, 2.0, 1e-4)
    assert abs(fd.s_long_s_per_m - s.s_long_s_per_m) <= 1e-6 * abs(s.s_long_s_per_m)
    assert abs(fd.s_rel_s2_per_m - s.s_rel_s2_per_m) <= 1e-6 * abs(s.s_rel_s2_per_m)


def test_finite_difference_oracle_error_bounds():
    fd = finite_difference_sensitivity(50.0, 10.0, 1e-4)
    assert abs(fd.s_long_s_per_m - 0.1) < 1e-8
    assert abs(fd.s_rel_s2_per_m - (-0.5)) < 1e-6
    fd0 = finite_difference_sensitivity(0.0, 5.0, 1e-5)
    assert abs(fd0.s_rel_s2_per_m) < 1e-9


def test_srel_is_minus_ttc_times_slong():
    rng = np.random.default_rng(11)
    for _ in range(500):
        gap = rng.uniform(0.0, 200.0)
        v_rel = rng.uniform(0.1, 40.0)
        s = ttc_sensitivity(gap, v_rel)
        ttc = gap / v_rel
        expected = -ttc * s.s_long_s_per_m
        assert abs(s.s_rel_s2_per_m - expected) <= 1e-10 * max(abs(expected), 1e-30)


def test_sensitivity_magnitude_decreases_with_closing_speed():
    gap = 80.0
    speeds = np.linspace(0.5, 40.0, 50)
    mags = [abs(ttc_sensitivity(gap, v).s_rel_s2_per_m) for v in speeds]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_sensitivity_undefined_when_not_closing():
    with pytest.raises(UndefinedSensitivityError):
        ttc_sensitivity(50.0, 0.0)
    with pytest.raises(UndefinedSensitivityError):
        ttc_sensitivity(50.0, -5.0)
    with pytest.raises(UndefinedSensitivityError):
        ttc_sensitivity(50.0, CLOSING_SPEED_FLOOR_MPS)
    # 2 floor - floor is exactly the floor: the perturbed speed reaches it
    with pytest.raises(UndefinedSensitivityError):
        finite_difference_sensitivity(10.0, 2.0 * CLOSING_SPEED_FLOOR_MPS, CLOSING_SPEED_FLOOR_MPS)
    with pytest.raises(UndefinedSensitivityError):
        finite_difference_sensitivity(50.0, 1e-5, 1e-4)
    with pytest.raises(InvalidInputError):
        finite_difference_sensitivity(50.0, 10.0, 0.0)
    # a negative gap is overlap, not a TTC to differentiate
    with pytest.raises(InvalidInputError, match="gap_long_m must be >= 0"):
        ttc_sensitivity(-0.1, 10.0)
