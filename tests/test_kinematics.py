import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cutinsim.errors import InvalidInputError
from cutinsim.kinematics import (
    ARRAYS,
    FLOATS,
    VehicleDims,
    VehicleState,
    advance_axis_xp,
    gap_lateral,
    gap_longitudinal,
    overlaps,
    step_vehicle,
)

DIMS_5x2 = VehicleDims(width_m=2.0, length_m=5.0)


def state(x=0.0, y=0.0, v=0.0, vy=0.0):
    return VehicleState(pos_long_m=x, pos_lat_m=y, vel_long_mps=v, vel_lat_mps=vy)


def midpoint_euler_oracle(v0, a, dt, n=10_000):
    """Independent integrator: midpoint-stepped substeps with the same
    stop-at-zero rule. Exact for constant acceleration up to the stop instant."""
    h = dt / n
    x, v = 0.0, v0
    for _ in range(n):
        v_next = v + a * h
        if v_next < 0.0:
            t_stop = v / -a
            x += v * t_stop + 0.5 * a * t_stop * t_stop
            v = 0.0
            break
        x += (v + 0.5 * a * h) * h
        v = v_next
    return x, v


def test_zero_acceleration_identity():
    s = step_vehicle(state(x=0.0, v=20.0), 0.0, 0.0, 0.1)
    assert s.vel_long_mps == 20.0  # bit-exact
    assert s.pos_long_m == 20.0 * 0.1


def test_decelerating_step_matches_closed_form_and_oracle():
    s = step_vehicle(state(v=20.0), -5.0, 0.0, 0.1)
    assert s.vel_long_mps == pytest.approx(19.5, abs=1e-12)
    assert s.pos_long_m == pytest.approx(1.975, abs=1e-12)
    x_oracle, v_oracle = midpoint_euler_oracle(20.0, -5.0, 0.1)
    assert abs(s.pos_long_m - x_oracle) < 1e-6
    assert abs(s.vel_long_mps - v_oracle) < 1e-9


def test_stopping_mid_step_truncates_position():
    s = step_vehicle(state(v=0.2), -6.0, 0.0, 0.1)
    assert s.vel_long_mps == 0.0
    assert s.pos_long_m == pytest.approx(0.2**2 / (2 * 6.0), abs=1e-12)
    x_oracle, _ = midpoint_euler_oracle(0.2, -6.0, 0.1)
    assert abs(s.pos_long_m - x_oracle) < 1e-6


def test_stopping_exactly_at_the_step_end_takes_the_full_step():
    # the speed reaches 0 at dt itself: the stop clamp is for v_end < 0 only,
    # and here the truncated position would differ in the last bit
    v, a, dt = 6.0 * 0.05, -6.0, 0.05
    full, t_stop = v * dt + 0.5 * a * dt * dt, v / -a
    assert full != v * t_stop + 0.5 * a * t_stop * t_stop
    assert advance_axis_xp(FLOATS, 0.0, v, a, dt, True) == (full, 0.0)
    pos, vel = advance_axis_xp(ARRAYS, np.zeros(1), np.array([v]), np.array([a]), dt, True)
    assert (pos.tolist(), vel.tolist()) == ([full], [0.0])


def test_step_rejects_non_finite_input():
    with pytest.raises(InvalidInputError):
        step_vehicle(state(v=10.0), math.nan, 0.0, 0.1)
    with pytest.raises(InvalidInputError):
        step_vehicle(state(v=10.0), 0.0, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        VehicleState(pos_long_m=0.0, pos_lat_m=0.0, vel_long_mps=-1.0)


@given(
    v=st.floats(0.0, 60.0),
    a=st.floats(-12.0, 6.0),
    dt=st.floats(0.001, 0.5),
)
def test_velocity_never_negative_and_no_teleporting(v, a, dt):
    s = step_vehicle(state(v=v), a, 0.0, dt)
    assert s.vel_long_mps >= 0.0
    bound = v * dt + 0.5 * abs(a) * dt * dt
    assert abs(s.pos_long_m) <= bound + 1e-9


def test_gap_longitudinal_examples():
    assert gap_longitudinal(state(x=0), state(x=40), DIMS_5x2, DIMS_5x2) == 35.0
    assert gap_longitudinal(state(x=0), state(x=0), DIMS_5x2, DIMS_5x2) == -5.0
    a = VehicleDims(width_m=2.0, length_m=4.0)
    b = VehicleDims(width_m=2.0, length_m=6.0)
    assert gap_longitudinal(state(x=40), state(x=0), a, b) == 35.0


def test_gap_lateral_examples():
    assert gap_lateral(state(y=0), state(y=3.75), DIMS_5x2, DIMS_5x2) == 1.75
    assert gap_lateral(state(y=0), state(y=0.5), DIMS_5x2, DIMS_5x2) == -1.5
    a = VehicleDims(width_m=1.8, length_m=5.0)
    b = VehicleDims(width_m=2.2, length_m=5.0)
    assert gap_lateral(state(y=1), state(y=1), a, b) == -2.0


def test_overlaps_examples():
    assert overlaps(state(), state(), DIMS_5x2, DIMS_5x2)
    assert not overlaps(state(x=0, y=0), state(x=40, y=0.5), DIMS_5x2, DIMS_5x2)
    assert overlaps(state(x=0, y=0), state(x=4, y=1.9), DIMS_5x2, DIMS_5x2)
    # footprints that touch on one axis (a gap of exactly 0) do not overlap
    assert not overlaps(state(x=0, y=0), state(x=5, y=0), DIMS_5x2, DIMS_5x2)
    assert not overlaps(state(x=0, y=0), state(x=0, y=2), DIMS_5x2, DIMS_5x2)


@given(
    xa=st.floats(-100, 100), ya=st.floats(-10, 10),
    xb=st.floats(-100, 100), yb=st.floats(-10, 10),
    la=st.floats(0.5, 20), wa=st.floats(0.5, 5),
    lb=st.floats(0.5, 20), wb=st.floats(0.5, 5),
)
def test_gaps_and_overlap_symmetric_under_exchange(xa, ya, xb, yb, la, wa, lb, wb):
    sa, sb = state(x=xa, y=ya), state(x=xb, y=yb)
    da, db = VehicleDims(width_m=wa, length_m=la), VehicleDims(width_m=wb, length_m=lb)
    assert gap_longitudinal(sa, sb, da, db) == gap_longitudinal(sb, sa, db, da)
    assert gap_lateral(sa, sb, da, db) == gap_lateral(sb, sa, db, da)
    assert overlaps(sa, sb, da, db) == overlaps(sb, sa, db, da)
    if gap_longitudinal(sa, sb, da, db) >= 0 or gap_lateral(sa, sb, da, db) >= 0:
        assert not overlaps(sa, sb, da, db)


def test_dims_must_be_positive():
    with pytest.raises(InvalidInputError):
        VehicleDims(width_m=0.0, length_m=5.0)
    with pytest.raises(InvalidInputError):
        VehicleDims(width_m=2.0, length_m=-1.0)
    with pytest.raises(InvalidInputError):
        VehicleDims(width_m=2.0, length_m=0.0)
