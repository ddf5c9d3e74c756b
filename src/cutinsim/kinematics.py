"""Vehicle states, constant-acceleration stepping and rectangle gap/overlap tests.

The float functions `advance_axis` and `axis_gap` hold the motion and gap
formulas; the engine steps plain floats through them, and the `VehicleState`
forms (`step_vehicle`, `gap_longitudinal`, `gap_lateral`) delegate to them.
`axis_gap` also takes arrays; `advance_axis_array` is `advance_axis` with the
stop clamp over arrays, for the batched sweep.

Conventions: longitudinal x grows in the travel direction, lateral y grows
leftward, positions refer to vehicle centers. Lane centers sit at
y = k * LANE_WIDTH_M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

LANE_WIDTH_M = 3.75  # default highway lane width


def require_finite(**values: float) -> None:
    """Raise InvalidInputError naming the first value that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class VehicleDims:
    """Bounding-box footprint of one vehicle."""

    width_m: float
    length_m: float

    def __post_init__(self) -> None:
        require_finite(width_m=self.width_m, length_m=self.length_m)
        if self.width_m <= 0.0 or self.length_m <= 0.0:
            raise InvalidInputError("vehicle dimensions must be positive")


@dataclass(frozen=True)
class VehicleState:
    """Center position and velocity of one vehicle at one instant."""

    pos_long_m: float
    pos_lat_m: float
    vel_long_mps: float
    vel_lat_mps: float = 0.0

    def __post_init__(self) -> None:
        require_finite(
            pos_long_m=self.pos_long_m,
            pos_lat_m=self.pos_lat_m,
            vel_long_mps=self.vel_long_mps,
            vel_lat_mps=self.vel_lat_mps,
        )
        if self.vel_long_mps < 0.0:
            raise InvalidInputError("vehicles do not reverse: vel_long_mps must be >= 0")


def advance_axis(
    pos: float, vel: float, accel: float, dt: float, clamp_at_zero: bool
) -> tuple[float, float]:
    """One constant-acceleration update of a single axis.

    With clamp_at_zero the velocity is floored at 0 and the position update is
    truncated at the stopping instant, so stopping distance does not depend on dt.
    """
    v_end = vel + accel * dt
    if clamp_at_zero and v_end < 0.0:
        t_stop = vel / -accel if accel < 0.0 else 0.0
        return pos + vel * t_stop + 0.5 * accel * t_stop * t_stop, 0.0
    return pos + vel * dt + 0.5 * accel * dt * dt, v_end


def advance_axis_array(
    pos: np.ndarray, vel: np.ndarray, accel: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """advance_axis(pos, vel, accel, dt, True) entry by entry over arrays, in
    the same float operations. Both branches are computed everywhere, so run
    it under np.errstate(all="ignore")."""
    v_end = vel + accel * dt
    t_stop = np.where(accel < 0.0, vel / -accel, 0.0)
    stopped = v_end < 0.0
    pos = np.where(
        stopped,
        pos + vel * t_stop + 0.5 * accel * t_stop * t_stop,
        pos + vel * dt + 0.5 * accel * dt * dt,
    )
    return pos, np.where(stopped, 0.0, v_end)


def step_vehicle(
    state: VehicleState,
    accel_long_mps2: float,
    accel_lat_mps2: float,
    dt_s: float,
) -> VehicleState:
    """Advance a vehicle by one constant-acceleration step.

    The longitudinal axis never reaches negative velocity; the lateral axis is
    unconstrained in sign (lane changes go both ways).
    """
    require_finite(
        accel_long_mps2=accel_long_mps2, accel_lat_mps2=accel_lat_mps2, dt_s=dt_s
    )
    if dt_s <= 0.0:
        raise InvalidInputError(f"dt_s must be positive, got {dt_s}")
    x, vx = advance_axis(state.pos_long_m, state.vel_long_mps, accel_long_mps2, dt_s, True)
    y, vy = advance_axis(state.pos_lat_m, state.vel_lat_mps, accel_lat_mps2, dt_s, False)
    return VehicleState(pos_long_m=x, pos_lat_m=y, vel_long_mps=vx, vel_lat_mps=vy)


def axis_gap(center_a: float, center_b: float, extent_a: float, extent_b: float) -> float:
    """Gap between two footprints along one axis, from their centers and their
    extents on that axis; negative when they overlap on it."""
    return abs(center_a - center_b) - (extent_a + extent_b) / 2.0


def gap_longitudinal(
    ego: VehicleState,
    other: VehicleState,
    ego_dims: VehicleDims,
    other_dims: VehicleDims,
) -> float:
    """Bumper-to-bumper longitudinal gap; negative when the footprints overlap in x."""
    return axis_gap(ego.pos_long_m, other.pos_long_m, ego_dims.length_m, other_dims.length_m)


def gap_lateral(
    ego: VehicleState,
    other: VehicleState,
    ego_dims: VehicleDims,
    other_dims: VehicleDims,
) -> float:
    """Side-to-side lateral gap; negative when the footprints overlap in y."""
    return axis_gap(ego.pos_lat_m, other.pos_lat_m, ego_dims.width_m, other_dims.width_m)


def overlaps(
    ego: VehicleState,
    other: VehicleState,
    ego_dims: VehicleDims,
    other_dims: VehicleDims,
) -> bool:
    """Axis-aligned rectangle intersection: the collision ground truth of the harness."""
    return (
        gap_longitudinal(ego, other, ego_dims, other_dims) < 0.0
        and gap_lateral(ego, other, ego_dims, other_dims) < 0.0
    )
