"""Vehicle states, constant-acceleration stepping and rectangle gap/overlap tests.

The closed-loop step (the engine's and every safety model's) is written once
over the operations namespace `xp` defined here: `FLOATS` for one run on
plain floats, `ARRAYS` for many runs as float64 arrays, one entry per run,
with the same values bit for bit. `advance_axis_xp` is the one axis update,
`advance_axis` its float form; `axis_gap` takes floats or arrays. The
`VehicleState` forms (`step_vehicle`, `gap_longitudinal`, `gap_lateral`)
delegate to them.

Conventions: longitudinal x grows in the travel direction, lateral y grows
leftward, positions refer to vehicle centers. Lane centers sit at
y = k * LANE_WIDTH_M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

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


def _pick_max(a, b):
    """Python's max(a, b) entry by entry: a unless b > a, so of equal values
    (0.0 and -0.0) the first is kept, as it is by max."""
    return np.where(b > a, b, a)


def _pick_min(a, b):
    """Python's min(a, b) entry by entry: a unless b < a."""
    return np.where(b < a, b, a)


def _py_pow(base: np.ndarray, exponent: float, where: np.ndarray) -> np.ndarray:
    """base ** exponent with Python's float power at the entries where `where`
    holds, 0 elsewhere. numpy's power differs from it in the last bit for
    some inputs; Python's raises OverflowError where the float step does."""
    out = np.zeros(base.shape)
    out[where] = [b ** exponent for b in base[where].tolist()]
    return out


# The operations the step is written in: `where(c, a, b)` selects,
# `pick_max(a, b)` and `pick_min(a, b)` are max(a, b) and min(a, b), which
# keep a on a tie, `pow(base, exponent, where)` takes Python's power only
# where `where` holds (0 elsewhere), `zeros(like, kind)` is a 0 of type kind
# (int or float) in the shape of like. A formula over them computes every
# branch and selects the taken one, so that both forms do the same IEEE
# operations in the same order; no branch may raise where it is not taken,
# and the array form runs under np.errstate(all="ignore").
FLOATS = SimpleNamespace(
    where=lambda c, a, b: a if c else b,
    # max and min without the builtins' call cost
    pick_max=lambda a, b: b if b > a else a,
    pick_min=lambda a, b: b if b < a else a,
    pow=lambda base, exponent, where: base ** exponent if where else 0.0,
    zeros=lambda like, kind: kind(),
)
ARRAYS = SimpleNamespace(
    where=np.where,
    pick_max=_pick_max,
    pick_min=_pick_min,
    pow=_py_pow,
    zeros=lambda like, kind: np.zeros(like.shape, kind),
)


def advance_axis_xp(xp, pos, vel, accel, dt, clamp_at_zero):
    """One constant-acceleration update of a single axis over the operations
    xp (FLOATS or ARRAYS): (pos, vel) after dt.

    With clamp_at_zero the velocity is floored at 0 and the position update is
    truncated at the stopping instant, so stopping distance does not depend on dt.
    """
    v_end = vel + accel * dt
    braking = accel < 0.0
    # the time to stop, 0 without braking; the divisor is 1.0 where it is not
    # taken, so the float form never divides by 0
    t_stop = xp.where(braking, vel / xp.where(braking, -accel, 1.0), 0.0)
    stopped = (v_end < 0.0) & clamp_at_zero
    t = xp.where(stopped, t_stop, dt)
    return pos + vel * t + 0.5 * accel * t * t, xp.where(stopped, 0.0, v_end)


def advance_axis(
    pos: float, vel: float, accel: float, dt: float, clamp_at_zero: bool
) -> tuple[float, float]:
    """advance_axis_xp on floats."""
    return advance_axis_xp(FLOATS, pos, vel, accel, dt, clamp_at_zero)


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
