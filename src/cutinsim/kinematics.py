"""Footprints, the constant-acceleration axis update and the axis gap.

The closed-loop step (the engine's and every safety model's) is written once
over the operations namespace `xp` defined here: `FLOATS` for one run on
plain floats, `ARRAYS` for many runs as float64 arrays, one entry per run,
with the same values bit for bit on the domain that the comment on the
operations below states. `advance_axis_xp` is the one axis update;
`axis_gap` takes floats or arrays.

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


def _where(c, a, b):
    """np.where(c, a, b); on one bool condition, the operand it selects, as
    it is: no broadcast, no type promotion."""
    if type(c) is bool:
        return a if c else b
    return np.where(c, a, b)


# The operations the step is written in: `where(c, a, b)` selects,
# `pick_max(a, b)` and `pick_min(a, b)` are max(a, b) and min(a, b), which
# keep a on a tie, `zeros(like, kind)` is a 0 of type kind (int or float) in
# the shape of like; `count(mask)` is how many entries of mask hold, truthy where any does.
# ARRAYS' pick_max and pick_min are np.maximum(b, a) and np.minimum(b, a),
# equal to max and min, ties included, wherever b is not NaN. Where b is
# NaN and a is not, max(a, b) and min(a, b) give a and the ufuncs NaN, so
# both forms agree only where no pick gets a NaN b: in control_step, for
# finite features (the TTC may be inf), and in the sweep's summary, for
# the steps that pass engine._check_step (engine._run_lanes says why).
# An ARRAYS operand may also be a float that every entry shares, such as a
# lateral gap that depends only on the time and one start offset: each
# operation on it is the float form's, and its comparisons give one bool,
# on which ARRAYS' where selects a or b as it is, as FLOATS' does.
# A formula over them computes every branch that some entry takes and
# selects the taken one, so that both forms do the same IEEE operations in
# the same order. A rarely taken branch sits behind `if xp.count(mask):` on
# the mask of its takers: both forms skip it under the same condition, and
# only where no entry would select it, so no value changes. Nothing in the
# step raises: no float-form division is by 0, a value past float range is
# inf or nan in both forms, and the array form runs under
# np.errstate(all="ignore"). The step takes no power:
# + - * /, comparisons and selections are correctly rounded in both forms,
# so neither depends on the platform's libm.
FLOATS = SimpleNamespace(
    where=lambda c, a, b: a if c else b,
    # max and min without the builtins' call cost
    pick_max=lambda a, b: b if b > a else a,
    pick_min=lambda a, b: b if b < a else a,
    zeros=lambda like, kind: kind(),
    count=bool,
)
ARRAYS = SimpleNamespace(
    where=_where,
    # one ufunc call each; numpy returns the second operand of a tie (0.0
    # and -0.0), so a goes second to be kept, as max and min keep it
    pick_max=lambda a, b: np.maximum(b, a),
    pick_min=lambda a, b: np.minimum(b, a),
    zeros=lambda like, kind: np.zeros(like.shape, kind),
    count=np.count_nonzero,
)


def advance_axis_xp(xp, pos, vel, accel, dt):
    """One constant-acceleration update of a single axis over the operations
    xp (FLOATS or ARRAYS): (pos, vel) after dt.

    The velocity, at least 0, is floored at 0 and the position update is
    truncated at the stopping instant, so stopping distance does not depend
    on dt. The stop-time branch runs only where some entry stops.
    """
    v_end = vel + accel * dt
    stopped = v_end < 0.0
    if not xp.count(stopped):
        return pos + vel * dt + 0.5 * accel * dt * dt, v_end
    # a stopping entry brakes (accel < 0), so the float form never divides
    # by 0; an array entry that does not stop selects dt whatever it divides
    t = xp.where(stopped, vel / -accel, dt)
    return pos + vel * t + 0.5 * accel * t * t, xp.where(stopped, 0.0, v_end)


def axis_gap(center_a: float, center_b: float, extent_a: float, extent_b: float) -> float:
    """Gap between two footprints along one axis, from their centers and their
    extents on that axis; negative when they overlap on it."""
    return abs(center_a - center_b) - (extent_a + extent_b) / 2.0
