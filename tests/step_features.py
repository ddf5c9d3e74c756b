"""Step features from vehicle states, for calling the safety models in tests."""

from typing import NamedTuple

from cutinsim.kinematics import axis_gap


class State(NamedTuple):
    """Center position and longitudinal speed of one vehicle at one instant."""

    pos_long_m: float
    pos_lat_m: float
    vel_long_mps: float


def step_features(ego, other, ego_dims, other_dims):
    """(gap_long_m, gap_lat_m, v_ego_mps, v_other_mps), measured as the engine does."""
    return (
        axis_gap(ego.pos_long_m, other.pos_long_m, ego_dims.length_m, other_dims.length_m),
        axis_gap(ego.pos_lat_m, other.pos_lat_m, ego_dims.width_m, other_dims.width_m),
        ego.vel_long_mps,
        other.vel_long_mps,
    )
