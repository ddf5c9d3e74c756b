"""Step features from vehicle states, for calling the safety models in tests."""

from cutinsim.kinematics import gap_lateral, gap_longitudinal


def step_features(ego, other, ego_dims, other_dims):
    """(gap_long_m, gap_lat_m, v_ego_mps, v_other_mps), measured as the engine does."""
    return (
        gap_longitudinal(ego, other, ego_dims, other_dims),
        gap_lateral(ego, other, ego_dims, other_dims),
        ego.vel_long_mps,
        other.vel_long_mps,
    )
