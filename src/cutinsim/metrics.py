"""Time to collision (TTC) and its analytic sensitivities. The per-frame
surrogate features (DHW, THW, TTC, ITTC) are built on ttc in
ingest.export_features."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError, UndefinedSensitivityError
from .kinematics import FLOATS

# Closing speeds below this floor are treated as non-closing; keeps TTC
# deterministic instead of dividing by a near-zero velocity difference.
CLOSING_SPEED_FLOOR_MPS = 1e-6


@dataclass(frozen=True)
class SensitivityResult:
    s_long_s_per_m: float  # d TTC / d gap
    s_rel_s2_per_m: float  # d TTC / d closing speed


def ttc_xp(xp, gap_long_m, closing_mps):
    """Time to collision over the operations xp (kinematics.FLOATS or
    ARRAYS), gap over closing speed: 0 once the longitudinal gap is negative,
    otherwise inf when the pair is not closing (closing speed at or below
    CLOSING_SPEED_FLOOR_MPS)."""
    closing = closing_mps > CLOSING_SPEED_FLOOR_MPS
    # the divisor is 1.0 where it is not taken, so the float form never divides by 0
    ratio = gap_long_m / xp.where(closing, closing_mps, 1.0)
    ttc_s = xp.where(closing, ratio, math.inf)
    overlapping = gap_long_m < 0.0
    if xp.count(overlapping):  # where no gap is negative, no 0 is selected
        ttc_s = xp.where(overlapping, 0.0, ttc_s)
    return ttc_s


def ttc(gap_long_m: float, closing_mps: float) -> float:
    """ttc_xp on floats."""
    return ttc_xp(FLOATS, gap_long_m, closing_mps)


def ttc_sensitivity(gap_long_m: float, rel_vel_mps: float) -> SensitivityResult:
    """Partial derivatives of TTC = gap / closing speed.

    d TTC / d gap = 1 / v_rel and d TTC / d v_rel = -gap / v_rel^2; both are
    undefined when the pair is not closing (TTC infinite).
    """
    if gap_long_m < 0.0:
        raise InvalidInputError(f"gap_long_m must be >= 0, got {gap_long_m}")
    if rel_vel_mps <= CLOSING_SPEED_FLOOR_MPS:
        raise UndefinedSensitivityError(
            f"closing speed {rel_vel_mps} at or below floor: TTC is infinite"
        )
    return SensitivityResult(
        s_long_s_per_m=1.0 / rel_vel_mps,
        s_rel_s2_per_m=-gap_long_m / (rel_vel_mps * rel_vel_mps),
    )


def finite_difference_sensitivity(
    gap_long_m: float, rel_vel_mps: float, h: float
) -> SensitivityResult:
    """Central-difference estimate of the TTC sensitivities (verification oracle)."""
    if h <= 0.0 or not math.isfinite(h):
        raise InvalidInputError(f"perturbation h must be positive, got {h!r}")
    if rel_vel_mps - h <= CLOSING_SPEED_FLOOR_MPS:
        raise UndefinedSensitivityError(
            f"perturbation h={h} crosses the closing-speed floor at v_rel={rel_vel_mps}"
        )

    # differentiates the bare ratio, not ttc(): its floor at a zero gap
    # would bias the central difference at gap_long_m < h
    def ratio(d: float, v: float) -> float:
        return d / v

    s_long = (ratio(gap_long_m + h, rel_vel_mps) - ratio(gap_long_m - h, rel_vel_mps)) / (2.0 * h)
    s_rel = (ratio(gap_long_m, rel_vel_mps + h) - ratio(gap_long_m, rel_vel_mps - h)) / (2.0 * h)
    return SensitivityResult(s_long_s_per_m=s_long, s_rel_s2_per_m=s_rel)
