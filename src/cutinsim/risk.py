"""Risk judgements on simulated outcomes: the critical-run rule, the Gaussian
TTC fit, its tail probability, and per-model summaries.

The engine only measures a run (collision, minimum TTC, peak braking); this
module holds the policy that judges it: is_critical, with the default critical
TTC DEFAULT_TTC_CRIT_S and the comfort deceleration COMFORT_DECEL_MPS2, and
the tail probability P(TTC < ttc_crit_s) of the fitted Gaussian.

The normal CDF is computed from a self-contained port of W. J. Cody's rational
Chebyshev approximation of erf/erfc (Math. Comp. 23, 1969; the scheme most
libm implementations use), so reports do not depend on the platform math
library. Double-precision accuracy is ~1e-16 relative, far inside the 1e-7
absolute contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DegenerateDistributionError, InsufficientDataError

DEFAULT_TTC_CRIT_S = 2.0  # risk.ttc_crit_s when a config or manifest gives none
COMFORT_DECEL_MPS2 = 3.5  # braking harder than this makes a run critical

_THRESH = 0.46875
_XSMALL = 1.11e-16
_XBIG = 26.543
_SQRPI = 5.6418958354775628695e-1  # 1/sqrt(pi)

_A = (
    3.16112374387056560e0,
    1.13864154151050156e2,
    3.77485237685302021e2,
    3.20937758913846947e3,
    1.85777706184603153e-1,
)
_B = (
    2.36012909523441209e1,
    2.44024637934444173e2,
    1.28261652607737228e3,
    2.84423683343917062e3,
)
_C = (
    5.64188496988670089e-1,
    8.88314979438837594e0,
    6.61191906371416295e1,
    2.98635138197400131e2,
    8.81952221241769090e2,
    1.71204761263407058e3,
    2.05107837782607147e3,
    1.23033935479799725e3,
    2.15311535474403846e-8,
)
_D = (
    1.57449261107098347e1,
    1.17693950891312499e2,
    5.37181101862009858e2,
    1.62138957456669019e3,
    3.29079923573345963e3,
    4.36261909014324716e3,
    3.43936767414372164e3,
    1.23033935480374942e3,
)
_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_Q = (
    2.56852019228982242e0,
    1.87295284992346047e0,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)


def _erf_small(x: float) -> float:
    """erf(x) for |x| <= 0.46875."""
    y = abs(x)
    ysq = y * y if y > _XSMALL else 0.0
    xnum = _A[4] * ysq
    xden = ysq
    for i in range(3):
        xnum = (xnum + _A[i]) * ysq
        xden = (xden + _B[i]) * ysq
    return x * (xnum + _A[3]) / (xden + _B[3])


def _exp_scaled(y: float, r: float) -> float:
    # exp(-y*y) * r, with the argument split to limit cancellation in y*y
    ysq = math.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    return math.exp(-ysq * ysq) * math.exp(-delta) * r


def erfc(x: float) -> float:
    """Complementary error function, accurate to double precision; nan at nan."""
    if math.isnan(x):
        return x
    y = abs(x)
    if y <= _THRESH:
        result = 1.0 - _erf_small(x)
        return result
    if y <= 4.0:
        xnum = _C[8] * y
        xden = y
        for i in range(7):
            xnum = (xnum + _C[i]) * y
            xden = (xden + _D[i]) * y
        result = _exp_scaled(y, (xnum + _C[7]) / (xden + _D[7]))
    elif y < _XBIG:
        ysq = 1.0 / (y * y)
        xnum = _P[5] * ysq
        xden = ysq
        for i in range(4):
            xnum = (xnum + _P[i]) * ysq
            xden = (xden + _Q[i]) * ysq
        r = ysq * (xnum + _P[4]) / (xden + _Q[4])
        result = _exp_scaled(y, (_SQRPI - r) / y)
    else:
        result = 0.0
    if x < 0.0:
        return 2.0 - result
    return result


def normal_cdf(z: float) -> float:
    """Standard normal CDF via erfc; monotone, 0 at -inf, 1 at +inf, nan at nan."""
    return 0.5 * erfc(-z * math.sqrt(0.5))


def is_critical(collided, min_ttc_s, peak_decel_mps2, ttc_crit_s: float):
    """Whether a run is critical: it collided, its minimum TTC dipped under
    ttc_crit_s, or it braked harder than COMFORT_DECEL_MPS2. Over a run's
    floats a bool, over summary columns a bool array."""
    return collided | (min_ttc_s < ttc_crit_s) | (peak_decel_mps2 > COMFORT_DECEL_MPS2)


def fit_gaussian(ttc_samples: np.typing.ArrayLike) -> tuple[float, float]:
    """Sample mean and standard deviation (n-1 denominator) over finite samples.

    Infinite (non-closing) samples are excluded; fewer than two finite samples,
    zero spread, or a mean or spread that overflows to inf raise.
    """
    values = np.asarray(ttc_samples, dtype=float)
    finite = values[np.isfinite(values)]
    if finite.size < 2:
        raise InsufficientDataError(
            f"need >= 2 finite TTC samples, got {finite.size}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(finite))
        std = float(np.std(finite, ddof=1))
    if std == 0.0:
        raise DegenerateDistributionError("TTC samples have zero spread")
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise DegenerateDistributionError(f"TTC fit is not finite: mean={mean!r}, std={std!r}")
    return mean, std


def prob_below_threshold(mean_s: float, std_s: float, crit_s: float) -> float:
    """Probability that a N(mean, std) TTC falls below the critical threshold."""
    if not std_s > 0.0:
        raise DegenerateDistributionError(f"std must be positive, got {std_s}")
    return normal_cdf((crit_s - mean_s) / std_s)


@dataclass(frozen=True)
class ModelSummary:
    """One summary row: Gaussian fit of per-run minimum TTC plus event rates.

    Rows where the fit fails (too few finite samples, zero spread) stay in the
    table with available=False instead of aborting the summary.
    """

    model: str
    available: bool
    mean_ttc_s: float | None
    std_ttc_s: float | None
    prob_below: float | None
    critical_fraction: float | None
    n_finite: int
    n_excluded: int
    note: str = ""


def summarize_models(
    results: Mapping[str, tuple[np.ndarray, np.ndarray]], ttc_crit_s: float
) -> list[ModelSummary]:
    """One row per model, ordered by name, from its runs' columns: the
    minimum TTC (float) and whether the run is critical (bool), one entry per
    run. The fit is over the finite minimum TTCs."""
    rows: list[ModelSummary] = []
    for model in sorted(results):
        min_ttc, critical = results[model]
        n_finite = int(np.count_nonzero(np.isfinite(min_ttc)))
        critical_fraction = int(np.count_nonzero(critical)) / critical.size if critical.size else None
        try:
            mean, std = fit_gaussian(min_ttc)
            prob_below, note = prob_below_threshold(mean, std, ttc_crit_s), ""
        except (InsufficientDataError, DegenerateDistributionError) as exc:
            mean = std = prob_below = None
            note = str(exc)
        rows.append(
            ModelSummary(
                model=model,
                available=mean is not None,
                mean_ttc_s=mean,
                std_ttc_s=std,
                prob_below=prob_below,
                critical_fraction=critical_fraction,
                n_finite=n_finite,
                n_excluded=min_ttc.size - n_finite,
                note=note,
            )
        )
    return rows
