import math

import numpy as np
import pytest

from cutinsim.errors import DegenerateDistributionError, InsufficientDataError
from cutinsim.risk import (
    erfc,
    fit_gaussian,
    normal_cdf,
    prob_below_threshold,
    summarize_models,
)


def erf_series(x: float, terms: int = 80) -> float:
    """Maclaurin series for erf, summed with compensated addition. Converges
    to double precision for |x| <= ~3; used as an independent oracle."""
    parts = []
    term = x
    for n in range(terms):
        parts.append(term / (2 * n + 1))
        term *= -x * x / (n + 1)
    return 2.0 / math.sqrt(math.pi) * math.fsum(parts)


def runs(min_ttc_s, critical=None):
    """One model's columns for summarize_models: the runs' minimum TTCs, and
    whether each is critical (none, by default)."""
    critical = [False] * len(min_ttc_s) if critical is None else critical
    return np.array(min_ttc_s, dtype=float), np.array(critical, dtype=bool)


def test_two_point_fit():
    mean, std = fit_gaussian([3.0, 5.0])
    assert mean == 4.0
    assert std == pytest.approx(math.sqrt(2.0))


def test_infinite_samples_are_excluded():
    assert fit_gaussian([2.0, 4.0, math.inf, 6.0]) == fit_gaussian([2.0, 4.0, 6.0])
    (row,) = summarize_models({"m": runs([2.0, 4.0, math.inf, 6.0])}, 2.0)
    assert row.mean_ttc_s == 4.0
    assert row.std_ttc_s == pytest.approx(2.0)
    assert row.n_finite == 3
    assert row.n_excluded == 1


def test_fit_error_paths():
    with pytest.raises(InsufficientDataError):
        fit_gaussian([3.0, math.inf])
    with pytest.raises(DegenerateDistributionError):
        fit_gaussian([3.0, 3.0, 3.0])
    with pytest.raises(DegenerateDistributionError):
        prob_below_threshold(3.0, 0.0, 2.0)


def test_a_fit_that_is_not_finite_is_unavailable():
    # finite samples whose mean overflows, and a finite mean whose spread does
    for samples in ([1e308, 1.5e308], [0.0, 1e308]):
        with pytest.raises(DegenerateDistributionError, match="not finite"):
            fit_gaussian(samples)
    (row,) = summarize_models({"m": runs([1e308, 1.5e308])}, 2.0)
    assert not row.available and "not finite" in row.note
    assert (row.mean_ttc_s, row.std_ttc_s, row.prob_below) == (None, None, None)
    assert math.isnan(normal_cdf(math.nan)) and math.isnan(erfc(math.nan))
    with pytest.raises(DegenerateDistributionError):
        prob_below_threshold(3.0, math.nan, 2.0)


def test_fit_is_permutation_invariant():
    rng = np.random.default_rng(23)
    samples = list(rng.normal(4.0, 1.5, size=500))
    m1, s1 = fit_gaussian(samples)
    rng.shuffle(samples)
    m2, s2 = fit_gaussian(samples)
    assert m1 == pytest.approx(m2, rel=1e-12)
    assert s1 == pytest.approx(s2, rel=1e-12)


def test_prob_at_mean_is_exactly_half():
    assert prob_below_threshold(3.76, 0.69, 3.76) == 0.5


def test_prob_monotone_and_limits():
    # strictly increasing wherever the CDF is representable (tails saturate)
    crits = np.linspace(3.76 - 5 * 0.69, 3.76 + 5 * 0.69, 60)
    probs = [prob_below_threshold(3.76, 0.69, c) for c in crits]
    assert all(b > a for a, b in zip(probs, probs[1:]))
    assert prob_below_threshold(3.76, 0.69, -1e9) == 0.0
    assert prob_below_threshold(3.76, 0.69, 1e9) == 1.0
    # below the mean, more spread means more tail mass
    stds = np.linspace(0.2, 3.0, 30)
    tail = [prob_below_threshold(3.76, s, 2.0) for s in stds]
    assert all(b > a for a, b in zip(tail, tail[1:]))


def test_normal_cdf_against_series_and_platform_libm():
    # the alternating series cancels badly beyond |x| ~ 2.5, so compare against
    # it only where it is well conditioned; libm covers the wider range
    for z in np.linspace(-3.4, 3.4, 69):
        mine = normal_cdf(z)
        series = 0.5 * (1.0 + erf_series(z * math.sqrt(0.5)))
        assert abs(mine - series) < 1e-13
    for z in np.linspace(-8.0, 8.0, 161):
        assert abs(normal_cdf(z) - 0.5 * math.erfc(-z * math.sqrt(0.5))) < 1e-13
    for x in np.linspace(-6.0, 6.0, 121):
        if math.erfc(x) > 0:
            assert abs(erfc(x) - math.erfc(x)) <= 1e-13 * max(math.erfc(x), 1e-300)


def test_erfc_at_its_branch_thresholds():
    # Cody's scheme switches rational approximations at |x| = 4 and returns 0
    # from |x| = 26.543 up; the value at each switch, bit for bit (erfc(4)
    # is also libm's)
    assert erfc(4.0) == float.fromhex("0x1.08ddd13bd35e7p-26")
    assert erfc(26.543) == 0.0
    assert erfc(-26.543) == 2.0


def test_reference_threshold_probability_value():
    p = prob_below_threshold(3.76, 0.69, 2.0)
    assert p == pytest.approx(0.0054, abs=1e-4)


def test_seeded_sampling_recovers_parameters():
    rng = np.random.default_rng(1234)
    samples = rng.normal(3.76, 0.69, size=100_000)
    mean, std = fit_gaussian(samples)
    assert abs(mean - 3.76) < 0.01
    assert abs(std - 0.69) < 0.01


def test_empirical_tail_fraction_matches_cdf():
    rng = np.random.default_rng(99)
    n = 200_000
    mean, std, crit = 3.0, 0.8, 2.0
    draws = rng.normal(mean, std, size=n)
    frac = float(np.mean(draws < crit))
    p = prob_below_threshold(mean, std, crit)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(frac - p) <= 3 * se


def test_summarize_models_composition():
    rows = summarize_models(
        {"rba": runs([3.0, 5.0], [False, True])},
        ttc_crit_s=2.0,
    )
    assert len(rows) == 1
    row = rows[0]
    assert row.available
    assert row.mean_ttc_s == 4.0
    assert row.std_ttc_s == pytest.approx(math.sqrt(2.0))
    assert row.prob_below == pytest.approx(normal_cdf((2.0 - 4.0) / math.sqrt(2.0)))
    assert row.critical_fraction == 0.5
    assert row.n_finite == 2 and row.n_excluded == 0


def test_summarize_models_identical_samples_identical_rows():
    rows = summarize_models({"a": runs([2.5, 3.5, 6.0]), "b": runs([2.5, 3.5, 6.0])}, ttc_crit_s=2.0)
    a, b = rows
    assert (a.mean_ttc_s, a.std_ttc_s, a.prob_below) == (b.mean_ttc_s, b.std_ttc_s, b.prob_below)
    assert [r.model for r in rows] == ["a", "b"]  # ordered by name


def test_summarize_models_marks_unavailable_rows():
    rows = summarize_models(
        {"stuck": runs([math.inf, math.inf]), "ok": runs([3.0, 5.0])},
        ttc_crit_s=2.0,
    )
    by_name = {r.model: r for r in rows}
    assert not by_name["stuck"].available
    assert by_name["stuck"].n_excluded == 2
    assert by_name["stuck"].note
    assert (by_name["stuck"].mean_ttc_s, by_name["stuck"].std_ttc_s) == (None, None)
    assert by_name["stuck"].prob_below is None
    assert by_name["ok"].available and by_name["ok"].note == ""
