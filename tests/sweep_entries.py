"""A sweep result's entries read from its columns, and the scalar loop's
reference for them, for comparing the two in tests."""

from dataclasses import replace

from cutinsim.engine import run_closed_loop
from cutinsim.reports import CRITICAL, NON_CRITICAL
from cutinsim.risk import DEFAULT_TTC_CRIT_S, is_critical


def entries(result, ttc_crit_s=DEFAULT_TTC_CRIT_S):
    """(model, grid index, point, outcome) for each (model, grid point) of a
    SweepResult, ordered by (model, grid index). outcome is the error text of
    an error row, otherwise the column entries in plain Python values and the
    classification from is_critical over the model's columns at ttc_crit_s:
    (collided, min_gap_long_m, min_ttc_s, peak_decel_mps2, classification)."""
    points = result.grid.points()
    out = []
    for m, model in enumerate(result.models):
        columns = (result.collided[m], result.min_gap_long_m[m], result.min_ttc_s[m],
                   result.peak_decel_mps2[m])
        critical = is_critical(columns[0], columns[2], columns[3], ttc_crit_s)
        rows = zip(*(c.tolist() for c in columns), critical.tolist())
        for index, (point, (*summary, crit)) in enumerate(zip(points, rows)):
            error = result.errors.get((m, index))
            outcome = error if error is not None else (*summary, CRITICAL if crit else NON_CRITICAL)
            out.append((model, index, point, outcome))
    return out


def at_point(base, point):
    v_e0, v_o0, d_x0, d_y0 = point
    return replace(base, v_e0_mps=v_e0, v_o0_mps=v_o0, d_x0_m=d_x0, d_y0_m=d_y0)


def classification(run, ttc_crit_s=DEFAULT_TTC_CRIT_S):
    """A run's label from is_critical over its summary."""
    critical = is_critical(run.collided, run.min_ttc_s, run.peak_decel_mps2, ttc_crit_s)
    return CRITICAL if critical else NON_CRITICAL


def scalar_entry(base, model, index, point, params, ttc_crit_s=DEFAULT_TTC_CRIT_S):
    """One sweep entry through the scalar loop: the reference for the batched sweep."""
    try:
        r = run_closed_loop(at_point(base, point), model, params)
    except Exception as exc:
        return model, index, point, f"{type(exc).__name__}: {exc}"
    return model, index, point, (r.collided, r.min_gap_long_m, r.min_ttc_s, r.peak_decel_mps2,
                                 classification(r, ttc_crit_s))


def scalar_sweep(grid, models, base, params, ttc_crit_s=DEFAULT_TTC_CRIT_S):
    return [
        scalar_entry(base, model, index, point, params, ttc_crit_s)
        for model in models
        for index, point in enumerate(grid.points())
    ]


def reprs(entries):
    # repr shows every value, so -0.0 against 0.0 and error texts count
    return [repr(entry) for entry in entries]
