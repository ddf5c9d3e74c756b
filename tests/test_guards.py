"""The step's guarded branches: a rarely taken branch runs only where
xp.count finds some entry that takes it. Each property draws batches in
which the guarded condition holds for no entry, for some and for every
entry; the array form on the batch equals the float form entry by entry,
compared by repr so that -0.0 and NaN count. A batch that mixes both takes
the branch for every entry, while the float form skips it for the entries
that do not take it, so the skipped branch is shown to change no value."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from cutinsim import engine
from cutinsim.engine import ScenarioParams, SweepGrid, sweep
from cutinsim.errors import CutinSimError, InvalidInputError
from cutinsim.kinematics import ARRAYS, FLOATS, advance_axis_xp
from cutinsim.metrics import CLOSING_SPEED_FLOOR_MPS, ttc_xp
from cutinsim.safety_models import MODEL_NAMES, ModelParams, RbaParams, control_step
from sweep_entries import entries, reprs, scalar_sweep

TINY = 5e-324


def batches(taking, skipping, max_size=8):
    """Lists of entries in which the guarded condition holds for no entry
    (all drawn from skipping), for some (both, shuffled) or for every entry
    (all drawn from taking)."""
    some = st.tuples(
        st.lists(taking, min_size=1, max_size=max_size // 2),
        st.lists(skipping, min_size=1, max_size=max_size // 2),
    ).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))
    return st.one_of(
        st.lists(skipping, min_size=1, max_size=max_size),
        some,
        st.lists(taking, min_size=1, max_size=max_size),
    )


def entry_reprs(columns, n):
    """repr of each entry of the array form's results; a result shared by
    every entry (a scalar) counts once for each."""
    return [repr(entry) for entry in zip(*(np.broadcast_to(c, (n,)).tolist() for c in columns))]


# --- advance_axis_xp: the stop-time branch, where some entry's v_end < 0 ---

DTS = (TINY, 0.01, 0.05, 0.2, 1.0)
positions = st.one_of(st.floats(-1e3, 1e3), st.sampled_from((0.0, -0.0, math.inf, 1e308)))
speeds = st.one_of(st.floats(0.0, 60.0), st.sampled_from((0.0, -0.0, TINY, math.inf)))
edge_accels = st.sampled_from((0.0, -0.0, -TINY, -1e308, -math.inf, math.inf, math.nan))


@st.composite
def advance_batches(draw):
    dt = draw(st.sampled_from(DTS))

    def stops(lane):
        return lane[1] + lane[2] * dt < 0.0

    def braking(factors):
        """Lanes braking at a factor times the rate that stops them at dt."""
        return st.tuples(positions, st.floats(1e-3, 60.0), factors).map(
            lambda e: (e[0], e[1], -(e[1] / dt) * e[2])
        )

    other = st.tuples(positions, speeds, st.one_of(st.floats(0.0, 50.0), edge_accels))
    taking = st.one_of(
        braking(st.floats(1.01, 3.0)),
        st.tuples(positions, speeds, st.sampled_from((-1e308, -math.inf))),
    ).filter(stops)
    skipping = st.one_of(braking(st.floats(0.0, 0.99)), other).filter(lambda lane: not stops(lane))
    return dt, draw(batches(taking, skipping))


@settings(max_examples=200, deadline=None)
@given(advance_batches())
def test_advance_skips_the_stop_branch_with_no_value_changed(case):
    dt, lanes = case
    pos, vel, accel = (np.array(column) for column in zip(*lanes))
    with np.errstate(all="ignore"):
        columns = advance_axis_xp(ARRAYS, pos, vel, accel, dt)
    assert entry_reprs(columns, len(lanes)) == [
        repr(advance_axis_xp(FLOATS, *lane, dt)) for lane in lanes
    ]


# --- engine._sense: the recorded TTC's selection, where some lane is alongside

KINDS = (
    ScenarioParams("cut_in", 25.0, 20.0, 30.0, 3.75),
    ScenarioParams("cut_out", 25.0, 20.0, 30.0, 3.75),
    ScenarioParams("car_following", 25.0, 20.0, 30.0, 0.0,
                   other_speed_profile=((1.0, 10.0), (2.0, 30.0))),
)


@st.composite
def sense_batches(draw):
    p = draw(st.sampled_from(KINDS))
    t = draw(st.sampled_from((0.0, 1.5, 2.5, 4.0)))
    def lanes(offsets):
        """Lanes whose ego center is an offset from the other vehicle's; both
        are 5 m long, so within 5 m of it the pair is alongside."""
        return st.tuples(
            offsets,
            st.one_of(st.floats(0.0, 60.0), st.sampled_from((-0.0, math.inf))),
            st.one_of(st.floats(TINY, 100.0), st.sampled_from((TINY, 30.0))),
            st.one_of(st.floats(0.0, 40.0), st.just(-0.0)),
            st.sampled_from((0.0, -0.0, 1.0, 2.0, 3.75) if p.kind != "car_following" else (0.0,)),
        ).map(lambda e: (engine._other_motion(p, t, e[2], e[3], e[4])[0] + e[0], *e[1:]))

    def alongside(e):
        return engine._sense(FLOATS, p, t, *e)[4] < 0.0

    taking = lanes(st.floats(-4.9, 4.9)).filter(alongside)
    skipping = lanes(
        st.one_of(st.floats(-12.0, -5.0), st.floats(5.0, 12.0),
                  st.sampled_from((-5.0, 5.0, math.inf, math.nan)))
    ).filter(lambda e: not alongside(e))
    return p, t, draw(batches(taking, skipping))


@settings(max_examples=200, deadline=None)
@given(sense_batches())
def test_sense_skips_the_alongside_selection_with_no_value_changed(case):
    p, t, lanes = case
    with np.errstate(all="ignore"):
        columns = engine._sense(ARRAYS, p, t, *(np.array(column) for column in zip(*lanes)))
    assert entry_reprs(columns, len(lanes)) == [
        repr(engine._sense(FLOATS, p, t, *lane)) for lane in lanes
    ]


# --- metrics.ttc_xp: the 0 of a negative gap, where some gap is negative

closing_speeds = st.one_of(
    st.floats(-50.0, 50.0),
    st.sampled_from((0.0, -0.0, TINY, CLOSING_SPEED_FLOOR_MPS, math.inf, math.nan)),
)
negative_gaps = st.tuples(
    st.one_of(st.floats(-1e3, -TINY), st.sampled_from((-TINY, -math.inf))), closing_speeds
)
other_gaps = st.tuples(
    st.one_of(st.floats(0.0, 1e3), st.sampled_from((0.0, -0.0, TINY, math.inf, math.nan))),
    closing_speeds,
)


@settings(max_examples=200, deadline=None)
@given(batches(negative_gaps, other_gaps))
def test_ttc_skips_the_negative_gap_selection_with_no_value_changed(pairs):
    gaps, closing = (np.array(column) for column in zip(*pairs))
    with np.errstate(all="ignore"):
        out = ttc_xp(ARRAYS, gaps, closing)
    assert [repr(value) for value in out.tolist()] == [
        repr(ttc_xp(FLOATS, *pair)) for pair in pairs
    ]


# --- rba's saturation count, where some entry saturates or carries a count

RBA = ModelParams(rba=RbaParams())


def rba_rows(gap_long, gap_lat, memory, ttc=st.one_of(st.floats(0.0, 20.0), st.just(math.inf))):
    """Step features and a count, as an rba call takes them."""
    return st.tuples(
        gap_long,
        gap_lat,
        st.one_of(st.floats(0.0, 45.0), st.sampled_from((0.0, -0.0))),
        st.floats(0.0, 35.0),
        ttc,
        memory,  # an int in the float form, as in run_closed_loop
    )


gaps_long = st.one_of(st.floats(-20.0, 80.0), st.sampled_from((0.0, -0.0, 10.0, 12.0)))
gaps_lat = st.one_of(st.floats(-3.0, 5.0), st.sampled_from((0.0, -0.0, 0.5)))


def rba_float(row, dt):
    code, decel, accel, memory = control_step(FLOATS, "rba", RBA, *row[:5], dt, row[5])
    return repr((code, decel, accel, float(memory)))


def counting(row):
    """Whether the row saturates (at any dt_s, braking has the same bits)
    or carries a count."""
    decel = control_step(FLOATS, "rba", RBA, *row[:5], 0.05, row[5])[1]
    return decel >= RBA.rba.a_max_mps2 or row[5] != 0


# a row with a count, or one that fails the lateral check at a gap of at most
# 0, where the distance shortfall is at least 1 and rba brakes at a_max
counting_rows = st.one_of(
    rba_rows(gaps_long, gaps_lat, st.integers(1, 7)),
    rba_rows(st.floats(-20.0, 0.0), st.floats(-3.0, 0.5), st.just(0)),
).filter(counting)
quiet_rows = rba_rows(
    st.one_of(st.floats(0.5, 80.0), st.sampled_from((10.0, 12.0))),
    gaps_lat,
    st.just(0),
    st.one_of(st.floats(0.5, 20.0), st.just(math.inf)),
).filter(lambda row: not counting(row))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((0.025, 0.05, 0.2)), batches(counting_rows, quiet_rows))
def test_rba_skips_its_count_update_with_no_value_changed(dt, rows):
    columns = [np.array(column, dtype=float) for column in zip(*rows)]
    with np.errstate(all="ignore"):
        out = control_step(ARRAYS, "rba", RBA, *columns[:5], dt, columns[5])
    assert entry_reprs(out, len(rows)) == [rba_float(row, dt) for row in rows]


# --- rba's longitudinal tests, where some entry clears the lateral gate

clearing = st.floats(RBA.rba.d_lat_safe_m, 5.0, exclude_min=True)
not_clearing = st.one_of(
    st.floats(-3.0, RBA.rba.d_lat_safe_m),
    st.sampled_from((RBA.rba.d_lat_safe_m, 0.0, -0.0, math.nan)),
)
steps_between = st.sampled_from((0.025, 0.05, 0.2))


@settings(max_examples=200, deadline=None)
@given(
    steps_between,
    batches(rba_rows(gaps_long, clearing, st.integers(0, 7)),
            rba_rows(gaps_long, not_clearing, st.integers(0, 7))),
)
def test_rba_skips_its_longitudinal_tests_with_no_value_changed(dt, rows):
    columns = [np.array(column, dtype=float) for column in zip(*rows)]
    with np.errstate(all="ignore"):
        out = control_step(ARRAYS, "rba", RBA, *columns[:5], dt, columns[5])
    assert entry_reprs(out, len(rows)) == [rba_float(row, dt) for row in rows]


def step_or_raise(name, gap_long, gap_lat, v_ego, v_other, ttc, dt, memory):
    """control_step on ARRAYS as entry reprs, or the name of what it raises."""
    try:
        with np.errstate(all="ignore"):
            out = control_step(ARRAYS, name, RBA, gap_long, gap_lat, v_ego, v_other, ttc, dt,
                               memory)
    except CutinSimError as exc:
        return type(exc).__name__
    return entry_reprs(out, len(memory))


@settings(max_examples=100, deadline=None)
@given(
    steps_between,
    st.one_of(clearing, not_clearing),
    st.floats(0.0, 35.0),
    st.lists(rba_rows(gaps_long, st.just(0.0), st.integers(0, 7)), min_size=1, max_size=8),
)
def test_a_shared_lateral_gap_and_speed_as_floats_step_as_full_arrays(dt, gap_lat, v_other, rows):
    # the engine hands every law the lateral gap, and the other vehicle's
    # speed, as one float where every lane shares it
    gap_long, _, v_ego, _, ttc, memory = (np.array(c, dtype=float) for c in zip(*rows))
    n = len(rows)
    for name in MODEL_NAMES:
        shared = step_or_raise(name, gap_long, gap_lat, v_ego, v_other, ttc, dt, memory)
        full = step_or_raise(name, gap_long, np.full(n, gap_lat), v_ego, np.full(n, v_other),
                             ttc, dt, memory)
        assert shared == full, name


# --- a quiet batch makes no selection for a guarded branch -----------------


def spying():
    """ARRAYS with a where that records each call, and the list of calls."""
    calls = []

    def where(c, a, b):
        calls.append(c)
        return np.where(c, a, b)

    return SimpleNamespace(**{**vars(ARRAYS), "where": where}), calls


def test_a_batch_that_takes_no_guarded_branch_makes_no_selection_for_one():
    # five lanes braking at 6 m/s², none of which stops within the step, and
    # the other vehicle 5 to 100 m ahead in the adjacent lane at t = 0, so
    # none is alongside
    p = ScenarioParams("cut_in", 25.0, 20.0, 30.0, 3.75)
    x, v = np.zeros(5), np.array([0.5, 10.0, 20.0, 30.0, 40.0])
    d_x0, v_o0, d_y0 = np.array([5.0, 20.0, 40.0, 70.0, 100.0]), np.full(5, 20.0), np.full(5, 3.75)
    spy, calls = spying()
    with np.errstate(all="ignore"):
        advance_axis_xp(spy, x, v, np.full(5, -6.0), 0.05)
        assert calls == []
        gap_long = engine._sense(spy, p, 0.0, x, v, d_x0, v_o0, d_y0)[4]
        assert not ARRAYS.count(gap_long < 0.0)
        n_sense = len(calls)
        calls.clear()
        ttc_xp(spy, gap_long, v - v_o0)
        assert n_sense == len(calls)  # only the closing TTC's own

        # a lane that stops, and a lane alongside, take the guarded branches:
        # alongside, ttc_xp's 0 of a negative gap and _sense's recorded TTC
        calls.clear()
        advance_axis_xp(spy, x, v, np.full(5, -20.0), 0.05)
        assert len(calls) == 2
        calls.clear()
        engine._sense(spy, p, 0.0, np.array([0.0, 0.0, 0.0, 0.0, 103.0]), v, d_x0, v_o0, d_y0)
        assert len(calls) == n_sense + 2


def test_a_lane_that_goes_non_finite_leaves_on_that_step_when_no_other_lane_ends():
    # one `none` lane at 1.7e308 m/s. From its 2nd step, x + v overflows
    # while x and v are finite: the screen sum trips, but the lane holds no
    # non-finite value, so it is not checked and stays. Its position passes
    # float range on the 22nd step, where no lane collides or reaches the
    # end, so only its own check takes the sweep into its bookkeeping. The
    # lane fails there, on the step and with the text of run_closed_loop's
    # error
    x, v, dt = 0.0, 1.7e308, 0.05
    for step in range(1, 23):
        x, v = advance_axis_xp(FLOATS, x, v, 0.0, dt)
        assert math.isfinite(x) == (step < 22) and math.isinf(x + v) == (step >= 2), step
    grid = SweepGrid(v_e0_mps=(v,), v_o0_mps=(10.0,), d_x0_m=(25.0,), d_y0_m=(3.75,))
    base = ScenarioParams("cut_in", 25.0, 20.0, 30.0, 3.75, dt_s=dt)
    steps, failed_on = {"batch": 0, "scalar": 0}, []
    sense, check = engine._sense, engine._check_step

    def counting_sense(xp, *args):
        steps["batch" if xp is ARRAYS else "scalar"] += 1
        return sense(xp, *args)

    def noting_check(*values):
        try:
            check(*values)
        except InvalidInputError:
            failed_on.append(dict(steps))
            raise

    with mock.patch.object(engine, "_sense", counting_sense), \
            mock.patch.object(engine, "_check_step", noting_check):
        rows = entries(sweep(grid, ("none",), base))
        assert failed_on == [{"batch": 22, "scalar": 0}]
        assert reprs(rows) == reprs(scalar_sweep(grid, ("none",), base, ModelParams()))
        assert failed_on[1:] == [{"batch": 22, "scalar": 22}]
    assert rows[0][3] == "InvalidInputError: pos_long_m must be finite, got inf"


def test_a_sweep_checks_only_the_lanes_that_hold_a_non_finite_value():
    # 200 `none` lanes from 9e307 to 1.7e308 m/s: each one's screen sum
    # overflows for many steps on finite values before its position passes
    # float range. Only that step checks the lane, once, and fails it; the
    # 1.7e308 m/s lane alone does the sweep's bookkeeping on that step only
    base = ScenarioParams("cut_in", 25.0, 20.0, 30.0, 3.75)
    check, keep = engine._check_step, engine._Lanes.keep
    calls = {"check": 0, "keep": 0}

    def counting_check(*values):
        calls["check"] += 1
        check(*values)

    def counting_keep(self, mask):
        calls["keep"] += 1
        keep(self, mask)

    with mock.patch.object(engine, "_check_step", counting_check), \
            mock.patch.object(engine._Lanes, "keep", counting_keep):
        for speeds, n_calls in ((np.linspace(9e307, 1.7e308, 200), 200), ((1.7e308,), 1)):
            calls.update(check=0, keep=0)
            grid = SweepGrid(v_e0_mps=tuple(speeds), v_o0_mps=(10.0,), d_x0_m=(25.0,),
                             d_y0_m=(3.75,))
            result = sweep(grid, ("none",), base)
            assert len(result.errors) == n_calls
            assert calls["check"] == n_calls
        assert calls["keep"] == 1
