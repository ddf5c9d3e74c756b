import ast
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cutinsim.errors import InvalidInputError
from cutinsim.kinematics import ARRAYS, FLOATS, VehicleDims, advance_axis_xp, axis_gap


def advance(v, a, dt):
    """The ego's (position, speed) after one step from the origin."""
    return advance_axis_xp(FLOATS, 0.0, v, a, dt)


def midpoint_euler_oracle(v0, a, dt, n=10_000):
    """Independent integrator: midpoint-stepped substeps with the same
    stop-at-zero rule. Exact for constant acceleration up to the stop instant."""
    h = dt / n
    x, v = 0.0, v0
    for _ in range(n):
        v_next = v + a * h
        if v_next < 0.0:
            t_stop = v / -a
            x += v * t_stop + 0.5 * a * t_stop * t_stop
            v = 0.0
            break
        x += (v + 0.5 * a * h) * h
        v = v_next
    return x, v


def test_zero_acceleration_identity():
    x, v = advance(20.0, 0.0, 0.1)
    assert v == 20.0  # bit-exact
    assert x == 20.0 * 0.1


def test_decelerating_step_matches_closed_form_and_oracle():
    x, v = advance(20.0, -5.0, 0.1)
    assert v == pytest.approx(19.5, abs=1e-12)
    assert x == pytest.approx(1.975, abs=1e-12)
    x_oracle, v_oracle = midpoint_euler_oracle(20.0, -5.0, 0.1)
    assert abs(x - x_oracle) < 1e-6
    assert abs(v - v_oracle) < 1e-9


def test_stopping_mid_step_truncates_position():
    x, v = advance(0.2, -6.0, 0.1)
    assert v == 0.0
    assert x == pytest.approx(0.2**2 / (2 * 6.0), abs=1e-12)
    x_oracle, _ = midpoint_euler_oracle(0.2, -6.0, 0.1)
    assert abs(x - x_oracle) < 1e-6


def test_stopping_exactly_at_the_step_end_takes_the_full_step():
    # the speed reaches 0 at dt itself: the stop clamp is for v_end < 0 only,
    # and here the truncated position would differ in the last bit
    v, a, dt = 6.0 * 0.05, -6.0, 0.05
    full, t_stop = v * dt + 0.5 * a * dt * dt, v / -a
    assert full != v * t_stop + 0.5 * a * t_stop * t_stop
    assert advance(v, a, dt) == (full, 0.0)
    pos, vel = advance_axis_xp(ARRAYS, np.zeros(1), np.array([v]), np.array([a]), dt)
    assert (pos.tolist(), vel.tolist()) == ([full], [0.0])


@given(
    v=st.floats(0.0, 60.0),
    a=st.floats(-12.0, 6.0),
    dt=st.floats(0.001, 0.5),
)
def test_velocity_never_negative_and_no_teleporting(v, a, dt):
    x, v_next = advance(v, a, dt)
    assert v_next >= 0.0
    bound = v * dt + 0.5 * abs(a) * dt * dt
    assert abs(x) <= bound + 1e-9


@given(
    lanes=st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 60.0), st.floats(-12.0, 6.0)),
        min_size=1, max_size=8,
    ),
    dt=st.floats(0.001, 0.5),
)
def test_float_and_array_advance_agree_bit_for_bit(lanes, dt):
    x, v, a = (np.array(column) for column in zip(*lanes))
    with np.errstate(all="ignore"):
        pos, vel = advance_axis_xp(ARRAYS, x, v, a, dt)
    expected = [advance_axis_xp(FLOATS, *lane, dt) for lane in lanes]
    assert repr(list(zip(pos.tolist(), vel.tolist()))) == repr(expected)  # -0.0 counts


@pytest.mark.parametrize("c", (True, False))
def test_arrays_where_on_one_bool_selects_the_operand_np_where_would(c):
    # a condition that every entry shares selects its operand as it is
    a, b = np.array([1.5, -0.0, math.nan]), np.array([0.0, math.inf, -2.0])
    for x, y in ((a, b), (a, 2.5), (-0.0, b), (math.nan, -0.0)):
        got = ARRAYS.where(c, x, y)
        assert got is (x if c else y)
        assert repr(np.broadcast_to(got, (3,)).tolist()) == repr(
            np.broadcast_to(np.where(c, x, y), (3,)).tolist()
        )


def bits(values):
    """The float64 bit patterns of values, so that -0.0 and NaNs count."""
    return np.array(values, dtype=float).view(np.int64).tolist()


# idm's free-road term (v / v_desired) ** 4 is (x * x) * (x * x): within 2
# ulp of Python's x ** 4.0, and inf exactly where that power raises
# OverflowError. Its overflow edge is the fourth root of the largest float,
# scanned 60 steps each way.
ROOT4_MAX = sys.float_info.max ** 0.25


def _steps_from(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


FOURTH_EDGE = [_steps_from(ROOT4_MAX, k) for k in range(-60, 61)]


def python_fourth(x):
    """x ** 4.0, or None where Python's power raises OverflowError."""
    try:
        return x ** 4.0
    except OverflowError:
        return None


def fourth(x):
    """The square of the square of x, as idm's step computes it."""
    x2 = x * x
    return x2 * x2


def assert_fourth_power(x):
    expected = python_fourth(x)
    with np.errstate(all="ignore"):
        array = fourth(np.array([x]))
    ours = fourth(x)
    assert bits(array) == bits([ours]), x
    assert (ours == math.inf) == (expected is None), x
    if expected is not None and expected >= sys.float_info.min:  # a normal result
        assert abs(ours - expected) <= 2.0 * math.ulp(expected), x


@given(st.one_of(st.floats(0.0, sys.float_info.max), st.floats(0.0, 2.0),
                 st.sampled_from(FOURTH_EDGE)))
def test_two_squares_are_the_fourth_power_and_overflow_with_it(x):
    assert_fourth_power(x)


def test_two_squares_overflow_exactly_where_the_fourth_power_does():
    raises = [python_fourth(x) is None for x in FOURTH_EDGE]
    assert raises[0] is False and raises[-1] is True  # the scan brackets the edge
    for x in FOURTH_EDGE:
        assert_fourth_power(x)


def test_gap_longitudinal_examples():
    # bumper to bumper along the lane, from the centers and the lengths
    assert axis_gap(0.0, 40.0, 5.0, 5.0) == 35.0
    assert axis_gap(0.0, 0.0, 5.0, 5.0) == -5.0
    assert axis_gap(40.0, 0.0, 4.0, 6.0) == 35.0
    assert axis_gap(0.0, 5.0, 5.0, 5.0) == 0.0  # touching
    gaps = axis_gap(np.array([0.0, 40.0]), np.array([40.0, 0.0]), 5.0, np.array([5.0, 5.0]))
    assert gaps.tolist() == [35.0, 35.0]


def test_gap_lateral_examples():
    # side to side, from the centers and the widths
    assert axis_gap(0.0, 3.75, 2.0, 2.0) == 1.75
    assert axis_gap(0.0, 0.5, 2.0, 2.0) == -1.5
    assert axis_gap(1.0, 1.0, 1.8, 2.2) == -2.0
    assert axis_gap(0.0, 2.0, 2.0, 2.0) == 0.0  # touching


@given(
    a=st.floats(-100, 100), b=st.floats(-100, 100),
    ea=st.floats(0.5, 20), eb=st.floats(0.5, 20),
)
def test_axis_gap_symmetric_under_exchange(a, b, ea, eb):
    assert axis_gap(a, b, ea, eb) == axis_gap(b, a, eb, ea)


def test_dims_must_be_positive():
    with pytest.raises(InvalidInputError):
        VehicleDims(width_m=0.0, length_m=5.0)
    with pytest.raises(InvalidInputError):
        VehicleDims(width_m=2.0, length_m=-1.0)
    with pytest.raises(InvalidInputError):
        VehicleDims(width_m=2.0, length_m=0.0)


# --- the step takes no libm function, and no model computes a TTC ----------

STEP_MODULES = ("engine.py", "safety_models.py", "kinematics.py", "metrics.py")
SRC = os.path.join(os.path.dirname(__file__), "..", "src", "cutinsim")
LIBM_CALLS = {"pow", "power", "exp", "log"}
TTC_CALLS = {"ttc", "ttc_xp"}


def calls_named(source, names):
    """(line, "call of <name>") for each call in source of a function whose
    name is in names, whatever it is called on."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.append((node.lineno, f"call of {name}"))
    return found


def libm_operations(source):
    """(line, description) for each ** operator in source and each call of a
    function named pow, power, exp or log, whatever it is called on."""
    powers = [
        (node.lineno, "**") for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
    ]
    return sorted(powers + calls_named(source, LIBM_CALLS))


def test_no_step_module_takes_a_power_exp_or_log():
    found = {}
    for name in STEP_MODULES:
        with open(os.path.join(SRC, name)) as fh:
            hits = libm_operations(fh.read())
        if hits:
            found[name] = hits
    assert found == {}


def test_no_safety_model_computes_a_ttc():
    # the engine computes each step's closing TTC once, in _sense, and hands
    # it to every model as ttc_s; a model that called metrics.ttc or ttc_xp
    # would recompute it, and could quietly see another TTC than its peers
    with open(os.path.join(SRC, "safety_models.py")) as fh:
        assert calls_named(fh.read(), TTC_CALLS) == []
    assert calls_named("metrics.ttc(g, v) + ttc_xp(xp, g, v)", TTC_CALLS) == [
        (1, "call of ttc"), (1, "call of ttc_xp"),
    ]


# --- the engine measures, risk classifies ------------------------------------

# the critical-run rule, its thresholds and its labels, which risk and reports hold
POLICY_NAMES = {"ttc_crit_s", "is_critical", "COMFORT_DECEL_MPS2", "CRITICAL", "NON_CRITICAL"}


def names_in(source, names):
    """(line, name) for each identifier in source that is one of names: a
    variable, attribute, parameter, keyword argument, definition or import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            candidates = {node.id}
        elif isinstance(node, ast.Attribute):
            candidates = {node.attr}
        elif isinstance(node, (ast.arg, ast.keyword)):
            candidates = {node.arg}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            candidates = {node.name}
        elif isinstance(node, ast.alias):
            candidates = {node.name, node.asname}
        else:
            continue
        found += [(node.lineno, name) for name in candidates & names]
    return sorted(found)


def engine_imports(source):
    """The line of each import in source that reaches cutinsim.engine."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = {alias.name for alias in getattr(node, "names", ())}
        if isinstance(node, ast.ImportFrom):
            hit = node.module in ("engine", "cutinsim.engine") or (
                node.module in (None, "cutinsim") and "engine" in names
            )
        else:
            hit = isinstance(node, ast.Import) and "cutinsim.engine" in names
        if hit:
            found.append(node.lineno)
    return found


def test_the_engine_measures_and_risk_classifies():
    # the engine reports what a run measured; judging it critical is risk's,
    # and risk reads the engine's numbers without importing the engine
    with open(os.path.join(SRC, "engine.py")) as fh:
        assert names_in(fh.read(), POLICY_NAMES) == []
    with open(os.path.join(SRC, "risk.py")) as fh:
        assert engine_imports(fh.read()) == []


def test_the_policy_checks_see_each_spelling():
    source = """\
from .engine import CRITICAL
from . import engine, metrics
import cutinsim.engine as eng
COMFORT_DECEL_MPS2 = 3.5
def is_critical(r, ttc_crit_s=2.0):
    return run(r, ttc_crit_s=risk.NON_CRITICAL)
from .metrics import ttc
import cutinsim.metrics
"""
    assert names_in(source, POLICY_NAMES) == [
        (1, "CRITICAL"), (4, "COMFORT_DECEL_MPS2"), (5, "is_critical"), (5, "ttc_crit_s"),
        (6, "NON_CRITICAL"), (6, "ttc_crit_s"),
    ]
    assert engine_imports(source) == [1, 2, 3]


def test_the_source_check_sees_each_libm_operation():
    source = """\
def f(x, xp, **kw):
    y = x ** 4.0
    y **= 2
    pow(x, 2)
    xp.pow(x, 4.0, True)
    np.power(x, 2)
    math.exp(x) + np.log(x)
    return x * x, math.sqrt(x), dict(**kw)
"""
    assert libm_operations(source) == [
        (2, "**"), (3, "**"), (4, "call of pow"), (5, "call of pow"),
        (6, "call of power"), (7, "call of exp"), (7, "call of log"),
    ]
