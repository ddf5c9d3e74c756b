import math

from hypothesis import example, given
from hypothesis import strategies as st

from cutinsim.engine import SimResult, Trace
from cutinsim.reports import FLOAT_FORMAT, TRACE_HEADER, fmt_float, write_trace_csv


def spelled_out(value: float) -> str:
    """The written float rules by hand: infinities and NaN (of either sign)
    by name, any other float at 6 significant digits."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        return "nan"
    return f"{value:.6g}"


@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(math.copysign(math.nan, -1.0))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072009e-308)  # the largest subnormal
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_float_format_writes_the_spelled_out_rules(value):
    assert FLOAT_FORMAT % value == fmt_float(value) == spelled_out(value)


def test_trace_csv_bytes_of_a_hand_built_trace(tmp_path):
    trace = Trace(
        t_s=(0.0, 0.05, 0.1),
        ego_x_m=(0.0, 1.25, 2.4987654321),
        ego_v_mps=(25.0, 24.825, 24.65),
        other_x_m=(35.0, 35.5, 2.0),
        other_y_m=(-0.0, 1.875, 0.5),
        other_v_mps=(10.0, 10.0, 10.0),
        other_vy_mps=(0.0, -3.75, -3.75),
        gap_long_m=(30.0, 29.25, -5.4987654321),
        gap_lat_m=(1.75, -0.125, -1.5),
        ttc_s=(math.inf, 1.9833333333333333, 0.0),
        safe=(True, False, False),
        decel_cmd_mps2=(0.0, 3.5, 0.0),
    )
    result = SimResult(
        trace=trace, collided=True, min_gap_long_m=-5.4987654321, min_ttc_s=0.0,
        peak_decel_mps2=3.5, classification="critical", model_name="rba",
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), result)
    assert path.read_bytes() == (
        TRACE_HEADER.encode() + b"\n"
        b"0,0,0,25,35,-0,10,30,1.75,inf,1,0\n"
        b"0.05,1.25,0,24.825,35.5,1.875,10,29.25,-0.125,1.98333,0,3.5\n"
        b"0.1,2.49877,0,24.65,2,0.5,10,-5.49877,-1.5,0,0,0\n"
    )
