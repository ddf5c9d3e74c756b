import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cutinsim.cli import main
from cutinsim.config import config_hash
from cutinsim.engine import ScenarioParams, SimResult, SweepGrid, SweepResult, Trace, sweep
from cutinsim.errors import ConfigError
from cutinsim.reports import (
    FLOAT_FORMAT,
    TRACE_HEADER,
    fmt_float,
    read_comparison_store,
    write_comparison_store,
    write_plot_data,
    write_trace_csv,
)


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
        peak_decel_mps2=3.5,
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), result)
    assert path.read_bytes() == (
        TRACE_HEADER.encode() + b"\n"
        b"0,0,0,25,35,-0,10,30,1.75,inf,1,0\n"
        b"0.05,1.25,0,24.825,35.5,1.875,10,29.25,-0.125,1.98333,0,3.5\n"
        b"0.1,2.49877,0,24.65,2,0.5,10,-5.49877,-1.5,0,0,0\n"
    )


# four rba grid points, all at one point: min TTC 1 (critical against
# ttc_crit_s 2), an error row, 3 and inf
RESULT = SweepResult(
    SweepGrid((25.0,) * 4, (20.0,), (30.0,), (3.75,)), ("rba",),
    collided=np.zeros((1, 4), dtype=bool), min_gap_long_m=np.full((1, 4), 10.0),
    min_ttc_s=np.array([[1.0, math.nan, 3.0, math.inf]]), peak_decel_mps2=np.zeros((1, 4)),
    errors={(0, 1): "InvalidInputError: overflow"},
)


def store(tmp_path, result=RESULT):
    out = tmp_path / "store"
    write_comparison_store(str(out), result, {"risk": {"ttc_crit_s": 2.0}, "seed": 0})
    return out


def test_the_store_takes_its_threshold_hash_and_seed_from_the_config_it_writes(tmp_path):
    # one config sets the labels, the manifest and post-process's threshold:
    # at 3.0 the run with min TTC 1 and the one with min TTC 2.5 are critical
    result = SweepResult(
        RESULT.grid, ("rba",), collided=np.zeros((1, 4), dtype=bool),
        min_gap_long_m=np.full((1, 4), 10.0), min_ttc_s=np.array([[1.0, 2.5, 3.0, math.inf]]),
        peak_decel_mps2=np.zeros((1, 4)), errors={},
    )
    config = {"risk": {"ttc_crit_s": 3.0}, "seed": 5}
    out = tmp_path / "store"
    write_comparison_store(str(out), result, config)
    rows = [line.split(",") for line in (out / "results_rba.csv").read_text().splitlines()[1:]]
    assert [row[9] for row in rows] == ["critical", "critical", "non_critical", "non_critical"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["config_hash"], manifest["seed"]) == (config_hash(config), 5)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["post-process", "--results", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ttc_crit_s"] == 3.0
    assert summary["models"][0]["critical_fraction"] == pytest.approx(2 / 4)


def _without(key):
    def corrupt(out):
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest[key]
        (out / "manifest.json").write_text(json.dumps(manifest))
    return corrupt


def _rba_header(out):
    path = out / "results_rba.csv"
    path.write_text(path.read_text().replace("min_ttc", "min_ttc_s", 1))


def _rba_classification(out):
    path = out / "results_rba.csv"
    path.write_text(path.read_text().replace(",non_critical,", ",bogus,", 1))


@pytest.mark.parametrize("corrupt, message", [
    (_without("config"), "missing 'config'"),
    (_without("config_hash"), "missing 'config_hash'"),
    (_without("files"), "missing 'files'"),
    (_without("models"), "missing 'models'"),
    (_rba_header, "unexpected results header in results_rba.csv"),
    (_rba_classification, "results_rba.csv line 4: unknown classification 'bogus'"),
], ids=["no-config", "no-config-hash", "no-files", "no-models", "results-header", "classification"])
def test_a_malformed_store_is_a_config_error(tmp_path, corrupt, message):
    out = store(tmp_path)
    corrupt(out)
    with pytest.raises(ConfigError, match=message) as exc:
        read_comparison_store(str(out))
    assert exc.value.key == "results"


def test_post_process_summarizes_a_store_with_error_rows(tmp_path):
    out = store(tmp_path)
    _, records = read_comparison_store(str(out))
    min_ttc, critical = records["rba"]
    assert min_ttc.tolist() == [1.0, 3.0, math.inf]
    assert critical.tolist() == [True, False, False]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["post-process", "--results", str(out)]) == 0
    (row,) = json.loads((out / "summary.json").read_text())["models"]
    # the error row is in no count: 2 finite samples, 1 infinite, 1 critical of 3 runs
    assert (row["n"], row["n_excluded"], row["mean_ttc"]) == (2, 1, 2.0)
    assert row["critical_fraction"] == pytest.approx(1 / 3)


def test_plot_data_when_every_pooled_sample_is_equal(tmp_path):
    # the histogram range widens to 1 around the common value
    assert write_plot_data(str(tmp_path), {"rba": np.array([2.0, 2.0, math.inf])}, []) == ["hist_rba.csv"]
    rows = [line.split(",") for line in (tmp_path / "hist_rba.csv").read_text().splitlines()[1:]]
    assert (len(rows), rows[0][0], rows[-1][1]) == (30, "1.5", "2.5")
    assert [int(r[2]) for r in rows] == [0] * 15 + [2] + [0] * 14


def test_error_rows_sit_in_grid_order_among_result_rows(tmp_path):
    # the invalid d_x0 0 is the middle value of its axis, so error rows and
    # result rows alternate within each v_e0
    grid = SweepGrid((20.0, 30.0), (10.0,), (25.0, 0.0, 40.0), (3.75,))
    base = ScenarioParams("cut_in", 25.0, 20.0, 30.0, 3.75)
    out = store(tmp_path, sweep(grid, ["rba", "none"], base))
    for model in ("rba", "none"):
        rows = [line.split(",") for line in (out / f"results_{model}.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == [str(i) for i in range(6)]
        assert [row[3] for row in rows] == ["25", "0", "40"] * 2
        assert [row[-1] for row in rows] == ["", "ConfigError: scenario.d_x0 must be > 0", ""] * 2
        assert all(row[9] in ("critical", "non_critical") for row in rows if not row[-1])


@pytest.mark.parametrize("value, written", [
    (True, "1"), (10**400, "nan"), (math.nan, "nan"), ("fast", "nan"),
], ids=["bool", "huge-int", "nan", "string"])
@pytest.mark.parametrize("axis", range(4))
def test_an_error_row_writes_its_point_as_the_floats_the_sweep_read(tmp_path, axis, value, written):
    # a value that is no finite number is an error row of the sweep for every
    # model; writing it must neither raise nor cut the file short
    axes = [(25.0,), (10.0,), (20.0,), (3.75,)]
    axes[axis] = (axes[axis][0], value)
    base = ScenarioParams("cut_in", 25.0, 20.0, 30.0, 3.75)
    out = store(tmp_path, sweep(SweepGrid(*axes), ["rba", "none"], base))
    for model in ("rba", "none"):
        first, error_row = (
            line.split(",") for line in (out / f"results_{model}.csv").read_text().splitlines()[1:]
        )
        assert (first[1:5], first[-1]) == (["25", "10", "20", "3.75"], "")
        assert error_row[1 + axis] == written
        assert error_row[-1].startswith("ConfigError: scenario.")
