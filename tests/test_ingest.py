import math
import warnings
from collections import namedtuple
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutinsim import ingest
from cutinsim.engine import ScenarioParams, run_closed_loop
from cutinsim.errors import CutinSimError, InvalidInputError, ParseError, SchemaError
from cutinsim.ingest import (
    TRACKS_DTYPE,
    TRACKS_HEADER,
    CutInEvent,
    Track,
    TrackSet,
    extract_cut_in_events,
    export_features,
    read_tracks_csv,
    trace_to_track_rows,
    tracks_from_rows,
    write_features_csv,
    write_tracks_csv,
)
from cutinsim.kinematics import VehicleDims, axis_gap
from cutinsim.metrics import CLOSING_SPEED_FLOOR_MPS

DIMS = VehicleDims(width_m=2.0, length_m=5.0)
FPS = 25.0
# a tracks csv row with the TRACKS_DTYPE field names: csv "width" is the
# length, "height" the width
Row = namedtuple("Row", TRACKS_DTYPE.names)


def make_fixture(tmp_path, v_e0=25.0, v_o0=20.0, d_x0=30.0, d_y0=3.75,
                 lc_start=1.0, lc_dur=2.0, duration=8.0, name="tracks.csv"):
    p = ScenarioParams(
        kind="cut_in", v_e0_mps=v_e0, v_o0_mps=v_o0, d_x0_m=d_x0, d_y0_m=d_y0,
        lc_start_s=lc_start, lc_duration_s=lc_dur, duration_s=duration, dt_s=1.0 / FPS,
    )
    result = run_closed_loop(p, "none")
    rows = list(map(Row._make, trace_to_track_rows(result.trace, DIMS, DIMS)))
    path = tmp_path / name
    write_tracks_csv(path, rows)
    return p, rows, path


def rows_by_frame(track_set, track_id):
    """A track's columns as {frame: Row}, in frame order."""
    t = track_set.tracks[track_id]
    columns = (t.x, t.y, t.length, t.width, t.x_vel, t.y_vel, t.lane)
    return {f: Row(f, track_id, *values) for f, *values in zip(t.frame.tolist(), *(c.tolist() for c in columns))}


def test_header_only_file_reads_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(TRACKS_HEADER) + "\n")
    ts = read_tracks_csv(path, FPS)
    assert ts.tracks == {}
    path.write_text("")  # no header either
    assert read_tracks_csv(path, FPS) == TrackSet(FPS, {})


def read(path, columnar):
    """read_tracks_csv on path at FPS: through the columnar parse, or with it
    turned off, through the row checker alone."""
    if columnar:
        return read_tracks_csv(path, FPS)
    with mock.patch.object(ingest, "_parse_columns", lambda fh: None):
        return read_tracks_csv(path, FPS)


@pytest.mark.parametrize("columnar", (True, False))
def test_blank_lines_are_skipped_without_a_warning(tmp_path, columnar):
    path = tmp_path / "blank.csv"
    path.write_text(HEADER + "0,1,0.0,0.0,5.0,2.0,20.0,0.0,0\n\n\n1,1,1.0,0.0,5.0,2.0,20.0,0.0,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = read(path, columnar)
    assert ts.tracks[1].frame.tolist() == [0, 1]


def test_round_trip_preserves_values_at_serialized_precision(tmp_path):
    _, rows, path = make_fixture(tmp_path)
    ts = read_tracks_csv(path, FPS)
    assert set(ts.tracks) == {1, 2}
    read_back = [r for tid in (1, 2) for r in rows_by_frame(ts, tid).values()]
    by_key = {(r.id, r.frame): r for r in read_back}
    for orig in rows:
        got = by_key[(orig.id, orig.frame)]
        for field in ("x", "y", "length", "width", "x_vel", "y_vel"):
            assert getattr(got, field) == float(f"{getattr(orig, field):.6g}")
        assert got.lane == orig.lane
    # write -> read -> write is byte-stable
    second = tmp_path / "second.csv"
    write_tracks_csv(second, read_back)
    third = tmp_path / "third.csv"
    write_tracks_csv(third, [r for tid in (1, 2) for r in rows_by_frame(read_tracks_csv(second, FPS), tid).values()])
    assert second.read_bytes() == third.read_bytes()


def test_missing_column_is_a_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame,id,x,y,width,xVelocity,yVelocity,laneId\n")
    with pytest.raises(SchemaError, match="height"):
        read_tracks_csv(path, FPS)


NON_FINITE = "non-finite position, size or velocity"
# (row at line 3, the reader's message for it; None for a row that reads fine)
MALFORMED_ROWS = (
    ("1,1,not_a_number,0.0,5.0,2.0,20.0,0.0,0", "could not convert string to float: 'not_a_number'"),
    ("1,1,nan,0.0,5.0,2.0,20.0,0.0,0", NON_FINITE),
    ("1,1,1.0,0.0,5.0,nan,20.0,0.0,0", NON_FINITE),
    ("1,1,1.0,0.0,5.0,2.0,inf,0.0,0", NON_FINITE),
    ("1,1,1.0,-inf,5.0,2.0,20.0,0.0,0", NON_FINITE),
    ("1,1,1e308,0.0,5.0,2.0,1e308,0.0,0", None),  # the sum overflows, every value is finite
    ("1,1,1.0,0.0,5.0,2.0,20.0,0.0", "expected 9 fields, got 8"),
    ("1,1,1.0,0.0,5.0,2.0,20.0,0.0,0,0", "expected 9 fields, got 10"),
    # bad in two columns: the first in column order is reported
    ("f1,1,bad_x,0.0,5.0,2.0,20.0,0.0,0", "invalid literal for int() with base 10: 'f1'"),
    ("1,1,bad_x,0.0,5.0,2.0,20.0,0.0,0.5", "could not convert string to float: 'bad_x'"),
    # every conversion comes before the finite check, and that before the dimensions
    ("1,1,nan,0.0,5.0,2.0,20.0,0.0,0.5", "invalid literal for int() with base 10: '0.5'"),
    ("1,1,nan,0.0,0.0,2.0,20.0,0.0,0", NON_FINITE),
    ("1,1,1.0,0.0,-5.0,2.0,20.0,0.0,0", "vehicle dimensions must be positive"),
)


def test_a_malformed_row_is_a_parse_error_with_its_line_number(tmp_path):
    path = tmp_path / "rows.csv"
    for bad_row, message in MALFORMED_ROWS:
        path.write_text(
            ",".join(TRACKS_HEADER) + "\n"
            "0,1,0.0,0.0,5.0,2.0,20.0,0.0,0\n"
            + bad_row + "\n"
            "2,1,2.0,0.0,5.0,2.0,20.0,0.0,0\n"
        )
        if message is None:
            assert read_tracks_csv(path, FPS).tracks[1].frame.tolist() == [0, 1, 2]
            continue
        with pytest.raises(ParseError) as excinfo:
            read_tracks_csv(path, FPS)
        assert (str(excinfo.value), excinfo.value.line_no) == (f"line 3: {message}", 3), bad_row
    # in a file of malformed rows only, the first is reported
    bad = [(row, message) for row, message in MALFORMED_ROWS if message is not None]
    path.write_text(",".join(TRACKS_HEADER) + "\n" + "".join(row + "\n" for row, _ in bad))
    with pytest.raises(ParseError) as excinfo:
        read_tracks_csv(path, FPS)
    assert (str(excinfo.value), excinfo.value.line_no) == (f"line 2: {bad[0][1]}", 2)


@pytest.mark.parametrize("rate", (0.0, -25.0, math.nan, math.inf))
def test_frame_rate_must_be_finite_and_positive(tmp_path, rate):
    _, _, path = make_fixture(tmp_path)  # a file that holds a cut-in at 25 Hz
    assert len(extract_cut_in_events(read_tracks_csv(path, FPS))) == 1
    with pytest.raises(InvalidInputError, match="frame_rate_hz"):
        read_tracks_csv(path, rate)


def test_no_events_when_lanes_never_merge(tmp_path):
    rows = []
    for f in range(50):
        rows.append((f, 1, 20.0 * 0.04 * f, 0.0, 5.0, 2.0, 20.0, 0.0, 0))
        rows.append((f, 2, 30.0 + 20.0 * 0.04 * f, 3.75, 5.0, 2.0, 20.0, 0.0, 1))
    path = tmp_path / "parallel.csv"
    write_tracks_csv(path, rows)
    ts = read_tracks_csv(path, FPS)
    assert extract_cut_in_events(ts) == []


def test_fixture_round_trip_recovers_parameters(tmp_path):
    p, _, path = make_fixture(tmp_path, v_e0=25.0, v_o0=20.0, d_x0=30.0)
    ts = read_tracks_csv(path, FPS)
    events = extract_cut_in_events(ts)
    assert len(events) == 1
    ev = events[0]
    assert ev.ego_track == 1 and ev.cut_track == 2
    quantum = abs(p.v_e0_mps - p.v_o0_mps) / FPS
    assert abs(ev.params.v_e0_mps - 25.0) < 1e-4
    assert abs(ev.params.v_o0_mps - 20.0) < 1e-4
    assert abs(ev.params.d_x0_m - 30.0) <= quantum + 0.01
    assert abs(ev.params.d_y0_m - 3.75) <= 0.01


def test_gap_gate_suppresses_far_events(tmp_path):
    p, _, path = make_fixture(tmp_path, d_x0=60.0, v_e0=20.0, v_o0=20.0)
    ts = read_tracks_csv(path, FPS)
    assert extract_cut_in_events(ts, min_gap_m=100.0) != []
    assert extract_cut_in_events(ts, min_gap_m=30.0) == []


def test_features_for_non_closing_pair(tmp_path):
    p, _, path = make_fixture(tmp_path, v_e0=20.0, v_o0=20.0, d_x0=40.0)
    ts = read_tracks_csv(path, FPS)
    events = extract_cut_in_events(ts)
    assert len(events) == 1
    rows, flagged = export_features(events[0], ts)
    assert flagged == []
    assert all(math.isinf(r[3]) for r in rows)  # ttc
    assert all(r[4] == 0.0 for r in rows)  # ittc
    assert all(r[1] == pytest.approx(40.0, abs=1e-3) for r in rows)  # constant dhw


def test_features_match_direct_recomputation(tmp_path):
    p, _, path = make_fixture(tmp_path, v_e0=25.0, v_o0=20.0, d_x0=30.0)
    ts = read_tracks_csv(path, FPS)
    ev = extract_cut_in_events(ts)[0]
    rows, flagged = export_features(ev, ts)
    ego, cut = rows_by_frame(ts, 1), rows_by_frame(ts, 2)
    for frame, dhw, thw, ttc, ittc in rows:
        e, c = ego[frame], cut[frame]
        gap = abs(c.x - e.x) - (c.length + e.length) / 2.0
        if gap < 0:
            assert frame in flagged and math.isnan(ttc)
            continue
        closing = e.x_vel - c.x_vel
        expected_ttc = gap / closing if closing > CLOSING_SPEED_FLOOR_MPS else math.inf
        assert dhw == gap and ttc == expected_ttc
        assert thw == (gap / e.x_vel if e.x_vel > CLOSING_SPEED_FLOOR_MPS else math.inf)
        assert ittc == (1.0 / expected_ttc if expected_ttc > 0.0 else math.inf)


def test_features_flag_overlap_frames(tmp_path):
    rows = []
    for f in range(10):
        x_e = 10.0 * 0.04 * f  # slower units irrelevant; overlap by construction
        rows.append((f, 1, x_e, 0.0, 5.0, 2.0, 10.0, 0.0, 0))
        rows.append((f, 2, x_e + (3.0 if f >= 5 else 20.0), 0.0, 5.0, 2.0, 10.0, 0.0, 0))
    path = tmp_path / "overlap.csv"
    write_tracks_csv(path, rows)
    ts = read_tracks_csv(path, FPS)
    ev = CutInEvent(
        ego_track=1, cut_track=2, start_frame=0, end_frame=9,
        params=ScenarioParams("cut_in", 10.0, 10.0, 15.0, 3.75, 0.0, 0.2, 1.0, 0.04),
    )
    feat_rows, flagged = export_features(ev, ts)
    assert flagged == [5, 6, 7, 8, 9]
    for frame, dhw, thw, ttc, ittc in feat_rows:
        if frame in flagged:
            assert dhw < 0 and math.isnan(ttc) and math.isnan(thw) and math.isnan(ittc)
    out = tmp_path / "features.csv"
    write_features_csv(out, feat_rows)
    text = out.read_text().splitlines()
    assert text[0] == "frame,dhw,thw,ttc,ittc"
    assert "nan" in text[6]
    with pytest.raises(InvalidInputError, match="event does not match the provided tracks"):
        export_features(replace(ev, cut_track=3), ts)


def test_ten_fixture_round_trips(tmp_path):
    cases = [
        (22.0, 18.0, 25.0, 3.75, 0.5, 1.5),
        (25.0, 20.0, 30.0, 3.75, 1.0, 2.0),
        (28.0, 24.0, 35.0, 3.75, 1.5, 2.5),
        (30.0, 25.0, 40.0, 3.75, 0.5, 2.0),
        (33.0, 27.0, 55.0, 3.75, 1.0, 1.5),
        (24.0, 20.0, 28.0, 7.5, 0.5, 2.0),
        (26.0, 22.0, 33.0, 7.5, 1.0, 2.5),
        (29.0, 26.0, 45.0, 3.75, 2.0, 2.0),
        (31.0, 28.0, 50.0, 3.75, 1.5, 1.5),
        (23.0, 19.0, 26.0, 3.75, 0.8, 1.8),
    ]
    for i, (ve, vo, dx, dy, start, dur) in enumerate(cases):
        p, _, path = make_fixture(
            tmp_path, v_e0=ve, v_o0=vo, d_x0=dx, d_y0=dy,
            lc_start=start, lc_dur=dur, name=f"fix{i}.csv",
        )
        ts = read_tracks_csv(path, FPS)
        events = extract_cut_in_events(ts)
        assert len(events) == 1, (i, events)
        ev = events[0]
        quantum = (ve - vo) / FPS
        assert abs(ev.params.v_e0_mps - ve) < 1e-4
        assert abs(ev.params.v_o0_mps - vo) < 1e-4
        assert abs(ev.params.d_x0_m - dx) <= quantum + 0.01
        assert abs(ev.params.d_y0_m - dy) <= 0.01


def test_extraction_is_reproducible(tmp_path):
    _, _, path = make_fixture(tmp_path)
    ts = read_tracks_csv(path, FPS)
    assert extract_cut_in_events(ts) == extract_cut_in_events(ts)


def test_extracted_event_replays_with_the_recorded_footprints(tmp_path):
    truck = VehicleDims(width_m=2.5, length_m=12.0)
    p = ScenarioParams(
        kind="cut_in", v_e0_mps=25.0, v_o0_mps=20.0, d_x0_m=30.0, d_y0_m=3.75,
        lc_start_s=1.0, lc_duration_s=2.0, duration_s=8.0, dt_s=1.0 / FPS, other_dims=truck,
    )
    source = run_closed_loop(p, "none")
    path = tmp_path / "truck.csv"
    write_tracks_csv(path, trace_to_track_rows(source.trace, p.ego_dims, p.other_dims))
    (event,) = extract_cut_in_events(read_tracks_csv(path, FPS))
    assert (event.params.ego_dims, event.params.other_dims) == (DIMS, truck)
    replay = run_closed_loop(event.params, "none")
    assert replay.trace.gap_long_m[0] == pytest.approx(source.trace.gap_long_m[0], abs=1e-6)
    assert replay.trace.gap_lat_m[0] == pytest.approx(source.trace.gap_lat_m[0], abs=1e-6)


HEADER = ",".join(TRACKS_HEADER) + "\n"


def read_rows(tmp_path, rows, name="pair.csv"):
    path = tmp_path / name
    write_tracks_csv(path, rows)
    return read_tracks_csv(path, FPS)


def pair(cut, ego_y=0.0, ego_lane=0):
    """Ego track 1 held at x = 0 in ego_lane, and cutter track 2 at (x, y, lane_id)
    per frame; both 5 m long, so a cutter at x = 20 is 15 m ahead."""
    rows = []
    for f, (x, y, lane) in enumerate(cut):
        rows.append(Row(f, 1, 0.0, ego_y, 5.0, 2.0, 20.0, 0.0, ego_lane))
        rows.append(Row(f, 2, x, y, 5.0, 2.0, 15.0, 0.0, lane))
    return rows


CUT_IN = [(20.0, 3.75, 1)] * 5 + [(20.0, 0.0, 0)] * 5  # into lane 0 at frame 5


@pytest.mark.parametrize("columnar", (True, False))
@pytest.mark.parametrize("frames", ((0, 1, 1), (0, 2, 1)), ids=("repeated", "decreasing"))
def test_frames_must_strictly_increase(tmp_path, frames, columnar):
    path = tmp_path / "order.csv"
    path.write_text(HEADER + "".join(f"{f},1,{f}.0,0.0,5.0,2.0,20.0,0.0,0\n" for f in frames))
    with pytest.raises(SchemaError, match="track 1: frames not strictly increasing"):
        read(path, columnar)


def test_a_malformed_row_is_reported_before_the_frame_order(tmp_path):
    path = tmp_path / "order.csv"
    path.write_text(
        HEADER
        + "1,1,1.0,0.0,5.0,2.0,20.0,0.0,0\n"
        + "0,1,0.0,0.0,5.0,2.0,20.0,0.0,0\n"
        + "2,1,nan,0.0,5.0,2.0,20.0,0.0,0\n"
    )
    with pytest.raises(ParseError, match="line 4"):
        read_tracks_csv(path, FPS)


@pytest.mark.parametrize("length, width", ((0.0, 2.0), (5.0, 0.0)))
def test_zero_dimensions_are_malformed(tmp_path, length, width):
    path = tmp_path / "dims.csv"
    path.write_text(
        HEADER
        + "0,1,0.0,0.0,5.0,2.0,20.0,0.0,0\n"
        + f"1,1,1.0,0.0,{length},{width},20.0,0.0,0\n"
    )
    with pytest.raises(ParseError, match="line 3: vehicle dimensions must be positive"):
        read_tracks_csv(path, FPS)


def test_event_needs_two_common_frames_and_ends_at_the_transition(tmp_path):
    assert extract_cut_in_events(TrackSet(FPS, {})) == []
    assert extract_cut_in_events(read_rows(tmp_path, pair([(20.0, 0.0, 0)]))) == []
    # a cutter that changes lane, sharing only the frame of the change with the ego
    one_common = [r for r in pair(CUT_IN) if r.id == 2 or r.frame == 5]
    assert extract_cut_in_events(read_rows(tmp_path, one_common)) == []
    (event,) = extract_cut_in_events(read_rows(tmp_path, pair([(20.0, 3.75, 1), (20.0, 0.0, 0)])))
    assert (event.start_frame, event.end_frame) == (0, 1)
    (event,) = extract_cut_in_events(read_rows(tmp_path, pair(CUT_IN)))
    assert (event.start_frame, event.end_frame) == (0, 5)


def test_a_cutter_already_in_the_ego_lane_is_no_cut_in(tmp_path):
    leaves = [(20.0, 0.0, 0)] * 5 + [(20.0, 3.75, 1)] * 5
    assert extract_cut_in_events(read_rows(tmp_path, pair(leaves))) == []


def test_a_cutter_level_with_the_ego_is_not_ahead(tmp_path):
    level_at_transition = CUT_IN[:5] + [(0.0, 0.0, 0)] + CUT_IN[6:]
    assert extract_cut_in_events(read_rows(tmp_path, pair(level_at_transition))) == []
    level_at_start = [(0.0, 3.75, 1)] + CUT_IN[1:]
    assert extract_cut_in_events(read_rows(tmp_path, pair(level_at_start))) == []


def test_a_cutter_overlapping_the_ego_at_the_start_gives_no_event(tmp_path):
    # 3 m ahead centre to centre, 5 m long each: d_x0 = -2 m, which ScenarioParams rejects
    overlapping = [(3.0, 3.75, 1)] + CUT_IN[1:]
    assert extract_cut_in_events(read_rows(tmp_path, pair(overlapping))) == []


def test_a_programming_error_building_the_event_propagates(tmp_path, monkeypatch):
    ts = read_rows(tmp_path, pair(CUT_IN))

    def broken(**kwargs):
        raise TypeError("not a degenerate geometry")

    monkeypatch.setattr(ingest, "ScenarioParams", broken)
    with pytest.raises(TypeError, match="not a degenerate geometry"):
        extract_cut_in_events(ts)


def test_gap_gate_includes_its_bound(tmp_path):
    ts = read_rows(tmp_path, pair(CUT_IN))  # 15 m bumper to bumper at the transition
    assert len(extract_cut_in_events(ts, min_gap_m=15.0)) == 1
    assert extract_cut_in_events(ts, min_gap_m=14.999) == []
    far = read_rows(tmp_path, pair([(1e6, y, lane) for _, y, lane in CUT_IN]))
    assert extract_cut_in_events(far) == []
    assert len(extract_cut_in_events(far, min_gap_m=math.inf)) == 1  # no gate
    # 15 m ahead at the first frame, touching (5 m centre to centre) at the transition
    touching = read_rows(tmp_path, pair([(20.0, 3.75, 1)] + [(5.0, 3.75, 1)] * 4 + [(5.0, 0.0, 0)] * 5))
    for min_gap_m in (0.0, -0.0):
        assert [e.end_frame for e in extract_cut_in_events(touching, min_gap_m=min_gap_m)] == [5]


def test_lane_change_window_thresholds_at_1e_9(tmp_path):
    # y leaves 0 by exactly 1e-9 at frame 2: not yet moving, so the maneuver
    # starts at frame 3 and settles at 3.75 at frame 5
    leaving = [(20.0, y, 0 if y < 1.875 else 1) for y in (0.0, 0.0, 1e-9, 1.0, 2.0, 3.75, 3.75, 3.75)]
    (event,) = extract_cut_in_events(read_rows(tmp_path, pair(leaving, ego_y=3.75, ego_lane=1)))
    assert event.params.lc_start_s == pytest.approx(2 / FPS)
    assert event.params.lc_duration_s == pytest.approx(3 / FPS)
    # y is within 1e-9 of its final 0 at frame 4: settled there
    arriving = [(20.0, y, 0 if y < 1.875 else 1) for y in (3.75, 3.75, 2.0, 1.0, 1e-9, 0.0, 0.0, 0.0)]
    (event,) = extract_cut_in_events(read_rows(tmp_path, pair(arriving)))
    assert event.params.lc_start_s == pytest.approx(1 / FPS)
    assert event.params.lc_duration_s == pytest.approx(3 / FPS)
    # the lane id changes while y never moves: no maneuver to time, one frame at 0
    (event,) = extract_cut_in_events(read_rows(tmp_path, pair([(20.0, 0.0, 1)] * 5 + [(20.0, 0.0, 0)] * 5)))
    assert (event.params.lc_start_s, event.params.lc_duration_s) == (0.0, 1 / FPS)


@pytest.mark.parametrize("hole, lc_start_s, lc_duration_s", (
    (range(40, 45), 1.0, 2.0),
    (range(24, 27), 1.04, 1.96),
    (range(74, 78), 1.0, 2.12),
), ids=("mid", "at-start", "at-end"))
def test_a_hole_in_the_cutter_track(tmp_path, hole, lc_start_s, lc_duration_s):
    # the fixture's lane change runs from frame 25 to frame 75; a hole moves the
    # estimate only where it hides the first moving or the first settled frame
    _, rows, _ = make_fixture(tmp_path)
    ts = read_rows(tmp_path, [r for r in rows if r.id == 1 or r.frame not in hole], "hole.csv")
    (event,) = extract_cut_in_events(ts)
    assert (event.params.lc_start_s, event.params.lc_duration_s) == (lc_start_s, lc_duration_s)
    features, _ = export_features(event, ts)
    assert [row[0] for row in features] == [f for f in ts.tracks[1].frame.tolist() if f not in hole]


def mirrored(rows):
    """The same rows driving in -x: x and xVelocity negated."""
    return [r._replace(x=-r.x, x_vel=-r.x_vel) for r in rows]


@pytest.mark.parametrize("source", ("pair", "fixture"))
def test_a_pair_driving_in_minus_x_gives_the_event_and_features_of_its_mirror(tmp_path, source):
    rows = pair(CUT_IN) if source == "pair" else make_fixture(tmp_path)[1]
    plus = read_rows(tmp_path, rows, "plus.csv")
    minus = read_rows(tmp_path, mirrored(rows), "minus.csv")
    (event,) = extract_cut_in_events(plus)
    (mirror,) = extract_cut_in_events(minus)
    assert mirror == event
    assert export_features(mirror, minus) == export_features(event, plus)
    assert event.params.v_e0_mps > 0.0 and event.params.d_x0_m > 0.0


def test_a_cutter_behind_the_ego_in_minus_x_is_no_cut_in(tmp_path):
    # in -x, a cutter at larger x than the ego is behind it
    behind = [(-x, y, lane) for x, y, lane in CUT_IN]
    assert extract_cut_in_events(read_rows(tmp_path, mirrored(pair(behind)))) == []


def test_an_ego_at_a_standstill_at_the_first_frame_travels_in_plus_x(tmp_path):
    rows = pair(CUT_IN)
    rows[0] = rows[0]._replace(x_vel=0.0)  # the ego's row at frame 0
    (event,) = extract_cut_in_events(read_rows(tmp_path, rows))
    assert (event.params.v_e0_mps, event.params.v_o0_mps) == (0.0, 15.0)


@pytest.mark.parametrize("min_gap_m", (math.nan, -1.0, -math.inf))
def test_min_gap_must_be_a_non_negative_number(tmp_path, min_gap_m):
    ts = read_rows(tmp_path, pair(CUT_IN))
    with pytest.raises(InvalidInputError, match=r"min_gap_m must be >= 0 \(inf for no gate\)"):
        extract_cut_in_events(ts, min_gap_m=min_gap_m)


def two_tracks(ego_frames, cut_lanes):
    """Ego track 1 at x = 0 in lane 0 on ego_frames, and cutter track 2 at
    x = 20 (15 m ahead bumper to bumper) with lane ids {frame: lane id}."""
    return TrackSet(FPS, tracks_from_rows(
        [(f, 1, 0.0, 0.0, 5.0, 2.0, 20.0, 0.0, 0) for f in ego_frames]
        + [(f, 2, 20.0, 3.75 * lane, 5.0, 2.0, 15.0, 0.0, lane) for f, lane in sorted(cut_lanes.items())]
    ))


INTO_LANE_0_AT_5 = {f: 1 if f < 5 else 0 for f in range(10)}


@pytest.mark.parametrize("ego_frames, cut_lanes, frames", (
    (range(10), INTO_LANE_0_AT_5, (0, 5)),
    (range(6), INTO_LANE_0_AT_5, (0, 5)),  # the change at the ego's last frame
    (range(5), INTO_LANE_0_AT_5, None),  # the change after it
    (range(4, 10), INTO_LANE_0_AT_5, (4, 5)),
    (range(5, 10), INTO_LANE_0_AT_5, None),  # the change at the ego's first frame
    # lane 0 -> 1 -> 0 in a hole of the ego: at the common frames 0 and 2
    # the cutter holds the ego's lane, so it never changes into it
    ([0, 2], {0: 0, 1: 1, 2: 0}, None),
    ([0, 2], {0: 1, 1: 0, 2: 0}, (0, 2)),
    # into lane 0 at frame 2, the first common frame, and out again at 6
    (range(1, 10), {0: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1, 7: 1, 8: 1, 9: 1}, None),
    # the change at frame 6 falls in a hole of the ego after the last common frame
    ([0, 1, 2, 3, 4, 5, 7], {f: 1 if f < 6 else 0 for f in range(7)}, None),
), ids=("inside", "at-ego-last", "after-ego-last", "after-ego-first", "at-ego-first",
        "flip-in-a-hole", "change-in-a-hole", "at-first-common", "after-last-common"))
def test_a_transition_is_the_first_common_frame_after_a_change(ego_frames, cut_lanes, frames):
    events = extract_cut_in_events(two_tracks(ego_frames, cut_lanes))
    assert [(e.start_frame, e.end_frame) for e in events] == ([frames] if frames else [])


def scan_every_common_frame(track_set, min_gap_m):
    """extract_cut_in_events written as a scan over every common frame of
    every pair, with the lane-change window from full lists of moving and
    settled frames: the oracle for the lane-change index."""
    dt_s = 1.0 / track_set.frame_rate_hz
    tracks = track_set.tracks
    events = []
    for ego_id in sorted(tracks):
        for cut_id in sorted(tracks):
            if ego_id == cut_id:
                continue
            ego, cut = rows_by_frame(track_set, ego_id), rows_by_frame(track_set, cut_id)
            common = sorted(ego.keys() & cut.keys())
            sign = -1.0 if common and ego[common[0]].x_vel < 0.0 else 1.0
            transitions = [
                f for prev_f, f in zip(common, common[1:])
                if cut[f].lane != cut[prev_f].lane
                and cut[f].lane == ego[f].lane
                and sign * cut[f].x > sign * ego[f].x
                and axis_gap(cut[f].x, ego[f].x, cut[f].length, ego[f].length) <= min_gap_m
            ]
            if not transitions:
                continue
            e0, c0 = ego[common[0]], cut[common[0]]
            if sign * c0.x <= sign * e0.x:
                continue
            y0, y_end = c0.y, cut[common[-1]].y
            moving = [f for f in common if abs(cut[f].y - y0) > 1e-9]
            settled = [f for f in moving if abs(cut[f].y - y_end) <= 1e-9]
            lc_start, lc_duration = 0.0, dt_s
            if moving:
                lc_start = max((moving[0] - common[0] - 1) * dt_s, 0.0)
                end_frame = settled[0] if settled else common[-1]
                lc_duration = max((end_frame - moving[0] + 1) * dt_s, dt_s)
            try:
                params = ScenarioParams(
                    "cut_in", sign * e0.x_vel, sign * c0.x_vel,
                    axis_gap(c0.x, e0.x, c0.length, e0.length), abs(c0.y - e0.y),
                    lc_start, lc_duration,
                    max((common[-1] - common[0]) * dt_s, lc_start + lc_duration), dt_s,
                    ego_dims=VehicleDims(e0.width, e0.length),
                    other_dims=VehicleDims(c0.width, c0.length),
                )
            except CutinSimError:
                continue
            events.append(CutInEvent(ego_id, cut_id, common[0], transitions[0], params))
    return sorted(events, key=lambda e: (e.end_frame, e.ego_track, e.cut_track))


# 5 m long vehicles at these x are -5 to 25 m apart bumper to bumper in
# steps of 5, so a gap often equals one of MIN_GAPS_M exactly
X_M = (0.0, 5.0, 10.0, 20.0, 30.0)
MIN_GAPS_M = (0.0, 5.0, 15.0, 100.0, math.inf)
Y_M = (0.0, 1e-9, 1.0, 3.75)
EMPTY_TRACK = Track(**{f.name: np.empty(0, TRACKS_DTYPE[f.name]) for f in fields(Track)})


@st.composite
def track_sets(draw):
    """2-4 tracks of up to 12 frames each, starting at frames 0-6 (so pairs
    share no frame, one frame or several). Most drive in the set's direction,
    some against it. Each holds one x at most frames. Lane id (0 or 1) and y
    are drawn per frame, so lane ids flip back and forth. About half the
    tracks hold every frame from their first to their last; in the others
    about one frame in four is a hole (a track may be all holes: an empty
    Track)."""
    rows = []
    direction = draw(st.sampled_from((1.0, -1.0)))
    ids = range(1, draw(st.integers(2, 4)) + 1)
    for track_id in ids:
        sign = direction * draw(st.sampled_from((1.0, 1.0, 1.0, -1.0)))
        speed = draw(st.sampled_from((0.0, 15.0, 20.0)))
        x_m = draw(st.sampled_from(X_M))
        first = draw(st.integers(0, 6))
        holes = st.sampled_from((False, False, False, True)) if draw(st.booleans()) else st.just(False)
        cells = draw(st.lists(
            st.tuples(
                st.sampled_from((x_m, x_m, x_m) + X_M),
                st.sampled_from(Y_M),
                st.integers(0, 1),
                holes,
            ),
            min_size=1, max_size=12,
        ))
        rows += [(first + k, track_id, sign * x, y, 5.0, 2.0, sign * speed, 0.0, lane)
                 for k, (x, y, lane, hole) in enumerate(cells) if not hole]
    tracks = tracks_from_rows(rows)
    return TrackSet(FPS, {track_id: tracks.get(track_id, EMPTY_TRACK) for track_id in ids})


@settings(max_examples=400, deadline=None)
@given(track_sets(), st.sampled_from(MIN_GAPS_M))
def test_extraction_equals_a_scan_over_every_common_frame(track_set, min_gap_m):
    events = extract_cut_in_events(track_set, min_gap_m=min_gap_m)
    assert repr(events) == repr(scan_every_common_frame(track_set, min_gap_m))


def track_on(frames):
    """A track on the given frames, its xVelocity -1, 0 or 1 by frame % 3, so
    that the direction of travel depends on the first common frame."""
    frame = np.array(frames, np.int64)
    columns = {f.name: np.zeros(len(frame), TRACKS_DTYPE[f.name]) for f in fields(Track)}
    return Track(**{**columns, "frame": frame, "x_vel": (frame % 3 - 1).astype(np.float64)})


@st.composite
def frame_pairs(draw):
    """The frames of two tracks near a shared anchor, 0 or an end of int64
    (now and then each track has its own): each track either consecutive
    frames or a drawn set, up to 10 frames, so the pair may be disjoint,
    touch at one frame, overlap, nest, have holes or be empty."""
    anchor = draw(st.sampled_from((0, ingest.INT64_MIN, ingest.INT64_MAX)))
    pair = []
    for _ in range(2):
        base = draw(st.sampled_from((anchor,) * 4 + (ingest.INT64_MIN, ingest.INT64_MAX)))
        if draw(st.booleans()):
            start = draw(st.integers(-12, 12))
            offsets = range(start, start + draw(st.integers(0, 10)))
        else:
            offsets = sorted(draw(st.sets(st.integers(-12, 12), max_size=10)))
        pair.append([base + k for k in offsets if ingest.INT64_MIN <= base + k <= ingest.INT64_MAX])
    return pair


@settings(max_examples=500, deadline=None)
@given(frame_pairs())
@example([list(range(0, 6)), list(range(3, 10))])  # overlapping
@example([list(range(0, 5)), list(range(4, 9))])  # touching at one frame
@example([list(range(0, 3)), list(range(3, 6))])  # adjacent, disjoint
@example([list(range(0, 10)), list(range(3, 6))])  # nested
@example([[0, 1, 3, 4], list(range(0, 6))])  # a hole
@example([[], list(range(0, 3))])
@example([[], []])
@example([list(range(ingest.INT64_MAX - 3, ingest.INT64_MAX + 1))] * 2)
@example([list(range(ingest.INT64_MIN, ingest.INT64_MIN + 3)), list(range(ingest.INT64_MAX - 2, ingest.INT64_MAX + 1))])
def test_align_pair_equals_intersect1d(pair):
    ego, cut = map(track_on, pair)
    frames, e_rows, c_rows, sign = ingest._align_pair(ego, cut)
    want = np.intersect1d(ego.frame, cut.frame, assume_unique=True, return_indices=True)
    for got, expected in zip((frames, e_rows, c_rows), want):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    assert sign == (-1.0 if len(want[1]) and ego.x_vel[want[1][0]] < 0.0 else 1.0)


@pytest.mark.parametrize("rows", (
    [],
    [(0, 12.5, 0.5, math.inf, 0.0), (1, -0.5, math.nan, math.nan, math.nan)],  # the overlap sentinels
    [(-3, -0.0, math.inf, -math.inf, -0.0), (2**62, 1e-300, 1.234567891, 3e21, 1 / 3)],
), ids=("no-rows", "sentinels", "signed-zero-and-infinities"))
def test_features_file_is_the_header_and_one_formatted_line_per_row(tmp_path, rows):
    path = tmp_path / "features.csv"
    path.write_text("an older and longer file\n" * 20)
    write_features_csv(path, rows)
    header = ",".join(ingest.FEATURES_HEADER) + "\n"
    assert path.read_bytes() == (header + "".join(ingest.FEATURES_ROW % row for row in rows)).encode()


def test_tracks_keep_the_order_of_first_appearance_and_the_first_bad_one_is_named(tmp_path):
    path = tmp_path / "order.csv"
    rows = [(0, 5), (0, 3), (0, 4), (1, 3), (1, 5), (2, 4)]
    path.write_text(HEADER + "".join(f"{f},{t},0.0,0.0,5.0,2.0,20.0,0.0,0\n" for f, t in rows))
    ts = read_tracks_csv(path, FPS)
    assert list(ts.tracks) == [5, 3, 4]
    # tracks compare by value: 5 and 3 hold the same rows, 4 other frames
    assert ts == read_tracks_csv(path, FPS)
    assert ts.tracks[5] == ts.tracks[3] and ts.tracks[5] != ts.tracks[4]
    assert [ts.tracks[t].frame.tolist() for t in (5, 3, 4)] == [[0, 1], [0, 1], [0, 2]]
    # tracks 3 and 5 both repeat a frame; 5 comes first in the file, 3 first by id
    path.write_text(HEADER + "".join(f"{f},{t},0.0,0.0,5.0,2.0,20.0,0.0,0\n" for f, t in rows + [(1, 3), (1, 5)]))
    for columnar in (True, False):
        with pytest.raises(SchemaError, match="^track 5: frames not strictly increasing$"):
            read(path, columnar)


def test_an_integer_beyond_int64_is_malformed(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(HEADER + "0,1,0.0,0.0,5.0,2.0,20.0,0.0,0\n" + "1,1,0.0,0.0,5.0,2.0,20.0,0.0,9223372036854775808\n")
    with pytest.raises(ParseError, match="^line 3: frame, id or laneId outside the int64 range$"):
        read_tracks_csv(path, FPS)
    # the bounds themselves read, in one parse and row by row
    path.write_text(HEADER + "-9223372036854775808,9223372036854775807,0.0,0.0,5.0,2.0,20.0,0.0,-9223372036854775808\n")
    for columnar in (True, False):
        track = read(path, columnar).tracks[2**63 - 1]
        assert (track.frame.tolist(), track.lane.tolist()) == ([-(2**63)], [-(2**63)])


def test_no_numpy_scalar_leaks_out_of_extraction_or_features(tmp_path):
    from test_golden_ingest import FPS as GOLDEN_FPS
    from test_golden_ingest import SEEDS, synthetic_rows

    for seed in SEEDS:
        path = tmp_path / f"tracks_{seed}.csv"
        write_tracks_csv(path, synthetic_rows(seed))
        ts = read_tracks_csv(path, GOLDEN_FPS)
        events = extract_cut_in_events(ts)
        assert events
        for event in events:
            assert "np." not in repr(event)
            rows, flagged = export_features(event, ts)
            # np.float64 is a float subclass: only the exact types pass
            assert all(type(v) in (int, float) for row in rows for v in row)
            assert all(type(f) is int for f in flagged)


def outcome(path):
    """What read_tracks_csv gives: ("tracks", [(id, column dtypes and bytes)])
    or ("error", type, text, line_no), with the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ts = read_tracks_csv(path, FPS)
            result = ("tracks", [
                (track_id, [(c.dtype.str, c.tobytes()) for c in (
                    t.frame, t.x, t.y, t.width, t.length, t.x_vel, t.y_vel, t.lane)])
                for track_id, t in ts.tracks.items()
            ])
        except CutinSimError as exc:
            result = ("error", type(exc), str(exc), getattr(exc, "line_no", None))
    return result, [(w.category, str(w.message)) for w in caught]


VALID_X = ("0.0", "1.5", "-2.25", "1e308", "0.1", "-0", "7")
ODD_FIELDS = (
    "1_000", " 7", "+5", "7 ", "007", "1e3", "0.5", '"7"', '"1.5"', "",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "99999999999999999999",
    "nan", "-inf", "inf", "1e999", "0", "-0.0", "-1", "-2.5",
)
# the rows of MALFORMED_ROWS as track 8, so that their frames never clash with a valid row's
ODD_LINES = tuple(",".join(f if i != 1 else "8" for i, f in enumerate(row.split(","))) for row, _ in MALFORMED_ROWS) + (
    "", "   ", "\t", "#", "# a comment", "#0,1,0.0,0.0,5.0,2.0,20.0,0.0,0",
    '"0,1",0.0,0.0,5.0,2.0,20.0,0.0,0', '0,1,"0.0",0.0,5.0,2.0,20.0,0.0,0',
)


@st.composite
def tracks_files(draw):
    """A tracks csv as text: the header and valid rows of tracks 1-3 in mostly
    increasing frames, with up to two odd lines or rows of track 9 with one odd
    field put among them, each line ending in LF, CRLF or CR; or a header-only
    or an empty file."""
    kind = draw(st.sampled_from(("rows",) * 4 + ("header-only", "empty")))
    if kind == "empty":
        return ""
    ending = st.sampled_from(("\n", "\n", "\r\n", "\r"))
    header = HEADER.rstrip("\n") + draw(ending)
    if kind == "header-only":
        return header
    frames = {1: 0, 2: 0, 3: 0}
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        track_id = draw(st.integers(1, 3))
        frames[track_id] += draw(st.sampled_from((1,) * 30 + (2, 0, -1)))
        lines.append(f"{frames[track_id]},{track_id},{draw(st.sampled_from(VALID_X))},"
                     f"0.0,5.0,2.0,20.0,0.0,{draw(st.integers(0, 2))}")
    for frame in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            line = draw(st.sampled_from(ODD_LINES))
        else:
            fields = [str(frame), "9", "1.0", "0.0", "5.0", "2.0", "20.0", "0.0", "0"]
            fields[draw(st.integers(0, 8))] = draw(st.sampled_from(ODD_FIELDS))
            line = ",".join(fields)
        lines.insert(draw(st.integers(0, len(lines))), line)
    return header + "".join(line + draw(ending) for line in lines)


@settings(max_examples=300, deadline=None)
@given(tracks_files())
# loadtxt's default comments="#" would drop the line that the row checker rejects
@example(HEADER + "0,1,0.0,0.0,5.0,2.0,20.0,0.0,0\n# a comment\n")
# loadtxt warns on a body without rows, where the row checker returns no track
@example(HEADER)
@example(HEADER + "\r\n\n")
# the screens: a non-finite value, a dimension not > 0, frames out of order
@example(HEADER + "0,1,nan,0.0,5.0,2.0,20.0,0.0,0\n")
@example(HEADER + "0,1,0.0,0.0,5.0,0.0,20.0,0.0,0\n")
@example(HEADER + "1,1,0.0,0.0,5.0,2.0,20.0,0.0,0\n0,1,0.0,0.0,5.0,2.0,20.0,0.0,0\n")
def test_the_columnar_parse_agrees_with_the_row_checker(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("differential") / "tracks.csv"  # new: truncating is slow on some disks
    path.write_bytes(text.encode())
    columnar = outcome(path)
    with mock.patch.object(ingest, "_parse_columns", lambda fh: None):
        checked = outcome(path)
    assert columnar == checked
