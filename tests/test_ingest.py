import math

import pytest

from cutinsim.engine import ScenarioParams, run_closed_loop
from cutinsim.errors import ParseError, SchemaError
from cutinsim.ingest import (
    TRACKS_HEADER,
    TrackRow,
    extract_cut_in_events,
    export_features,
    read_tracks_csv,
    trace_to_track_rows,
    write_features_csv,
    write_tracks_csv,
)
from cutinsim.kinematics import VehicleDims

DIMS = VehicleDims(width_m=2.0, length_m=5.0)
FPS = 25.0


def make_fixture(tmp_path, v_e0=25.0, v_o0=20.0, d_x0=30.0, d_y0=3.75,
                 lc_start=1.0, lc_dur=2.0, duration=8.0, name="tracks.csv"):
    p = ScenarioParams(
        kind="cut_in", v_e0_mps=v_e0, v_o0_mps=v_o0, d_x0_m=d_x0, d_y0_m=d_y0,
        lc_start_s=lc_start, lc_duration_s=lc_dur, duration_s=duration, dt_s=1.0 / FPS,
    )
    result = run_closed_loop(p, "none")
    rows = trace_to_track_rows(result.trace, DIMS, DIMS)
    path = tmp_path / name
    write_tracks_csv(path, rows)
    return p, rows, path


def test_header_only_file_reads_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(TRACKS_HEADER) + "\n")
    ts = read_tracks_csv(path, FPS)
    assert ts.tracks == {}


def test_round_trip_preserves_values_at_serialized_precision(tmp_path):
    _, rows, path = make_fixture(tmp_path)
    ts = read_tracks_csv(path, FPS)
    assert set(ts.tracks) == {1, 2}
    read_back = [r for tid in (1, 2) for r in ts.tracks[tid].rows]
    by_key = {(r.track_id, r.frame): r for r in read_back}
    for orig in rows:
        got = by_key[(orig.track_id, orig.frame)]
        for field in ("x_m", "y_m", "width_m", "length_m", "x_vel_mps", "y_vel_mps"):
            assert getattr(got, field) == float(f"{getattr(orig, field):.6g}")
        assert got.lane_id == orig.lane_id
    # write -> read -> write is byte-stable
    second = tmp_path / "second.csv"
    write_tracks_csv(second, read_back)
    third = tmp_path / "third.csv"
    write_tracks_csv(third, [r for tid in (1, 2) for r in read_tracks_csv(second, FPS).tracks[tid].rows])
    assert second.read_bytes() == third.read_bytes()


def test_missing_column_is_a_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame,id,x,y,width,xVelocity,yVelocity,laneId\n")
    with pytest.raises(SchemaError, match="height"):
        read_tracks_csv(path, FPS)


def test_malformed_row_strict_and_lenient(tmp_path):
    path = tmp_path / "rows.csv"
    for bad_row in (
        "1,1,not_a_number,0.0,5.0,2.0,20.0,0.0,0",
        "1,1,nan,0.0,5.0,2.0,20.0,0.0,0",
        "1,1,1.0,0.0,5.0,nan,20.0,0.0,0",
        "1,1,1.0,0.0,5.0,2.0,inf,0.0,0",
        "1,1,1.0,-inf,5.0,2.0,20.0,0.0,0",
    ):
        path.write_text(
            ",".join(TRACKS_HEADER) + "\n"
            "0,1,0.0,0.0,5.0,2.0,20.0,0.0,0\n"
            + bad_row + "\n"
            "2,1,2.0,0.0,5.0,2.0,20.0,0.0,0\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            read_tracks_csv(path, FPS, strict=True)
        with pytest.warns(UserWarning, match="line 3"):
            ts = read_tracks_csv(path, FPS, strict=False)
        assert [r.frame for r in ts.tracks[1].rows] == [0, 2]


def test_no_events_when_lanes_never_merge(tmp_path):
    rows = []
    for f in range(50):
        rows.append(TrackRow(f, 1, 20.0 * 0.04 * f, 0.0, 2.0, 5.0, 20.0, 0.0, 0))
        rows.append(TrackRow(f, 2, 30.0 + 20.0 * 0.04 * f, 3.75, 2.0, 5.0, 20.0, 0.0, 1))
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
    from cutinsim.metrics import compute_features

    p, _, path = make_fixture(tmp_path, v_e0=25.0, v_o0=20.0, d_x0=30.0)
    ts = read_tracks_csv(path, FPS)
    ev = extract_cut_in_events(ts)[0]
    rows, flagged = export_features(ev, ts)
    ego, cut = ts.tracks[1], ts.tracks[2]
    for frame, dhw, thw, ttc, ittc in rows:
        e, c = ego.row_at(frame), cut.row_at(frame)
        gap = abs(c.x_m - e.x_m) - (c.length_m + e.length_m) / 2.0
        if gap < 0:
            assert frame in flagged and math.isnan(ttc)
            continue
        f = compute_features(gap, e.x_vel_mps, e.x_vel_mps - c.x_vel_mps)
        assert dhw == f.dhw_m and thw == f.thw_s and ttc == f.ttc_s and ittc == f.ittc_per_s


def test_features_flag_overlap_frames(tmp_path):
    rows = []
    for f in range(10):
        x_e = 10.0 * 0.04 * f  # slower units irrelevant; overlap by construction
        rows.append(TrackRow(f, 1, x_e, 0.0, 2.0, 5.0, 10.0, 0.0, 0))
        rows.append(TrackRow(f, 2, x_e + (3.0 if f >= 5 else 20.0), 0.0, 2.0, 5.0, 10.0, 0.0, 0))
    path = tmp_path / "overlap.csv"
    write_tracks_csv(path, rows)
    ts = read_tracks_csv(path, FPS)
    from cutinsim.ingest import CutInEvent

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
    assert replay.trace[0].gap_long_m == pytest.approx(source.trace[0].gap_long_m, abs=1e-6)
    assert replay.trace[0].gap_lat_m == pytest.approx(source.trace[0].gap_lat_m, abs=1e-6)
