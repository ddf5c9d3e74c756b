"""Trajectory CSV ingest: track reader/writer, cut-in event extraction, features.

The file schema is a column subset of the public highD tracks format. Note the
highD naming quirk: the csv "width" column is the longitudinal extent (vehicle
length) and "height" the lateral extent (vehicle width).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

from . import metrics
from .engine import ScenarioParams
from .errors import InvalidInputError, ParseError, SchemaError
from .kinematics import LANE_WIDTH_M, VehicleDims
from .reports import fmt_float

TRACKS_HEADER = ("frame", "id", "x", "y", "width", "height", "xVelocity", "yVelocity", "laneId")
FEATURES_HEADER = ("frame", "dhw", "thw", "ttc", "ittc")


@dataclass(frozen=True)
class TrackRow:
    frame: int
    track_id: int
    x_m: float
    y_m: float
    width_m: float  # lateral extent (csv column "height")
    length_m: float  # longitudinal extent (csv column "width")
    x_vel_mps: float
    y_vel_mps: float
    lane_id: int


@dataclass(frozen=True)
class Track:
    track_id: int
    rows: tuple[TrackRow, ...]  # frame-ordered

    def row_at(self, frame: int) -> TrackRow | None:
        first = self.rows[0].frame
        idx = frame - first
        if 0 <= idx < len(self.rows) and self.rows[idx].frame == frame:
            return self.rows[idx]
        for r in self.rows:  # non-contiguous tracks
            if r.frame == frame:
                return r
        return None


@dataclass(frozen=True)
class TrackSet:
    frame_rate_hz: float
    tracks: dict[int, Track]


@dataclass(frozen=True)
class CutInEvent:
    ego_track: int
    cut_track: int
    start_frame: int
    end_frame: int  # frame of the lane transition
    params: ScenarioParams


def write_tracks_csv(path, rows) -> None:
    """Serialize track rows; floats at 6 significant digits, inf as "inf"."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACKS_HEADER) + "\n")
        for r in rows:
            fh.write(
                f"{r.frame},{r.track_id},{fmt_float(r.x_m)},{fmt_float(r.y_m)},"
                f"{fmt_float(r.length_m)},{fmt_float(r.width_m)},"
                f"{fmt_float(r.x_vel_mps)},{fmt_float(r.y_vel_mps)},{r.lane_id}\n"
            )


def read_tracks_csv(path, frame_rate_hz: float, strict: bool = True) -> TrackSet:
    """Read a tracks csv into per-track, frame-ordered time series.

    strict mode raises on the first malformed row; lenient mode skips the row
    and emits a warning carrying its line number. A header-only file yields an
    empty track set.
    """
    by_track: dict[int, list[TrackRow]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader))
        except StopIteration:
            return TrackSet(frame_rate_hz=frame_rate_hz, tracks={})
        if header != TRACKS_HEADER:
            missing = set(TRACKS_HEADER) - set(header)
            raise SchemaError(
                f"unexpected header {header!r}; missing columns: {sorted(missing)}"
            )
        for line_no, fields in enumerate(reader, start=2):
            if not fields:
                continue
            try:
                if len(fields) != len(TRACKS_HEADER):
                    raise ValueError(f"expected {len(TRACKS_HEADER)} fields, got {len(fields)}")
                row = TrackRow(
                    frame=int(fields[0]),
                    track_id=int(fields[1]),
                    x_m=float(fields[2]),
                    y_m=float(fields[3]),
                    length_m=float(fields[4]),
                    width_m=float(fields[5]),
                    x_vel_mps=float(fields[6]),
                    y_vel_mps=float(fields[7]),
                    lane_id=int(fields[8]),
                )
                if not all(map(math.isfinite, (row.x_m, row.y_m, row.length_m, row.width_m,
                                               row.x_vel_mps, row.y_vel_mps))):
                    raise ValueError("non-finite position, size or velocity")
                if row.width_m <= 0.0 or row.length_m <= 0.0:
                    raise ValueError("vehicle dimensions must be positive")
            except ValueError as exc:
                if strict:
                    raise ParseError(str(exc), line_no) from exc
                warnings.warn(f"skipping malformed row at line {line_no}: {exc}")
                continue
            by_track.setdefault(row.track_id, []).append(row)
    tracks: dict[int, Track] = {}
    for track_id, rows in by_track.items():
        frames = [r.frame for r in rows]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise SchemaError(f"track {track_id}: frames not strictly increasing")
        tracks[track_id] = Track(track_id=track_id, rows=tuple(rows))
    return TrackSet(frame_rate_hz=frame_rate_hz, tracks=tracks)


def trace_to_track_rows(trace, ego_dims, other_dims, lane_width_m: float = LANE_WIDTH_M):
    """Convert an engine trace into two tracks (ego id 1, other id 2).

    Lane ids are derived from lateral position against lane centers at
    k * lane_width.
    """

    def lane_of(y: float) -> int:
        return int(round(y / lane_width_m))

    rows = []
    for i, s in enumerate(trace):
        rows.append(
            TrackRow(
                frame=i,
                track_id=1,
                x_m=s.ego.pos_long_m,
                y_m=s.ego.pos_lat_m,
                width_m=ego_dims.width_m,
                length_m=ego_dims.length_m,
                x_vel_mps=s.ego.vel_long_mps,
                y_vel_mps=s.ego.vel_lat_mps,
                lane_id=lane_of(s.ego.pos_lat_m),
            )
        )
        rows.append(
            TrackRow(
                frame=i,
                track_id=2,
                x_m=s.other.pos_long_m,
                y_m=s.other.pos_lat_m,
                width_m=other_dims.width_m,
                length_m=other_dims.length_m,
                x_vel_mps=s.other.vel_long_mps,
                y_vel_mps=s.other.vel_lat_mps,
                lane_id=lane_of(s.other.pos_lat_m),
            )
        )
    return rows


def _estimate_lane_change_window(
    cut: Track, frames: list[int], dt_s: float
) -> tuple[float, float]:
    """Start time and duration of the cutter's lateral maneuver, best effort."""
    y0 = cut.row_at(frames[0]).y_m
    y_end = cut.row_at(frames[-1]).y_m
    moving = [f for f in frames if abs(cut.row_at(f).y_m - y0) > 1e-9]
    if not moving:
        return 0.0, dt_s
    start = (moving[0] - frames[0] - 1) * dt_s
    settled = [f for f in moving if abs(cut.row_at(f).y_m - y_end) <= 1e-9]
    end_frame = settled[0] if settled else frames[-1]
    duration = max((end_frame - moving[0] + 1) * dt_s, dt_s)
    return max(start, 0.0), duration


def extract_cut_in_events(
    track_set: TrackSet,
    min_gap_m: float = 100.0,
) -> list[CutInEvent]:
    """Find lane transitions of one track into the lane of a track behind it.

    An event is emitted at the first frame where the cut track's lane id
    becomes the ego track's lane id while it is ahead of the ego within
    min_gap_m (bumper to bumper). Scenario parameters, footprints included, are
    reconstructed from the rows at the pair's first common frame, which for
    recorded data is the closest observable stand-in for the scenario start.
    """
    if len(track_set.tracks) < 2:
        return []
    dt_s = 1.0 / track_set.frame_rate_hz
    events: list[CutInEvent] = []
    ids = sorted(track_set.tracks)
    for ego_id in ids:
        for cut_id in ids:
            if ego_id == cut_id:
                continue
            ego = track_set.tracks[ego_id]
            cut = track_set.tracks[cut_id]
            common = sorted(set(r.frame for r in ego.rows) & set(r.frame for r in cut.rows))
            if len(common) < 2:
                continue
            transition = None
            for prev_f, f in zip(common, common[1:]):
                ego_row = ego.row_at(f)
                cut_prev = cut.row_at(prev_f)
                cut_row = cut.row_at(f)
                if cut_row.lane_id == cut_prev.lane_id:
                    continue
                if cut_row.lane_id != ego_row.lane_id:
                    continue
                if cut_row.x_m <= ego_row.x_m:
                    continue  # only cut-ins ahead of the ego
                gap = (cut_row.x_m - ego_row.x_m) - (cut_row.length_m + ego_row.length_m) / 2.0
                if gap > min_gap_m:
                    continue
                transition = f
                break
            if transition is None:
                continue
            f0 = common[0]
            ego0 = ego.row_at(f0)
            cut0 = cut.row_at(f0)
            d_x0 = (cut0.x_m - ego0.x_m) - (cut0.length_m + ego0.length_m) / 2.0
            d_y0 = abs(cut0.y_m - ego0.y_m)
            lc_start, lc_duration = _estimate_lane_change_window(cut, common, dt_s)
            duration = max((common[-1] - f0) * dt_s, lc_start + lc_duration)
            try:
                params = ScenarioParams(
                    kind="cut_in",
                    v_e0_mps=ego0.x_vel_mps,
                    v_o0_mps=cut0.x_vel_mps,
                    d_x0_m=d_x0,
                    d_y0_m=d_y0,
                    lc_start_s=lc_start,
                    lc_duration_s=lc_duration,
                    duration_s=duration,
                    dt_s=dt_s,
                    ego_dims=VehicleDims(ego0.width_m, ego0.length_m),
                    other_dims=VehicleDims(cut0.width_m, cut0.length_m),
                )
            except Exception:
                continue  # degenerate geometry, not a usable event
            events.append(
                CutInEvent(
                    ego_track=ego_id,
                    cut_track=cut_id,
                    start_frame=f0,
                    end_frame=transition,
                    params=params,
                )
            )
    events.sort(key=lambda e: (e.end_frame, e.ego_track, e.cut_track))
    return events


def export_features(event: CutInEvent, track_set: TrackSet):
    """Per-frame surrogate features for the event's vehicle pair.

    Returns (rows, flagged_frames). Rows are (frame, dhw, thw, ttc, ittc); on
    overlap frames the time-based features carry nan sentinels and the frame is
    flagged.
    """
    ego = track_set.tracks.get(event.ego_track)
    cut = track_set.tracks.get(event.cut_track)
    if ego is None or cut is None:
        raise InvalidInputError("event does not match the provided tracks")
    common = sorted(set(r.frame for r in ego.rows) & set(r.frame for r in cut.rows))
    rows = []
    flagged = []
    for f in common:
        e = ego.row_at(f)
        c = cut.row_at(f)
        gap = abs(c.x_m - e.x_m) - (c.length_m + e.length_m) / 2.0
        if gap < 0.0:
            rows.append((f, gap, math.nan, math.nan, math.nan))
            flagged.append(f)
            continue
        feats = metrics.compute_features(gap, e.x_vel_mps, e.x_vel_mps - c.x_vel_mps)
        rows.append((f, feats.dhw_m, feats.thw_s, feats.ttc_s, feats.ittc_per_s))
    return rows, flagged


def write_features_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(FEATURES_HEADER) + "\n")
        for frame, dhw, thw, ttc, ittc in rows:
            fh.write(
                f"{frame},{fmt_float(dhw)},{fmt_float(thw)},{fmt_float(ttc)},{fmt_float(ittc)}\n"
            )
