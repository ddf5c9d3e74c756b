"""Trajectory CSV ingest: track reader/writer, cut-in event extraction, features.

The file schema is a column subset of the public highD tracks format. Note the
highD naming quirk: the csv "width" column is the longitudinal extent (vehicle
length) and "height" the lateral extent (vehicle width).
"""

from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass

from . import metrics
from .engine import ScenarioParams
from .errors import CutinSimError, InvalidInputError, ParseError, SchemaError
from .kinematics import LANE_WIDTH_M, VehicleDims, axis_gap
from .reports import row_format, write_lines

TRACKS_HEADER = ("frame", "id", "x", "y", "width", "height", "xVelocity", "yVelocity", "laneId")
FEATURES_HEADER = ("frame", "dhw", "thw", "ttc", "ittc")
TRACKS_ROW = row_format("%d", "%d", "f", "f", "f", "f", "f", "f", "%d")
FEATURES_ROW = row_format("%d", "f", "f", "f", "f")


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
class TrackSet:
    frame_rate_hz: float
    tracks: dict[int, dict[int, TrackRow]]  # track id -> {frame: row}, frame-ordered


@dataclass(frozen=True)
class CutInEvent:
    ego_track: int
    cut_track: int
    start_frame: int
    end_frame: int  # frame of the lane transition
    params: ScenarioParams


def write_tracks_csv(path, rows) -> None:
    """Serialize track rows, floats in reports.FLOAT_FORMAT."""
    lines = (
        TRACKS_ROW % (r.frame, r.track_id, r.x_m, r.y_m, r.length_m, r.width_m,
                      r.x_vel_mps, r.y_vel_mps, r.lane_id)
        for r in rows
    )
    write_lines(path, [",".join(TRACKS_HEADER) + "\n"], lines)


def read_tracks_csv(path, frame_rate_hz: float, strict: bool = True) -> TrackSet:
    """Read a tracks csv into per-track {frame: row} dicts in frame order.

    strict mode raises on the first malformed row; lenient mode skips the row
    and emits a warning carrying its line number. A header-only file yields an
    empty track set. frame_rate_hz must be finite and > 0.
    """
    if not (math.isfinite(frame_rate_hz) and frame_rate_hz > 0.0):
        raise InvalidInputError(f"frame_rate_hz must be finite and > 0, got {frame_rate_hz!r}")
    by_track: dict[int, list[TrackRow]] = {}
    n_fields = len(TRACKS_HEADER)
    isfinite = math.isfinite
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
                if len(fields) != n_fields:
                    raise ValueError(f"expected {n_fields} fields, got {len(fields)}")
                # csv "width" is the length, "height" the width (see the module docstring)
                frame, track_id, x, y, length, width, x_vel, y_vel, lane_id = fields
                frame = int(frame)
                track_id = int(track_id)
                x = float(x)
                y = float(y)
                length = float(length)
                width = float(width)
                x_vel = float(x_vel)
                y_vel = float(y_vel)
                lane_id = int(lane_id)
                # one sum screens all six values; only a non-finite one (or an
                # overflowing sum) pays for the per-value check
                if not isfinite(x + y + length + width + x_vel + y_vel) and not all(
                    map(isfinite, (x, y, length, width, x_vel, y_vel))
                ):
                    raise ValueError("non-finite position, size or velocity")
                if width <= 0.0 or length <= 0.0:
                    raise ValueError("vehicle dimensions must be positive")
            except ValueError as exc:
                if strict:
                    raise ParseError(str(exc), line_no) from exc
                warnings.warn(f"skipping malformed row at line {line_no}: {exc}")
                continue
            row = TrackRow(frame, track_id, x, y, width, length, x_vel, y_vel, lane_id)
            by_track.setdefault(track_id, []).append(row)
    tracks: dict[int, dict[int, TrackRow]] = {}
    for track_id, rows in by_track.items():
        frames = [r.frame for r in rows]
        # checked before indexing: a dict would keep only the last row of a repeated frame
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise SchemaError(f"track {track_id}: frames not strictly increasing")
        tracks[track_id] = dict(zip(frames, rows))
    return TrackSet(frame_rate_hz=frame_rate_hz, tracks=tracks)


def trace_to_track_rows(trace, ego_dims, other_dims):
    """Convert an engine trace into two tracks (ego id 1, other id 2), one
    frame per step.

    Lane ids are derived from lateral position against lane centers at
    k * LANE_WIDTH_M. The ego holds its lane center at y = 0.
    """

    def lane_of(y: float) -> int:
        return int(round(y / LANE_WIDTH_M))

    rows = []
    for frame, (ego_x, ego_v, x, y, v, vy) in enumerate(zip(
        trace.ego_x_m, trace.ego_v_mps,
        trace.other_x_m, trace.other_y_m, trace.other_v_mps, trace.other_vy_mps,
    )):
        rows.append(
            TrackRow(
                frame=frame,
                track_id=1,
                x_m=ego_x,
                y_m=0.0,
                width_m=ego_dims.width_m,
                length_m=ego_dims.length_m,
                x_vel_mps=ego_v,
                y_vel_mps=0.0,
                lane_id=lane_of(0.0),
            )
        )
        rows.append(
            TrackRow(
                frame=frame,
                track_id=2,
                x_m=x,
                y_m=y,
                width_m=other_dims.width_m,
                length_m=other_dims.length_m,
                x_vel_mps=v,
                y_vel_mps=vy,
                lane_id=lane_of(y),
            )
        )
    return rows


def _estimate_lane_change_window(
    cut: dict[int, TrackRow], frames: list[int], dt_s: float
) -> tuple[float, float]:
    """Start time and duration of the cutter's lateral maneuver, best effort.

    The maneuver starts at the first frame more than 1e-9 from the first
    frame's y and ends at the first such frame within 1e-9 of the last
    frame's y (the last frame when there is none).
    """
    y0 = cut[frames[0]].y_m
    y_end = cut[frames[-1]].y_m
    moving = settled = None
    for f in frames:
        y = cut[f].y_m
        if abs(y - y0) > 1e-9:
            if moving is None:
                moving = f
            if abs(y - y_end) <= 1e-9:
                settled = f
                break
    if moving is None:
        return 0.0, dt_s
    start = (moving - frames[0] - 1) * dt_s
    end_frame = frames[-1] if settled is None else settled
    duration = max((end_frame - moving + 1) * dt_s, dt_s)
    return max(start, 0.0), duration


def _lane_changes(rows: dict[int, TrackRow]) -> list[int]:
    """The frames at which a track's lane id differs from its previous row's."""
    frames = list(rows)
    lanes = [r.lane_id for r in rows.values()]
    return [f for f, a, b in zip(frames[1:], lanes, lanes[1:]) if b != a]


def _travel_sign(ego: dict[int, TrackRow], frames: list[int]) -> float:
    """1.0 or -1.0: the sign of the ego's xVelocity at the first of the frames
    (1.0 when it is 0 or there are no frames)."""
    return -1.0 if frames and ego[frames[0]].x_vel_mps < 0.0 else 1.0


def extract_cut_in_events(
    track_set: TrackSet,
    min_gap_m: float = 100.0,
) -> list[CutInEvent]:
    """Find lane transitions of one track into the lane of a track behind it.

    An event is emitted at the first frame where the cut track's lane id
    becomes the ego track's lane id while it is ahead of the ego within
    min_gap_m (bumper to bumper; inf for no gate, and NaN or a negative value
    is an InvalidInputError). "Ahead" and both speeds are measured along
    the ego's direction of travel (see _travel_sign), so a pair driving in -x
    gives the event its mirror image in +x gives. Scenario parameters,
    footprints included, are reconstructed from the rows at the pair's first
    common frame, which for recorded data is the closest observable stand-in
    for the scenario start. Each track's {frame: row} dict must be in frame
    order, as TrackSet holds it: lane changes are read row after row.
    """
    if not min_gap_m >= 0.0:
        raise InvalidInputError(f"min_gap_m must be >= 0 (inf for no gate), got {min_gap_m!r}")
    dt_s = 1.0 / track_set.frame_rate_hz
    tracks = track_set.tracks
    events: list[CutInEvent] = []
    ids = sorted(tracks)
    # a track that keeps one lane id is never tried as the cutter
    changes = {i: c for i in ids if (c := _lane_changes(tracks[i]))}
    for ego_id in ids:
        ego_rows = tracks[ego_id]
        if not ego_rows:
            continue  # an empty track shares no frame
        ego_first, ego_last = next(iter(ego_rows)), next(reversed(ego_rows))
        for cut_id, cut_changes in changes.items():
            if ego_id == cut_id:
                continue
            # a lane transition at a common frame f needs a change c with
            # previous common frame < c <= f, so ego_first < c <= ego_last
            tried = [c for c in cut_changes if ego_first < c <= ego_last]
            if not tried:
                continue
            cut_rows = tracks[cut_id]
            common = sorted(ego_rows.keys() & cut_rows.keys())
            sign = _travel_sign(ego_rows, common)
            transition = None
            for c in tried:
                # the first common frame at or after the change, and the one before it
                k = bisect_left(common, c)
                if not 0 < k < len(common):
                    continue
                f = common[k]
                ego_row = ego_rows[f]
                cut_row = cut_rows[f]
                if cut_row.lane_id == cut_rows[common[k - 1]].lane_id:
                    continue  # changed back before f: an A -> B -> A flip between common frames
                if cut_row.lane_id != ego_row.lane_id:
                    continue
                if sign * cut_row.x_m <= sign * ego_row.x_m:
                    continue  # only cut-ins ahead of the ego
                if axis_gap(cut_row.x_m, ego_row.x_m, cut_row.length_m, ego_row.length_m) > min_gap_m:
                    continue
                transition = f
                break
            if transition is None:
                continue
            f0 = common[0]
            ego0 = ego_rows[f0]
            cut0 = cut_rows[f0]
            if sign * cut0.x_m <= sign * ego0.x_m:
                continue  # the cutter starts level with or behind the ego: no d_x0 > 0
            d_x0 = axis_gap(cut0.x_m, ego0.x_m, cut0.length_m, ego0.length_m)
            d_y0 = abs(cut0.y_m - ego0.y_m)
            lc_start, lc_duration = _estimate_lane_change_window(cut_rows, common, dt_s)
            duration = max((common[-1] - f0) * dt_s, lc_start + lc_duration)
            try:
                params = ScenarioParams(
                    kind="cut_in",
                    v_e0_mps=sign * ego0.x_vel_mps,
                    v_o0_mps=sign * cut0.x_vel_mps,
                    d_x0_m=d_x0,
                    d_y0_m=d_y0,
                    lc_start_s=lc_start,
                    lc_duration_s=lc_duration,
                    duration_s=duration,
                    dt_s=dt_s,
                    ego_dims=VehicleDims(ego0.width_m, ego0.length_m),
                    other_dims=VehicleDims(cut0.width_m, cut0.length_m),
                )
            except CutinSimError:
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

    Returns (rows, flagged_frames). Rows are (frame, dhw, thw, ttc, ittc),
    speeds measured along the ego's direction of travel at the pair's first
    common frame, as in extract_cut_in_events: thw = dhw / ego speed (inf at
    or below metrics.CLOSING_SPEED_FLOOR_MPS), ttc = metrics.ttc and
    ittc = 1 / ttc. On overlap frames (dhw < 0) the time-based features carry
    nan sentinels and the frame is flagged.
    """
    ego = track_set.tracks.get(event.ego_track)
    cut = track_set.tracks.get(event.cut_track)
    if ego is None or cut is None:
        raise InvalidInputError("event does not match the provided tracks")
    rows = []
    flagged = []
    frames = sorted(ego.keys() & cut.keys())
    sign = _travel_sign(ego, frames)
    for f in frames:
        e = ego[f]
        c = cut[f]
        gap = axis_gap(c.x_m, e.x_m, c.length_m, e.length_m)
        if gap < 0.0:
            rows.append((f, gap, math.nan, math.nan, math.nan))
            flagged.append(f)
            continue
        v_ego = sign * e.x_vel_mps
        ttc = metrics.ttc(gap, v_ego - sign * c.x_vel_mps)
        thw = gap / v_ego if v_ego > metrics.CLOSING_SPEED_FLOOR_MPS else math.inf
        ittc = 1.0 / ttc if ttc > 0.0 else math.inf  # 1 / inf == 0
        rows.append((f, gap, thw, ttc, ittc))
    return rows, flagged


def write_features_csv(path, rows) -> None:
    write_lines(path, [",".join(FEATURES_HEADER) + "\n"], (FEATURES_ROW % row for row in rows))
