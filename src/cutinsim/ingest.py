"""Trajectory CSV ingest: track reader/writer, cut-in event extraction, features.

The file schema is a column subset of the public highD tracks format. Note the
highD naming quirk: the csv "width" column is the longitudinal extent (vehicle
length) and "height" the lateral extent (vehicle width).

One tracks csv row has one layout here: a TRACKS_DTYPE record, or a tuple
in TRACKS_HEADER order. tracks_from_rows groups such rows into a TrackSet's
tracks, each a Track: one vehicle's rows as numpy columns in strictly
increasing frame order. read_tracks_csv parses a file's body with one
numpy.loadtxt call and screens the parsed columns once; only a file that
fails the parse or a screen is read again row by row, by the row checker,
which raises ParseError with the line number of the first malformed row.
Both give their rows to tracks_from_rows. write_tracks_csv writes such tuples, and
trace_to_track_rows makes them from an engine trace. Extraction and features
work on the columns, and every value they return is a Python int or float.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import metrics
from .engine import ScenarioParams
from .errors import CutinSimError, InvalidInputError, ParseError, SchemaError
from .kinematics import ARRAYS, LANE_WIDTH_M, VehicleDims, axis_gap
from .reports import row_format, write_lines

TRACKS_HEADER = ("frame", "id", "x", "y", "width", "height", "xVelocity", "yVelocity", "laneId")
FEATURES_HEADER = ("frame", "dhw", "thw", "ttc", "ittc")
TRACKS_ROW = row_format("%d", "%d", "f", "f", "f", "f", "f", "f", "%d")
FEATURES_ROW = row_format("%d", "f", "f", "f", "f")
# one record per tracks csv row, fields in TRACKS_HEADER order, named as in
# Track (csv "width" is the length, "height" the width)
TRACKS_DTYPE = np.dtype([
    ("frame", np.int64), ("id", np.int64), ("x", np.float64), ("y", np.float64),
    ("length", np.float64), ("width", np.float64), ("x_vel", np.float64),
    ("y_vel", np.float64), ("lane", np.int64),
])
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True, eq=False)
class Track:
    """One vehicle's rows as columns of equal length, in strictly increasing
    frame order: frame and lane are int64, the rest float64."""

    frame: np.ndarray
    x: np.ndarray
    y: np.ndarray
    width: np.ndarray  # lateral extent (csv column "height")
    length: np.ndarray  # longitudinal extent (csv column "width")
    x_vel: np.ndarray
    y_vel: np.ndarray
    lane: np.ndarray

    def __len__(self) -> int:
        return len(self.frame)

    def __eq__(self, other) -> bool:
        """Equal columns, entry by entry, so that TrackSets compare by value."""
        if not isinstance(other, Track):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(Track))

    __hash__ = None  # the columns are mutable arrays


@dataclass(frozen=True)
class TrackSet:
    frame_rate_hz: float
    tracks: dict[int, Track]  # track id -> Track, in order of first appearance


@dataclass(frozen=True)
class CutInEvent:
    ego_track: int
    cut_track: int
    start_frame: int
    end_frame: int  # frame of the lane transition
    params: ScenarioParams


def write_tracks_csv(path, rows) -> None:
    """Serialize rows, tuples in TRACKS_HEADER order, floats in
    reports.FLOAT_FORMAT."""
    write_lines(path, [",".join(TRACKS_HEADER) + "\n"], (TRACKS_ROW % row for row in rows))


def read_tracks_csv(path, frame_rate_hz: float) -> TrackSet:
    """Read a tracks csv into one Track per track id, in order of first
    appearance.

    The body is parsed in one numpy.loadtxt call. When that parse fails or a
    screen rejects its columns, the row checker reads the file again and
    raises ParseError on the first malformed row. A track whose frames do not
    strictly increase is a SchemaError. A header-only file yields an empty
    track set. frame_rate_hz must be finite and > 0.
    """
    if not (math.isfinite(frame_rate_hz) and frame_rate_hz > 0.0):
        raise InvalidInputError(f"frame_rate_hz must be finite and > 0, got {frame_rate_hz!r}")
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
        rows = _parse_columns(fh)
        if rows is None:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            rows = _check_rows(reader)
    return TrackSet(frame_rate_hz=frame_rate_hz, tracks=tracks_from_rows(rows))


def tracks_from_rows(rows) -> dict[int, Track]:
    """The tracks of rows, a TRACKS_DTYPE array or tuples in TRACKS_HEADER
    order: one Track per id, in order of first appearance, each holding its
    rows in their given order. A track whose frames do not strictly increase
    is a SchemaError naming the first such track in rows."""
    rows = np.asarray(rows, TRACKS_DTYPE)
    if len(rows) == 0:
        return {}
    order = np.argsort(rows["id"], kind="stable")
    ids = rows["id"][order]
    columns = {f.name: rows[f.name][order] for f in fields(Track)}
    frame = columns["frame"]
    new_track = ids[1:] != ids[:-1]
    # extraction's alignment of a pair's common frames and its searchsorted rely on it
    out_of_order = ~new_track & (frame[1:] <= frame[:-1])
    if out_of_order.any():
        first_bad = np.isin(rows["id"], ids[1:][out_of_order]).argmax()
        raise SchemaError(f"track {rows['id'][first_bad]}: frames not strictly increasing")
    starts = np.flatnonzero(np.concatenate(([True], new_track)))
    bounds = starts.tolist() + [len(ids)]
    tracks = {}
    # order[start] indexes a track's first row in rows: the tracks in order of first appearance
    for g in np.argsort(order[starts]).tolist():
        lo, hi = bounds[g], bounds[g + 1]
        tracks[ids[lo].item()] = Track(**{name: c[lo:hi] for name, c in columns.items()})
    return tracks


def _parse_columns(fh) -> np.ndarray | None:
    """The rows of the rest of fh from one loadtxt parse, a TRACKS_DTYPE
    array, or None when the parse fails or a screen rejects it: a non-finite
    float or a dimension not > 0.

    loadtxt accepts a subset of what int() and float() accept, with the same
    values. comments=None keeps a "#" line a malformed row, and warnings are
    errors here because loadtxt warns, instead of raising, on a body without
    a row.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(fh, delimiter=",", dtype=TRACKS_DTYPE, comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    ok = (rows["length"] > 0.0) & (rows["width"] > 0.0)
    for name in ("x", "y", "length", "width", "x_vel", "y_vel"):
        ok &= np.isfinite(rows[name])
    return rows if ok.all() else None


# int() or float() for each field of a tracks csv row
_CONVERTERS = tuple(int if TRACKS_DTYPE[name].kind == "i" else float for name in TRACKS_DTYPE.names)


def _check_rows(reader) -> np.ndarray:
    """The csv rows after the header, a TRACKS_DTYPE array; a ParseError
    with the line number of the first row that fails the row checks."""
    rows = []
    n_fields = len(TRACKS_HEADER)
    for line_no, fields in enumerate(reader, start=2):
        if not fields:
            continue
        try:
            if len(fields) != n_fields:
                raise ValueError(f"expected {n_fields} fields, got {len(fields)}")
            row = tuple(convert(field) for convert, field in zip(_CONVERTERS, fields))
            # csv "width" is the length, "height" the width (see the module docstring)
            frame, track_id, x, y, length, width, x_vel, y_vel, lane_id = row
            if not all(INT64_MIN <= v <= INT64_MAX for v in (frame, track_id, lane_id)):
                raise ValueError("frame, id or laneId outside the int64 range")
            if not all(map(math.isfinite, (x, y, length, width, x_vel, y_vel))):
                raise ValueError("non-finite position, size or velocity")
            if width <= 0.0 or length <= 0.0:
                raise ValueError("vehicle dimensions must be positive")
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
        rows.append(row)
    return np.array(rows, TRACKS_DTYPE)


def trace_to_track_rows(trace, ego_dims, other_dims):
    """Convert an engine trace into the rows of two tracks (ego id 1, other
    id 2), one frame per step: tuples in TRACKS_HEADER order, for
    write_tracks_csv or tracks_from_rows.

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
        rows.append((frame, 1, ego_x, 0.0, ego_dims.length_m, ego_dims.width_m, ego_v, 0.0, lane_of(0.0)))
        rows.append((frame, 2, x, y, other_dims.length_m, other_dims.width_m, v, vy, lane_of(y)))
    return rows


def _estimate_lane_change_window(frames: np.ndarray, y: np.ndarray, dt_s: float) -> tuple[float, float]:
    """Start time and duration of the cutter's lateral maneuver, best effort,
    from its y at the given frames.

    The maneuver starts at the first frame more than 1e-9 from the first
    frame's y and ends at the first such frame within 1e-9 of the last
    frame's y (the last frame when there is none).
    """
    away = np.abs(y - y[0]) > 1e-9
    if not away.any():
        return 0.0, dt_s
    moving = int(frames[away.argmax()])
    settled = away & (np.abs(y - y[-1]) <= 1e-9)
    end_frame = int(frames[settled.argmax()] if settled.any() else frames[-1])
    start = (moving - int(frames[0]) - 1) * dt_s
    duration = max((end_frame - moving + 1) * dt_s, dt_s)
    return max(start, 0.0), duration


def _frame_span(frame: np.ndarray) -> tuple[int, int] | None:
    """(first, last) of a track's frames when they are consecutive, with no
    hole; None for a track with a hole or no frame. Python ints, so that
    frames at the ends of int64 cannot overflow."""
    if len(frame):
        first, last = frame[0].item(), frame[-1].item()
        if last - first + 1 == len(frame):
            return first, last
    return None


def _align_pair(ego: Track, cut: Track):
    """(frames, e_rows, c_rows, sign): the frames both tracks hold, in order,
    the row index of each in ego and in cut, and the ego's direction of
    travel, 1.0 or -1.0: the sign of its xVelocity at the first common frame
    (1.0 when it is 0 or there is no common frame).

    When both tracks' frames are consecutive (every highD track's are), the
    common frames are the overlap of the two frame ranges and each track's
    rows are that range offset by its first frame; otherwise they come from
    np.intersect1d. Both give the same values and dtypes."""
    e_span, c_span = _frame_span(ego.frame), _frame_span(cut.frame)
    if e_span and c_span:
        first = max(e_span[0], c_span[0])
        n = max(min(e_span[1], c_span[1]) - first + 1, 0)
        # with no overlap, first may lie up to 2**64 frames past a track's start
        e0, c0 = (first - e_span[0], first - c_span[0]) if n else (0, 0)
        frames = ego.frame[e0:e0 + n]
        e_rows, c_rows = np.arange(e0, e0 + n, dtype=np.intp), np.arange(c0, c0 + n, dtype=np.intp)
    else:
        frames, e_rows, c_rows = np.intersect1d(ego.frame, cut.frame, assume_unique=True, return_indices=True)
    sign = -1.0 if len(e_rows) and ego.x_vel[e_rows[0]] < 0.0 else 1.0
    return frames, e_rows, c_rows, sign


def extract_cut_in_events(
    track_set: TrackSet,
    min_gap_m: float = 100.0,
) -> list[CutInEvent]:
    """Find lane transitions of one track into the lane of a track behind it.

    An event is emitted at the first frame where the cut track's lane id
    becomes the ego track's lane id while it is ahead of the ego within
    min_gap_m (bumper to bumper; inf for no gate, and NaN or a negative value
    is an InvalidInputError). "Ahead" and both speeds are measured along
    the ego's direction of travel (see _align_pair), so a pair driving in -x
    gives the event its mirror image in +x gives. Scenario parameters,
    footprints included, are reconstructed from the rows at the pair's first
    common frame, which for recorded data is the closest observable stand-in
    for the scenario start.
    """
    if not min_gap_m >= 0.0:
        raise InvalidInputError(f"min_gap_m must be >= 0 (inf for no gate), got {min_gap_m!r}")
    dt_s = 1.0 / track_set.frame_rate_hz
    tracks = track_set.tracks
    events: list[CutInEvent] = []
    ids = sorted(tracks)
    # the frames at which a track's lane id differs from its previous row's;
    # a track that keeps one lane id is never tried as the cutter
    changes = {}
    for i in ids:
        track = tracks[i]
        if c := track.frame[1:][track.lane[1:] != track.lane[:-1]].tolist():
            changes[i] = c
    for ego_id in ids:
        ego = tracks[ego_id]
        if not len(ego):
            continue  # an empty track shares no frame
        ego_first, ego_last = ego.frame[0].item(), ego.frame[-1].item()
        for cut_id, cut_changes in changes.items():
            if ego_id == cut_id:
                continue
            # a lane transition at a common frame f needs a change c with
            # previous common frame < c <= f, so ego_first < c <= ego_last
            tried = [c for c in cut_changes if ego_first < c <= ego_last]
            if not tried:
                continue
            cut = tracks[cut_id]
            common, e_rows, c_rows, sign = _align_pair(ego, cut)
            transition = None
            # the first common frame at or after each change, and the one before it
            for k in np.searchsorted(common, tried).tolist():
                if not 0 < k < len(common):
                    continue
                e, c = e_rows[k], c_rows[k]
                if cut.lane[c] == cut.lane[c_rows[k - 1]]:
                    continue  # changed back since: an A -> B -> A flip between common frames
                if cut.lane[c] != ego.lane[e]:
                    continue
                if sign * cut.x[c] <= sign * ego.x[e]:
                    continue  # only cut-ins ahead of the ego
                if axis_gap(cut.x[c], ego.x[e], cut.length[c], ego.length[e]) > min_gap_m:
                    continue
                transition = common[k].item()
                break
            if transition is None:
                continue
            e, c = e_rows[0], c_rows[0]
            ego_x, ego_length, cut_x, cut_length = (
                ego.x[e].item(), ego.length[e].item(), cut.x[c].item(), cut.length[c].item()
            )
            if sign * cut_x <= sign * ego_x:
                continue  # the cutter starts level with or behind the ego: no d_x0 > 0
            f0 = common[0].item()
            lc_start, lc_duration = _estimate_lane_change_window(common, cut.y[c_rows], dt_s)
            duration = max((common[-1].item() - f0) * dt_s, lc_start + lc_duration)
            try:
                params = ScenarioParams(
                    kind="cut_in",
                    v_e0_mps=sign * ego.x_vel[e].item(),
                    v_o0_mps=sign * cut.x_vel[c].item(),
                    d_x0_m=axis_gap(cut_x, ego_x, cut_length, ego_length),
                    d_y0_m=abs(cut.y[c].item() - ego.y[e].item()),
                    lc_start_s=lc_start,
                    lc_duration_s=lc_duration,
                    duration_s=duration,
                    dt_s=dt_s,
                    ego_dims=VehicleDims(ego.width[e].item(), ego_length),
                    other_dims=VehicleDims(cut.width[c].item(), cut_length),
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

    Returns (rows, flagged_frames), of Python ints and floats. Rows are
    (frame, dhw, thw, ttc, ittc), speeds measured along the ego's direction of
    travel at the pair's first common frame, as in extract_cut_in_events:
    thw = dhw / ego speed (inf at or below metrics.CLOSING_SPEED_FLOOR_MPS),
    ttc = metrics.ttc and ittc = 1 / ttc. On overlap frames (dhw < 0) the
    time-based features carry nan sentinels and the frame is flagged.
    """
    ego = track_set.tracks.get(event.ego_track)
    cut = track_set.tracks.get(event.cut_track)
    if ego is None or cut is None:
        raise InvalidInputError("event does not match the provided tracks")
    frames, e, c, sign = _align_pair(ego, cut)
    gap = axis_gap(cut.x[c], ego.x[e], cut.length[c], ego.length[e])
    v_ego = sign * ego.x_vel[e]
    xp = ARRAYS
    with np.errstate(all="ignore"):
        ttc = metrics.ttc_xp(xp, gap, v_ego - sign * cut.x_vel[c])
        moving = v_ego > metrics.CLOSING_SPEED_FLOOR_MPS
        thw = xp.where(moving, gap / xp.where(moving, v_ego, 1.0), math.inf)
        closing = ttc > 0.0
        ittc = xp.where(closing, 1.0 / xp.where(closing, ttc, 1.0), math.inf)  # 1 / inf == 0
    rows = list(zip(frames.tolist(), gap.tolist(), thw.tolist(), ttc.tolist(), ittc.tolist()))
    overlap = np.flatnonzero(gap < 0.0).tolist()
    for i in overlap:
        # the one math.nan object, so that rows with equal features compare equal
        rows[i] = (*rows[i][:2], math.nan, math.nan, math.nan)
    return rows, [rows[i][0] for i in overlap]


def write_features_csv(path, rows) -> None:
    """Write rows, (frame, dhw, thw, ttc, ittc) tuples, under FEATURES_HEADER,
    floats in reports.FLOAT_FORMAT. The body is formatted in one join and
    goes to write_lines as one string, not as one string per row."""
    write_lines(path, [",".join(FEATURES_HEADER) + "\n", "".join(map(FEATURES_ROW.__mod__, rows))])
