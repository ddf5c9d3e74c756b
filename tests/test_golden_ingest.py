"""Regression oracle for trajectory ingest.

A plain-Python generator (no engine) writes a seeded two-carriageway
recording for each seed in SEEDS: in each travel direction, two vehicles cut
into the lane of the vehicles behind them, one of them with a hole in its
frames during the lane change, the other slow enough that a follower runs
into it (overlap frames) before braking to a standstill; a third vehicle
keeps its lane. The recording is written with write_tracks_csv, read back,
and every extracted event is exported to a features csv. The sha256 digests
of the tracks csv, of repr(event) for every event and of every features
csv's bytes are committed in tests/golden/ingest.json. A change that means
to alter them regenerates that file with

    PYTHONPATH=src python tests/test_golden_ingest.py

and says in its description why the outputs changed.
"""

import hashlib
import json
import os
import random
import tempfile

from cutinsim.ingest import (
    export_features,
    extract_cut_in_events,
    read_tracks_csv,
    write_features_csv,
    write_tracks_csv,
)

HERE = os.path.dirname(__file__)
INGEST_GOLDEN = os.path.join(HERE, "golden", "ingest.json")
SEEDS = (0, 1, 2)
FPS = 25.0
N_FRAMES = 240
LANE_WIDTH_M = 3.75


def _track(track_id, sign, dims, x0, v0, lanes, frames, brake=None, lane_change=None, hole=()):
    """Rows of one vehicle driving in sign * x.

    lanes is (lane id, lane id after the lane change); brake is (first frame,
    deceleration), after which the speed falls to a standstill; lane_change
    is (first frame, frames it takes), a smoothstep in y.
    """
    length, width = dims
    (lane, target), y_of = lanes
    rows = []
    x, v = x0, v0
    for f in frames:
        if f > frames[0]:
            a = -brake[1] if brake and f > brake[0] else 0.0
            v_next = max(v + a / FPS, 0.0)
            x += sign * (v + v_next) / (2.0 * FPS)
            v = v_next
        u = 0.0
        if lane_change:
            u = min(max((f - lane_change[0]) / lane_change[1], 0.0), 1.0)
        s = u * u * (3.0 - 2.0 * u)
        y = y_of[lane] + (y_of[target] - y_of[lane]) * s
        vy = 0.0
        if lane_change and 0.0 < u < 1.0:
            vy = (y_of[target] - y_of[lane]) * 6.0 * u * (1.0 - u) * FPS / lane_change[1]
        if f in hole:
            continue
        rows.append((f, track_id, x, y, length, width, sign * v, vy,
                     target if s >= 0.5 else lane))
    return rows


def synthetic_rows(seed):
    """Track rows of one seeded recording, tracks 1-5 in +x and 11-15 in -x."""
    rng = random.Random(f"ingest-golden:{seed}")
    rows = []
    for sign, base, (ego_lane, side_lane) in ((1.0, 0, (2, 1)), (-1.0, 10, (5, 6))):
        y_of = {ego_lane: ego_lane * LANE_WIDTH_M, side_lane: side_lane * LANE_WIDTH_M}
        start = 0.0 if sign > 0 else 1000.0
        frames = range(N_FRAMES)

        def car():
            return (rng.uniform(4.2, 5.0), rng.uniform(1.8, 2.0))

        # a follower, and a cutter ahead of it whose track has a hole mid-maneuver
        lc_first, lc_frames = rng.randint(30, 50), rng.randint(40, 60)
        hole_first = lc_first + rng.randint(5, lc_frames - 10)
        rows += _track(base + 1, sign, car(), start, rng.uniform(24.0, 28.0),
                       ((ego_lane, ego_lane), y_of), frames)
        rows += _track(base + 2, sign, car(), start + sign * rng.uniform(25.0, 40.0),
                       rng.uniform(18.0, 22.0), ((side_lane, ego_lane), y_of), frames,
                       lane_change=(lc_first, lc_frames),
                       hole=range(hole_first, hole_first + rng.randint(3, 6)))
        # a second follower that runs into a slow cutter, then brakes to a standstill
        ahead = start + sign * rng.uniform(140.0, 160.0)
        rows += _track(base + 3, sign, car(), ahead, rng.uniform(26.0, 30.0),
                       ((ego_lane, ego_lane), y_of), frames,
                       brake=(rng.randint(95, 105), rng.uniform(5.5, 6.5)))
        rows += _track(base + 4, sign, (rng.uniform(11.0, 13.0), 2.5),
                       ahead + sign * rng.uniform(28.0, 32.0), rng.uniform(12.0, 15.0),
                       ((side_lane, ego_lane), y_of), frames,
                       lane_change=(rng.randint(5, 10), rng.randint(22, 28)))
        # a vehicle that keeps its lane
        rows += _track(base + 5, sign, car(), start + sign * rng.uniform(60.0, 80.0),
                       rng.uniform(20.0, 24.0), ((side_lane, side_lane), y_of),
                       range(rng.randint(0, 20), N_FRAMES))
    return rows


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ingest_digests(work: str) -> dict:
    """{seed: {"tracks": sha256, "events": [{"ego", "cut", "event", "features"}]}}."""
    digests = {}
    for seed in SEEDS:
        tracks = os.path.join(work, f"tracks_{seed}.csv")
        write_tracks_csv(tracks, synthetic_rows(seed))
        with open(tracks, "rb") as fh:
            entry = {"tracks": _sha256(fh.read()), "events": []}
        track_set = read_tracks_csv(tracks, FPS)
        for event in extract_cut_in_events(track_set):
            features = os.path.join(work, f"features_{seed}_{event.ego_track}_{event.cut_track}.csv")
            write_features_csv(features, export_features(event, track_set)[0])
            with open(features, "rb") as fh:
                entry["events"].append({
                    "ego": event.ego_track,
                    "cut": event.cut_track,
                    "event": _sha256(repr(event).encode()),
                    "features": _sha256(fh.read()),
                })
        digests[str(seed)] = entry
    return digests


def test_the_synthetic_recording_covers_both_directions_a_hole_and_an_overlap(tmp_path):
    for seed in SEEDS:
        path = tmp_path / f"tracks_{seed}.csv"
        write_tracks_csv(path, synthetic_rows(seed))
        track_set = read_tracks_csv(path, FPS)
        events = {(e.ego_track, e.cut_track): e for e in extract_cut_in_events(track_set)}
        assert set(events) == {(1, 2), (3, 4), (11, 12), (13, 14)}
        assert all(e.params.v_e0_mps > 0.0 and e.params.d_x0_m > 0.0 for e in events.values())
        for cutter in (2, 12):  # the hole
            assert len(track_set.tracks[cutter]) < N_FRAMES
        for pair in ((3, 4), (13, 14)):  # overlap frames, then a stopped follower
            rows, flagged = export_features(events[pair], track_set)
            assert flagged and any(thw == float("inf") for _, _, thw, _, _ in rows)


def test_ingest_outputs_match_golden_digests(tmp_path):
    with open(INGEST_GOLDEN) as fh:
        golden = json.load(fh)
    assert ingest_digests(str(tmp_path)) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = ingest_digests(work)
    with open(INGEST_GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=2)
        fh.write("\n")
