"""Seeded input generation for the benchmark workloads.

Everything here is plain Python and never imports cutinsim: the program under
test only ever sees the files written by these functions. The same seed gives
byte-identical files. A seed moves every value by at most a few percent
around a fixed design, so two seeds cost the program about the same work;
the seed varies the inputs, not the size of the job.
"""

from __future__ import annotations

import json
import os
import random

from spec import MODELS

SCENARIO_KINDS = ("cut_in", "cut_out", "car_following")

LANE_WIDTH_M = 3.75
FRAME_RATE_HZ = 25.0
TRACKS_HEADER = "frame,id,x,y,width,height,xVelocity,yVelocity,laneId"

# Workload sizes. "full" is what the benchmark measures; "tiny" only proves
# that every workload and metric is wired up (smoke test).
SIZES = {
    "full": {
        # 6 x 4 x 6 x 1 = 144 grid points x 7 models = 1,008 closed-loop runs
        "sweep_axes": (6, 4, 6, 1),
        "one_case_variants": 10,  # per (kind, model): 210 configs
        "ingest_tracks": 60,
    },
    "tiny": {
        "sweep_axes": (2, 1, 2, 1),
        "one_case_variants": 1,
        "ingest_tracks": 8,
    },
}


def _jitter(rng: random.Random, value: float, rel: float = 0.02) -> float:
    return round(value * (1.0 + rng.uniform(-rel, rel)), 4)


def _spread(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sweep_config(seed: int, size: str) -> dict:
    """Dense cut-in grid over all seven models (comparison mode)."""
    rng = random.Random(f"sweep:{seed}")
    n_ve, n_vo, n_dx, n_dy = SIZES[size]["sweep_axes"]
    axes = {
        "v_e0": _spread(18.0, 34.0, n_ve),
        "v_o0": _spread(8.0, 23.0, n_vo),
        "d_x0": _spread(15.0, 90.0, n_dx),
        "d_y0": _spread(3.75, 3.75, n_dy),
    }
    return {
        "schema_version": 1,
        "seed": seed,
        "scenario": {
            "kind": "cut_in",
            "v_e0": 25.0,
            "v_o0": 20.0,
            "d_x0": 30.0,
            "d_y0": 3.75,
            "lc_start_s": 1.0,
            "lc_duration_s": 2.0,
            "duration_s": 12.0,
            "dt_s": 0.05,
        },
        "models": list(MODELS),
        "sweep": {key: [_jitter(rng, v) for v in values] for key, values in axes.items()},
        "risk": {"ttc_crit_s": 2.0},
    }


def one_case_configs(seed: int, size: str) -> list[dict]:
    """Single-case configs: every (scenario kind, model) pair, several variants each.

    The list is shuffled so that kinds and models interleave in the closed loop.
    """
    rng = random.Random(f"one-case:{seed}")
    variants = SIZES[size]["one_case_variants"]
    configs = []
    for kind in SCENARIO_KINDS:
        for model in MODELS:
            for i in range(variants):
                v_e0 = _jitter(rng, 20.0 + 14.0 * i / max(variants - 1, 1))
                v_o0 = _jitter(rng, 12.0 + 8.0 * ((i * 3) % variants) / max(variants, 1))
                scenario = {
                    "kind": kind,
                    "v_e0": v_e0,
                    "v_o0": v_o0,
                    "d_x0": _jitter(rng, 20.0 + 6.0 * ((i * 7) % variants)),
                    "d_y0": 0.0 if kind == "car_following" else _jitter(rng, 3.75),
                    "lc_start_s": _jitter(rng, 1.0),
                    "lc_duration_s": _jitter(rng, 2.0),
                    "duration_s": 12.0,
                    "dt_s": 0.05,
                }
                if kind == "car_following":
                    # the leader brakes hard, then settles at a lower speed
                    scenario["other_speed_profile"] = [
                        [_jitter(rng, 3.0), round(v_o0 * 0.6, 4)],
                        [_jitter(rng, 6.0), round(v_o0 * 0.8, 4)],
                    ]
                configs.append(
                    {"schema_version": 1, "seed": seed, "scenario": scenario, "model": model}
                )
    rng.shuffle(configs)
    return configs


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def tracks_rows(seed: int, size: str) -> tuple[list[str], dict[int, range]]:
    """A highD-subset tracks file: N vehicles on 3 lanes at 25 Hz.

    About 30% of the vehicles change lane once, with a smoothstep lateral
    profile; the lane id switches when the center crosses the lane boundary.
    Returns the csv lines (header first) and each track's frame range, which
    the output check uses to count the frames each vehicle pair shares.
    """
    rng = random.Random(f"ingest:{seed}")
    n_tracks = SIZES[size]["ingest_tracks"]
    recording_frames = 750  # 30 s
    rows: list[tuple[int, int, str]] = []
    frames_of: dict[int, range] = {}
    for track_id in range(1, n_tracks + 1):
        # entries are staggered evenly so the number of frames vehicle pairs
        # share, which sets the extraction cost, hardly depends on the seed
        n_frames = 375 + rng.randint(-10, 10)
        slot = (recording_frames - 385) * (track_id - 1) / max(n_tracks - 1, 1)
        first = int(slot) + rng.randint(0, 10)
        lane = 1 + track_id % 3
        x0 = rng.uniform(0.0, 150.0)
        v = rng.uniform(22.0, 34.0)
        length, width = rng.uniform(4.2, 5.0), rng.uniform(1.8, 2.0)
        target = lane
        lc_start = lc_frames = 0
        if track_id % 10 in (2, 5, 8):  # 30% lane changers
            target = 2 if lane != 2 else rng.choice((1, 3))
            lc_frames = rng.randint(75, 125)
            lc_start = rng.randint(50, n_frames - lc_frames - 50)
        y_from = (lane - 1) * LANE_WIDTH_M
        y_to = (target - 1) * LANE_WIDTH_M
        frames_of[track_id] = range(first, first + n_frames)
        for k in range(n_frames):
            u = min(max((k - lc_start) / lc_frames, 0.0), 1.0) if lc_frames else 0.0
            s = u * u * (3.0 - 2.0 * u)
            rate = 6.0 * u * (1.0 - u) / (lc_frames / FRAME_RATE_HZ) if lc_frames and 0 < u < 1 else 0.0
            y = y_from + (y_to - y_from) * s
            lane_id = target if s >= 0.5 else lane
            x = x0 + v * k / FRAME_RATE_HZ
            rows.append(
                (
                    first + k,
                    track_id,
                    f"{first + k},{track_id},{_fmt(x)},{_fmt(y)},{_fmt(length)},{_fmt(width)},"
                    f"{_fmt(v)},{_fmt((y_to - y_from) * rate)},{lane_id}",
                )
            )
    rows.sort(key=lambda r: (r[0], r[1]))  # frame-major, as in recorded files
    return [TRACKS_HEADER] + [r[2] for r in rows], frames_of


def write_inputs(workload: str, seed: int, size: str, work_dir: str) -> dict:
    """Write the workload's input files under work_dir and describe them."""
    if workload in ("sweep", "sweep-jobs"):
        path = os.path.join(work_dir, "sweep.json")
        cfg = sweep_config(seed, size)
        write_json(path, cfg)
        n_points = 1
        for values in cfg["sweep"].values():
            n_points *= len(values)
        return {"config": path, "grid_points": n_points, "models": list(MODELS)}
    if workload == "one-case":
        paths = []
        for i, cfg in enumerate(one_case_configs(seed, size)):
            path = os.path.join(work_dir, f"case{i:04d}.json")
            write_json(path, cfg)
            paths.append(path)
        return {"config": paths[0], "configs": paths}
    if workload == "ingest":
        lines, frames_of = tracks_rows(seed, size)
        path = os.path.join(work_dir, "tracks.csv")
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        return {
            "tracks": path,
            "frame_rate_hz": FRAME_RATE_HZ,
            "n_tracks": len(frames_of),
            "n_rows": len(lines) - 1,
            "frames": {str(k): [r.start, r.stop] for k, r in frames_of.items()},
        }
    raise ValueError(f"unknown workload {workload!r}")
