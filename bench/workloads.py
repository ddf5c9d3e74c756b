"""One benchmark workload, run in a process of its own.

    python3 bench/workloads.py --workload NAME --inputs FILE --work DIR --src DIR
        --seed N --seconds S --trace 0|1 --spawn-t T --result FILE
        [--setup-only [--reference]]

run.py starts this script with `src/` of the checkout on PYTHONPATH, after it
has written the workload's seeded inputs; it reads the result file this
script writes. Each workload is a closed loop: the next call is issued only
after the previous one returned. With --trace 0 the loop runs untraced for
--seconds; with --trace 1 untraced and traced iterations alternate, and the
per-layer numbers come from the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import sys
import time

from hostspeed import HostSpeed
from spec import MODELS, layer_source, load_benchmark


class Checks:
    """Output checks; the run is correct only when every one passed."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed: dict[str, int] = {}

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        if ok:
            self.passed[name] = self.passed.get(name, 0) + 1
        elif len(self.failures) < 50:
            self.failures.append(f"{name}: {detail}")
        return ok


class Iteration:
    """What one closed-loop iteration of a workload did."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, float]] = []  # perf_counter start, end of each call
        self.items = 0  # closed-loop runs, or track rows for ingest
        self.attempted = 0
        self.failed = 0

    def seconds(self) -> float:
        return sum(end - start for start, end in self.calls)


def tree_digest(root: str, suffix: str = "") -> str:
    """sha256 over the relative paths and bytes of the files under root
    whose names end with suffix."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(suffix):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def fmt6(value: float) -> str:
    """The CLI's float format: 6 significant digits, infinities as inf."""
    if value == float("inf"):
        return "inf"
    return f"{value:.6g}"


class Sweep:
    """`comparison` then `post-process` on a dense cut-in grid over all 7 models.

    Why: nearly all of the time goes to the per-step loop (engine, kinematics,
    metrics, safety_models) and retained traces dominate memory. With jobs=2
    it is the only workload on the process-pool path, which ships full traces
    back to the parent.
    """

    def __init__(self, inputs: dict, work: str, checks: Checks, jobs: int) -> None:
        self.cfg = inputs["config"]
        self.grid_points = inputs["grid_points"]
        self.work = work
        self.checks = checks
        self.jobs = jobs
        # How strongly the times follow the host speed probe's (hostspeed.py):
        # the slope of log wall time against log probe time, measured over 25
        # serial runs in fast and slow phases of the host. The serial sweep
        # slows down less than the probe does. With --jobs the workers keep
        # both vCPUs busy for nearly the whole call, so the probe could only
        # run by competing with them, and a single-threaded probe between
        # calls did not track two workers: 0, not probed, wall-clock times.
        self.host_exponent = 0.65 if jobs == 1 else 0.0
        self.out = os.path.join(work, "out")
        self.digest: str | None = None

    def run_pipeline(self, cli, out: str, jobs: int) -> tuple[tuple[float, float], int, int]:
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        rc_cmp = cli.main(["comparison", "--config", self.cfg, "--out", out, "--jobs", str(jobs)])
        rc_post = cli.main(["post-process", "--results", out])
        return (t0, time.perf_counter()), rc_cmp, rc_post

    def iteration(self, cli) -> Iteration:
        it = Iteration()
        call, rc_cmp, rc_post = self.run_pipeline(cli, self.out, self.jobs)
        it.calls.append(call)
        runs = self.grid_points * len(MODELS)
        it.items = it.attempted = runs
        c = self.checks
        c.expect("comparison exit code 0", rc_cmp == 0, f"exit {rc_cmp}")
        c.expect("post-process exit code 0", rc_post == 0, f"exit {rc_post}")
        rows = errors = 0
        for model in MODELS:
            path = os.path.join(self.out, f"results_{model}.csv")
            if not c.expect("results file per model", os.path.exists(path), path):
                continue
            with open(path) as fh:
                lines = fh.read().splitlines()[1:]
            rows += len(lines)
            errors += sum(1 for line in lines if line.rsplit(",", 1)[-1])
        c.expect("rows == grid points x models", rows == runs, f"{rows} rows, expected {runs}")
        it.failed = errors + (runs - rows if rows < runs else 0)
        try:
            with open(os.path.join(self.out, "summary.json")) as fh:
                summary = json.load(fh)
            named = {row.get("model") for row in summary["models"]}
            missing = [m for m in MODELS if m not in named]
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            missing = [f"unreadable summary.json ({exc!r})"]
        c.expect("summary.json names all 7 models", not missing, f"missing {missing}")
        digest = tree_digest(self.out)
        if self.digest is None:
            self.digest = digest
        c.expect("output tree identical across iterations", digest == self.digest, digest)
        return it

    def final_checks(self, cli, seed: int) -> dict:
        """Compare grid points against one-case runs; on jobs > 1, the whole
        tree against a serial run."""
        notes = {"output_tree_sha256": self.digest}
        c = self.checks
        with open(self.cfg) as fh:
            cfg = json.load(fh)
        rng = random.Random(f"spot:{seed}")
        for model in MODELS:
            index = rng.randrange(self.grid_points)
            with open(os.path.join(self.out, f"results_{model}.csv")) as fh:
                row = fh.read().splitlines()[1 + index].split(",")
            v_e0, v_o0, d_x0, d_y0 = (float(v) for v in row[1:5])
            one = dict(cfg, model=model)
            one.pop("models")
            one.pop("sweep")
            one["scenario"] = dict(cfg["scenario"], v_e0=v_e0, v_o0=v_o0, d_x0=d_x0, d_y0=d_y0)
            path = os.path.join(self.work, f"spot_{model}.json")
            with open(path, "w") as fh:
                json.dump(one, fh)
            out = os.path.join(self.work, f"spot_{model}")
            rc = cli.main(["one-case", "--config", path, "--out", out])
            with open(os.path.join(out, "verdict.json")) as fh:
                verdict = json.load(fh)
            min_ttc = verdict["min_ttc"]
            got = ("1" if verdict["collided"] else "0", fmt6(float(min_ttc)), verdict["classification"])
            want = (row[5], row[6], row[9])
            c.expect(
                "sweep row agrees with one-case run",
                rc in (0, 2) and got == want,
                f"{model} grid point {index}: sweep {want}, one-case {got}",
            )
        if self.jobs > 1:
            ref = os.path.join(self.work, "out_serial")
            self.run_pipeline(cli, ref, 1)
            serial = tree_digest(ref)
            notes["serial_tree_sha256"] = serial
            c.expect("--jobs tree identical to serial tree", serial == self.digest, f"{self.digest} != {serial}")
        return notes


class OneCase:
    """Many in-process `one-case` invocations over generated configs, mixing
    cut_in, cut_out and car_following with all 7 models.

    Why: the same engine as a batch of 1 with trace recording on, where
    config parsing and trace writing are a large share of each call; it also
    covers the two scenario kinds the sweep never runs.
    """

    host_exponent = 1.0  # a call slows down as much as the probe (see Sweep)

    def __init__(self, inputs: dict, work: str, checks: Checks) -> None:
        self.configs = inputs["configs"]
        self.outs = [os.path.join(work, f"case{i:04d}") for i in range(len(self.configs))]
        self.checks = checks

    def iteration(self, cli) -> Iteration:
        it = Iteration()
        c = self.checks
        for cfg, out in zip(self.configs, self.outs):
            t0 = time.perf_counter()
            try:
                rc = cli.main(["one-case", "--config", cfg, "--out", out])
            except Exception as exc:  # counted as a failed call, never aborts the loop
                rc = f"{type(exc).__name__}: {exc}"
            it.calls.append((t0, time.perf_counter()))
            it.items += 1
            it.attempted += 1
            if not c.expect("one-case exit code 0 or 2", rc in (0, 2), f"{os.path.basename(cfg)}: {rc}"):
                it.failed += 1
                continue
            with open(os.path.join(out, "verdict.json")) as fh:
                verdict = json.load(fh)
            c.expect("exit code agrees with verdict collided", verdict["collided"] == (rc == 2), os.path.basename(cfg))
            with open(os.path.join(out, "trace.csv")) as fh:
                ttcs = [float(line.split(",")[9]) for line in fh.read().splitlines()[1:]]
            c.expect(
                "verdict min_ttc is the trace minimum",
                fmt6(float(verdict["min_ttc"])) == fmt6(min(ttcs)),
                f"{os.path.basename(cfg)}: {verdict['min_ttc']} vs {min(ttcs)}",
            )
        return it

    def final_checks(self, cli, seed: int) -> dict:
        return {}


class Ingest:
    """read_tracks_csv, extract_cut_in_events, then export_features and
    write_features_csv for each event, on a generated highD-subset file.

    Why: no other workload reaches ingest, and extraction grows faster than
    quadratically with the number of tracks.
    """

    host_exponent = 1.0  # a pass slows down as much as the probe (see Sweep)

    def __init__(self, inputs: dict, work: str, checks: Checks) -> None:
        self.path = inputs["tracks"]
        self.frame_rate_hz = inputs["frame_rate_hz"]
        self.n_rows = inputs["n_rows"]
        self.n_tracks = inputs["n_tracks"]
        self.frames = {int(k): range(*v) for k, v in inputs["frames"].items()}
        self.out = os.path.join(work, "features")
        os.makedirs(self.out, exist_ok=True)
        self.checks = checks
        self.events = 0

    def common_frames(self, a: int, b: int) -> int:
        fa, fb = self.frames[a], self.frames[b]
        return max(0, min(fa.stop, fb.stop) - max(fa.start, fb.start))

    def iteration(self, ingest) -> Iteration:
        it = Iteration()
        exported = []
        t0 = time.perf_counter()
        it.attempted += 1
        try:
            tracks = ingest.read_tracks_csv(self.path, self.frame_rate_hz)
            events = ingest.extract_cut_in_events(tracks)
        except Exception as exc:
            it.failed += 1
            events = []
            self.checks.expect("read and extract", False, f"{type(exc).__name__}: {exc}")
        for i, event in enumerate(events):
            it.attempted += 1
            try:
                rows, _ = ingest.export_features(event, tracks)
                ingest.write_features_csv(os.path.join(self.out, f"event{i:04d}.csv"), rows)
                exported.append((event.ego_track, event.cut_track, len(rows)))
            except Exception as exc:  # counted as a failed export, never aborts the pass
                it.failed += 1
                self.checks.expect("export", False, f"{type(exc).__name__}: {exc}")
        it.calls.append((t0, time.perf_counter()))
        it.items = self.n_rows
        self.events = len(events)
        c = self.checks
        c.expect("at least one event", len(events) >= 1, "no cut-in events found")
        for ego, cut, n in exported:
            want = self.common_frames(ego, cut)
            c.expect("feature rows == common frames", n == want, f"pair {ego}->{cut}: {n} rows, {want} common frames")
        return it

    def final_checks(self, cli, seed: int) -> dict:
        return {"events": self.events}


def proc_status_kb(pid: int | str, field: str) -> int:
    """A kB field of /proc/<pid>/status; 0 once the process is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def per_layer(tracer, n: int, untraced_s: float, traced_s: float, workload) -> dict:
    """Per-layer metrics per traced iteration (n traced iterations ran)."""
    out = {}
    for entry in load_benchmark()["per_layer"]:
        metric = entry["name"]
        kind, source = layer_source(metric)
        if kind == "calls":
            value = tracer.calls(source)
        elif kind == "s":
            value = tracer.inclusive_s(source)
        elif kind == "self_s":
            value = tracer.self_s(source)
        else:
            value = tracer.counts.get(source, 0)
        out[metric] = value / n
    if isinstance(workload, Ingest):
        out["ingest.events"] = workload.events
        out["ingest.event_yield"] = workload.events / (workload.n_tracks * (workload.n_tracks - 1))
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-t", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", action="store_true", help="with --setup-only: import numpy, not cutinsim")
    args = ap.parse_args()

    if args.reference:
        # the part of set-up that the environment fixes and no commit changes
        import numpy  # noqa: F401

        with open(args.result, "w") as fh:
            json.dump({"setup_s": time.monotonic() - args.spawn_t}, fh)
        return 0

    # -- set-up: what a user pays before the first call ------------------
    import cutinsim
    from cutinsim import cli, config, ingest

    src = os.path.realpath(args.src)
    if not os.path.realpath(cutinsim.__file__).startswith(src + os.sep):
        print(f"cutinsim imported from {cutinsim.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(args.inputs) as fh:
        inputs = json.load(fh)
    if "config" in inputs:
        config.load_config(inputs["config"])
    setup_s = time.monotonic() - args.spawn_t
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    import numpy

    checks = Checks()
    if args.workload == "sweep":
        workload, target = Sweep(inputs, args.work, checks, jobs=1), cli
    elif args.workload == "sweep-jobs":
        workload, target = Sweep(inputs, args.work, checks, jobs=2), cli
    elif args.workload == "one-case":
        workload, target = OneCase(inputs, args.work, checks), cli
    else:
        workload, target = Ingest(inputs, args.work, checks), ingest

    iterations: list[Iteration] = []
    tracer = None
    untraced_s = traced_s = 0.0
    n_traced = 0
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    # per-layer times are raw; end-to-end times are normalised where probed
    speed = HostSpeed(workload.host_exponent) if workload.host_exponent and not args.trace else None
    deadline = time.monotonic() + args.seconds
    timed_start = time.monotonic()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if speed is not None:
            speed.start()
        while True:
            it = workload.iteration(target)
            iterations.append(it)
            untraced_s += it.seconds()
            if tracer is not None:
                tracer.install()
                measured = tracer.measure_ns
                try:
                    it = workload.iteration(target)
                finally:
                    tracer.uninstall()
                iterations.append(it)
                traced_s += it.seconds() - (tracer.measure_ns - measured) / 1e9
                n_traced += 1
            if time.monotonic() >= deadline:
                break
        if speed is not None:
            speed.stop()
        timed_end = time.monotonic()
        hwm_kb = proc_status_kb("self", "VmHWM")
        notes = workload.final_checks(cli, args.seed)

    calls = [call for it in iterations for call in it.calls]
    if speed is not None:
        timed = [speed.times(start, end) for start, end in calls]
        result["host_speed"] = {
            "probe_median_s": statistics.median(speed.durations) if speed.durations else None,
            "probes": len(speed.durations),
            "skipped_with_children": speed.skipped,
            "exponent": speed.exponent,
        }
    else:
        timed = [(end - start, end - start) for start, end in calls]
    result.update(
        {
            "timed_start": timed_start,
            "timed_end": timed_end,
            "hwm_kb": hwm_kb,
            "iterations": len(iterations),
            "calls_raw_s": [raw for raw, _ in timed],
            "calls_s": [norm for _, norm in timed],
            "items": sum(it.items for it in iterations),
            "attempted": sum(it.attempted for it in iterations),
            "failed": sum(it.failed for it in iterations),
            "check_failures": checks.failures,
            "checks_passed": checks.passed,
            "notes": notes,
            "numpy": numpy.__version__,
        }
    )
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, n_traced, untraced_s, traced_s, workload)
        result["absent"] = tracer.absent
        result["spans_kept"] = len(tracer.spans) // 5
        result["spans_dropped"] = tracer.spans_dropped
        tracer.write_spans(os.path.join(args.work, "spans.csv"))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
