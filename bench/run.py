"""cutinsim benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload {sweep,sweep-jobs,one-case,ingest}
                         --seed N --seconds S --trace {0,1} [--tiny]

Writes the workload's seeded inputs to a fresh directory under .bench_out/,
runs the workload in a child process (bench/workloads.py) that imports
cutinsim from ./src, checks the outputs, prints a report and, as the last
line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see README.md). The full result, with the machine it ran on,
is also written to .bench_out/<workload>-seed<N>-trace<T>.json. The exit code
is 0 when every output check passed, 1 when one failed and 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import inputs
from spec import load_benchmark
from workloads import proc_status_kb, tree_digest

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0  # every run ends well within the 180 s a run may take
SETUP_PAIRS = 12  # fresh interpreters whose set-up time is measured, each next to a reference one
# The scale of setup_s: about a reference interpreter's time on an idle 2-vCPU
# Intel Xeon virtual machine. Changing it changes every setup_s figure.
REFERENCE_NOMINAL_S = 0.13
RSS_POLL_S = 0.02


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def descendants(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        p = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except OSError:
                continue
            found += kids
            todo += kids
    return found


def private_kb(pid: int) -> int:
    """Resident kB of a process that no other process maps; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            return sum(int(line.split()[1]) for line in fh if line.startswith("Private_"))
    except (OSError, ValueError, IndexError):
        return 0


def tree_kb(pid: int) -> int:
    """Resident kB of a process and its descendants, each page counted once:
    the process's RSS plus what only each forked worker holds."""
    return proc_status_kb(pid, "VmRSS") + sum(private_kb(p) for p in descendants(pid))


def run_child(args: list[str], env: dict, budget_s: float, sample_rss: bool):
    """Run one workload process; returns (exit code, [(time, tree kB)])."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workloads.py"), *args],
        env=env,
        stdout=sys.stderr,  # standard output carries only the report
        start_new_session=True,
    )
    samples = []
    deadline = time.monotonic() + budget_s
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise TimeoutError
            if sample_rss:
                samples.append((time.monotonic(), tree_kb(proc.pid)))
            time.sleep(RSS_POLL_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    return proc.returncode, samples


def machine(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": tree_digest(os.path.join(root, "src"), ".py"),
    }


def nearest_rank(n: int, q: float) -> int:
    """1-based rank of the q-quantile among n sorted samples."""
    return max(1, math.ceil(q * n))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = [w["name"] for w in load_benchmark()["workloads"]]
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="measured time; 0 runs one iteration")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    args = ap.parse_args()
    started = time.monotonic()
    # on SIGTERM, unwind so the workload process group is killed and the
    # input directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cutinsim", "__init__.py")):
        return fail(f"no cutinsim sources under {src}; run from the repository root")
    out_root = os.path.join(root, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=out_root)
    try:
        return measure(args, root, src, out_root, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: str, src: str, out_root: str, work: str, started: float) -> int:
    size = "tiny" if args.tiny else "full"
    description = inputs.write_inputs(args.workload, args.seed, size, work)
    inputs_path = os.path.join(work, "inputs.json")
    inputs.write_json(inputs_path, description)

    env = {k: v for k, v in os.environ.items() if k != "CUTIN_SEED"}
    env["PYTHONPATH"] = src + os.pathsep + HERE
    common = ["--workload", args.workload, "--inputs", inputs_path, "--src", src, "--seed", str(args.seed)]

    def child(extra: list[str], result: str, sample_rss: bool = False):
        budget = DEADLINE_S - (time.monotonic() - started)
        spawn = ["--spawn-t", repr(time.monotonic()), "--result", result]
        try:
            code, samples = run_child(common + extra + spawn, env, budget, sample_rss)
        except TimeoutError:
            raise SystemExit(fail(f"{args.workload} did not finish within {DEADLINE_S:.0f} s"))
        if code != 0 or not os.path.exists(result):
            raise SystemExit(fail(f"{args.workload} child exited with code {code}"))
        with open(result) as fh:
            return json.load(fh), samples

    pairs = []  # (set-up time, reference time) of two fresh interpreters

    def setup_samples(n: int) -> None:
        for _ in range(0 if args.tiny or args.trace else n):
            got = {}
            for reference in (True, False) if len(pairs) % 2 else (False, True):  # alternate the order
                extra = ["--reference"] if reference else []
                sample, _ = child(
                    ["--work", work, "--seconds", "0", "--setup-only", *extra],
                    os.path.join(work, f"setup{len(pairs)}{''.join(extra)}.json"),
                )
                got[reference] = sample["setup_s"]
            pairs.append((got[False], got[True]))

    # half before the measured run and half after, so that the samples span
    # the machine's speed over the whole run
    setup_samples(SETUP_PAIRS // 2)
    run_work = os.path.join(work, "run")
    os.makedirs(run_work)
    res, samples = child(
        ["--work", run_work, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        os.path.join(work, "result.json"),
        sample_rss=not args.trace,
    )
    setup_samples(SETUP_PAIRS - len(pairs))

    calls = res["calls_s"]
    window = [kb for t, kb in samples if res["timed_start"] <= t <= res["timed_end"]]
    peak_kb = max([res["hwm_kb"], *window])
    correct = not res["check_failures"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
        "machine": dict(machine(root), numpy=res["numpy"]),
        "inputs": {k: v for k, v in description.items() if k not in ("frames", "configs")},
        "iterations": res["iterations"],
        "calls": len(calls),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "correct": correct,
        "check_failures": res["check_failures"],
        "checks_passed": res["checks_passed"],
        "notes": res["notes"],
    }
    if args.trace:
        values = res["per_layer"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in load_benchmark()["per_layer"]}
        report.update(absent=res["absent"], spans_kept=res["spans_kept"], spans_dropped=res["spans_dropped"])
        spans = os.path.join(out_root, f"{args.workload}-seed{args.seed}-spans.csv")
        shutil.move(os.path.join(run_work, "spans.csv"), spans)
        report["spans_file"] = os.path.relpath(spans, root)
    else:
        if pairs:
            setup_s = REFERENCE_NOMINAL_S * statistics.median(own / ref for own, ref in pairs)
        else:  # --tiny: the measured run's own set-up, not normalised
            setup_s = res["setup_s"]
        values = {
            "setup_s": setup_s,
            "items_per_s": res["items"] / sum(calls),
            "call_ms_p50": 1000.0 * statistics.median(calls),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in load_benchmark()["end_to_end"]}
        raw = res["calls_raw_s"]
        report["raw_wall"] = {
            "items_per_s": res["items"] / sum(raw),
            "call_ms_p50": 1000.0 * statistics.median(raw),
        }
        report["host_speed"] = res.get("host_speed")  # None where not probed
        report["setup_samples_s"] = [own for own, _ in pairs]
        report["reference_samples_s"] = [ref for _, ref in pairs]
        report["named"] = named_metrics(args.workload, values, report, calls, res)
    report["metrics"] = metrics

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_root, name), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print_report(report)
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def named_metrics(workload: str, values: dict, report: dict, calls: list[float], res: dict) -> dict:
    """The end-to-end metrics under the names that fit each workload, for the
    workloads each applies to: name -> (value, unit, note)."""
    named = {
        "setup_s": (
            values["setup_s"],
            "s",
            f"normalised, {len(report['setup_samples_s'])} pairs; wall clock "
            f"{statistics.median(report['setup_samples_s'] or [res['setup_s']]):.4g} s",
        ),
    }
    raw = report["raw_wall"]
    probed = report["host_speed"] is not None
    kind = "normalised" if probed else "wall clock"

    def wall(key: str, unit: str) -> str:
        return f"; wall clock {raw[key]:.4g} {unit}" if probed else ""

    rate = "rows_per_s" if workload == "ingest" else "runs_per_s"
    named[rate] = (values["items_per_s"], "1/s", kind + wall("items_per_s", "1/s"))
    n = len(calls)
    if workload == "one-case":
        rank = nearest_rank(n, 0.99)
        named["case_ms_p50"] = (values["call_ms_p50"], "ms", f"{kind}, n={n}" + wall("call_ms_p50", "ms"))
        named["case_ms_p99"] = (1000.0 * sorted(calls)[rank - 1], "ms", f"{kind}, n={n}, {n - rank} beyond")
    else:
        named["pipeline_ms_p50"] = (values["call_ms_p50"], "ms", f"{kind}, n={n} passes" + wall("call_ms_p50", "ms"))
    named["peak_rss_mb"] = (values["peak_rss_mb"], "MB", "workload process tree")
    named["failed_fraction"] = (
        res["failed"] / res["attempted"],
        "fraction",
        f"{res['failed']} of {res['attempted']} operations",
    )
    return named


def print_report(report: dict) -> None:
    m = report["machine"]
    print(
        f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}  "
        f"trace {report['trace']}  size {report['size']}"
    )
    print(
        f"machine  nproc {m['nproc']}  cpu {m['cpu']}  python {m['python']}  numpy {m['numpy']}  "
        f"commit {m['commit']}  src {m['src_sha256'][:16]}"
    )
    for name, (value, unit, note) in report.get("named", {}).items():
        print(f"  {name:<18} {value:>14.6g} {unit:<9} {note}")
    hs = report.get("host_speed")
    if hs and hs["probes"]:
        print(f"  host speed probe: median {1000 * hs['probe_median_s']:.4g} ms over {hs['probes']} probes")
    if report["trace"]:
        for name, entry in report["metrics"].items():
            print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
        if report["absent"]:
            print(f"  absent (not wrapped): {', '.join(report['absent'])}")
    for key, digest in sorted(report["notes"].items()):
        print(f"  {key}: {digest}")
    status = "ok" if report["correct"] else "FAILED"
    print(f"checks {status}: {sum(report['checks_passed'].values())} passed, {len(report['check_failures'])} failed")
    for failure in report["check_failures"]:
        print(f"  FAILED {failure}")


if __name__ == "__main__":
    sys.exit(main())
