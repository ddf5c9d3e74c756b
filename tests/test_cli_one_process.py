"""Every command in one process, as a caller that runs many cases does: the
argument parser is built once and reused, and a sweep starts no other
process."""

import contextlib
import io
import json
import multiprocessing.process
import os
from pathlib import Path

import pytest

from cutinsim import cli
from cutinsim.cli import EXIT_COLLISION, EXIT_CONFIG, EXIT_OK, main
from cutinsim.config import config_hash

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def test_every_command_in_one_process_builds_the_parser_once(tmp_path):
    cli.build_parser.cache_clear()
    case, cmp_out = str(tmp_path / "case"), str(tmp_path / "cmp")
    cutin = ["one-case", "--config", os.path.join(CONFIGS, "cutin.json"), "--out", case]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        assert main(cutin) == EXIT_OK
        first = {name: Path(case, name).read_bytes() for name in ("trace.csv", "verdict.json")}
        assert main(["comparison", "--config", os.path.join(CONFIGS, "comparison.json"),
                     "--out", cmp_out]) == EXIT_OK
        # a critical TTC must be positive: 0 in the manifest (re-hashed, so that
        # it passes the hash check) is a configuration error
        manifest = Path(cmp_out, "manifest.json")
        stored = manifest.read_text()
        edited = json.loads(stored)
        edited["config"]["risk"]["ttc_crit_s"] = 0
        edited["config_hash"] = config_hash(edited["config"])
        manifest.write_text(json.dumps(edited))
        assert main(["post-process", "--results", cmp_out]) == EXIT_CONFIG
        assert stderr.getvalue() == "error: risk.ttc_crit_s must be positive\n"
        assert not Path(cmp_out, "summary.json").exists()
        manifest.write_text(stored)
        assert main(["post-process", "--results", cmp_out]) == EXIT_OK
        with pytest.raises(SystemExit) as exc:
            main(["one-case", "--model", "rba"])  # --config is required
        assert exc.value.code == EXIT_CONFIG
        intercept = ["one-case", "--config", os.path.join(CONFIGS, "intercept.json"), "--out", case]
        assert main(intercept) == EXIT_COLLISION
        assert main(cutin) == EXIT_OK
    again = {name: Path(case, name).read_bytes() for name in first}
    assert again == first
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 6)


def test_an_os_error_exits_1_without_a_traceback(tmp_path):
    out = tmp_path / "taken"
    out.write_text("a regular file, not a directory")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        assert main(["one-case", "--config", os.path.join(CONFIGS, "cutin.json"),
                     "--out", str(out)]) == EXIT_CONFIG
    err = stderr.getvalue()
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err


class ProcessStarted(Exception):
    pass


def test_a_sweep_starts_no_process(tmp_path, monkeypatch):
    # every start method (fork, spawn, forkserver) goes through BaseProcess.start;
    # four CPUs would let two jobs run on two workers if sweeps still had a pool
    def start(self):
        raise ProcessStarted(f"{type(self).__name__} started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    out = tmp_path / "cmp"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["comparison", "--config", os.path.join(CONFIGS, "comparison.json"),
                     "--out", str(out), "--jobs", "2"]) == EXIT_OK
    golden = Path(os.path.dirname(__file__), "golden", "comparison")
    names = sorted(p.name for p in golden.glob("results_*.csv")) + ["manifest.json"]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name
