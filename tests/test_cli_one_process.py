"""Every command in one process, as a caller that runs many cases does: the
argument parser is built once and reused."""

import contextlib
import io
import os
from pathlib import Path

import pytest

from cutinsim import cli
from cutinsim.cli import EXIT_COLLISION, EXIT_CONFIG, EXIT_OK, main

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
        assert main(["post-process", "--results", cmp_out]) == EXIT_OK
        # a critical TTC must be positive: 0 is a configuration error
        assert main(["post-process", "--results", cmp_out, "--ttc-crit", "0"]) == EXIT_CONFIG
        assert stderr.getvalue() == "error: ttc-crit must be positive\n"
        with pytest.raises(SystemExit) as exc:
            main(["one-case", "--model", "rba"])  # --config is required
        assert exc.value.code == 2
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
