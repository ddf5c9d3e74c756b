"""Every output file is written through reports.write_lines, which rewrites an
existing file in place (no O_TRUNC) and truncates it at the end of what it
wrote."""

import ast
import contextlib
import io
import json
import os
import stat

import pytest

from cutinsim.cli import main
from cutinsim.reports import write_lines

HERE = os.path.dirname(__file__)
CONFIGS = os.path.join(HERE, "..", "configs")
GOLDEN = os.path.join(HERE, "golden", "comparison")
SRC = os.path.join(HERE, "..", "src", "cutinsim")


def test_a_shorter_rewrite_leaves_no_stale_tail(tmp_path):
    path = tmp_path / "out.csv"
    write_lines(path, ["a" * 10_000 + "\n"], ["b\n"])
    write_lines(path, ["c\n"])
    assert path.read_bytes() == b"c\n"
    write_lines(path, [])
    assert path.read_bytes() == b""


def test_an_iterable_that_raises_leaves_only_what_was_written(tmp_path):
    path = tmp_path / "out.csv"
    write_lines(path, ["old contents that are longer than the new ones\n"] * 100)

    def lines():
        yield "header\n"
        yield "row 1\n"
        raise RuntimeError("row 2 cannot be formatted")

    with pytest.raises(RuntimeError, match="row 2 cannot be formatted"):
        write_lines(path, ["title\n"], lines(), ["never written\n"])
    assert path.read_bytes() == b"title\nheader\nrow 1\n"


def test_a_new_file_gets_the_mode_open_w_gives(tmp_path):
    old = os.umask(0o002)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        write_lines(tmp_path / "new", ["x\n"])
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "new").st_mode)
    assert mode == stat.S_IMODE(os.stat(tmp_path / "reference").st_mode) == 0o664
    assert (tmp_path / "new").read_bytes() == b"x\n"


def test_a_hard_link_sees_the_new_bytes(tmp_path):
    path, link = tmp_path / "out.csv", tmp_path / "link.csv"
    write_lines(path, ["first version, the longer one\n"])
    os.link(path, link)
    write_lines(path, ["second\n"])
    assert link.read_bytes() == b"second\n"
    assert os.stat(link).st_ino == os.stat(path).st_ino


def test_lines_are_written_as_they_are_in_utf8(tmp_path):
    path = tmp_path / "out.csv"
    write_lines(path, ["a,é\r\n", "b\n"])
    assert path.read_bytes() == "a,é\r\nb\n".encode("utf-8")


PRIOR_SWEEPS = (
    # a larger grid over the same models: some files shrink, some grow, and
    # none may keep an old tail
    ({"v_e0": [20.0, 25.0, 30.0, 35.0], "v_o0": [10.0, 15.0, 20.0],
      "d_x0": [15.0, 20.0, 40.0, 60.0], "d_y0": [3.75, 3.5]}, 96),
    # a grid where none never collides, so density_none.csv is written; the
    # golden run marks none unavailable and must not leave that file behind
    ({"v_e0": [22.0, 25.0], "v_o0": [20.0], "d_x0": [90.0, 100.0], "d_y0": [3.75]}, 4),
)


def test_a_rerun_into_an_occupied_out_dir_matches_the_golden_tree(tmp_path):
    # first another grid over the same models, then the golden config into
    # the same directory
    config = os.path.join(CONFIGS, "comparison.json")
    with open(config) as fh:
        golden_config = json.load(fh)
    for case, (sweep, n_points) in enumerate(PRIOR_SWEEPS):
        prior_config = tmp_path / f"prior{case}.json"
        prior_config.write_text(json.dumps({**golden_config, "sweep": sweep}))
        out = tmp_path / f"out{case}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["comparison", "--config", str(prior_config), "--out", str(out)]) == 0
            assert main(["post-process", "--results", str(out)]) == 0
            assert len((out / "results_rba.csv").read_text().splitlines()) == 1 + n_points
            assert main(["comparison", "--config", config, "--out", str(out)]) == 0
            assert main(["post-process", "--results", str(out)]) == 0
        assert len((out / "results_rba.csv").read_text().splitlines()) == 1 + 27
        expected = sorted(os.listdir(GOLDEN))
        assert sorted(os.listdir(out)) == expected, case
        for name in expected:
            with open(os.path.join(GOLDEN, name), "rb") as fh:
                assert (out / name).read_bytes() == fh.read(), (case, name)


def test_a_model_dropped_from_the_config_leaves_no_files(tmp_path):
    # the golden config, then the same config without fsm into the same
    # directory: the tree equals a fresh run of the six-model config
    config = os.path.join(CONFIGS, "comparison.json")
    with open(config) as fh:
        six = json.load(fh)
    six["models"].remove("fsm")
    six_config = tmp_path / "six.json"
    six_config.write_text(json.dumps(six))
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["comparison", "--config", config, "--out", str(reused)]) == 0
        assert main(["post-process", "--results", str(reused)]) == 0
        for out in (reused, fresh):
            assert main(["comparison", "--config", str(six_config), "--out", str(out)]) == 0
            assert main(["post-process", "--results", str(out)]) == 0
    names = sorted(os.listdir(fresh))
    assert not [name for name in names if "fsm" in name]
    assert sorted(os.listdir(reused)) == names
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name


# --- no other writer may truncate ------------------------------------------

HELPER = ("reports.py", "write_lines")
WRITE_MODE_CHARS = set("wax+")


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _mode(call):
    if len(call.args) > 1:
        return call.args[1]
    return next((kw.value for kw in call.keywords if kw.arg == "mode"), None)


def truncating_writes(source, filename):
    """(line, description) for each call in source that opens a file for
    writing, other than the helper's own open of the descriptor, and for each
    os.open with O_TRUNC, the helper's included."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            is_os = isinstance(func, ast.Attribute) and _name(func.value) == "os"
            if _name(func) == "open" and is_os:
                if any(_name(n) == "O_TRUNC" for arg in node.args for n in ast.walk(arg)):
                    found.append((node.lineno, "os.open with O_TRUNC"))
            elif _name(func) == "open" and (filename, function) != HELPER:
                mode = _mode(node)
                if mode is not None and not (
                    isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not WRITE_MODE_CHARS & set(mode.value)
                ):
                    found.append((node.lineno, f"open with mode {ast.unparse(mode)}"))
            elif _name(func) in ("write_text", "write_bytes"):
                found.append((node.lineno, f"Path.{_name(func)}"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_no_module_writes_a_file_outside_the_helper():
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                hits = truncating_writes(fh.read(), name)
            if hits:
                found[name] = hits
    assert found == {}


def test_the_source_check_sees_each_kind_of_truncating_write():
    source = """\
import os
def write_lines(path, lines):
    open(os.open(path, os.O_WRONLY | os.O_TRUNC), "w")
def f(path, mode):
    open(path)
    open(path, "rb")
    os.open(path, os.O_RDONLY)
    open(path, "w", newline="")
    open(path, mode="a")
    open(path, mode)
    io.open(path, "r+")
    os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    path.write_text("x")
"""
    assert truncating_writes(source, "reports.py") == [
        (3, "os.open with O_TRUNC"),
        (8, "open with mode 'w'"),
        (9, "open with mode 'a'"),
        (10, "open with mode mode"),
        (11, "open with mode 'r+'"),
        (12, "os.open with O_TRUNC"),
        (13, "Path.write_text"),
    ]
    # the helper's own open is exempt only in reports.py
    assert truncating_writes(source, "ingest.py")[:2] == [
        (3, "open with mode 'w'"), (3, "os.open with O_TRUNC"),
    ]
