"""The dense and edge grids' outputs, pinned.

tools/digests.py digests the dense grid's SweepResult (its sweep_digest)
and the results CSVs of the edge grid and of its five one-axis variants,
each swept as cut_in and as cut_out (its edge_lines). These grids reach
what the bundled grid of tests/golden/comparison does not: a sweep in
several chunks with many collisions, lanes that fail on a non-finite plan
or state, invalid points, and a start axis that every lane shares as one
float. tests/golden/digests.json holds their sha256 digests. A change that
means to alter them regenerates that file with

    PYTHONPATH=src python tests/test_golden_digests.py

and says in its description why the outputs changed.

On the edge grids, a sweep gives every entry the scalar loop's outcome
without calling run_closed_loop.
"""

import importlib.util
import json
import os
import tempfile

import pytest

from cutinsim import engine
from cutinsim.engine import sweep
from cutinsim.safety_models import MODEL_NAMES, ModelParams
from sweep_entries import entries, reprs, scalar_sweep

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden", "digests.json")
TOOL = os.path.join(HERE, "..", "tools", "digests.py")
_spec = importlib.util.spec_from_file_location("digests", TOOL)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def dense_digest() -> str:
    return digests.sweep_digest(digests.DENSE_GRID, digests.DENSE_BASE)[0]


def edge_digests(work: str) -> dict:
    """{name: sha256} of every edge_lines line, in the tool's order."""
    return {name: digest for name, digest, _ in digests.edge_lines(work)}


def test_dense_grid_output_matches_its_golden_digest():
    assert dense_digest() == golden()["dense"]


def test_edge_grid_outputs_match_golden_digests(tmp_path):
    golden_edges = {name: digest for name, digest in golden().items() if name != "dense"}
    got = edge_digests(str(tmp_path))
    for name, digest in golden_edges.items():
        if got.get(name) != digest:
            pytest.fail(f"{name} differs from tests/golden/digests.json")
    assert got == golden_edges


@pytest.mark.parametrize("kind", ("cut_in", "cut_out"))
def test_a_sweep_of_the_edge_grids_gives_the_scalar_loops_entries_without_it(kind, monkeypatch):
    # the batch ends a failing lane with its own step's error, so the
    # scalar loop gives only the reference, computed before it is refused
    base = digests.edge_base(kind)
    grids = digests.edge_grids()
    expected = [reprs(scalar_sweep(grid, MODEL_NAMES, base, ModelParams())) for _, grid in grids]

    def refused(*args, **kwargs):
        raise AssertionError("a sweep called run_closed_loop")

    monkeypatch.setattr(engine, "run_closed_loop", refused)
    for (suffix, grid), want in zip(grids, expected):
        assert reprs(entries(sweep(grid, MODEL_NAMES, base))) == want, suffix


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        lines = {"dense": dense_digest(), **edge_digests(work)}
    with open(GOLDEN, "w") as fh:
        json.dump(lines, fh, indent=2)
        fh.write("\n")
