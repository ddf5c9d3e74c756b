"""Regression oracle: `comparison` + `post-process` on configs/comparison.json
reproduce the committed output tree in tests/golden/comparison byte for byte.

A change that means to alter these outputs regenerates the tree with

    cutinsim comparison --config configs/comparison.json --out tests/golden/comparison
    cutinsim post-process --results tests/golden/comparison

and says in its description why the outputs changed.
"""

import os

import pytest

from cutinsim.cli import main

HERE = os.path.dirname(__file__)
CONFIG = os.path.join(HERE, "..", "configs", "comparison.json")
GOLDEN = os.path.join(HERE, "golden", "comparison")


def test_comparison_tree_matches_golden(tmp_path):
    out = tmp_path / "cmp"
    assert main(["comparison", "--config", CONFIG, "--out", str(out)]) == 0
    assert main(["post-process", "--results", str(out)]) == 0
    expected = sorted(os.listdir(GOLDEN))
    assert sorted(os.listdir(out)) == expected
    for name in expected:
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            golden = fh.read()
        if (out / name).read_bytes() != golden:
            pytest.fail(f"{name} differs from the golden copy in tests/golden/comparison")
