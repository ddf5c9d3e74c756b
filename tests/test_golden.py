"""Regression oracles.

`comparison` + `post-process` on configs/comparison.json reproduce the
committed output tree in tests/golden/comparison byte for byte. A change that
means to alter these outputs regenerates the tree with

    cutinsim comparison --config configs/comparison.json --out tests/golden/comparison
    cutinsim post-process --results tests/golden/comparison

`one-case` on each scenario kind (ONE_CASE_SCENARIOS) under every model writes
the trace.csv and verdict.json whose sha256 digests are committed in
tests/golden/one_case.json. A change that means to alter them regenerates that
file with

    PYTHONPATH=src python tests/test_golden.py

Either way, the change says in its description why the outputs changed.
"""

import hashlib
import json
import os
import tempfile

import pytest

from cutinsim.cli import main
from cutinsim.safety_models import MODEL_NAMES

HERE = os.path.dirname(__file__)
CONFIG = os.path.join(HERE, "..", "configs", "comparison.json")
GOLDEN = os.path.join(HERE, "golden", "comparison")
ONE_CASE_GOLDEN = os.path.join(HERE, "golden", "one_case.json")

# One config per scenario kind. Under rba the cut_in brakes at a_max for 14
# steps; the cut_out cutter is a 12 m truck; the car_following lead stops at
# 3 s and pulls away at 9 s, so rba and idm bring the ego to a standstill.
ONE_CASE_SCENARIOS = {
    "cut_in": {
        "scenario": {"kind": "cut_in", "v_e0": 25.0, "v_o0": 5.0, "d_x0": 20.0, "d_y0": 3.75},
    },
    "cut_out": {
        "scenario": {"kind": "cut_out", "v_e0": 25.0, "v_o0": 18.0, "d_x0": 12.0, "d_y0": 0.5},
        "dims": {"other": {"width_m": 2.5, "length_m": 12.0}},
    },
    "car_following": {
        "scenario": {"kind": "car_following", "v_e0": 20.0, "v_o0": 18.0, "d_x0": 60.0,
                     "d_y0": 0.0, "other_speed_profile": [[3.0, 0.0], [9.0, 8.0]]},
    },
}


def one_case_digests(work: str) -> dict:
    """{kind: {model: {file name: sha256}}} of one-case outputs, in run order."""
    digests: dict = {}
    for kind, sections in ONE_CASE_SCENARIOS.items():
        digests[kind] = {}
        for model in MODEL_NAMES:
            cfg = os.path.join(work, f"{kind}_{model}.json")
            with open(cfg, "w") as fh:
                json.dump({"schema_version": 1, "model": model, **sections}, fh)
            out = os.path.join(work, f"{kind}_{model}")
            assert main(["one-case", "--config", cfg, "--out", out]) in (0, 2)
            files = {}
            for name in ("trace.csv", "verdict.json"):
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = hashlib.sha256(fh.read()).hexdigest()
            digests[kind][model] = files
    return digests


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


def test_one_case_outputs_match_golden_digests(tmp_path):
    with open(ONE_CASE_GOLDEN) as fh:
        golden = json.load(fh)
    got = one_case_digests(str(tmp_path))
    for kind, models in golden.items():
        for model, files in models.items():
            for name, digest in files.items():
                if got[kind][model][name] != digest:
                    pytest.fail(f"one-case {kind}/{model}: {name} differs from tests/golden/one_case.json")
    assert got == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = one_case_digests(work)
    with open(ONE_CASE_GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=2)
        fh.write("\n")
