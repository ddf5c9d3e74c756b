"""sha256 digests of the outputs that an engine change must leave unmoved.

    python tools/digests.py

prints one line per output, `<name> <sha256> <facts>`:

- `dense`: the dense grid (criterion 5's cut-in, lane change 0-1 s, 12 s,
  dt 0.05, over v_e0 10-40 and v_o0 0-38 in steps of 2 and d_x0 1-120 m in
  steps of 1, all 7 models): the bytes of the four SweepResult columns,
  then the repr of each (key, text) of the error map in key order. Its
  facts are the error count and each model's collisions.
- `far`: the far grid, digested as the dense grid is: the dense grid with
  d_x0 5-400 m in steps of 5 and a 40 s horizon.
- `edge-cut_in`, `edge-cut_out`: the edge grid (v_e0 {0, 10, 20, 30, 40,
  1e306} x v_o0 {0, 10, 25, 1e308} x d_x0 {-1, 0, 1e-300, 2, 20, 60, 119}
  x d_y0 {0, 3.75}) over configs/cutin.json's scenario as each kind, all 7
  models: the results CSVs that the comparison store writes, in file name
  order. Its fact is the error row count.
- `edge-<kind>-<axis>=<value>`, both kinds: the edge grid with one axis held
  at one edge value (`v_o0` 1e308, `d_x0` 1e308, `d_y0` 1e308, `d_y0` 0,
  `v_e0` 1e306), digested as the edge grid is. A one-value axis reaches
  the batch as one float that every lane shares, so these take that path
  through lanes that fail.
- `bench-seed7`, `bench-seed11`: `comparison` then `post-process` on the
  bench sweep config of that seed (bench/inputs.sweep_config, size full):
  every file of the output tree in path order, each as its relative path
  and bytes, then both commands' exit codes and stdout, with the output
  directory's path written as `OUT`.

tests/golden/digests.json holds the dense, edge grid and variant lines'
digests, and tests/test_golden_digests.py recomputes them with sweep_digest
and edge_lines.

It imports cutinsim from the src/ of the checkout it sits in. Everything
is written under one temporary directory, removed at exit. Run it at two
commits: equal lines mean equal outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# bench/inputs.py imports its sibling spec
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from inputs import sweep_config  # noqa: E402

from cutinsim import cli  # noqa: E402
from cutinsim.config import load_config  # noqa: E402
from cutinsim.engine import ScenarioParams, SweepGrid, sweep  # noqa: E402
from cutinsim.reports import write_comparison_store  # noqa: E402
from cutinsim.risk import DEFAULT_TTC_CRIT_S  # noqa: E402
from cutinsim.safety_models import MODEL_NAMES  # noqa: E402

DENSE_GRID = SweepGrid(
    v_e0_mps=tuple(float(v) for v in range(10, 41, 2)),
    v_o0_mps=tuple(float(v) for v in range(0, 39, 2)),
    d_x0_m=tuple(float(d) for d in range(1, 121)),
    d_y0_m=(3.75,),
)
DENSE_BASE = ScenarioParams(
    kind="cut_in", v_e0_mps=25.0, v_o0_mps=20.0, d_x0_m=30.0, d_y0_m=3.75,
    lc_start_s=0.0, lc_duration_s=1.0, duration_s=12.0, dt_s=0.05,
)
FAR_GRID = replace(DENSE_GRID, d_x0_m=tuple(float(d) for d in range(5, 401, 5)))
FAR_BASE = replace(DENSE_BASE, duration_s=40.0)
EDGE_GRID = SweepGrid(
    v_e0_mps=(0.0, 10.0, 20.0, 30.0, 40.0, 1e306),
    v_o0_mps=(0.0, 10.0, 25.0, 1e308),
    d_x0_m=(-1.0, 0.0, 1e-300, 2.0, 20.0, 60.0, 119.0),
    d_y0_m=(0.0, 3.75),
)
# (axis field, value): the edge grid with that axis holding the value alone
EDGE_VARIANTS = (("v_o0_mps", 1e308), ("d_x0_m", 1e308), ("d_y0_m", 1e308), ("d_y0_m", 0.0),
                 ("v_e0_mps", 1e306))
BENCH_SEEDS = (7, 11)


def sweep_digest(grid: SweepGrid, base: ScenarioParams) -> tuple[str, str]:
    """The digest and facts of the sweep of grid over base, all 7 models."""
    result = sweep(grid, MODEL_NAMES, base)
    h = hashlib.sha256()
    for column in (result.collided, result.min_gap_long_m, result.min_ttc_s,
                   result.peak_decel_mps2):
        h.update(column.tobytes())
    for entry in sorted(result.errors.items()):
        h.update(repr(entry).encode())
    collisions = " ".join(f"{model}={n}" for model, n in
                          zip(result.models, np.count_nonzero(result.collided, axis=1).tolist()))
    return h.hexdigest(), f"errors={len(result.errors)} collisions: {collisions}"


def edge_base(kind: str) -> ScenarioParams:
    """configs/cutin.json's scenario as kind: the base of every edge grid."""
    return replace(load_config(os.path.join(ROOT, "configs", "cutin.json")).scenario, kind=kind)


def edge_grids() -> list[tuple[str, SweepGrid]]:
    """(name suffix, grid) of the edge grid and of each variant."""
    return [("", EDGE_GRID)] + [
        (f"-{field.rsplit('_', 1)[0]}={value!r}", replace(EDGE_GRID, **{field: (value,)}))
        for field, value in EDGE_VARIANTS
    ]


def edge(kind: str, grid: SweepGrid, name: str, work: str) -> tuple[str, str]:
    result = sweep(grid, MODEL_NAMES, edge_base(kind))
    out = os.path.join(work, name)
    write_comparison_store(out, result, {"risk": {"ttc_crit_s": DEFAULT_TTC_CRIT_S}, "seed": 0})
    h = hashlib.sha256()
    for file_name in sorted(os.listdir(out)):
        if file_name.startswith("results_"):
            with open(os.path.join(out, file_name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest(), f"errors={len(result.errors)}"


def edge_lines(work: str) -> list[tuple[str, str, str]]:
    """(name, digest, facts) of the edge grid and of each variant, as each kind."""
    lines = []
    for suffix, grid in edge_grids():
        for kind in ("cut_in", "cut_out"):
            name = f"edge-{kind}{suffix}"
            lines.append((name, *edge(kind, grid, name, work)))
    return lines


def bench_tree(seed: int, work: str) -> tuple[str, str]:
    cfg = os.path.join(work, f"sweep-{seed}.json")
    with open(cfg, "w") as fh:
        json.dump(sweep_config(seed, "full"), fh)
    out = os.path.join(work, f"bench-{seed}")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        codes = (cli.main(["comparison", "--config", cfg, "--out", out, "--jobs", "1"]),
                 cli.main(["post-process", "--results", out]))
    h = hashlib.sha256()
    for folder, _, files in sorted(os.walk(out)):
        for name in sorted(files):
            path = os.path.join(folder, name)
            h.update(os.path.relpath(path, out).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    h.update(repr(codes).encode() + stdout.getvalue().replace(out, "OUT").encode())
    return h.hexdigest(), f"exit={codes}"


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        lines = [("dense", *sweep_digest(DENSE_GRID, DENSE_BASE)),
                 ("far", *sweep_digest(FAR_GRID, FAR_BASE))]
        lines += edge_lines(work)
        lines += [(f"bench-seed{seed}", *bench_tree(seed, work)) for seed in BENCH_SEEDS]
    for name, digest, facts in lines:
        print(f"{name} {digest} {facts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
