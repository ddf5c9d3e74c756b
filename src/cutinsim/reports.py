"""Result serialization: trace CSV, verdict JSON, comparison store, summaries,
histogram and fitted-curve plot data.

Every writer is deterministic: no timestamps, sorted JSON keys, fixed float
formatting (6 significant digits, "inf" for infinities, booleans as 0/1), so a
rerun with the same config produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .engine import SimResult, SweepItem
from .errors import ConfigError
from .risk import ModelSummary

TRACE_HEADER = "t,ego_x,ego_y,ego_v,cut_x,cut_y,cut_v,gap_long,gap_lat,ttc,safe,decel_cmd"
RESULTS_HEADER = "index,v_e0,v_o0,d_x0,d_y0,collided,min_ttc,min_gap,peak_decel,classification,error"
SUMMARY_HEADER = "model,mean_ttc,std_ttc,prob_below,critical_fraction,n,n_excluded"
MANIFEST_NAME = "manifest.json"

HIST_BINS = 30
DENSITY_POINTS = 200
DENSITY_HALF_WIDTH_SIGMAS = 5.0


def fmt_float(value: float) -> str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        return "nan"
    return f"{value:.6g}"


def _json_number(value: float):
    return "inf" if math.isinf(value) else value


def _dump_json(path: str, payload: Any) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trace_csv(path: str, result: SimResult) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(TRACE_HEADER + "\n")
        for s in result.trace:
            fields = (
                fmt_float(s.t_s),
                fmt_float(s.ego.pos_long_m),
                fmt_float(s.ego.pos_lat_m),
                fmt_float(s.ego.vel_long_mps),
                fmt_float(s.other.pos_long_m),
                fmt_float(s.other.pos_lat_m),
                fmt_float(s.other.vel_long_mps),
                fmt_float(s.gap_long_m),
                fmt_float(s.gap_lat_m),
                fmt_float(s.ttc_s),
                "1" if s.safe else "0",
                fmt_float(s.decel_cmd_mps2),
            )
            fh.write(",".join(fields) + "\n")


def write_verdict_json(path: str, result: SimResult) -> None:
    _dump_json(
        path,
        {
            "collided": result.collided,
            "min_ttc": _json_number(result.min_ttc_s),
            "classification": result.classification,
            "model": result.model_name,
        },
    )


def results_filename(model: str) -> str:
    return f"results_{model}.csv"


def write_comparison_store(
    out_dir: str,
    items: Sequence[SweepItem],
    resolved_config: Mapping[str, Any],
    cfg_hash: str,
    seed: int,
) -> None:
    """One results CSV per model plus a manifest describing the run."""
    os.makedirs(out_dir, exist_ok=True)
    by_model: dict[str, list[SweepItem]] = {}
    for item in items:
        by_model.setdefault(item.model_name, []).append(item)
    files: dict[str, str] = {}
    for model, model_items in by_model.items():
        name = results_filename(model)
        files[model] = name
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            fh.write(RESULTS_HEADER + "\n")
            for item in sorted(model_items, key=lambda it: it.grid_index):
                r = item.result
                if r is not None:
                    outcome = (
                        "1" if r.collided else "0",
                        fmt_float(r.min_ttc_s),
                        fmt_float(r.min_gap_long_m),
                        fmt_float(r.peak_decel_mps2),
                        r.classification,
                        "",
                    )
                else:
                    error = (item.error or "unknown error").replace(",", ";").replace("\n", " ")
                    outcome = ("", "", "", "", "", error)
                fields = (str(item.grid_index), *map(fmt_float, item.point), *outcome)
                fh.write(",".join(fields) + "\n")
    manifest = {
        "schema_version": 1,
        "config_hash": cfg_hash,
        "seed": seed,
        "models": sorted(by_model),
        "files": files,
        "config": dict(resolved_config),
    }
    _dump_json(os.path.join(out_dir, MANIFEST_NAME), manifest)


@dataclass(frozen=True)
class RunRecord:
    """One grid-point outcome as reloaded from a results CSV."""

    min_ttc_s: float
    classification: str


def read_manifest(results_dir: str) -> dict[str, Any]:
    path = os.path.join(results_dir, MANIFEST_NAME)
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no manifest found in {results_dir}", key="results")
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ConfigError(f"corrupt manifest in {results_dir}: {exc}", key="results")

    def corrupt(problem: str) -> ConfigError:
        return ConfigError(f"corrupt manifest in {results_dir}: {problem}", key="results")

    if not isinstance(manifest, dict):
        raise corrupt("the root is not a JSON object")
    for key in ("config_hash", "files", "models"):
        if key not in manifest:
            raise corrupt(f"missing {key!r}")
    files = manifest["files"]
    if not isinstance(files, dict) or not all(isinstance(name, str) for name in files.values()):
        raise corrupt("'files' is not an object of file names")
    config = manifest.get("config", {})
    if not isinstance(config, dict) or not isinstance(config.get("risk", {}), dict):
        raise corrupt("'config' or 'config.risk' is not a JSON object")
    return manifest


def read_comparison_store(results_dir: str) -> tuple[dict[str, Any], dict[str, list[RunRecord]]]:
    manifest = read_manifest(results_dir)
    n_fields = len(RESULTS_HEADER.split(","))
    records: dict[str, list[RunRecord]] = {}
    for model, filename in manifest["files"].items():
        rows: list[RunRecord] = []
        with open(os.path.join(results_dir, filename)) as fh:
            header = fh.readline().rstrip("\n")
            if header != RESULTS_HEADER:
                raise ConfigError(
                    f"unexpected results header in {filename}", key="results"
                )
            for line_no, line in enumerate(fh, start=2):
                fields = line.rstrip("\n").split(",")
                where = f"{filename} line {line_no}"
                if len(fields) != n_fields:
                    raise ConfigError(
                        f"{where}: {len(fields)} fields where the header has {n_fields}",
                        key="results",
                    )
                if fields[-1]:
                    continue  # error row: no outcome to summarize
                try:
                    min_ttc = float(fields[6])
                except ValueError:
                    min_ttc = math.nan
                if math.isnan(min_ttc):
                    raise ConfigError(f"{where}: min_ttc {fields[6]!r} is not a number", key="results")
                rows.append(RunRecord(min_ttc_s=min_ttc, classification=fields[9]))
        records[model] = rows
    return manifest, records


def write_summary(out_dir: str, summaries: Sequence[ModelSummary], ttc_crit_s: float) -> None:
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for row in summaries:
            if row.available:
                fields = (
                    row.model,
                    f"{row.mean_ttc_s:.4f}",
                    f"{row.std_ttc_s:.4f}",
                    f"{row.prob_below:.4f}",
                    f"{row.critical_fraction:.4f}" if row.critical_fraction is not None else "",
                    str(row.n_finite),
                    str(row.n_excluded),
                )
            else:
                fields = (
                    row.model,
                    "",
                    "",
                    "",
                    f"{row.critical_fraction:.4f}" if row.critical_fraction is not None else "",
                    str(row.n_finite),
                    str(row.n_excluded),
                )
            fh.write(",".join(fields) + "\n")
    payload = {
        "ttc_crit_s": ttc_crit_s,
        "models": [
            {
                "model": row.model,
                "available": row.available,
                "mean_ttc": row.mean_ttc_s,
                "std_ttc": row.std_ttc_s,
                "prob_below": row.prob_below,
                "critical_fraction": row.critical_fraction,
                "n": row.n_finite,
                "n_excluded": row.n_excluded,
                "note": row.note,
            }
            for row in summaries
        ],
    }
    _dump_json(os.path.join(out_dir, "summary.json"), payload)


def write_plot_data(
    out_dir: str,
    samples_by_model: Mapping[str, Sequence[float]],
    summaries: Sequence[ModelSummary],
) -> list[str]:
    """Histogram and fitted-curve files, directly plottable by external tools.

    Histograms share 30 uniform bins over the pooled finite range; the fitted
    curve samples each model's Gaussian at 200 uniform points across +/- 5
    sigma. Returns the filenames written.
    """
    written: list[str] = []
    finite_by_model = {
        model: [s for s in samples if math.isfinite(s)]
        for model, samples in samples_by_model.items()
    }
    pooled = [s for samples in finite_by_model.values() for s in samples]
    if pooled:
        lo, hi = min(pooled), max(pooled)
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        edges = np.linspace(lo, hi, HIST_BINS + 1)
        for model in sorted(finite_by_model):
            counts, _ = np.histogram(finite_by_model[model], bins=edges)
            name = f"hist_{model}.csv"
            with open(os.path.join(out_dir, name), "w", newline="") as fh:
                fh.write("bin_left,bin_right,count\n")
                for i, count in enumerate(counts):
                    fh.write(
                        f"{fmt_float(float(edges[i]))},{fmt_float(float(edges[i + 1]))},{int(count)}\n"
                    )
            written.append(name)
    for row in summaries:
        if not row.available:
            continue
        mu, sigma = row.mean_ttc_s, row.std_ttc_s
        xs = np.linspace(
            mu - DENSITY_HALF_WIDTH_SIGMAS * sigma,
            mu + DENSITY_HALF_WIDTH_SIGMAS * sigma,
            DENSITY_POINTS,
        )
        densities = np.exp(-0.5 * ((xs - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        name = f"density_{row.model}.csv"
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            fh.write("x,density\n")
            for x, d in zip(xs, densities):
                fh.write(f"{fmt_float(float(x))},{fmt_float(float(d))}\n")
        written.append(name)
    return written
