"""Result serialization: trace CSV, verdict JSON, comparison store, summaries,
histogram and fitted-curve plot data.

Every writer is deterministic: no timestamps, sorted JSON keys, and every
float in a CSV written with the one format FLOAT_FORMAT ("%.6g": 6 significant
digits; infinities and NaN as "inf", "-inf" and "nan"), booleans as 0/1, so a
rerun with the same config produces byte-identical files. The exception is
summary.csv, which writes its four statistics with "%.4f" (summary.json holds
them at full precision). Each other CSV row is written with one %-format
string.

Every file goes through write_lines, which rewrites an existing file in place
instead of truncating it first: on a filesystem that discards freed blocks,
truncating a written file to 0 costs tens of milliseconds, far more than the
run that produced it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from typing import Any, Collection, Iterable, Mapping, Sequence

import numpy as np

from .config import config_hash
from .engine import SimResult, SweepResult
from .errors import ConfigError
from .risk import ModelSummary, is_critical
from .safety_models import MODEL_NAMES

TRACE_HEADER = "t,ego_x,ego_y,ego_v,cut_x,cut_y,cut_v,gap_long,gap_lat,ttc,safe,decel_cmd"
RESULTS_HEADER = "index,v_e0,v_o0,d_x0,d_y0,collided,min_ttc,min_gap,peak_decel,classification,error"
SUMMARY_HEADER = "model,mean_ttc,std_ttc,prob_below,critical_fraction,n,n_excluded"
MANIFEST_NAME = "manifest.json"
# the classification column's two labels, and verdict.json's
CRITICAL = "critical"
NON_CRITICAL = "non_critical"

HIST_BINS = 30
DENSITY_POINTS = 200
DENSITY_HALF_WIDTH_SIGMAS = 5.0

FLOAT_FORMAT = "%.6g"


def row_format(*specs: str) -> str:
    """One CSV row's %-format string: the specs joined by commas, with FLOAT_FORMAT for "f"."""
    return ",".join(FLOAT_FORMAT if spec == "f" else spec for spec in specs) + "\n"


# the ego holds its lane center, so its lateral position is written as 0
TRACE_ROW = row_format("f", "f", "0", "f", "f", "f", "f", "f", "f", "f", "%d", "f")
# a result row leaves the error column empty, an error row the five outcome columns
RESULT_ROW = row_format("%d", "f", "f", "f", "f", "%d", "f", "f", "f", "%s", "")
ERROR_ROW = row_format("%d", "f", "f", "f", "f", "", "", "", "", "", "%s")
HIST_ROW = row_format("f", "f", "%d")
DENSITY_ROW = row_format("f", "f")


def fmt_float(value: float) -> str:
    return FLOAT_FORMAT % value


def _json_number(value: float):
    return "inf" if math.isinf(value) else value


def write_lines(path: str, *parts: Iterable[str]) -> None:
    """Write the strings of each part in turn to path as UTF-8, rewriting an
    existing file in place.

    The file is opened without O_TRUNC, so blocks it already holds are
    overwritten rather than freed and allocated again, and is truncated at the
    end of what this call wrote, also when an iterable raises part-way: the
    file then holds exactly the strings written, never an old tail. A new file
    gets the mode open(path, "w") gives it (0o666 less the umask).
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        try:
            for lines in parts:
                fh.writelines(lines)
        finally:
            fh.truncate()


def _remove_stale(out_dir: str, kinds: Sequence[str], written: Collection[str]) -> None:
    """Remove each <kind>_<model>.csv not in written: a file an earlier run left."""
    for name in (f"{kind}_{model}.csv" for model in MODEL_NAMES for kind in kinds):
        if name not in written:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))


def _dump_json(path: str, payload: Any) -> None:
    write_lines(path, json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload), ["\n"])


def write_trace_csv(path: str, result: SimResult) -> None:
    tr = result.trace
    columns = (
        tr.t_s, tr.ego_x_m, tr.ego_v_mps, tr.other_x_m, tr.other_y_m, tr.other_v_mps,
        tr.gap_long_m, tr.gap_lat_m, tr.ttc_s, tr.safe, tr.decel_cmd_mps2,
    )
    write_lines(path, [TRACE_HEADER + "\n"], (TRACE_ROW % row for row in zip(*columns)))


def write_verdict_json(path: str, result: SimResult, classification: str, model: str) -> None:
    _dump_json(
        path,
        {
            "collided": result.collided,
            "min_ttc": _json_number(result.min_ttc_s),
            "classification": classification,
            "model": model,
        },
    )


def results_filename(model: str) -> str:
    return f"results_{model}.csv"


def as_float(value: Any) -> float:
    """value as a float, NaN where no float holds it (a string, an integer
    beyond float range)."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _result_rows(result: SweepResult, m: int, ttc_crit_s: float):
    """One results CSV row per grid point of result.models[m], in grid order,
    from row m of each summary column, classified at ttc_crit_s. An error
    row's point may hold a value that FLOAT_FORMAT cannot write (an integer
    beyond float range, a string), so each of its values is written as
    as_float gives it; the row's error text names the value."""
    collided, min_ttc, min_gap, peak_decel = (
        a[m] for a in (result.collided, result.min_ttc_s, result.min_gap_long_m, result.peak_decel_mps2)
    )
    critical = is_critical(collided, min_ttc, peak_decel, ttc_crit_s)
    classes = np.where(critical, CRITICAL, NON_CRITICAL)
    columns = (c.tolist() for c in (collided, min_ttc, min_gap, peak_decel, classes))
    points = itertools.product(*result.grid.axes)
    for index, (point, *summary) in enumerate(zip(points, *columns)):
        error = result.errors.get((m, index))
        if error is None:
            yield RESULT_ROW % (index, *point, *summary)
        else:
            text = error.replace(",", ";").replace("\n", " ")
            yield ERROR_ROW % (index, *map(as_float, point), text)


def write_comparison_store(
    out_dir: str, result: SweepResult, resolved_config: Mapping[str, Any]
) -> None:
    """One results CSV per model of the sweep result, plus a manifest that
    holds resolved_config, its config_hash and its seed. Each run is
    classified at the config's risk.ttc_crit_s, the threshold post-process
    reads back from the manifest. The results CSV of a registered model that
    this run does not write, left by an earlier run, is removed."""
    os.makedirs(out_dir, exist_ok=True)
    files = {model: results_filename(model) for model in result.models}
    for m, name in enumerate(files.values()):
        rows = _result_rows(result, m, resolved_config["risk"]["ttc_crit_s"])
        write_lines(os.path.join(out_dir, name), [RESULTS_HEADER + "\n"], rows)
    _remove_stale(out_dir, ["results"], files.values())
    manifest = {
        "schema_version": 1,
        "config_hash": config_hash(resolved_config),
        "seed": resolved_config["seed"],
        "models": sorted(files),
        "files": files,
        "config": dict(resolved_config),
    }
    _dump_json(os.path.join(out_dir, MANIFEST_NAME), manifest)


def read_manifest(results_dir: str) -> dict[str, Any]:
    """The manifest of the comparison store in results_dir. A missing,
    malformed or edited one (its config_hash is not the hash of its config)
    is a ConfigError with key "results"."""
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
    for key in ("config", "config_hash", "files", "models"):
        if key not in manifest:
            raise corrupt(f"missing {key!r}")
    files = manifest["files"]
    if not isinstance(files, dict):
        raise corrupt("'files' is not an object of file names")
    # the store's own results files only: no path leads out of results_dir
    for model, name in files.items():
        if model not in MODEL_NAMES or name != results_filename(model):
            raise corrupt(f"'files' maps {model!r} to {name!r}, not a registered model's results file")
    config = manifest["config"]
    if not isinstance(config, dict) or not isinstance(config.get("risk", {}), dict):
        raise corrupt("'config' or 'config.risk' is not a JSON object")
    # an edited config would summarize the results files under settings they were not run with
    if manifest["config_hash"] != config_hash(config):
        raise corrupt(f"'config_hash' {manifest['config_hash']!r} is not the hash of 'config'")
    return manifest


def read_comparison_store(
    results_dir: str,
) -> tuple[dict[str, Any], dict[str, tuple[np.ndarray, np.ndarray]]]:
    """The store's manifest and, per model, the columns of its result rows
    (error rows left out): the minimum TTC (float) and whether the run was
    classified critical (bool). A malformed results line is a ConfigError
    with key "results" naming its file and line."""
    manifest = read_manifest(results_dir)
    n_fields = len(RESULTS_HEADER.split(","))
    records: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for model, filename in manifest["files"].items():
        min_ttcs: list[float] = []
        critical: list[bool] = []
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
                if fields[9] not in (CRITICAL, NON_CRITICAL):
                    raise ConfigError(f"{where}: unknown classification {fields[9]!r}", key="results")
                min_ttcs.append(min_ttc)
                critical.append(fields[9] == CRITICAL)
        records[model] = (np.array(min_ttcs, dtype=float), np.array(critical, dtype=bool))
    return manifest, records


def _summary_line(row: ModelSummary) -> str:
    stats = (row.mean_ttc_s, row.std_ttc_s, row.prob_below, row.critical_fraction)
    fields = (
        row.model,
        *("" if value is None else f"{value:.4f}" for value in stats),
        str(row.n_finite),
        str(row.n_excluded),
    )
    return ",".join(fields) + "\n"


def write_summary(out_dir: str, summaries: Sequence[ModelSummary], ttc_crit_s: float) -> None:
    write_lines(os.path.join(out_dir, "summary.csv"), [SUMMARY_HEADER + "\n"], map(_summary_line, summaries))
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
    samples_by_model: Mapping[str, np.ndarray],
    summaries: Sequence[ModelSummary],
) -> list[str]:
    """Histogram and fitted-curve files, directly plottable by external tools.

    Histograms share 30 uniform bins over the pooled finite range; the fitted
    curve samples each model's Gaussian at 200 uniform points across +/- 5
    sigma. A hist_<model>.csv or density_<model>.csv of a registered model
    that this call does not write, left by an earlier run, is removed.
    Returns the filenames written.
    """
    written: list[str] = []
    finite_by_model = {model: s[np.isfinite(s)] for model, s in samples_by_model.items()}
    pooled = np.concatenate([np.empty(0), *finite_by_model.values()])
    if pooled.size:
        lo, hi = float(pooled.min()), float(pooled.max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        edges = np.linspace(lo, hi, HIST_BINS + 1)
        for model in sorted(finite_by_model):
            counts, _ = np.histogram(finite_by_model[model], bins=edges)
            name = f"hist_{model}.csv"
            rows = zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())
            write_lines(
                os.path.join(out_dir, name), ["bin_left,bin_right,count\n"], (HIST_ROW % row for row in rows)
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
        rows = zip(xs.tolist(), densities.tolist())
        write_lines(os.path.join(out_dir, name), ["x,density\n"], (DENSITY_ROW % row for row in rows))
        written.append(name)
    _remove_stale(out_dir, ["hist", "density"], written)
    return written
