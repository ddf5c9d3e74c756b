import hashlib
import json
import math
import os
import re
import shutil
from dataclasses import replace

import pytest

from cutinsim.cli import main
from cutinsim.config import parse_config
from cutinsim.engine import run_closed_loop
from cutinsim.errors import ConfigError
from cutinsim.kinematics import VehicleDims
from cutinsim.reports import fmt_float, read_comparison_store

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "schema_version": 1,
        "seed": 0,
        "scenario": {
            "kind": "cut_in",
            "v_e0": 25.0,
            "v_o0": 20.0,
            "d_x0": 30.0,
            "d_y0": 3.75,
            "lc_start_s": 0.0,
            "lc_duration_s": 1.0,
            "duration_s": 12.0,
            "dt_s": 0.05,
        },
        "model": "rba",
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def tree_digest(root):
    digest = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            digest[rel] = hashlib.sha256(open(path, "rb").read()).hexdigest()
    return digest


def test_one_case_bundled_cutin_config(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["one-case", "--config", os.path.join(CONFIGS, "cutin.json"), "--out", str(out)])
    assert code == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["collided"] is False
    assert verdict["model"] == "rba"
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("t,ego_x,ego_y,ego_v,cut_x")
    assert len(trace) > 100


def test_one_case_collision_exit_code(tmp_path):
    out = tmp_path / "out"
    code = main(["one-case", "--config", os.path.join(CONFIGS, "intercept.json"), "--out", str(out)])
    assert code == 2
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["collided"] is True


def test_unknown_model_names_the_offender(tmp_path, capsys):
    cfg = write_config(tmp_path, model="rba")
    code = main(["one-case", "--config", cfg, "--model", "bogus", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_bad_config_key_names_the_offender(tmp_path, capsys):
    cfg = write_config(tmp_path, extra_key=1)
    code = main(["one-case", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "extra_key" in capsys.readouterr().err


SCENARIO = {"kind": "cut_in", "v_e0": 25.0, "v_o0": 20.0, "d_x0": 30.0, "d_y0": 3.75,
            "lc_start_s": 0.0, "lc_duration_s": 1.0}


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"scenario": {**SCENARIO, "duration_s": math.inf}}, "scenario.duration_s"),
        ({"scenario": []}, "scenario"),
        ({"risk": {"ttc_crit_s": "x"}}, "risk.ttc_crit_s"),
        ({"scenario": {**SCENARIO, "kind": "car_following", "d_y0": 0.0,
                       "other_speed_profile": [[1]]}}, "scenario.other_speed_profile"),
        ({"scenario": {**SCENARIO, "v_e0": math.nan}}, "scenario.v_e0"),
        ({"rba": {"a_max_mps2": math.nan}}, "rba.a_max_mps2"),
        ({"model_params": {"idm": {"delta": "4"}}}, "model_params.idm.delta"),
        ({"classify": {"ttc_critical_s": -math.inf}}, "classify.ttc_critical_s"),
        ({"dims": {"ego": [2.0, 5.0]}}, "dims.ego"),
        ({"sweep": {"v_e0": 25.0}}, "sweep.v_e0"),
        ({"sweep": {"d_x0": [20.0, math.nan]}}, "sweep.d_x0"),
        ({"models": ["rba", "rba", "none"]}, "models"),
        ({"scenario": {**SCENARIO, "dt_s": 1e-9}}, "scenario.dt_s"),
        ({"scenario": {**SCENARIO, "v_o0": -1.0}}, "scenario.v_o0"),
        ({"scenario": {**SCENARIO, "v_e0": 10**400}}, "scenario.v_e0"),
        ({"sweep": {"v_e0": [], "v_o0": [15.0], "d_x0": [20.0], "d_y0": [3.75]}}, "sweep.v_e0"),
        ({"sweep": {"v_e0": [20.0]}}, "sweep.v_o0"),
    ],
)
def test_malformed_config_is_a_config_error_naming_the_key(tmp_path, capsys, overrides, key):
    cfg = write_config(tmp_path, **overrides)
    code = main(["one-case", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    # the input key itself, not a longer name such as a dataclass field
    assert re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", err), err
    assert "Traceback" not in err


def test_integer_literal_too_long_to_read_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"schema_version": 1, "seed": ' + "9" * 5000 + "}")
    code = main(["one-case", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "not valid JSON" in err
    assert "Traceback" not in err


def test_underscore_aliases_accepted(tmp_path):
    out = tmp_path / "out"
    code = main(["one_case", "--config", os.path.join(CONFIGS, "cutin.json"), "--out", str(out)])
    assert code == 0


def comparison_config(tmp_path, **extra):
    return write_config(
        tmp_path,
        name="cmp.json",
        models=["rba", "none"],
        sweep={"v_e0": [25.0, 30.0], "v_o0": [15.0], "d_x0": [20.0, 40.0], "d_y0": [3.75]},
        **extra,
    )


def test_comparison_store_shape(tmp_path):
    cfg = comparison_config(tmp_path)
    out = tmp_path / "cmp"
    assert main(["comparison", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["models"] == ["none", "rba"]
    for model in ("rba", "none"):
        lines = (out / f"results_{model}.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # header + 2x1x2x1 grid


def test_comparison_reruns_byte_identical(tmp_path):
    cfg = comparison_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["comparison", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["comparison", "--config", cfg, "--out", str(out2)]) == 0
    assert tree_digest(out1) == tree_digest(out2)


def test_comparison_jobs_flag_matches_serial(tmp_path):
    cfg = comparison_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["comparison", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["comparison", "--config", cfg, "--out", str(out2), "--jobs", "2"]) == 0
    assert tree_digest(out1) == tree_digest(out2)


@pytest.mark.parametrize("jobs", ("0", "-3"))
def test_comparison_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    cfg = comparison_config(tmp_path)
    out = tmp_path / "cmp"
    assert main(["comparison", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert "jobs" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_config_hash_changes_with_any_parameter(tmp_path):
    cfg1 = comparison_config(tmp_path)
    out1 = tmp_path / "a"
    main(["comparison", "--config", cfg1, "--out", str(out1)])
    h1 = json.loads((out1 / "manifest.json").read_text())["config_hash"]

    cfg2 = write_config(
        tmp_path,
        name="cmp2.json",
        models=["rba", "none"],
        sweep={"v_e0": [25.0, 30.0], "v_o0": [15.0], "d_x0": [20.0, 40.0], "d_y0": [3.75]},
        seed=7,
    )
    out2 = tmp_path / "b"
    main(["comparison", "--config", cfg2, "--out", str(out2)])
    h2 = json.loads((out2 / "manifest.json").read_text())["config_hash"]
    assert h1 != h2


def test_post_process_outputs(tmp_path):
    cfg = comparison_config(tmp_path)
    out = tmp_path / "cmp"
    assert main(["comparison", "--config", cfg, "--out", str(out)]) == 0
    assert main(["post-process", "--results", str(out), "--ttc-crit", "2.0"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ttc_crit_s"] == 2.0
    models = {row["model"] for row in summary["models"]}
    assert models == {"rba", "none"}
    csv_lines = (out / "summary.csv").read_text().splitlines()
    assert csv_lines[0] == "model,mean_ttc,std_ttc,prob_below,critical_fraction,n,n_excluded"
    assert len(csv_lines) == 3
    # histogram conservation for each model with finite samples
    for row in summary["models"]:
        hist = (out / f"hist_{row['model']}.csv").read_text().splitlines()[1:]
        total = sum(int(line.split(",")[2]) for line in hist)
        assert total == row["n"]


def test_post_process_missing_manifest(tmp_path, capsys):
    code = main(["post-process", "--results", str(tmp_path)])
    assert code == 1
    assert "manifest" in capsys.readouterr().err


@pytest.mark.parametrize("text", ("{", '{"config_hash": ' + "9" * 5000 + "}"))
def test_post_process_unreadable_manifest_is_a_config_error(tmp_path, capsys, text):
    (tmp_path / "manifest.json").write_text(text)
    assert main(["post-process", "--results", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "corrupt manifest" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ("nan", "inf"))
@pytest.mark.parametrize("source", ("flag", "manifest"))
def test_post_process_rejects_a_non_finite_ttc_crit(tmp_path, capsys, value, source):
    cfg = comparison_config(tmp_path)
    out = tmp_path / "cmp"
    assert main(["comparison", "--config", cfg, "--out", str(out)]) == 0
    args = ["post-process", "--results", str(out)]
    if source == "flag":
        args += ["--ttc-crit", value]
    else:
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["risk"]["ttc_crit_s"] = float(value)
        (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "ttc-crit" in err
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()


def test_post_process_alias(tmp_path):
    cfg = comparison_config(tmp_path)
    out = tmp_path / "cmp"
    main(["comparison", "--config", cfg, "--out", str(out)])
    assert main(["post_processing", "--results", str(out)]) == 0


def test_default_out_dir_is_hash_scoped(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(["one-case", "--config", cfg])
    assert code == 0
    out_root = tmp_path / "out"
    children = list(out_root.iterdir())
    assert len(children) == 1
    assert (children[0] / "verdict.json").exists()


def test_comparison_requires_sweep_section(tmp_path, capsys):
    cfg = write_config(tmp_path, models=["rba"])
    code = main(["comparison", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "sweep" in capsys.readouterr().err


def test_comparison_uses_the_configured_footprints(tmp_path):
    with open(os.path.join(CONFIGS, "comparison.json")) as fh:
        raw = json.load(fh)
    raw["dims"] = {"ego": {"width_m": 2.0, "length_m": 12.0},
                   "other": {"width_m": 2.5, "length_m": 16.0}}
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "cmp"
    assert main(["comparison", "--config", str(path), "--out", str(out)]) == 0
    cfg = parse_config(raw)
    assert cfg.scenario.ego_dims == VehicleDims(2.0, 12.0)
    assert cfg.scenario.other_dims == VehicleDims(2.5, 16.0)
    points = cfg.sweep.points()
    for model in cfg.models:
        rows = (out / f"results_{model}.csv").read_text().splitlines()[1:]
        assert len(rows) == len(points)
        for row in rows:
            fields = row.split(",")
            v_e0, v_o0, d_x0, d_y0 = points[int(fields[0])]
            p = replace(cfg.scenario, v_e0_mps=v_e0, v_o0_mps=v_o0, d_x0_m=d_x0, d_y0_m=d_y0)
            r = run_closed_loop(p, model, cfg.model_params, cfg.classify)
            assert (fields[5], fields[6], fields[9]) == (
                "1" if r.collided else "0", fmt_float(r.min_ttc_s), r.classification
            ), (model, fields[0])


@pytest.fixture(scope="module")
def comparison_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    out = root / "cmp"
    assert main(["comparison", "--config", comparison_config(root), "--out", str(out)]) == 0
    return out


def _edit_manifest(edit):
    def corrupt(out):
        path = out / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return corrupt


def _edit_rba_results(edit):
    def corrupt(out):
        path = out / "results_rba.csv"
        path.write_text(edit(path.read_text()))
    return corrupt


def _replace_min_ttc(value):
    def edit(text):
        lines = text.splitlines()
        fields = lines[2].split(",")
        fields[6] = value
        lines[2] = ",".join(fields)
        return "\n".join(lines) + "\n"
    return edit


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_edit_manifest(lambda m: 5), "manifest"),
        (_edit_manifest(lambda m: {**m, "config": "x"}), "manifest"),
        (_edit_manifest(lambda m: {**m, "config": {**m["config"], "risk": [1]}}), "manifest"),
        (_edit_manifest(lambda m: {**m, "files": ["a"]}), "manifest"),
        (_edit_rba_results(lambda text: text + "5,1,2\n"), "results_rba.csv line 6"),
        (_edit_rba_results(_replace_min_ttc("x")), "results_rba.csv line 3"),
        (_edit_rba_results(_replace_min_ttc("nan")), "results_rba.csv line 3"),
    ],
    ids=["root", "config", "risk", "files", "short-row", "min-ttc", "nan-min-ttc"],
)
def test_post_process_rejects_a_malformed_store(tmp_path, capsys, comparison_store, corrupt, message):
    out = tmp_path / "cmp"
    shutil.copytree(comparison_store, out)
    corrupt(out)
    with pytest.raises(ConfigError) as exc:
        read_comparison_store(str(out))
    assert exc.value.key == "results"
    assert main(["post-process", "--results", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()
