import copy
import dataclasses
import json
import os
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutinsim.config import load_config, parse_config, resolved_dict
from cutinsim.engine import sweep
from cutinsim.errors import ConfigError
from sweep_entries import entries, reprs, scalar_sweep

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

with open(os.path.join(CONFIGS, "comparison.json")) as fh:
    BASE = json.load(fh)


@pytest.mark.parametrize("name", ("comparison.json", "cutin.json", "intercept.json"))
def test_resolved_config_parses_back_to_itself(name):
    cfg = load_config(os.path.join(CONFIGS, name))
    assert parse_config(json.loads(json.dumps(resolved_dict(cfg)))) == cfg


def test_golden_manifest_config_reproduces_the_run_config():
    golden = os.path.join(os.path.dirname(__file__), "golden", "comparison", "manifest.json")
    with open(golden) as fh:
        manifest = json.load(fh)
    assert parse_config(manifest["config"]) == load_config(os.path.join(CONFIGS, "comparison.json"))


CONFIG_CHECKS = [
    pytest.param(json.dumps({**BASE, "dims": {"trailer": {}}}), "dims.trailer",
                 "unknown key dims.'trailer'", id="unknown-dims-key"),
    pytest.param(json.dumps({**BASE, "model_params": {"rba": {}}}), "model_params.rba",
                 "under the top-level 'rba' key", id="model-params-rba"),
    pytest.param(json.dumps({**BASE, "model_params": {"bogus": {}}}), "model_params.bogus",
                 "unknown key model_params.'bogus'", id="unknown-model-params-section"),
    # IDM's exponent is the constant 4, not a parameter
    pytest.param(json.dumps({**BASE, "model_params": {"idm": {"delta": 4.0}}}),
                 "model_params.idm.delta", "unknown key model_params.idm.'delta'",
                 id="idm-delta-is-not-a-key"),
    pytest.param(json.dumps({k: v for k, v in BASE.items() if k != "scenario"}), "scenario",
                 "missing required key 'scenario'", id="missing-scenario"),
    pytest.param(json.dumps({**BASE, "risk": {"ttc_crit_s": 0.0}}), "risk.ttc_crit_s",
                 "must be positive", id="ttc-crit-zero"),
    pytest.param(None, "config", "config file not found", id="file-not-found"),
    pytest.param("[1, 2]", "config", "root must be a JSON object", id="non-object-root"),
]


@pytest.mark.parametrize("text, key, message", CONFIG_CHECKS)
def test_each_config_check_names_its_key(tmp_path, text, key, message):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(message)) as exc:
        load_config(str(path))
    assert exc.value.key == key


def test_an_unregistered_model_name_is_a_config_error_on_key_model():
    with pytest.raises(ConfigError) as exc:
        parse_config({**BASE, "model": "bogus"})
    assert str(exc.value) == (
        "model: 'bogus' is not a registered model (choose from "
        "('rba', 'rss', 'reg157', 'cc_human', 'fsm', 'idm', 'none'))"
    )
    assert exc.value.key == "model"


def _key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


PATHS = sorted(_key_paths(BASE))
# known names reach the sections the base config leaves at their defaults
NAMES = sorted(
    {key for path in PATHS for key in path}
    | {"model", "rba", "model_params", "dims", "out_dir", "other_speed_profile",
       "rss", "idm", "ego", "a_max_mps2", "delta", "width_m"}
)

# st.integers rarely leaves the small values, so magnitudes are drawn as well
big_integers = st.builds(lambda m, e: m * 10**e, st.integers(-9, 9), st.integers(0, 400))
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | big_integers
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(NAMES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(NAMES) | st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
key_paths = st.sampled_from(PATHS) | st.lists(
    st.sampled_from(NAMES), min_size=1, max_size=3
).map(tuple)


def _merge(config, path, value):
    node = config
    for key in path[:-1]:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    node[path[-1]] = value


# every key the config format defines: the resolved form spells out all of them
RESOLVED = resolved_dict(load_config(os.path.join(CONFIGS, "comparison.json")))
DEFINED_KEYS = {key for path in _key_paths(RESOLVED) for key in path} | {"out_dir"}


def _input_keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from key.split(".")
            yield from _input_keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _input_keys(value)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(key_paths, json_values), min_size=1, max_size=3))
@example([(("sweep", "v_e0"), [])])
def test_parse_config_raises_only_config_errors_naming_a_key(overrides):
    raw = copy.deepcopy(BASE)
    for path, value in overrides:
        _merge(raw, path, value)
    try:
        cfg = parse_config(raw)
    except ConfigError as exc:
        # each part of the key is one the format defines or one the input holds
        known = DEFINED_KEYS | set(_input_keys(raw))
        assert exc.key and all(part in known for part in exc.key.split(".")), exc.key
        return
    # an accepted config survives the manifest round trip (out_dir is not recorded)
    resolved = json.loads(json.dumps(resolved_dict(cfg)))
    assert parse_config(resolved) == dataclasses.replace(cfg, out_dir=None)



def test_integer_model_parameters_give_the_sweep_and_the_scalar_loop_equal_items():
    raw = copy.deepcopy(BASE)
    raw["model_params"] = {"rss": {"ego_brake_min_mps2": 4}}
    cfg = parse_config(raw)
    assert type(cfg.model_params.rss.ego_brake_min_mps2) is float
    models = ("rss", "reg157")
    result = sweep(cfg.sweep, models, cfg.scenario, cfg.model_params)
    rows = entries(result, cfg.ttc_crit_s)
    assert len(rows) == 54
    # repr tells 4 from 4.0
    assert reprs(rows) == reprs(
        scalar_sweep(cfg.sweep, models, cfg.scenario, cfg.model_params, cfg.ttc_crit_s)
    )
