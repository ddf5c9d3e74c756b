import copy
import dataclasses
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutinsim.config import load_config, parse_config, resolved_dict
from cutinsim.errors import ConfigError

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


def _key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


PATHS = sorted(_key_paths(BASE))
# known names reach the sections the base config leaves at their defaults
NAMES = sorted(
    {key for path in PATHS for key in path}
    | {"model", "rba", "model_params", "classify", "dims", "out_dir", "other_speed_profile",
       "rss", "idm", "ego", "a_max_mps2", "delta", "width_m", "ttc_critical_s"}
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

