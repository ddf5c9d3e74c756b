"""JSON run configuration: parsing, validation, canonical hashing."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping

from .engine import ScenarioParams, SweepGrid, check_finite, check_models
from .errors import ConfigError
from .kinematics import VehicleDims
from .risk import DEFAULT_TTC_CRIT_S
from .safety_models import ModelParams, RbaParams

SCHEMA_VERSION = 1

_SCENARIO_KEYS = {
    "kind": "kind",
    "v_e0": "v_e0_mps",
    "v_o0": "v_o0_mps",
    "d_x0": "d_x0_m",
    "d_y0": "d_y0_m",
    "lc_start_s": "lc_start_s",
    "lc_duration_s": "lc_duration_s",
    "duration_s": "duration_s",
    "dt_s": "dt_s",
    "other_speed_profile": "other_speed_profile",
}

# model_params.<name> for every ModelParams record but rba's, which sits
# under the top-level "rba" key
_MODEL_SECTIONS = {
    f.name: type(f.default) for f in dataclasses.fields(ModelParams) if f.name != "rba"
}

_SWEEP_KEYS = {"v_e0": "v_e0_mps", "v_o0": "v_o0_mps", "d_x0": "d_x0_m", "d_y0": "d_y0_m"}

_TOP_LEVEL_KEYS = {
    "schema_version",
    "seed",
    "scenario",
    "model",
    "models",
    "rba",
    "model_params",
    "risk",
    "sweep",
    "dims",
    "out_dir",
}


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioParams
    model: str
    models: tuple[str, ...]
    model_params: ModelParams
    ttc_crit_s: float
    sweep: SweepGrid | None
    out_dir: str | None
    seed: int


def _section(data: Any, key: str) -> Mapping[str, Any]:
    if not isinstance(data, dict):
        raise ConfigError(
            f"{key} must be a JSON object, got {type(data).__name__}", key=key
        )
    return data


def _number_list(data: Any, key: str) -> tuple[float, ...]:
    if not isinstance(data, list):
        raise ConfigError(f"{key} must be a list of numbers", key=key)
    return tuple(float(check_finite(v, key)) for v in data)


def _build_dataclass(cls, data: Any, key_prefix: str):
    """Build a parameter record whose fields are all floats."""
    fields = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for name, value in _section(data, key_prefix).items():
        if name not in fields:
            raise ConfigError(
                f"unknown key {key_prefix}.{name!r}", key=f"{key_prefix}.{name}"
            )
        kwargs[name] = float(check_finite(value, f"{key_prefix}.{name}"))
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key_prefix}: {exc}", key=key_prefix) from exc


def _parse_dims(data: Any) -> dict[str, VehicleDims]:
    """Footprints given in the dims section, as ScenarioParams keyword arguments."""
    dims = {}
    for name, value in _section(data, "dims").items():
        if name not in ("ego", "other"):
            raise ConfigError(f"unknown key dims.{name!r}", key=f"dims.{name}")
        dims[f"{name}_dims"] = _build_dataclass(VehicleDims, value, f"dims.{name}")
    return dims


def _parse_scenario(data: Any, dims: Any) -> ScenarioParams:
    kwargs: dict[str, Any] = {}
    for name, value in _section(data, "scenario").items():
        if name not in _SCENARIO_KEYS:
            raise ConfigError(f"unknown key scenario.{name!r}", key=f"scenario.{name}")
        kwargs[_SCENARIO_KEYS[name]] = value
    if "other_speed_profile" in kwargs:
        key = "scenario.other_speed_profile"
        profile = kwargs["other_speed_profile"]
        if not isinstance(profile, list) or not all(
            isinstance(step, list) and len(step) == 2 for step in profile
        ):
            raise ConfigError(f"{key} must be a list of [t, v] pairs", key=key)
        kwargs["other_speed_profile"] = tuple(_number_list(step, key) for step in profile)
    kwargs.update(_parse_dims(dims))
    try:
        return ScenarioParams(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"scenario: {exc}", key="scenario") from exc


def _parse_model_params(data: Any, rba_overrides: Any) -> ModelParams:
    kwargs: dict[str, Any] = {}
    for name, value in _section(data, "model_params").items():
        if name == "rba":
            raise ConfigError(
                "rba overrides belong under the top-level 'rba' key", key="model_params.rba"
            )
        if name not in _MODEL_SECTIONS:
            raise ConfigError(
                f"unknown key model_params.{name!r}", key=f"model_params.{name}"
            )
        kwargs[name] = _build_dataclass(_MODEL_SECTIONS[name], value, f"model_params.{name}")
    kwargs["rba"] = _build_dataclass(RbaParams, rba_overrides, "rba")
    return ModelParams(**kwargs)


def check_ttc_crit(value: Any) -> Any:
    """Return value if it is a finite positive number; otherwise a
    ConfigError naming risk.ttc_crit_s."""
    check_finite(value, "risk.ttc_crit_s")
    if value <= 0.0:
        raise ConfigError("risk.ttc_crit_s must be positive", key="risk.ttc_crit_s")
    return value


def parse_config(raw: Mapping[str, Any]) -> RunConfig:
    for name in raw:
        if name not in _TOP_LEVEL_KEYS:
            raise ConfigError(f"unknown key {name!r}", key=name)
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}", key="schema_version"
        )
    if "scenario" not in raw:
        raise ConfigError("missing required key 'scenario'", key="scenario")
    scenario = _parse_scenario(raw["scenario"], raw.get("dims", {}))

    model = raw.get("model", "rba")
    check_models([model], "model")
    models_raw = raw.get("models", [model])
    if not isinstance(models_raw, (list, tuple)):
        raise ConfigError("models must be a nonempty list", key="models")
    models = tuple(models_raw)
    check_models(models)

    model_params = _parse_model_params(raw.get("model_params", {}), raw.get("rba", {}))

    risk_raw = dict(_section(raw.get("risk", {}), "risk"))
    ttc_crit_s = float(check_ttc_crit(risk_raw.pop("ttc_crit_s", DEFAULT_TTC_CRIT_S)))
    if risk_raw:
        raise ConfigError(
            f"unknown key risk.{next(iter(risk_raw))!r}", key="risk"
        )

    sweep = None
    if "sweep" in raw:
        axes = {}
        for name, value in _section(raw["sweep"], "sweep").items():
            if name not in _SWEEP_KEYS:
                raise ConfigError(f"unknown key sweep.{name!r}", key=f"sweep.{name}")
            axes[_SWEEP_KEYS[name]] = _number_list(value, f"sweep.{name}")
        for name, field in _SWEEP_KEYS.items():
            if field not in axes:
                raise ConfigError(f"missing required key 'sweep.{name}'", key=f"sweep.{name}")
        sweep = SweepGrid(**axes)

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}", key="seed")

    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string path", key="out_dir")

    return RunConfig(
        scenario=scenario,
        model=model,
        models=models,
        model_params=model_params,
        ttc_crit_s=ttc_crit_s,
        sweep=sweep,
        out_dir=out_dir,
        seed=seed,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}", key="config")
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ConfigError(f"config file {path} is not valid JSON: {exc}", key="config")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object", key="config")
    return parse_config(raw)


def resolved_dict(config: RunConfig) -> dict[str, Any]:
    """Fully-materialized config as plain data, in the keys parse_config reads;
    input to hashing and manifests."""
    scenario = {key: getattr(config.scenario, name) for key, name in _SCENARIO_KEYS.items()}
    scenario["other_speed_profile"] = [list(p) for p in config.scenario.other_speed_profile]
    out = {
        "schema_version": SCHEMA_VERSION,
        "seed": config.seed,
        "scenario": scenario,
        "model": config.model,
        "models": list(config.models),
        "rba": dataclasses.asdict(config.model_params.rba),
        "model_params": {
            name: dataclasses.asdict(getattr(config.model_params, name))
            for name in _MODEL_SECTIONS
        },
        "risk": {"ttc_crit_s": config.ttc_crit_s},
        "dims": {
            "ego": dataclasses.asdict(config.scenario.ego_dims),
            "other": dataclasses.asdict(config.scenario.other_dims),
        },
    }
    if config.sweep is not None:
        out["sweep"] = {
            key: list(getattr(config.sweep, name)) for key, name in _SWEEP_KEYS.items()
        }
    return out


def config_hash(resolved: Mapping[str, Any]) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
