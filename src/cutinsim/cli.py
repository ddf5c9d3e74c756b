"""Command-line runner with three analysis modes.

    cutinsim one-case    --config cfg.json [--model NAME] [--out DIR]
    cutinsim comparison  --config cfg.json [--out DIR] [--jobs N]
    cutinsim post-process --results DIR [--ttc-crit S]

Exit codes: 0 success, 1 configuration or I/O error, 2 collision detected
(one-case only, as a scriptable signal). Underscore spellings of the
subcommands are accepted as aliases.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import config as config_mod
from . import engine, reports, risk
from .errors import ConfigError, CutinSimError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COLLISION = 2


def _load(path: str, model_override: str | None = None) -> config_mod.RunConfig:
    cfg = config_mod.load_config(path)
    if model_override is not None:
        if model_override not in config_mod.MODEL_NAMES:
            raise ConfigError(
                f"model: {model_override!r} is not a registered model "
                f"(choose from {config_mod.MODEL_NAMES})",
                key="model",
            )
        cfg = dataclasses.replace(cfg, model=model_override)
    return cfg


def _out_dir(cfg: config_mod.RunConfig, override: str | None, cfg_hash: str) -> str:
    if override:
        return override
    if cfg.out_dir:
        return cfg.out_dir
    return os.path.join("out", cfg_hash)


def cmd_one_case(args: argparse.Namespace) -> int:
    cfg = _load(args.config, args.model)
    resolved = config_mod.resolved_dict(cfg)
    cfg_hash = config_mod.config_hash(resolved)
    out_dir = _out_dir(cfg, args.out, cfg_hash)
    os.makedirs(out_dir, exist_ok=True)

    result = engine.run_closed_loop(cfg.scenario, cfg.model, cfg.model_params, cfg.classify)
    trace_path = os.path.join(out_dir, "trace.csv")
    verdict_path = os.path.join(out_dir, "verdict.json")
    reports.write_trace_csv(trace_path, result)
    reports.write_verdict_json(verdict_path, result)
    print(f"wrote {trace_path}")
    print(f"wrote {verdict_path}")
    print(
        f"model={cfg.model} collided={result.collided} "
        f"min_ttc={reports.fmt_float(result.min_ttc_s)} classification={result.classification}"
    )
    return EXIT_COLLISION if result.collided else EXIT_OK


def cmd_comparison(args: argparse.Namespace) -> int:
    cfg = _load(args.config)
    if cfg.sweep is None:
        raise ConfigError("comparison mode needs a 'sweep' section", key="sweep")
    resolved = config_mod.resolved_dict(cfg)
    cfg_hash = config_mod.config_hash(resolved)
    out_dir = _out_dir(cfg, args.out, cfg_hash)

    items = engine.sweep(
        cfg.sweep,
        cfg.models,
        cfg.scenario,
        cfg.model_params,
        cfg.classify,
        jobs=args.jobs,
    )
    reports.write_comparison_store(out_dir, items, resolved, cfg_hash, cfg.seed)
    n_errors = sum(1 for item in items if item.error is not None)
    print(f"wrote {len(cfg.models)} results files to {out_dir} (config {cfg_hash})")
    if n_errors:
        print(f"{n_errors} grid points recorded errors; see the error column")
    return EXIT_OK


def cmd_post_process(args: argparse.Namespace) -> int:
    manifest, records = reports.read_comparison_store(args.results)
    if args.ttc_crit is not None:
        ttc_crit = args.ttc_crit
    else:
        ttc_crit = manifest.get("config", {}).get("risk", {}).get("ttc_crit_s", 2.0)
    engine.check_finite(ttc_crit, "ttc-crit")
    if ttc_crit <= 0.0:
        raise ConfigError("ttc-crit must be positive", key="ttc-crit")

    summaries = risk.summarize_models(records, ttc_crit)
    reports.write_summary(args.results, summaries, ttc_crit)
    samples = {model: [r.min_ttc_s for r in rows] for model, rows in records.items()}
    written = reports.write_plot_data(args.results, samples, summaries)
    print(f"wrote summary.csv, summary.json and {len(written)} plot-data files to {args.results}")
    for row in summaries:
        if row.available:
            print(
                f"{row.model}: mean={row.mean_ttc_s:.4f} std={row.std_ttc_s:.4f} "
                f"p(ttc<{ttc_crit:g})={row.prob_below:.4f}"
            )
        else:
            print(f"{row.model}: unavailable ({row.note})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutinsim",
        description="Cut-in collision avoidance simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_one = sub.add_parser(
        "one-case", aliases=["one_case"], help="simulate a single scenario and model"
    )
    p_one.add_argument("--config", required=True, help="JSON run configuration")
    p_one.add_argument("--model", help="override the configured model")
    p_one.add_argument("--out", help="output directory (default out/<config-hash>)")
    p_one.set_defaults(func=cmd_one_case)

    p_cmp = sub.add_parser(
        "comparison", help="sweep the scenario grid for every configured model"
    )
    p_cmp.add_argument("--config", required=True, help="JSON run configuration")
    p_cmp.add_argument("--out", help="output directory (default out/<config-hash>)")
    p_cmp.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1 (capped at the CPU count)")
    p_cmp.set_defaults(func=cmd_comparison)

    p_post = sub.add_parser(
        "post-process",
        aliases=["post_process", "post_processing"],
        help="summarize a previous comparison run",
    )
    p_post.add_argument("--results", required=True, help="directory of a comparison run")
    p_post.add_argument("--ttc-crit", type=float, help="critical TTC threshold in seconds")
    p_post.set_defaults(func=cmd_post_process)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CutinSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
