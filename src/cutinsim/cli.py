"""Command-line runner with three analysis modes.

    cutinsim one-case    --config cfg.json [--model NAME] [--out DIR]
    cutinsim comparison  --config cfg.json [--out DIR] [--jobs N]
    cutinsim post-process --results DIR

Exit codes: 0 success, 1 configuration, usage or I/O error, 2 collision
detected (one-case only, as a scriptable signal). Underscore spellings of the
subcommands are accepted as aliases. Every sweep runs in this process:
comparison accepts any --jobs N of at least 1 and writes the same bytes.
The config's risk.ttc_crit_s is the one critical TTC: one-case and comparison
classify runs against it, and post-process reads it from the manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import config as config_mod
from . import engine, reports, risk
from .errors import ConfigError, CutinSimError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COLLISION = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error exits 1: argparse's 2 means a collision here
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _load(path: str, model_override: str | None = None) -> config_mod.RunConfig:
    cfg = config_mod.load_config(path)
    if model_override is not None:
        engine.check_models([model_override], "model")
        cfg = dataclasses.replace(cfg, model=model_override)
    return cfg


def _out_dir(cfg: config_mod.RunConfig, override: str | None) -> str:
    """--out, else the config's out_dir, else out/<config hash>."""
    if override:
        return override
    if cfg.out_dir:
        return cfg.out_dir
    return os.path.join("out", config_mod.config_hash(config_mod.resolved_dict(cfg)))


def cmd_one_case(args: argparse.Namespace) -> int:
    cfg = _load(args.config, args.model)
    out_dir = _out_dir(cfg, args.out)
    os.makedirs(out_dir, exist_ok=True)

    result = engine.run_closed_loop(cfg.scenario, cfg.model, cfg.model_params)
    critical = risk.is_critical(result.collided, result.min_ttc_s, result.peak_decel_mps2, cfg.ttc_crit_s)
    classification = reports.CRITICAL if critical else reports.NON_CRITICAL
    trace_path = os.path.join(out_dir, "trace.csv")
    verdict_path = os.path.join(out_dir, "verdict.json")
    reports.write_trace_csv(trace_path, result)
    reports.write_verdict_json(verdict_path, result, classification, cfg.model)
    print(f"wrote {trace_path}")
    print(f"wrote {verdict_path}")
    print(
        f"model={cfg.model} collided={result.collided} "
        f"min_ttc={reports.fmt_float(result.min_ttc_s)} classification={classification}"
    )
    return EXIT_COLLISION if result.collided else EXIT_OK


def cmd_comparison(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {args.jobs}", key="jobs")
    cfg = _load(args.config)
    if cfg.sweep is None:
        raise ConfigError("comparison mode needs a 'sweep' section", key="sweep")
    resolved = config_mod.resolved_dict(cfg)
    cfg_hash = config_mod.config_hash(resolved)
    out_dir = _out_dir(cfg, args.out)

    result = engine.sweep(cfg.sweep, cfg.models, cfg.scenario, cfg.model_params)
    reports.write_comparison_store(out_dir, result, resolved)
    n_errors = len(result.errors)
    print(f"wrote {len(cfg.models)} results files to {out_dir} (config {cfg_hash})")
    if n_errors:
        print(f"{n_errors} grid points recorded errors; see the error column")
    return EXIT_OK


def cmd_post_process(args: argparse.Namespace) -> int:
    manifest, records = reports.read_comparison_store(args.results)
    risk_section = manifest["config"].get("risk", {})
    ttc_crit = config_mod.check_ttc_crit(risk_section.get("ttc_crit_s", risk.DEFAULT_TTC_CRIT_S))
    summaries = risk.summarize_models(records, ttc_crit)
    reports.write_summary(args.results, summaries, ttc_crit)
    samples = {model: min_ttc for model, (min_ttc, _) in records.items()}
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later
    main() in the process (parse_args leaves it unchanged)."""
    parser = _Parser(
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
    p_cmp.add_argument("--jobs", type=int, default=1, help="at least 1; every sweep runs in this process")
    p_cmp.set_defaults(func=cmd_comparison)

    p_post = sub.add_parser(
        "post-process",
        aliases=["post_process", "post_processing"],
        help="summarize a previous comparison run",
    )
    p_post.add_argument("--results", required=True, help="directory of a comparison run")
    p_post.set_defaults(func=cmd_post_process)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CutinSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
