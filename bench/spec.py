"""What the benchmark's files share.

BENCHMARK.json at the repository root is the one list of the workloads and
of the metrics with their units; this module reads it and says where the
tracer keeps each per-layer metric.
"""

from __future__ import annotations

import json
import os

MODELS = ("rba", "rss", "reg157", "cc_human", "fsm", "idm", "none")

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def layer_source(metric: str) -> tuple[str, str]:
    """(how the tracer gives the metric, the tracer's name for it).

    `<name>.calls` counts wrapped calls of <name>, `<name>.s` is their
    inclusive seconds and `<name>.self_s` those minus wrapped children.
    Any other metric is a counter of the same name, or a value the workload
    computes.
    """
    for suffix in ("calls", "self_s", "s"):
        if metric.endswith("." + suffix):
            return suffix, metric[: -len(suffix) - 1]
    return "count", metric
