"""Per-layer tracing of cutinsim from outside the package.

The tracer replaces module attributes and class methods of cutinsim with
timing wrappers, at the place where each caller looks the name up (for
example `cutinsim.engine.step_vehicle`, which the engine imported by name,
and the `decide` method of each model adapter class). Nothing under `src/`
is edited. A name that no longer exists is reported as absent, so the
benchmark keeps working after refactors that delete or rename internals.

Each wrapped call is a span: name, start, end and the span that caused it.
Spans stay in memory (aggregated per name, plus the first MAX_SPANS raw
spans) and are written out only when the benchmark ends. A layer's self time
is its inclusive time minus the time of the wrapped calls made inside it.

Spans are recorded in the process that installed the tracer only. Worker
processes forked by `--jobs` inherit the wrappers, which then pass calls
straight through.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import time
from array import array

from spec import MODELS

MAX_SPANS = 200_000

# (where the caller looks the name up, attribute, metric name).
# Several places may feed one metric: the gap functions are imported by name
# into the engine and the safety models, and called inside kinematics itself.
SPANS = (
    ("cutinsim.cli", "main", "cli.main"),
    ("cutinsim.config", "load_config", "config.load_config"),
    ("cutinsim.engine", "sweep", "engine.sweep"),
    ("cutinsim.engine", "run_closed_loop", "engine.run_closed_loop"),
    ("cutinsim.engine:Scenario", "other_state", "engine.other_state"),
    ("cutinsim.engine", "step_vehicle", "kinematics.step_vehicle"),
    ("cutinsim.kinematics", "step_vehicle", "kinematics.step_vehicle"),
    ("cutinsim.engine", "gap_longitudinal", "kinematics.gap"),
    ("cutinsim.engine", "gap_lateral", "kinematics.gap"),
    ("cutinsim.safety_models", "gap_longitudinal", "kinematics.gap"),
    ("cutinsim.safety_models", "gap_lateral", "kinematics.gap"),
    ("cutinsim.kinematics", "gap_longitudinal", "kinematics.gap"),
    ("cutinsim.kinematics", "gap_lateral", "kinematics.gap"),
    ("cutinsim.metrics", "compute_features", "metrics.compute_features"),
    ("cutinsim.safety_models", "create_model", "safety_models.create_model"),
    ("cutinsim.reports", "write_trace_csv", "reports.write_trace_csv"),
    ("cutinsim.reports", "write_verdict_json", "reports.write_verdict_json"),
    ("cutinsim.reports", "write_comparison_store", "reports.write_comparison_store"),
    ("cutinsim.reports", "read_comparison_store", "reports.read_comparison_store"),
    ("cutinsim.reports", "write_summary", "reports.write_summary"),
    ("cutinsim.reports", "write_plot_data", "reports.write_plot_data"),
    ("cutinsim.risk", "summarize_models", "risk.summarize_models"),
    ("cutinsim.ingest", "read_tracks_csv", "ingest.read_tracks_csv"),
    ("cutinsim.ingest", "extract_cut_in_events", "ingest.extract_cut_in_events"),
    ("cutinsim.ingest", "export_features", "ingest.export_features"),
    ("cutinsim.ingest", "write_features_csv", "ingest.write_features_csv"),
)

# Hot calls that are only counted: a span per call would cost more than the call.
COUNTS = (
    ("cutinsim.kinematics:VehicleState", "__post_init__", "kinematics.state_constructions"),
    ("cutinsim.ingest:Track", "row_at", "ingest.row_at"),
)

# Writers whose output size is added to reports.bytes_written: the first
# argument is a file path, or a directory for the writers listed here.
FILE_WRITERS = ("reports.write_trace_csv", "reports.write_verdict_json")
DIR_WRITERS = ("reports.write_comparison_store", "reports.write_summary", "reports.write_plot_data")


def _resolve(target: str):
    """`pkg.module` or `pkg.module:Class` to the object, or None when gone."""
    module_name, _, class_name = target.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


def _dir_snapshot(path: str) -> dict[str, tuple[int, int]]:
    try:
        entries = list(os.scandir(path))
    except OSError:
        return {}
    snap = {}
    for entry in entries:
        if entry.is_file():
            st = entry.stat()
            snap[entry.name] = (st.st_size, st.st_mtime_ns)
    return snap


class Tracer:
    """Wraps cutinsim's layers while installed; aggregates spans and counts."""

    def __init__(self) -> None:
        self.enabled = False
        self.stats: dict[str, list[int]] = {}  # name -> see _stat
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.measure_ns = 0  # time spent measuring outputs, not tracing
        self._stack: list[list[int]] = []  # [span id, child ns] of open spans
        self._next_id = 0
        self._names: list[str] = []
        self.spans = array("q")  # id, parent id, name id, start ns, end ns
        self.spans_dropped = 0
        self._undo: list[tuple[object, str, object, bool]] = []
        os.register_at_fork(after_in_child=self._in_forked_child)

    def _in_forked_child(self) -> None:
        self.enabled = False

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for target, attr, name in SPANS:
            self._patch(target, attr, lambda fn, name=name: self._span_wrapper(fn, name))
        for target, attr, name in COUNTS:
            self._patch(target, attr, lambda fn, name=name: self._count_wrapper(fn, name))
        for cls in self._adapter_classes():
            self._wrap(cls, "decide", lambda fn: self._span_wrapper(fn, None))
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # the wrapper shadowed an inherited method
        self._undo.clear()

    def _patch(self, target: str, attr: str, make_wrapper) -> None:
        owner = _resolve(target)
        if owner is None or not hasattr(owner, attr):
            self._mark_absent(f"{target.replace(':', '.')}.{attr}")
            return
        self._wrap(owner, attr, make_wrapper)

    def _wrap(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        own = not isinstance(owner, type) or attr in owner.__dict__
        self._undo.append((owner, attr, original, own))
        setattr(owner, attr, make_wrapper(original))

    def _mark_absent(self, where: str) -> None:
        if where not in self.absent:
            self.absent.append(where)

    def _adapter_classes(self) -> list[type]:
        """The class of each model's engine-facing object, found by building one."""
        sm = _resolve("cutinsim.safety_models")
        create = getattr(sm, "create_model", None)
        params = getattr(sm, "ModelParams", None)
        if create is None or params is None:
            self._mark_absent("cutinsim.safety_models.create_model")
            return []
        classes: list[type] = []
        for model in MODELS:
            try:
                cls = type(create(model, params(), 0.05))
            except Exception:  # a model the program no longer registers
                self._mark_absent(f"cutinsim.safety_models.create_model({model!r})")
                continue
            if not hasattr(cls, "decide"):
                self._mark_absent(f"{cls.__module__}.{cls.__qualname__}.decide")
            elif cls not in classes:
                classes.append(cls)
        return classes

    # -- wrappers ---------------------------------------------------------

    def _stat(self, name: str) -> list[int]:
        """[calls, inclusive ns, child ns, name id] of one span name."""
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0, len(self._names)]
            self._names.append(name)
        return st

    def _span_wrapper(self, fn, name: str | None):
        """A span per call. With name None the span is named after the model
        the adapter instance serves (the first argument of decide)."""
        tracer = self
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        hooked = name in FILE_WRITERS or name in DIR_WRITERS or name == "engine.sweep"
        fixed = None if name is None else self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            st = fixed or tracer._stat("safety_models.decide." + str(getattr(args[0], "name", "unknown")))
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            state = tracer._before(name, args) if hooked else None
            frame = [span_id, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                st[0] += 1
                st[1] += duration
                st[2] += frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < 5 * MAX_SPANS:
                    spans.extend((span_id, parent, st[3], start, end))
                else:
                    tracer.spans_dropped += 1
            if hooked:
                tracer._after(name, args, result, state)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        tracer = self
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _measured(self, t0: int) -> None:
        """Book time spent measuring outputs since t0 apart from the spans:
        the enclosing span counts it like a child, so its self time omits it."""
        elapsed = time.perf_counter_ns() - t0
        self.measure_ns += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed

    def _before(self, name: str, args: tuple):
        if name in DIR_WRITERS and args:
            t0 = time.perf_counter_ns()
            state = _dir_snapshot(args[0])
            self._measured(t0)
            return state
        return None

    def _after(self, name: str, args: tuple, result, state) -> None:
        """Output sizes some layers report."""
        t0 = time.perf_counter_ns()
        if name == "engine.sweep":
            self.add_count("engine.sweep.result_bytes", len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)))
        elif name in FILE_WRITERS and args:
            self.add_count("reports.bytes_written", os.path.getsize(args[0]))
        elif state is not None:
            after = _dir_snapshot(args[0])
            self.add_count(
                "reports.bytes_written",
                sum(size for f, (size, mtime) in after.items() if state.get(f) != (size, mtime)),
            )
        self._measured(t0)

    def add_count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- results ----------------------------------------------------------

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[1] / 1e9

    def self_s(self, name: str) -> float:
        st = self.stats.get(name, [0, 0, 0])
        return (st[1] - st[2]) / 1e9

    def calls(self, name: str) -> int:
        """Calls of a wrapped name, with or without spans."""
        if name in self.stats:
            return self.stats[name][0]
        return self.counts.get(name, 0)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            s = self.spans
            for i in range(0, len(s), 5):
                fh.write(f"{s[i]},{s[i + 1]},{self._names[s[i + 2]]},{s[i + 3]},{s[i + 4]}\n")
