"""Span tracing of scanmix from outside the package.

``Tracer.install`` replaces every public function of every scanmix module
with a wrapper that records a span (name, parent span, start, end, phase)
in memory. A function that another module imported by name is wrapped at
that name too, so no call escapes the trace. Spans are only recorded while
``Tracer.phase`` is set; the benchmark sets it around the traced set-up and
the timed rounds, and clears it while its own checks run. Nothing under
``src/`` is edited.

A span's self time is its duration minus the durations of its child spans
(calls are strictly nested in one thread, so the children never overlap).
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
from collections import defaultdict
from time import perf_counter

MODULES = (
    "core", "io", "scenegen", "scansim", "cuboidmix", "pseudo", "segmenter", "metrics", "pipeline",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Work counts taken at the layer boundary: span name -> function of
# (args, kwargs, result) returning {counter suffix: amount}.
def _points_in_out(args, kwargs, result):
    return {"points_in": _arg(args, kwargs, 0, "cloud").n, "points_out": result.n}


def _pseudo_kept(args, kwargs, result):
    ignore = _arg(args, kwargs, 2, "ignore_index", -1)
    return {"points": len(result), "kept": int((result != ignore).sum())}


def _compose_counts(args, kwargs, result):
    return {"injected_cells": len(result.injected_cells), "points_out": result.mixed.cloud.n}


COUNTERS = {
    "segmenter.extract_features": lambda a, k, r: {"points": _arg(a, k, 0, "cloud").n},
    "scenegen.generate_scene": lambda a, k, r: {"points": r.n},
    "scansim.scan_and_jitter": _points_in_out,
    "cuboidmix.compose_mixed_scene": _compose_counts,
    "pseudo.generate_pseudo_labels": _pseudo_kept,
    "io.read_point_file": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "io.write_point_file": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
}


class Tracer:
    """In-memory span recorder over the scanmix modules."""

    def __init__(self):
        self.phase: str | None = None
        self.spans: list[list] = []          # [name, parent index, start, end, phase]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, modules):
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    wrappers[value] = self._wrap(value, f"{short}.{attr}")
        for namespace in [package, *modules]:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((namespace, attr, value))
                    setattr(namespace, attr, wrappers[value])

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        def traced(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, phase]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.counts[(phase, f"{name}.{key}")] += amount
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def totals(self, phase: str):
        """Per span name: call count, summed self time and summed duration
        within ``phase``, plus the summed duration of the phase's root spans."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        root_s = 0.0
        for i, (name, parent, start, end, span_phase) in enumerate(self.spans):
            if span_phase != phase:
                continue
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            total_s[name] += end - start
            if parent < 0:
                root_s += end - start
        return calls, self_s, total_s, root_s

    def write(self, path) -> None:
        """Write the spans as JSON lines; ``parent`` is a line index or -1."""
        with open(path, "w", newline="\n") as f:
            for name, parent, start, end, phase in self.spans:
                f.write(json.dumps({"name": name, "parent": parent, "start": start,
                                    "end": end, "phase": phase}) + "\n")


# Per-layer metrics, all per timed round. ``<function>.<stat>`` covers the
# timed rounds, except the set-up functions (scene generation), which cover
# one traced set-up. ``total_s`` is the span's whole duration, children
# included. ``<module>.self_s`` sums a module's wrapped functions.
RUN_FUNCTIONS = (
    ("segmenter.extract_features", ("calls", "self_s", "points")),
    ("segmenter.forward_scores", ("calls", "self_s")),
    ("segmenter.cross_entropy", ("self_s",)),
    ("segmenter.train_pretrain", ("self_s",)),
    ("segmenter.train_selftrain", ("self_s",)),
    ("scansim.scan_and_jitter", ("calls", "self_s")),
    ("scansim.compute_free_space_bev", ("self_s",)),
    ("scansim.sample_camera_poses", ("self_s",)),
    ("scansim.visible_points", ("calls", "self_s")),
    ("scansim.jitter_points", ("self_s",)),
    ("core.standard_augment", ("calls", "self_s")),
    ("cuboidmix.compose_mixed_scene", ("calls", "self_s")),
    ("cuboidmix.partition_cuboids", ("self_s",)),
    ("cuboidmix.permute_cuboids", ("self_s",)),
    ("cuboidmix.mix_cuboids", ("self_s",)),
    ("cuboidmix.classify_tail_cuboids", ("self_s",)),
    ("pseudo.generate_pseudo_labels", ("calls", "self_s")),
    ("metrics.accumulate_confusion", ("calls", "self_s")),
    ("io.read_point_file", ("calls", "self_s", "bytes")),
    ("io.write_point_file", ("calls", "self_s", "bytes")),
    ("io.load_manifest", ("self_s",)),
    ("pipeline.stage_pretrain", ("calls", "self_s", "total_s")),
    ("pipeline.stage_pseudo_label", ("calls", "self_s", "total_s")),
    ("pipeline.stage_selftrain", ("calls", "self_s", "total_s")),
    ("pipeline.stage_evaluate", ("calls", "self_s", "total_s")),
)
SETUP_FUNCTIONS = (("scenegen.generate_scene", ("calls", "self_s", "points")),)
# name -> (numerator counter, denominator counter); 0 when nothing was counted
RATIOS = {
    "scansim.kept_fraction": ("scansim.scan_and_jitter.points_out", "scansim.scan_and_jitter.points_in"),
    "pseudo.kept_fraction": ("pseudo.generate_pseudo_labels.kept", "pseudo.generate_pseudo_labels.points"),
}
COUNTS = {
    "cuboidmix.injected_cells": "cuboidmix.compose_mixed_scene.injected_cells",
    "cuboidmix.points_out": "cuboidmix.compose_mixed_scene.points_out",
}
_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "points": "count", "bytes": "B"}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for fn, stats in RUN_FUNCTIONS + SETUP_FUNCTIONS:
        spec += [(f"{fn}.{stat}", _UNITS[stat], "lower") for stat in stats]
    spec += [(name, "fraction", "higher") for name in RATIOS]
    spec += [(name, "count", "higher") for name in COUNTS]
    spec += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    spec += [(f"setup.{m}.self_s", "s", "lower") for m in MODULES]
    spec += [("trace.run_s", "s", "lower"), ("trace.setup_s", "s", "lower"),
             ("trace.unattributed_share", "fraction", "lower")]
    return spec


def layer_metrics(tracer: Tracer, round_times: list[float], setup_s: float) -> dict[str, float]:
    """Every per-layer metric: run-phase values per round, set-up values
    for the one traced set-up."""
    rounds = len(round_times)
    run_calls, run_self, run_total, run_root = tracer.totals("run")
    setup_calls, setup_self, setup_total, _ = tracer.totals("setup")
    values: dict[str, float] = {}
    for functions, phase, calls, self_s, total_s, per in (
        (RUN_FUNCTIONS, "run", run_calls, run_self, run_total, rounds),
        (SETUP_FUNCTIONS, "setup", setup_calls, setup_self, setup_total, 1),
    ):
        for fn, stats in functions:
            for stat in stats:
                if stat == "calls":
                    value = calls.get(fn, 0)
                elif stat == "self_s":
                    value = self_s.get(fn, 0.0)
                elif stat == "total_s":
                    value = total_s.get(fn, 0.0)
                else:
                    value = tracer.counts.get((phase, f"{fn}.{stat}"), 0)
                values[f"{fn}.{stat}"] = value / per
    for name, (num, den) in RATIOS.items():
        d = tracer.counts.get(("run", den), 0)
        values[name] = tracer.counts.get(("run", num), 0) / d if d else 0.0
    for name, key in COUNTS.items():
        values[name] = tracer.counts.get(("run", key), 0) / rounds
    for m in MODULES:
        values[f"{m}.self_s"] = sum(v for k, v in run_self.items() if k.startswith(m + ".")) / rounds
        values[f"setup.{m}.self_s"] = sum(v for k, v in setup_self.items() if k.startswith(m + "."))
    values["trace.run_s"] = statistics.median(round_times)
    values["trace.setup_s"] = setup_s
    # operation time spent outside every span, as a share of operation time
    values["trace.unattributed_share"] = 1.0 - run_root / sum(round_times)
    return values
