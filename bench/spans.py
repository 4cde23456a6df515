"""Spans around calls into diffinfo's public entry points, kept in memory.

The tracer replaces each target with a wrapper at the name its caller looks
up (``cli`` binds some names itself, so those are patched in ``cli``).  A
span records its name, start, end, parent span and workload item, plus a
count where the call has one (rows, bytes, steps).  ``layer_metrics`` turns
the spans of one workload pass into the per-layer metrics.

A target that no longer exists raises :class:`PatchTargetMissing` before
anything is patched, so a rename inside diffinfo fails the traced run
instead of reporting zeros.
"""

from __future__ import annotations

import importlib
import os
import time

import numpy as np


class PatchTargetMissing(RuntimeError):
    """A traced entry point is gone; carries its dotted name."""


def _rows(args, kwargs, out):
    return int(np.shape(out)[0]) if np.ndim(out) == 2 else 1


def _steps(args, kwargs, out):
    return len(out[1])


def _first_path_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


def _second_path_bytes(args, kwargs, out):
    return os.path.getsize(args[1])


# (module, attribute, span name, count of the call)
TARGETS = (
    ("diffinfo.cli", "main", "cli", None),
    ("diffinfo.cli", "load_config", "config.load_config", None),
    ("diffinfo.cli", "flow_intervene", "flow.intervene", None),
    ("diffinfo.cli", "train_mlp", "mlp.train_mlp", _steps),
    ("diffinfo.cli", "load_checkpoint", "checkpoint.load", None),
    ("diffinfo.cli", "save_checkpoint", "checkpoint.save", _second_path_bytes),
    ("diffinfo.cli", "write_csv", "reports.write", _first_path_bytes),
    ("diffinfo.cli", "write_json", "reports.write", _first_path_bytes),
    ("diffinfo.cli", "write_pgm", "reports.write", _first_path_bytes),
    ("diffinfo.cli", "write_report_csv", "reports.write", _first_path_bytes),
    ("diffinfo.denoise", "GmmDenoiser.predict_eps", "denoise.gmm", _rows),
    ("diffinfo.mlp", "MlpDenoiser.predict_eps", "mlp.predict_eps", _rows),
    ("diffinfo.channel", "LogSnrSampler.sample", "channel.sample", None),
    ("diffinfo.estimators", "nll", "estimators.nll", None),
    ("diffinfo.estimators", "pointwise_dataset", "estimators.pointwise_dataset", None),
    ("diffinfo.estimators", "pointwise_o", "estimators.pointwise_o", None),
    ("diffinfo.tasks", "pointwise_s", "estimators.pointwise_s", None),
    ("diffinfo.tasks", "pointwise_o", "estimators.pointwise_o", None),
    ("diffinfo.flow", "encode", "flow.encode", None),
    ("diffinfo.flow", "decode", "flow.decode", None),
    ("diffinfo.tasks", "rank_conditions", "tasks.rank_conditions", None),
    ("diffinfo.tasks", "evaluate_ranking", "tasks.evaluate_ranking", None),
    ("diffinfo.tasks", "sweep_threshold", "tasks.sweep_threshold", None),
)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, last)
    except AttributeError:
        raise PatchTargetMissing(f"{module}.{attr}") from None
    if not callable(fn):
        raise PatchTargetMissing(f"{module}.{attr} is not callable")
    return owner, last, fn


class Tracer:
    """Records a span per call of every target while installed.

    ``marker`` is ``(span name, calls per item)``: each such group of calls
    starts the next workload item, and every span is tagged with the item
    in progress when it started (None before the first).
    """

    def __init__(self, marker=None):
        self.spans: list[list] = []  # [name, start, end, parent, item, count]
        self._stack: list[int] = []
        self._marker, self._stride = marker or (None, 1)
        self._marks = 0
        self._patched: list[tuple] = []
        self._t0 = time.perf_counter()

    def install(self) -> None:
        resolved = [(_resolve(m, a), name, count) for m, a, name, count in TARGETS]
        for (owner, last, fn), name, count in resolved:
            setattr(owner, last, self._wrap(fn, name, count))
            self._patched.append((owner, last, fn))

    def uninstall(self) -> None:
        while self._patched:
            owner, last, fn = self._patched.pop()
            setattr(owner, last, fn)

    def _wrap(self, fn, name, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if name == self._marker:
                self._marks += 1
            item = (self._marks - 1) // self._stride if self._marks else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock() - self._t0
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock() - self._t0
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def export(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "item", "count")
        return [dict(zip(keys, rec)) for rec in self.spans]


# Span names grouped into the layers the per-layer metrics report.
_ESTIMATORS = ("estimators.nll", "estimators.pointwise_dataset", "estimators.pointwise_o", "estimators.pointwise_s")
_TASKS = ("tasks.rank_conditions", "tasks.evaluate_ranking", "tasks.sweep_threshold")
_FLOW = ("flow.encode", "flow.decode")
_DENOISERS = ("denoise.gmm", "mlp.predict_eps")


def layer_metrics(ops: list[dict], items: int) -> dict:
    """Per-layer metrics of one workload pass.

    ``ops`` holds, per CLI invocation, its exported ``spans`` and the
    ``import_s`` of its set-up.  Self time is a span's duration minus the
    time its child spans cover.
    """
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    flow_rows = 0
    for op in ops:
        spans = op["spans"]
        child_s = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            name, dur = s["name"], s["end"] - s["start"]
            self_s[name] = self_s.get(name, 0.0) + dur - child_s[i]
            total_s[name] = total_s.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            counts[name] = counts.get(name, 0) + (s["count"] or 0)
            if name in _DENOISERS and _under(spans, i, _FLOW):
                flow_rows += s["count"]

    def self_of(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    gmm_rows, gmm_calls = counts.get("denoise.gmm", 0), calls.get("denoise.gmm", 0)
    return {
        "denoise.gmm.self_s": self_of("denoise.gmm"),
        "denoise.gmm.rows_per_s": per(gmm_rows, total_s.get("denoise.gmm", 0.0)),
        "denoise.gmm.calls": gmm_calls,
        "denoise.gmm.rows_per_call": per(gmm_rows, gmm_calls),
        "denoise.rows_per_item": per(gmm_rows + counts.get("mlp.predict_eps", 0), items),
        "flow.encode.self_s": self_of("flow.encode"),
        "flow.decode.self_s": self_of("flow.decode"),
        "flow.denoiser_rows": flow_rows,
        "estimators.self_s": self_of(*_ESTIMATORS),
        "channel.sample.self_s": self_of("channel.sample"),
        "channel.sample.calls": calls.get("channel.sample", 0),
        "mlp.train_mlp.s": total_s.get("mlp.train_mlp", 0.0),
        "mlp.train_mlp.steps_per_s": per(counts.get("mlp.train_mlp", 0), total_s.get("mlp.train_mlp", 0.0)),
        "mlp.predict_eps.self_s": self_of("mlp.predict_eps"),
        "mlp.predict_eps.rows": counts.get("mlp.predict_eps", 0),
        "checkpoint.load.s": total_s.get("checkpoint.load", 0.0),
        "checkpoint.save.s": total_s.get("checkpoint.save", 0.0),
        "checkpoint.bytes": counts.get("checkpoint.save", 0),
        "setup.import_s": sum(op["import_s"] for op in ops),
        "config.load_config.s": total_s.get("config.load_config", 0.0),
        "reports.write.s": total_s.get("reports.write", 0.0),
        "reports.bytes": counts.get("reports.write", 0),
        "reports.files": calls.get("reports.write", 0),
        "tasks.self_s": self_of(*_TASKS),
        "cli.self_s": self_of("cli"),
    }


def _under(spans, i, names) -> bool:
    parent = spans[i]["parent"]
    while parent is not None:
        if spans[parent]["name"] in names:
            return True
        parent = spans[parent]["parent"]
    return False
