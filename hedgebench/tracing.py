"""Spans around the public functions a GP-Hedge experiment calls.

Nothing under ``src/`` changes.  :func:`install` swaps module attributes of
``gphedge.bo``, ``gphedge.harness`` and ``gphedge.objectives`` for wrappers
that record one span per call (name, start, end, parent span, and a size such
as the number of points) and puts the originals back on exit.  Spans stay in
memory until :meth:`Tracer.collect` hands them over.

``bo.run`` looks its collaborators up in its own module namespace, so the
wrappers go there; a posterior call whose parent is a ``maximize`` span is
the maximizer's, any other one made by the trial is an outer call.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
from gphedge import bo, harness, objectives

# Span names; the prefix is the module whose public function the span wraps.
RUN = "bo.run"
MAXIMIZE = "maximizer.maximize"
PREDICT = "gp.posterior_predict_batch"
UPDATE = "gp.update"
ACQUISITION = "acquisitions.acquisition_values"
OBSERVE = "portfolio.observe"
SELECT = "portfolio.select_arm"
RESOLVE = "objectives.resolve"
EVALUATE = "objectives.evaluate"
CALIBRATE = "harness.calibrate"
EMIT = "harness.emit"


def _rows(args, result):
    return int(np.atleast_2d(np.asarray(args[-1])).shape[0])


def _acquisition_points(args, result):
    return int(np.size(args[1]))


def _emitted_bytes(args, result):
    return sum(Path(p).stat().st_size for p in result.values()) if result else 0


class Tracer:
    """In-memory span log of the benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name, fn, size=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._next += 1
            sid = tracer._next
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                n = size(args, result) if size is not None else 0
                tracer.spans.append((sid, parent, name, start, end, n))

        return traced

    def collect(self) -> list[tuple]:
        """Every span so far; clears the log."""
        spans, self.spans = self.spans, []
        return spans

    def _resolver(self, fn):
        """``objectives.resolve`` traced, returning the spec with its
        ``evaluate`` and ``draw`` traced too."""
        traced = self.wrap(RESOLVE, fn)

        @functools.wraps(fn)
        def resolve(*args, **kwargs):
            spec = traced(*args, **kwargs)
            draw = spec.draw and self.wrap(EVALUATE, spec.draw, lambda a, r: 1)
            return replace(spec, evaluate=self.wrap(EVALUATE, spec.evaluate, _rows), draw=draw)

        return resolve

    @contextmanager
    def install(self):
        """Wrap the program's functions for the duration of the block."""
        patches = [
            (harness, "run", self.wrap(RUN, bo.run)),
            (harness, "calibrate", self.wrap(CALIBRATE, harness.calibrate)),
            (bo, "maximize", self.wrap(MAXIMIZE, bo.maximize)),
            (bo, "posterior_predict_batch",
             self.wrap(PREDICT, bo.posterior_predict_batch, _rows)),
            (bo, "update", self.wrap(UPDATE, bo.update)),
            (bo, "acquisition_values",
             self.wrap(ACQUISITION, bo.acquisition_values, _acquisition_points)),
            (bo, "observe", self.wrap(OBSERVE, bo.observe)),
            (bo, "select_arm", self.wrap(SELECT, bo.select_arm)),
            (objectives, "resolve", self._resolver(objectives.resolve)),
            (harness, "emit", self.wrap(EMIT, harness.emit, _emitted_bytes)),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


UNITS = {
    "maximizer.calls": "count",
    "maximizer.self_s": "s",
    "maximizer.evals_per_call": "evals/call",
    "gp.predict_calls": "count",
    "gp.predict_points": "count",
    "gp.predict_s": "s",
    "gp.outer_predict_s": "s",
    "gp.update_s": "s",
    "acquisitions.eval_s": "s",
    "acquisitions.eval_points": "count",
    "portfolio.observe_s": "s",
    "portfolio.select_s": "s",
    "bo.self_s": "s",
    "objectives.resolve_calls": "count",
    "objectives.resolve_s": "s",
    "objectives.evaluate_calls": "count",
    "objectives.evaluate_s": "s",
    "harness.calibrate_s": "s",
    "harness.emit_s": "s",
    "harness.emit_bytes": "bytes",
}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times of one experiment, from its spans.

    Self time is a span's duration minus its children's, where children are
    the spans that name it as parent.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[str, float] = {}
    for sid, parent, name, start, end, n in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def parent_name(span):
        parent = by_id.get(span[1])
        return parent[2] if parent else None

    def pick(name, parent=None):
        return [
            s for s in spans
            if s[2] == name and (parent is None or parent_name(s) == parent)
        ]

    def total(group):
        return sum(s[4] - s[3] for s in group)

    def self_time(group):
        return sum(s[4] - s[3] - child_time.get(s[0], 0.0) for s in group)

    maximize = pick(MAXIMIZE)
    inner_predict = pick(PREDICT, MAXIMIZE)
    inner_acquisition = pick(ACQUISITION, MAXIMIZE)
    return {
        "maximizer.calls": len(maximize),
        "maximizer.self_s": self_time(maximize),
        "maximizer.evals_per_call": (
            sum(s[5] for s in inner_acquisition) / len(maximize) if maximize else 0.0
        ),
        "gp.predict_calls": len(inner_predict),
        "gp.predict_points": sum(s[5] for s in inner_predict),
        "gp.predict_s": total(inner_predict),
        "gp.outer_predict_s": total(pick(PREDICT, RUN)),
        "gp.update_s": total(pick(UPDATE)),
        "acquisitions.eval_s": total(pick(ACQUISITION)),
        "acquisitions.eval_points": sum(s[5] for s in pick(ACQUISITION)),
        "portfolio.observe_s": total(pick(OBSERVE)),
        "portfolio.select_s": total(pick(SELECT)),
        "bo.self_s": self_time(pick(RUN)),
        "objectives.resolve_calls": len(pick(RESOLVE)),
        "objectives.resolve_s": total(pick(RESOLVE)),
        "objectives.evaluate_calls": len(pick(EVALUATE)),
        "objectives.evaluate_s": total(pick(EVALUATE)),
        "harness.calibrate_s": total(pick(CALIBRATE)),
        "harness.emit_s": total(pick(EMIT)),
        "harness.emit_bytes": sum(s[5] for s in pick(EMIT)),
    }
