"""In-memory span tracer that wraps functions and methods from outside.

The traced run installs wrappers around the public functions of each layer
and records one span per call: name, start, end, parent span, the stream
and hop the caller was working on, a tag (the estimator stage) and a count
(frames emitted, bytes of a file). Spans mark layer boundaries only: a
wrapped call made while a span of the same layer is open, such as
``analyze`` pushing into its own ``AnalysisStream``, is that layer's own
work and gets no span. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

# columns of one span record
NAME, START, END, PARENT, STREAM, HOP, TAG, COUNT = range(8)


@dataclass(frozen=True)
class Target:
    """A function or method to wrap: ``owner.attr``, recorded as span ``name``.

    ``owner`` is a module or a class. A module function is rebound in every
    module that holds the same function object, so callers that imported
    it by name are traced too. ``name`` is ``<layer>.<function>``.
    """

    owner: object
    attr: str
    name: str
    tag: Callable | None = None  # (args, kwargs) -> int
    count: Callable | None = None  # (args, kwargs, result) -> int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans while installed; ``stream`` and ``hop`` are set by the caller."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.stream = -1
        self.hop = -1
        self._open: list[tuple[int, str]] = []  # (span index, layer)

    def _wrap(self, fn, target: Target):
        name_id = len(self.names)
        self.names.append(target.name)
        layer, tag, count = target.layer, target.tag, target.count
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_ and open_[-1][1] == layer:
                return fn(*args, **kwargs)
            parent = open_[-1][0] if open_ else -1
            rec = [name_id, 0, 0, parent, self.stream, self.hop, tag(args, kwargs) if tag else -1, 0]
            open_.append((len(spans), layer))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                open_.pop()
            if count is not None:
                rec[COUNT] = count(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets: list[Target], modules: list):
        """Wrap every target while the block runs; restore the originals after."""
        undo = []
        try:
            for target in targets:
                if isinstance(target.owner, type):
                    original = vars(target.owner)[target.attr]
                    undo.append((target.owner, target.attr, original))
                    setattr(target.owner, target.attr, self._wrap(original, target))
                    continue
                original = getattr(target.owner, target.attr)
                wrapper = self._wrap(original, target)
                for module in modules:
                    if getattr(module, target.attr, None) is original:
                        undo.append((module, target.attr, original))
                        setattr(module, target.attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns, plus each span's self time in ns."""
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 8)
        out = {
            "name": table[:, NAME],
            "start_ns": table[:, START],
            "end_ns": table[:, END],
            "parent": table[:, PARENT],
            "stream": table[:, STREAM],
            "hop": table[:, HOP],
            "tag": table[:, TAG],
            "count": table[:, COUNT],
        }
        out["self_ns"] = self_times(out["start_ns"], out["end_ns"], out["parent"])
        return out


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """A span's duration minus the durations of its direct children."""
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered
