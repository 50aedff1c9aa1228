"""In-process tracer: one span per call that crosses a polyeval layer boundary.

The layers are the submodules of the ``polyeval`` package.  Every public
function a layer defines is replaced, in the namespace of each other layer
that imported it, by a wrapper that records a span: layer, function, start,
end and the span that caused it.  Calls inside one module stay unwrapped, so
a span always marks a crossing such as scoring -> textmetrics.score_matrix.
The functions are found by walking the package, not from a list, so a layer
a later refactor adds or renames is still timed.

Generator functions (``read_jsonl``) are timed over each resumption, not over
their call, so the consumer's work between items is not charged to them.
Their items are also counted when a function of their own layer iterates
them (``load_embeddings`` reading ``read_jsonl``); those calls open no span.

The program must run on one thread: a span opened on another thread fails.
A span's self time is its duration minus the durations of its children.

Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# span fields
LAYER, NAME, START, END, PARENT = range(5)


def layer_modules(package) -> dict:
    """Every public submodule of the package, by short name."""
    return {
        info.name: importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if not info.name.startswith("_")
    }


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.items: Counter[str] = Counter()  # values yielded by generators
        self.cells: Counter[str] = Counter()
        self.matrix_s: dict[str, list[list[float]]] = defaultdict(list)
        self.lm_calls = 0
        self._stack: list[list] = []
        self._current: dict[str, list] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- installing ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = layer_modules(self.package)
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self._wrap(layer, name, fn)
                for other in modules.values():
                    if other is not module and getattr(other, name, None) is fn:
                        self._patch(other, name, wrapped)
                if inspect.isgeneratorfunction(fn):
                    self._patch(module, name, self._count_items(layer, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # --- spans ----------------------------------------------------------------

    def _open(self, layer: str, name: str) -> list:
        assert threading.current_thread() is threading.main_thread(), (
            "the tracer supports one thread; set POLYEVAL_THREADS=1")
        span = [layer, name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def run(self, fn, *args):
        """Call ``fn`` as the root span of the cli layer."""
        span = self._open("cli", fn.__name__)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _count_items(self, layer: str, fn):
        """A generator function of ``layer`` that counts its items, for
        calls from inside the layer."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.items[layer] += 1
                yield item
        return counted

    def _wrap(self, layer: str, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                self.calls[layer] += 1
                iterator = fn(*args, **kwargs)
                try:
                    while True:
                        span = self._open(layer, name)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            self._close(span)
                        self.items[layer] += 1
                        yield item
                finally:
                    iterator.close()
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self.calls[layer] += 1
            self._count_matrix(layer, span, args, result)
            if layer == "decode" and callable(getattr(result, "logprobs", None)):
                self._count_lm(type(result))
            return result
        return traced

    def _count_matrix(self, layer: str, span: list, args, result) -> None:
        """Charge the call to the 2-D array it returns or takes first.

        Consecutive calls on the same array (solve_max then mean_assigned)
        count its cells once and add up to one per-matrix time.  Holding the
        last array keeps its id from being reused by the next one.
        """
        matrix = next((a for a in (result, *args)
                       if isinstance(a, np.ndarray) and a.ndim == 2), None)
        if matrix is None:
            return
        seconds = span[END] - span[START]
        current = self._current.get(layer)
        if current is not None and current[0] is matrix:
            current[1][0] += seconds
            return
        entry = [seconds]
        self.matrix_s[layer].append(entry)
        self.cells[layer] += matrix.size
        self._current[layer] = [matrix, entry]

    def _count_lm(self, cls) -> None:
        """Count every logprobs call on scorers of this class."""
        if any(owner is cls and name == "logprobs" for owner, name, _ in self._patches):
            return
        original = cls.logprobs

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.lm_calls += 1
            return original(*args, **kwargs)
        self._patch(cls, "logprobs", counted)

    # --- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of each span, in the order of ``self.spans``."""
        child_s: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                child_s[id(span[PARENT])] += span[END] - span[START]
        return [span[END] - span[START] - child_s[id(span)] for span in self.spans]

    def layer_self_s(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, self.self_times()):
            totals[span[LAYER]] += seconds
        return dict(totals)

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of this trace (counts are exact)."""
        self_s: dict[str, float] = defaultdict(float)
        dataio = Counter()
        for span, seconds in zip(self.spans, self.self_times()):
            self_s[span[LAYER]] += seconds
            if span[LAYER] == "dataio":
                name = span[NAME]
                group = ("read_s" if name.startswith(("read", "load")) else
                         "write_s" if name.startswith("write") else "normalize_s")
                dataio[group] += seconds
        per_matrix = [entry[0] for entry in self.matrix_s["assignment"]]
        p50, p99 = np.percentile(per_matrix, [50, 99]) * 1e6 if per_matrix else (0.0, 0.0)
        text_s = self_s["textmetrics"]
        return {
            "cli.self_s": self_s["cli"],
            "core.s": self_s["core"],
            "core.calls": self.calls["core"],
            "dataio.read_s": dataio["read_s"],
            "dataio.records_read": self.items["dataio"],
            "dataio.write_s": dataio["write_s"],
            "dataio.normalize_s": dataio["normalize_s"],
            "textmetrics.s": text_s,
            "textmetrics.calls": self.calls["textmetrics"],
            "textmetrics.cells": self.cells["textmetrics"],
            "textmetrics.us_per_cell": (text_s / self.cells["textmetrics"] * 1e6
                                        if self.cells["textmetrics"] else 0.0),
            "assignment.s": self_s["assignment"],
            "assignment.calls": self.calls["assignment"],
            "assignment.cells": self.cells["assignment"],
            "assignment.p50_us": float(p50),
            "assignment.p99_us": float(p99),
            "scoring.self_s": self_s["scoring"],
            "scoring.calls": self.calls["scoring"],
            "diversity.s": self_s["diversity"],
            "diversity.calls": self.calls["diversity"],
            "decode.s": self_s["decode"],
            "decode.calls": self.calls["decode"],
            "decode.lm_calls": self.lm_calls,
            "report.s": self_s["report"],
        }

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: id, parent id, layer, name, start
        and end, with times relative to the first span."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                handle.write(json.dumps([
                    i, None if parent is None else index[id(parent)], span[LAYER],
                    span[NAME], round(span[START] - origin, 7),
                    round(span[END] - origin, 7),
                ]) + "\n")
