"""The traced run: wall-clock spans around each layer's entry points.

Nothing under ``src/`` is instrumented for this.  :class:`LayerTracer`
patches the public entry points listed in :data:`spec.LAYERS` from the
benchmark's side for the duration of one traced round, records one span
per call (layer, start, end, parent, run id) into flat arrays, and
restores the originals afterwards.  A class method is patched on its
class; a module-level function is patched in every loaded ``repro``
module that binds it, since callers look it up there
(``repro.engine.database.parse_sql``, ``repro.core.powertest.
load_sap_fast``, ...).

A layer's self time is its span's duration minus its direct children's
durations, so the self times of all spans plus the measured-phase wall
that no span covers add up to the traced measured-phase wall exactly.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import spec


class LayerTracer:
    """Span store and patcher for one traced round."""

    def __init__(self) -> None:
        self.names = [layer.name for layer in spec.LAYERS]
        n = len(self.names)
        self.self_s = [0.0] * n
        self.wall_s = [0.0] * n
        self.calls = [0] * n
        self.extra = {"engine.bulk_load.rows": 0, "engine.exec.rows": 0}
        self.sim_calls = dict.fromkeys(spec.SIM_CALLS, 0)
        # the span records, one entry per finished span
        self.span_id = array("i")
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("i")
        #: set by the workload: the step (request) the next spans belong to
        self.run_id = 0
        # open spans: [span id, children's total duration]
        self._stack: list[list] = []
        self._depth = [0] * n
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, layer: int, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``; return its result."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        self._depth[layer] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[1]
            self.calls[layer] += 1
            self._depth[layer] -= 1
            if not self._depth[layer]:
                # inclusive wall counts only the outermost span of a layer
                self.wall_s[layer] += duration
            if self._stack:
                self._stack[-1][1] += duration
            self.span_id.append(span_id)
            self.span_layer.append(layer)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(parent)
            self.span_run.append(self.run_id)

    def wrap(self, layer_name: str, fn):
        """``fn`` wrapped in spans of ``layer_name`` (for suite callables)."""
        layer = self.names.index(layer_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(layer, fn, *args, **kwargs)
        return wrapper

    def root_wall_s(self) -> float:
        """Wall time covered by spans that have no parent span."""
        return sum(end - start for start, end, parent in zip(
            self.span_start, self.span_end, self.span_parent)
            if parent < 0)

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module_name: str, attr: str, make) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    module.__dict__.get(attr) is original:
                self._set(module, attr, wrapper)

    def _patch_method(self, module_name: str, qualname: str, make) -> None:
        class_name, attr = qualname.split(".")
        owner = getattr(importlib.import_module(module_name), class_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(owner, attr, staticmethod(make(raw.__func__)))
        else:
            self._set(owner, attr, make(raw))

    def _patch(self, module_name: str, qualname: str, make) -> None:
        if "." in qualname:
            self._patch_method(module_name, qualname, make)
        else:
            self._patch_function(module_name, qualname, make)

    def install(self) -> None:
        for layer, spec_layer in enumerate(spec.LAYERS):
            for module_name, qualname in spec_layer.entries:
                self._patch(module_name, qualname,
                            functools.partial(self._spanned, layer,
                                              spec_layer.name))
        for metric, (module_name, qualname) in spec.SIM_CALLS.items():
            self._patch(module_name, qualname,
                        functools.partial(self._counted, metric))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def _spanned(self, layer: int, layer_name: str, fn):
        span = self.span
        extra = self.extra
        if inspect.isgeneratorfunction(fn):
            # a generator's work runs while its caller iterates; every
            # wrapped generator is consumed completely by its callers, so
            # decoding inside the span leaves the work and ticks unchanged
            @functools.wraps(fn)
            def materialized(*args, **kwargs):
                return iter(span(layer, lambda: list(fn(*args, **kwargs))))
            return materialized
        if layer_name == "engine.bulk_load":
            @functools.wraps(fn)
            def counting_rows(*args, **kwargs):
                loaded = span(layer, fn, *args, **kwargs)
                extra["engine.bulk_load.rows"] += loaded
                return loaded
            return counting_rows
        if layer_name == "engine.exec":
            @functools.wraps(fn)
            def returning_rows(*args, **kwargs):
                result = span(layer, fn, *args, **kwargs)
                extra["engine.exec.rows"] += len(result.rows)
                return result
            return returning_rows

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(layer, fn, *args, **kwargs)
        return wrapper

    def _counted(self, metric: str, fn):
        counts = self.sim_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, spec_layer in enumerate(spec.LAYERS):
            name = spec_layer.name
            out[f"{name}.{spec_layer.wall_name}"] = self.wall_s[layer]
            out[f"{name}.self_s"] = self.self_s[layer]
            out[f"{name}.calls"] = self.calls[layer]
        out.update(self.extra)
        out.update(self.sim_calls)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzipped TSV, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(self.span_start, default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tlayer\tstart_s\tend_s\tparent\trun_id\n")
            for span_id, layer, start, end, parent, run in zip(
                    self.span_id, self.span_layer, self.span_start,
                    self.span_end, self.span_parent, self.span_run):
                out.write(f"{span_id}\t{self.names[layer]}\t"
                          f"{start - origin:.9f}\t{end - origin:.9f}\t"
                          f"{parent}\t{run}\n")
