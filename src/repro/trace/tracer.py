"""ST05-style hierarchical span tracing on the simulated clock.

A :class:`Tracer` records *spans* — named, attributed windows over the
shared :class:`~repro.sim.clock.SimulatedClock`.  Spans nest: every
tier of the stack (report, ABAP runtime, Open SQL, DBIF, engine,
per-operator plan execution) opens a span around its work, producing a
tree that decomposes where the simulated time of a query went — the
same where-did-the-time-go evidence SAP's ST05 SQL trace gives a
basis consultant.

A span may carry a *layer* tag (``abap``, ``dbif``, ``engine``; the
node-less :meth:`Tracer.layer` probe adds ``rollin``, ``rollout`` and
``commit``).  The tags are the system's one instrumentation plane: the
span tree keeps them for the trace analyzer, and while a *layer sink*
(the workload monitor) is attached the tracer accounts exclusive
seconds per layer — with or without a span tree (DESIGN.md §9).

Two invariants the whole subsystem relies on:

* **The tracer never charges the clock.**  Spans only *read*
  ``clock.now`` at entry and exit, so enabling tracing changes the
  simulated duration of any run by exactly zero ticks.
* **Disabled mode allocates nothing.**  With tree recording off and no
  sink attached, :meth:`Tracer.span` returns a shared no-op singleton —
  no ``Span`` object, no contextvar traffic, no metrics snapshot — so
  the hot paths pay one attribute load and two branches.

The current span is tracked in a per-tracer :mod:`contextvars`
variable, so tracers from different systems (e.g. the three power-test
variants) never interleave their trees, and code deep in the stack can
annotate the innermost open span via :meth:`Tracer.current`.
"""

from __future__ import annotations

import contextvars
import itertools
from typing import Iterator

from repro.sim.clock import SimulatedClock
from repro.sim.metrics import MetricsCollector, MetricsScope

_tracer_ids = itertools.count()


class _NoopSpan:
    """Shared do-nothing span; the disabled-mode return of ``span()``."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NoopSpan":
        return self

    def add(self, name: str, amount: float = 1) -> "_NoopSpan":
        return self


#: the singleton no-op span (identity-testable: ``span() is NOOP_SPAN``)
NOOP_SPAN = _NoopSpan()


class LayerProbe:
    """A layer-tagged window that feeds layer accounting but records no
    span node (the tree is off or ``max_spans`` is spent, or it came
    from :meth:`Tracer.layer`); the sink sees its attrs and readings."""

    __slots__ = ("_tracer", "layer", "attrs", "start_s", "end_s")

    def __init__(self, tracer: "Tracer", layer: str | None,
                 attrs: dict) -> None:
        self._tracer = tracer
        self.layer = layer
        self.attrs = attrs
        self.start_s: float = 0.0
        self.end_s: float | None = None

    def __enter__(self) -> "LayerProbe":
        tracer = self._tracer
        self.start_s = now = tracer.clock.now
        if self.layer is not None and tracer.sink is not None:
            tracer._push_layer(self.layer, now)
        return self

    def __exit__(self, exc_type, *exc_info: object) -> bool:
        tracer = self._tracer
        self.end_s = now = tracer.clock.now
        if self.layer is not None and tracer.sink is not None:
            tracer._pop_layer(self, now, exc_type is not None)
        return False

    # -- annotation and readings -------------------------------------------

    def set(self, **attrs: object) -> "LayerProbe":
        """Attach or overwrite attributes on this span."""
        self.attrs.update(attrs)
        return self

    def add(self, name: str, amount: float = 1) -> "LayerProbe":
        """Accumulate a numeric attribute (e.g. retries within a call)."""
        self.attrs[name] = self.attrs.get(name, 0) + amount
        return self

    @property
    def elapsed_s(self) -> float:
        """Inclusive simulated seconds (to 'now' while still open)."""
        end = self.end_s if self.end_s is not None else self._tracer.clock.now
        return end - self.start_s


class Span(LayerProbe):
    """One traced window: name, layer, attributes, children, readings.

    ``start_s``/``end_s`` are simulated seconds; ``end_s`` is ``None``
    while the span is open.  ``layer`` is the span's layer tag or
    ``None`` (the span belongs to its parent's layer).  ``counters``
    holds the metric deltas accumulated inside the span when it was
    opened with ``capture_metrics=True``.
    """

    __slots__ = ("name", "children", "counters", "_token", "_scope")

    def __init__(self, tracer: "Tracer", name: str, layer: str | None,
                 attrs: dict, capture_metrics: bool) -> None:
        super().__init__(tracer, layer, attrs)
        self.name = name
        self.children: list[Span] = []
        self.counters: dict[str, float] = {}
        self._token: contextvars.Token | None = None
        self._scope: MetricsScope | None = None
        if capture_metrics and tracer.metrics is not None:
            self._scope = tracer.metrics.scoped()

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Span":
        LayerProbe.__enter__(self)
        tracer = self._tracer
        self._token = tracer._current.set(self)
        if self._scope is not None:
            self._scope.__enter__()
        return self

    def __exit__(self, exc_type, *exc_info: object) -> bool:
        LayerProbe.__exit__(self, exc_type)
        tracer = self._tracer
        if self._scope is not None:
            self._scope.__exit__()
            self.counters = self._scope.delta
        assert self._token is not None
        parent = self._token.old_value
        tracer._current.reset(self._token)
        if isinstance(parent, Span):
            parent.children.append(self)
        else:
            tracer.roots.append(self)
        return False

    # -- readings ----------------------------------------------------------

    @property
    def self_s(self) -> float:
        """Exclusive simulated seconds: inclusive minus child spans."""
        return self.elapsed_s - sum(c.elapsed_s for c in self.children)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, in start order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.elapsed_s:.6f}s, "
                f"{len(self.children)} children)")


class Tracer:
    """Span factory and trace store for one simulated system.

    Tree recording is off by default; ``enable()`` before the work to
    trace.  An optional ``max_spans`` bounds memory on very large runs —
    spans beyond the cap record no node and are counted in
    :attr:`dropped` (layer accounting goes on regardless).

    While a sink is attached (:meth:`attach_sink`) the ticks between two
    layer events accumulate in :attr:`layer_s` under the innermost open
    layer, and ``sink.layer_closed(probe, failed)`` hears each close.
    """

    def __init__(self, clock: SimulatedClock,
                 metrics: MetricsCollector | None = None,
                 enabled: bool = False,
                 max_spans: int | None = None) -> None:
        self.clock = clock
        self.metrics = metrics
        self.enabled = enabled
        self.max_spans = max_spans
        self.roots: list[Span] = []
        self.dropped = 0
        self.span_count = 0
        self._current: contextvars.ContextVar[Span | None] = \
            contextvars.ContextVar(f"repro_trace_{next(_tracer_ids)}",
                                   default=None)
        #: the layer sink while one listens (layer accounting runs then)
        self.sink = None
        #: exclusive simulated seconds per layer, accumulated while a
        #: sink listens (kept across detach/attach)
        self.layer_s: dict[str, float] = {}
        self._layers: list[str] = []
        self._mark = 0.0

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        self.enabled = False
        return self

    def clear(self) -> None:
        """Drop all recorded spans (the enabled flag is unchanged)."""
        self.roots.clear()
        self.dropped = 0
        self.span_count = 0

    def attach_sink(self, sink) -> None:
        """Start layer accounting, reporting closed windows to ``sink``."""
        self.sink = sink
        self._mark = self.clock.now

    def detach_sink(self) -> None:
        """Stop layer accounting; the open-layer stack is discarded."""
        self.sink = None
        self._layers.clear()

    # -- span creation -----------------------------------------------------

    def span(self, name: str, /, layer: str | None = None,
             capture_metrics: bool = False, **attrs: object):
        """Open a span (context manager), tagged with ``layer`` if given.

        A recorded :class:`Span` while enabled and under ``max_spans``;
        otherwise a :class:`LayerProbe` for a tagged span while a sink
        listens, else the no-op span.
        """
        if self.enabled:
            if self.max_spans is None or self.span_count < self.max_spans:
                self.span_count += 1
                return Span(self, name, layer, attrs, capture_metrics)
            self.dropped += 1
        if layer is None or self.sink is None:
            return NOOP_SPAN
        return LayerProbe(self, layer, attrs)

    def layer(self, layer: str):
        """A node-less probe charging its window to ``layer`` (roll-in,
        roll-out and log flushes have no span of their own)."""
        if self.sink is None:
            return NOOP_SPAN
        return LayerProbe(self, layer, {})

    def current(self):
        """The innermost open span, or the no-op span when none/disabled."""
        if not self.enabled:
            return NOOP_SPAN
        span = self._current.get()
        return span if span is not None else NOOP_SPAN

    # -- layer accounting --------------------------------------------------

    def _settle(self, now: float) -> None:
        layers = self._layers
        if layers:
            elapsed = now - self._mark
            if elapsed:
                top = layers[-1]
                self.layer_s[top] = self.layer_s.get(top, 0.0) + elapsed
        self._mark = now

    def _push_layer(self, layer: str, now: float) -> None:
        self._settle(now)
        self._layers.append(layer)

    def _pop_layer(self, probe: LayerProbe, now: float,
                   failed: bool) -> None:
        self._settle(now)
        layers = self._layers
        if layers and layers[-1] == probe.layer:
            layers.pop()
        elif probe.layer in layers:
            # Unbalanced exit (an exception unwound past an inner
            # layer): drop everything above, keep accounting sane.
            while layers.pop() != probe.layer:
                pass
        self.sink.layer_closed(probe, failed)

    # -- reading -----------------------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        """Every finished span, depth-first over all roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, in start order."""
        return [s for s in self.iter_spans() if s.name == name]
