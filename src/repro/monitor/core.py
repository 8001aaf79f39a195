"""The workload monitor: STAT records, ST04 statements, gauge series.

One :class:`WorkloadMonitor` lives on every engine (shared by the R/3
system around it, like the clock, metrics and tracer).  It keeps no
timing stack of its own: while enabled it is the *layer sink* of the
engine's :class:`~repro.trace.tracer.Tracer`, whose layer-tagged spans
then account each tick to the innermost open layer.  Three collection
surfaces sit on that one stream:

* **STAT records** — the dispatcher (or the power-test loop) runs each
  dialog step as ``with monitor.step(span, task, label, ...)`` around
  an ``abap``-layer span.  The record holds the step's deltas of the
  tracer's per-layer totals — queue wait, roll-in/out, ABAP, DBIF,
  engine and commit seconds — which sum *exactly* to the response time
  (float residue is folded into the ABAP component and reported in
  ``residual_s``).  Records live in a fixed-size ring.

* **ST04 statements** — every successful ``dbif`` window is charged,
  with its rows, to its statement text.

* **Gauges** — windowed rates (buffer quality, cursor-cache and
  buffer-pool hit rates, breaker trip/fast-fail events) computed from
  metric deltas since the previous sample, plus instantaneous sources
  (dispatcher queue depth, breaker state) registered via
  :meth:`~WorkloadMonitor.attach_source`, sampled into per-gauge ring
  series every ``sample_interval_s`` simulated seconds.  Each sample
  window is fed to the CCMS :class:`~repro.monitor.alerts.AlertEngine`.

The monitor only ever *reads* ``clock.now`` — it never charges — so
enabling it is tick-identical to disabling it; the only trace it leaves
are ``monitor.*`` metric counters.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.monitor.alerts import AlertEngine, default_alert_rules

#: the layers a STAT record decomposes a dialog step into, in report order
STEP_LAYERS = ("rollin", "rollout", "abap", "dbif", "engine", "commit")

#: gauges whose per-window value is a delta of these cumulative metrics
_EVENT_GAUGES = (
    ("breaker_open_events", "dbif.breaker.open"),
    ("fastfail_events", "dbif.breaker.fast_fails"),
    ("shed_events", "dispatcher.shed"),
    ("ddlog_invalidation_events", "cluster.ddlog_invalidations"),
)

#: gauges that are hit/(hit+miss) style rates over a sample window
_RATE_GAUGES = (
    ("pool_hit_rate", "buffer.hits", "buffer.misses"),
    ("cursor_hit_rate", "dbif.cursor_cache_hits",
     "dbif.cursor_cache_misses"),
)

_WHITESPACE = re.compile(r"\s+")


@dataclass
class StatRecord:
    """One dialog step's statistics record (the R/3 STAT file line).

    ``queue_wait_s + rollin_s + rollout_s + abap_s + dbif_s + engine_s
    + commit_s`` — evaluated in that order — equals :attr:`response_s`
    exactly; the float residue absorbed into ``abap_s`` to make that
    hold is reported in ``residual_s``.
    """

    seq: int
    task: str                  #: ``dialog`` | ``update`` | ``batch``
    label: str
    stream: int
    wp: str
    outcome: str               #: ``completed`` | ``shed`` | ``failed`` ...
    start_s: float
    end_s: float
    queue_wait_s: float
    server: str = ""           #: application server name ("" = primary)
    rollin_s: float = 0.0
    rollout_s: float = 0.0
    abap_s: float = 0.0
    dbif_s: float = 0.0
    engine_s: float = 0.0
    commit_s: float = 0.0
    residual_s: float = 0.0

    @property
    def response_s(self) -> float:
        """Queue wait plus the roll-in-to-roll-out window."""
        return self.queue_wait_s + (self.end_s - self.start_s)

    @property
    def db_s(self) -> float:
        """The ST03 "DB time" component: everything below the DBIF."""
        return self.dbif_s + self.engine_s + self.commit_s

    def decomposed_s(self) -> float:
        """The layer sum, in the canonical (conservation-checked) order."""
        return (self.queue_wait_s + self.rollin_s + self.rollout_s
                + self.abap_s + self.dbif_s + self.engine_s
                + self.commit_s)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "task": self.task,
            "label": self.label,
            "stream": self.stream,
            "wp": self.wp,
            "server": self.server,
            "outcome": self.outcome,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "response_s": self.response_s,
            "queue_wait_s": self.queue_wait_s,
            "rollin_s": self.rollin_s,
            "rollout_s": self.rollout_s,
            "abap_s": self.abap_s,
            "dbif_s": self.dbif_s,
            "engine_s": self.engine_s,
            "commit_s": self.commit_s,
            "residual_s": self.residual_s,
        }


@dataclass(eq=False)
class Step:
    """One dialog step: an ``abap``-layer span whose close writes a STAT
    record to :attr:`record` (``None`` while the monitor is off, and for
    a step nested in another: the outer record owns the window).

    ``set(**attrs)`` annotates the span, and an ``outcome`` among them
    is the record's too; a step that raises is recorded ``failed``.
    """

    monitor: "WorkloadMonitor"
    span: object
    task: str
    label: str
    stream: int = 0
    wp: str = ""
    queue_wait_s: float = 0.0
    server: str = ""
    outcome: str = "completed"
    start_s: float = 0.0
    base: dict = field(default_factory=dict)
    record: StatRecord | None = None

    def __enter__(self) -> "Step":
        self.span.__enter__()
        self.monitor._open(self)
        return self

    def __exit__(self, exc_type, *exc_info: object) -> bool:
        self.span.__exit__(exc_type, *exc_info)
        if exc_type is not None:
            self.outcome = "failed"
        self.monitor._close(self)
        return False

    def set(self, **attrs: object) -> "Step":
        self.outcome = attrs.get("outcome", self.outcome)
        self.span.set(**attrs)
        return self


@dataclass
class StatementStats:
    """ST04 accounting for one distinct statement text."""

    fingerprint: str
    sql: str
    calls: int = 0
    db_s: float = 0.0
    rows: int = 0

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "sql": self.sql,
            "calls": self.calls,
            "db_s": round(self.db_s, 6),
            "rows": self.rows,
            "per_call_s": round(self.db_s / self.calls, 6)
            if self.calls else 0.0,
        }


class RingSeries:
    """Fixed-size time series of ``(t, value)`` samples."""

    __slots__ = ("name", "_samples")

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self._samples: deque[tuple[float, float]] = deque(maxlen=capacity)

    def append(self, t: float, value: float) -> None:
        self._samples.append((t, value))

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples)

    @property
    def last(self) -> tuple[float, float] | None:
        return self._samples[-1] if self._samples else None

    def values(self) -> list[float]:
        return [value for _t, value in self._samples]

    def summary(self) -> dict:
        values = self.values()
        out: dict[str, object] = {"samples": len(values)}
        if values:
            out.update({
                "last": round(values[-1], 6),
                "min": round(min(values), 6),
                "max": round(max(values), 6),
                "mean": round(sum(values) / len(values), 6),
            })
        return out


def statement_fingerprint(sql: str) -> str:
    """Stable fingerprint of a statement's normalized text.

    Whitespace-normalized, case-folded — the same identity the cursor
    cache uses (parameter markers already replace all literals on the
    Open SQL path, so two executions of one report line share a
    fingerprint no matter the host-variable values).
    """
    normalized = _WHITESPACE.sub(" ", sql.strip()).lower()
    return hashlib.sha1(normalized.encode()).hexdigest()[:12]


class WorkloadMonitor:
    """Always-on workload statistics for one simulated system."""

    def __init__(self, tracer, stat_capacity: int = 1024,
                 series_capacity: int = 512,
                 statement_capacity: int = 512,
                 sample_interval_s: float = 1.0,
                 rules=None) -> None:
        #: the tracer whose layer-tagged spans feed this monitor
        self.tracer = tracer
        self._clock = tracer.clock
        self._metrics = tracer.metrics
        self.enabled = False
        self.stat_capacity = stat_capacity
        self.series_capacity = series_capacity
        self.statement_capacity = statement_capacity
        self.sample_interval_s = sample_interval_s
        self.stat_records: deque[StatRecord] = deque(maxlen=stat_capacity)
        self.statements: dict[str, StatementStats] = {}
        self.series: dict[str, RingSeries] = {}
        self.alerts = AlertEngine(
            list(rules) if rules is not None else default_alert_rules())
        self._step: Step | None = None
        self._seq = 0
        self._window_snap = None
        self._last_sample_t: float | None = None
        self._sources: dict[str, Callable[[], float | None]] = {}

    # -- lifecycle -------------------------------------------------------

    def enable(self) -> "WorkloadMonitor":
        if not self.enabled:
            self.enabled = True
            self.tracer.attach_sink(self)
            self._window_snap = self._metrics.snapshot()
            self._last_sample_t = self._clock.now
        return self

    def disable(self) -> "WorkloadMonitor":
        """Stop collecting.  Open layer state is discarded; a step that
        is still open is abandoned (its record is never written)."""
        self.enabled = False
        self.tracer.detach_sink()
        self._step = None
        return self

    def attach_source(self, name: str,
                      fn: Callable[[], float | None]) -> None:
        """Register an instantaneous gauge (e.g. dispatcher queue depth).

        ``fn()`` is called at each sample; returning ``None`` skips the
        gauge for that window.  Re-registering a name replaces the
        source (a rebuilt dispatcher takes over its gauge).
        """
        self._sources[name] = fn

    # -- STAT records ----------------------------------------------------

    def step(self, span, task: str, label: str, **fields) -> Step:
        """A dialog step around ``span``, a tracer span tagged
        ``layer="abap"`` (the step's base layer); ``fields`` are the
        step's ``stream``, ``wp``, ``queue_wait_s`` and ``server``."""
        return Step(self, span, task, label, **fields)

    def _open(self, step: Step) -> None:
        if not self.enabled or self._step is not None:
            return
        step.start_s = self._clock.now
        step.base = dict(self.tracer.layer_s)
        self._step = step

    def _close(self, step: Step) -> None:
        """Append the closed step's :class:`StatRecord` to the ring."""
        if step is not self._step:
            return
        self._step = None
        now = self._clock.now
        base = step.base
        totals = self.tracer.layer_s
        deltas = {
            name: totals.get(name, 0.0) - base.get(name, 0.0)
            for name in STEP_LAYERS
        }
        self._seq += 1
        record = StatRecord(
            seq=self._seq, task=step.task, label=step.label,
            stream=step.stream, wp=step.wp, outcome=step.outcome,
            start_s=step.start_s, end_s=now,
            queue_wait_s=step.queue_wait_s, server=step.server,
            rollin_s=deltas["rollin"], rollout_s=deltas["rollout"],
            abap_s=deltas["abap"], dbif_s=deltas["dbif"],
            engine_s=deltas["engine"], commit_s=deltas["commit"],
        )
        # Exact conservation: fold the float residue of regrouping the
        # per-layer sums into the ABAP component, iterating the fixup
        # until the canonical-order sum reproduces response_s bit-exactly.
        residual = record.response_s - record.decomposed_s()
        record.residual_s = residual
        for _ in range(4):
            if not residual:
                break
            record.abap_s += residual
            residual = record.response_s - record.decomposed_s()
        self.stat_records.append(record)
        step.record = record
        self._metrics.count("monitor.stat_records")
        self.maybe_sample()

    # -- ST04 statement accounting ---------------------------------------

    def layer_closed(self, probe, failed: bool) -> None:
        """Layer-sink hook: charge each successful DBIF call's window."""
        sql = probe.attrs.get("sql")
        if probe.layer == "dbif" and not failed and sql is not None:
            self.record_statement(sql, probe.elapsed_s,
                                  probe.attrs.get("rows", 0))

    def record_statement(self, sql: str, db_s: float, rows: int) -> None:
        """Charge one DBIF call's DB time to its statement text."""
        stats = self.statements.get(sql)
        if stats is None:
            if len(self.statements) >= self.statement_capacity:
                self._metrics.count("monitor.statements_dropped")
                return
            stats = self.statements[sql] = StatementStats(
                fingerprint=statement_fingerprint(sql), sql=sql)
        stats.calls += 1
        stats.db_s += db_s
        stats.rows += rows

    def top_statements(self, n: int = 10) -> list[StatementStats]:
        """The ST04 view: statements ranked by accumulated DB time."""
        return sorted(self.statements.values(),
                      key=lambda s: (-s.db_s, s.fingerprint))[:n]

    # -- gauge sampling --------------------------------------------------

    def maybe_sample(self) -> None:
        """Take a sample if the interval elapsed since the last one."""
        if not self.enabled:
            return
        if self._clock.now - self._last_sample_t >= self.sample_interval_s:
            self.sample()

    def sample(self) -> list:
        """Close the current window: compute gauges, append to series,
        feed the alert engine.  Returns the alert transitions caused."""
        if not self.enabled:
            return []
        now = self._clock.now
        delta = self._window_snap.delta()
        gauges: dict[str, float] = {}
        for gauge, metric in _EVENT_GAUGES:
            gauges[gauge] = float(delta.get(metric, 0.0))
        for gauge, hit_metric, miss_metric in _RATE_GAUGES:
            hits = delta.get(hit_metric, 0.0)
            misses = delta.get(miss_metric, 0.0)
            if hits + misses > 0:
                gauges[gauge] = hits / (hits + misses)
        lookups = delta.get("buffer_mgr.lookups", 0.0)
        if lookups > 0:
            gauges["buffer_quality"] = \
                delta.get("buffer_mgr.hits", 0.0) / lookups
        gauges["wal_backlog"] = (self._metrics.get("wal.appends")
                                 - self._metrics.get("wal.records_flushed"))
        for name, fn in self._sources.items():
            value = fn()
            if value is not None:
                gauges[name] = float(value)
        for name, value in gauges.items():
            series = self.series.get(name)
            if series is None:
                series = self.series[name] = RingSeries(
                    name, self.series_capacity)
            series.append(now, value)
        self._window_snap = self._metrics.snapshot()
        self._last_sample_t = now
        self._metrics.count("monitor.samples")
        transitions = self.alerts.observe(now, gauges)
        for event in transitions:
            self._metrics.count("monitor.alerts_fired"
                                if event.kind == "fired"
                                else "monitor.alerts_cleared")
        return transitions

    def finish(self) -> None:
        """Force a final sample so the tail window is never lost."""
        if self.enabled:
            self.sample()
