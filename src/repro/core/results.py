"""Result formatting: paper-style tables and paper-vs-measured views."""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.sim.clock import format_duration
from repro.tables import kb_cell, render_table  # noqa: F401  (re-export)


def duration_cell(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    return format_duration(seconds)


#: (metric name, printed label, 'count'|'duration') — the robustness
#: counters every fault-aware bench reports next to its timings.
#:
#: Error taxonomy behind the fault counters: *transient* errors
#: (``TransientError``: disk hiccups, connection drops, statement
#: timeouts, ``TornWriteError`` on a log tail) are retried or walked
#: past — the work survives; *permanent* errors (``PermanentError``:
#: ``WalCorruptionError`` mid-log, conversion errors) abort the
#: operation — retrying cannot help; ``SimulatedCrash`` is neither —
#: it kills the process, and no retry ladder may swallow it (only
#: ARIES recovery on reopen undoes its damage).
ROBUSTNESS_COUNTERS = [
    ("faults.disk_io_injected", "Disk I/O faults injected", "count"),
    ("faults.connection_drops_injected", "Connection drops injected",
     "count"),
    ("faults.crashes_injected", "Work-process crashes injected", "count"),
    ("disk.io_retries", "Disk retries", "count"),
    ("dbif.retries", "DBIF reconnect retries", "count"),
    ("dbif.backoff_s", "DBIF backoff charged", "duration"),
    ("dbif.statement_timeouts", "Statement timeouts", "count"),
    ("powertest.failures", "Power-test queries degraded", "count"),
    ("batchinput.checkpoints", "Checkpoints written", "count"),
    ("batchinput.checkpoint_overhead_s", "Checkpoint overhead", "duration"),
    ("batchinput.rollbacks", "Batch rollbacks", "count"),
    ("batchinput.journal_resumes", "Journal resumes", "count"),
    ("recovery.rows_rolled_back", "Rows rolled back", "count"),
    ("dispatcher.rejected", "Dispatcher admissions rejected", "count"),
    ("dispatcher.shed", "Dispatcher requests shed", "count"),
    ("dispatcher.shed_lowprio", "Low-priority requests shed", "count"),
    ("dispatcher.deadline_shed", "Queue-wait deadline sheds", "count"),
    ("dispatcher.requeued", "Crash requeues", "count"),
    ("dispatcher.wp_restarts", "Work processes restarted", "count"),
    ("dispatcher.queue_wait_s", "Dispatcher queue wait", "duration"),
    ("dbif.breaker.open", "Circuit breaker opened", "count"),
    ("dbif.breaker.fast_fails", "Breaker fast-fails", "count"),
    ("faults.torn_writes_injected", "Torn log writes injected", "count"),
    ("wal.commits", "WAL transactions committed", "count"),
    ("wal.autocommits", "WAL autocommitted mutations", "count"),
    ("wal.checkpoints", "Fuzzy checkpoints written", "count"),
    ("wal.checkpoint_pages", "Checkpoint pages flushed", "count"),
    ("wal.segments_rotated", "WAL segments rotated", "count"),
    ("wal.segments_truncated", "WAL segments truncated", "count"),
    ("recovery.runs", "ARIES recovery runs", "count"),
    ("recovery.redo_applied", "Redo records replayed", "count"),
    ("recovery.undo_applied", "Loser records undone", "count"),
    ("recovery.loser_txns", "Loser transactions", "count"),
    ("recovery.torn_tail_dropped", "Torn log tails dropped", "count"),
    ("recovery.time_s", "Recovery time", "duration"),
    ("cluster.server_crashes", "App servers crashed", "count"),
    ("cluster.server_rejoins", "App servers rejoined", "count"),
    ("cluster.sessions_rerouted", "Sticky sessions re-routed", "count"),
    ("cluster.ddlog_invalidations", "DDLOG invalidations appended",
     "count"),
    ("cluster.stale_reads_prevented", "Stale reads prevented by DDLOG",
     "count"),
    ("lsm.flushes", "LSM memtable flushes", "count"),
    ("lsm.flush_pages", "LSM pages flushed", "count"),
    ("lsm.compactions", "LSM compactions", "count"),
    ("lsm.compaction_pages", "LSM compaction pages", "count"),
    ("lsm.segment_reads", "LSM segment point reads", "count"),
    ("lsm.bloom_skips", "LSM bloom-filter skips", "count"),
    ("monitor.stat_records", "STAT records written", "count"),
    ("monitor.samples", "Monitor gauge samples", "count"),
    ("monitor.alerts_fired", "CCMS alerts fired", "count"),
    ("monitor.alerts_cleared", "CCMS alerts cleared", "count"),
    ("monitor.statements_dropped", "ST04 statements dropped", "count"),
]


def robustness_summary(metrics, title: str = "Robustness counters") -> str:
    """Fault/retry/checkpoint counters as a paper-style table.

    ``metrics`` is a :class:`~repro.sim.metrics.MetricsCollector` or a
    plain name→value mapping.  Zero counters are suppressed; an all-zero
    collector renders a single "no faults" line so a fault-free run is
    visibly fault-free rather than silent.
    """
    values = metrics.all() if hasattr(metrics, "all") else dict(metrics)
    rows: list[list[object]] = []
    for name, label, kind in ROBUSTNESS_COUNTERS:
        value = values.get(name, 0)
        if not value:
            continue
        if kind == "duration":
            rows.append([label, format_duration(value)])
        else:
            rows.append([label, f"{int(value):,}"])
    if not rows:
        rows.append(["(no faults injected, no retries, no checkpoints)",
                     "-"])
    return render_table(["Counter", "Value"], rows, title=title)


def ratio(a: float, b: float) -> float:
    """a / b with a guard for zero denominators."""
    if b == 0:
        return float("inf") if a > 0 else 1.0
    return a / b


def shape_report(
    measured: Mapping[str, float],
    paper: Mapping[str, float],
    baseline_measured: Mapping[str, float],
    baseline_paper: Mapping[str, float],
    names: Sequence[str],
) -> list[tuple[str, float, float]]:
    """Per-entry (name, measured ratio, paper ratio) vs a baseline.

    The reproduction's claim is that *ratios against the baseline*
    match the paper's, not absolute values.
    """
    out = []
    for name in names:
        out.append((
            name,
            ratio(measured[name], baseline_measured[name]),
            ratio(paper[name], baseline_paper[name]),
        ))
    return out
