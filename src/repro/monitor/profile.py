"""ST03/ST04-style aggregation of monitor state into a workload report.

:func:`build_report` folds a :class:`~repro.monitor.core.WorkloadMonitor`
into the ``repro-monitor-v1`` JSON document:

* ``profile`` — the ST03 workload profile: per task type (dialog /
  update / batch) the step count, mean response time, p50/p95/p99
  digests, and the mean layer decomposition (queue wait, roll-in/out,
  ABAP, DBIF, engine, commit).
* ``db`` — the ST04 view: top statements by accumulated DB time, with
  call counts, rows shipped and per-call time.
* ``gauges`` — last/min/max/mean summaries of each sampled ring series.
* ``alerts`` — the CCMS engine's rule table and transition log.
* ``stat_records`` — the raw STAT ring (optional; large).

:func:`render_report` prints the same document as monospace tables.
"""

from __future__ import annotations

from repro.monitor.core import STEP_LAYERS, WorkloadMonitor
from repro.tables import render_table

FORMAT = "repro-monitor-v1"

#: report order for task types (anything unexpected sorts after these)
_TASK_ORDER = {"dialog": 0, "update": 1, "batch": 2}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile over a sorted copy of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without math
    return ordered[int(rank) - 1]


def _task_profile(task: str, records) -> dict:
    responses = [r.response_s for r in records]
    steps = len(records)
    layers = {"queue_wait_s": sum(r.queue_wait_s for r in records) / steps}
    for layer in STEP_LAYERS:
        layers[f"{layer}_s"] = \
            sum(getattr(r, f"{layer}_s") for r in records) / steps
    outcomes: dict[str, int] = {}
    for r in records:
        outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
    return {
        "task": task,
        "steps": steps,
        "response_s": {
            "mean": sum(responses) / steps,
            "p50": percentile(responses, 50),
            "p95": percentile(responses, 95),
            "p99": percentile(responses, 99),
            "max": max(responses),
        },
        "mean_layers_s": layers,
        "db_share": (sum(r.db_s for r in records)
                     / max(sum(responses), 1e-12)),
        "outcomes": outcomes,
    }


def build_report(monitor: WorkloadMonitor, meta: dict | None = None,
                 top_statements: int = 10,
                 include_stat_records: bool = False) -> dict:
    """The ``repro-monitor-v1`` workload report document."""
    by_task: dict[str, list] = {}
    by_server: dict[str, list] = {}
    for record in monitor.stat_records:
        by_task.setdefault(record.task, []).append(record)
        by_server.setdefault(record.server, []).append(record)
    tasks = sorted(by_task,
                   key=lambda t: (_TASK_ORDER.get(t, len(_TASK_ORDER)), t))
    report = {
        "format": FORMAT,
        "meta": dict(meta or {}),
        "profile": [_task_profile(task, by_task[task]) for task in tasks],
        "db": {
            "statements": len(monitor.statements),
            "top": [stats.to_dict()
                    for stats in monitor.top_statements(top_statements)],
        },
        "gauges": {name: series.summary()
                   for name, series in sorted(monitor.series.items())},
        "alerts": monitor.alerts.to_dict(),
        "counters": {
            "stat_records": len(monitor.stat_records),
            "stat_records_total": monitor._metrics.get(
                "monitor.stat_records"),
            "samples": monitor._metrics.get("monitor.samples"),
            "statements_dropped": monitor._metrics.get(
                "monitor.statements_dropped"),
        },
    }
    # Per-server ST03 section: only meaningful (and only emitted) when
    # steps from more than one application server share the STAT ring —
    # single-server reports are byte-identical to before.
    if len(by_server) > 1:
        report["profile_by_server"] = [
            {**_task_profile("all", by_server[server]),
             "server": server or "(unattributed)"}
            for server in sorted(by_server)
        ]
    if include_stat_records:
        report["stat_records"] = [r.to_dict()
                                  for r in monitor.stat_records]
    return report


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}"


def _render_profile(report: dict) -> str:
    rows = []
    for prof in report["profile"]:
        resp = prof["response_s"]
        layers = prof["mean_layers_s"]
        rows.append([
            prof["task"], prof["steps"],
            _ms(resp["mean"]), _ms(resp["p50"]), _ms(resp["p95"]),
            _ms(resp["p99"]),
            _ms(layers["queue_wait_s"]),
            _ms(layers["rollin_s"] + layers["rollout_s"]),
            _ms(layers["abap_s"]),
            _ms(layers["dbif_s"]),
            _ms(layers["engine_s"]),
            _ms(layers["commit_s"]),
            f"{prof['db_share'] * 100:.1f}%",
        ])
    if not rows:
        rows.append(["(no steps recorded)"] + ["-"] * 12)
    return render_table(
        ["Task", "Steps", "Mean ms", "p50", "p95", "p99", "Queue",
         "Roll", "ABAP", "DBIF", "Engine", "Commit", "DB%"],
        rows, title="ST03 workload profile (per-step means, ms)")


def _render_server_profile(report: dict) -> str:
    rows = []
    for prof in report["profile_by_server"]:
        resp = prof["response_s"]
        layers = prof["mean_layers_s"]
        rows.append([
            prof["server"], prof["steps"],
            _ms(resp["mean"]), _ms(resp["p95"]),
            _ms(layers["queue_wait_s"]),
            _ms(layers["dbif_s"] + layers["engine_s"]
                + layers["commit_s"]),
            f"{prof['db_share'] * 100:.1f}%",
        ])
    return render_table(
        ["Server", "Steps", "Mean ms", "p95", "Queue", "DB ms", "DB%"],
        rows, title="ST03 per-application-server profile")


def _render_db(report: dict) -> str:
    rows = []
    for stmt in report["db"]["top"]:
        sql = stmt["sql"]
        if len(sql) > 48:
            sql = sql[:45] + "..."
        rows.append([stmt["fingerprint"], stmt["calls"],
                     _ms(stmt["db_s"]), _ms(stmt["per_call_s"]),
                     stmt["rows"], sql])
    if not rows:
        rows.append(["(no statements recorded)"] + ["-"] * 5)
    return render_table(
        ["Fingerprint", "Calls", "DB ms", "ms/call", "Rows", "Statement"],
        rows,
        title=f"ST04 top statements by DB time "
              f"({report['db']['statements']} distinct)")


def _render_gauges(report: dict) -> str:
    rows = []
    for name, summary in report["gauges"].items():
        if summary["samples"]:
            rows.append([name, summary["samples"],
                         f"{summary['last']:g}", f"{summary['min']:g}",
                         f"{summary['max']:g}", f"{summary['mean']:g}"])
        else:
            rows.append([name, 0, "-", "-", "-", "-"])
    if not rows:
        rows.append(["(no gauges sampled)", "-", "-", "-", "-", "-"])
    return render_table(
        ["Gauge", "Samples", "Last", "Min", "Max", "Mean"],
        rows, title="Gauge series")


def _render_alerts(report: dict) -> str:
    alerts = report["alerts"]
    rows = [[rule["name"], rule["condition"], rule["severity"],
             rule["fired"], "yes" if rule["active"] else "no"]
            for rule in alerts["rules"]]
    lines = [render_table(
        ["Rule", "Condition", "Severity", "Fired", "Active"],
        rows, title=f"CCMS alerts ({alerts['fired_total']} fired)")]
    if alerts["events"]:
        event_rows = [[f"{event['t']:.3f}", event["kind"], event["rule"],
                       f"{event['value']:g}", event["condition"]]
                      for event in alerts["events"]]
        lines.append(render_table(
            ["t", "Event", "Rule", "Value", "Condition"], event_rows,
            title="Alert log"))
    return "\n\n".join(lines)


def _render_stat_records(report: dict) -> str:
    rows = []
    for r in report.get("stat_records", []):
        rows.append([r["seq"], r["task"], r["label"], r["wp"],
                     r["outcome"], _ms(r["response_s"]),
                     _ms(r["queue_wait_s"]), _ms(r["abap_s"]),
                     _ms(r["dbif_s"]), _ms(r["engine_s"]),
                     _ms(r["commit_s"])])
    if not rows:
        rows.append(["(empty STAT ring)"] + ["-"] * 10)
    return render_table(
        ["Seq", "Task", "Step", "WP", "Outcome", "Resp ms", "Queue",
         "ABAP", "DBIF", "Engine", "Commit"],
        rows, title="STAT records")


def render_report(report: dict, sections: tuple[str, ...] | None = None
                  ) -> str:
    """Monospace rendering; ``sections`` picks from ``profile``,
    ``alerts``, ``stat_records`` (``None`` renders everything)."""
    want = set(sections) if sections else {"profile", "alerts"}
    if "stat_records" in report and sections is None:
        want.add("stat_records")
    parts = []
    meta = report.get("meta") or {}
    if meta:
        parts.append("  ".join(f"{key}={value}"
                               for key, value in sorted(meta.items())))
    if "profile" in want:
        parts.append(_render_profile(report))
        if "profile_by_server" in report:
            parts.append(_render_server_profile(report))
        parts.append(_render_db(report))
        parts.append(_render_gauges(report))
    if "alerts" in want:
        parts.append(_render_alerts(report))
    if "stat_records" in want:
        parts.append(_render_stat_records(report))
    return "\n\n".join(parts)
