"""Always-on workload statistics: STAT records, profiles, CCMS alerts.

The R/3 installations the paper measured were never "un-instrumented":
every dialog step writes a statistics record, the ST03 workload monitor
aggregates them into task-type profiles, ST04 watches the database, and
CCMS raises alerts when thresholds are breached.  This package is that
stack for the simulator — a :class:`WorkloadMonitor` fed by the
layer-tagged spans of the work processes, the DBIF, the engine and the
WAL, with gauge time series, windowed ST03/ST04 aggregation and a threshold+hysteresis
alert engine on top.

The monitor is a sink of the tracer's layer-tagged spans, so its
STAT split and the trace analyzer's split come from one stream
(DESIGN.md §14).  It never charges the simulated clock — enabling it
changes a run's ticks by exactly zero.
"""

from repro.monitor.alerts import (
    AlertEngine,
    AlertEvent,
    AlertRule,
    default_alert_rules,
)
from repro.monitor.core import (
    STEP_LAYERS,
    RingSeries,
    StatementStats,
    StatRecord,
    Step,
    WorkloadMonitor,
)
from repro.monitor.profile import build_report, render_report

__all__ = [
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "RingSeries",
    "STEP_LAYERS",
    "StatRecord",
    "StatementStats",
    "Step",
    "WorkloadMonitor",
    "build_report",
    "default_alert_rules",
    "render_report",
]
