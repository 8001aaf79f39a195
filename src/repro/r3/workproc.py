"""Work processes: the app server's fixed unit of concurrency.

The paper's R/3 configuration multiplexes *all* logged-in users over a
small, fixed pool of work processes (paper §2 / Figure 2): a dialog
step is queued by the dispatcher, rolled *into* a free work process
(the user context is copied into the process-local roll area), served,
and rolled *out* again.  Pool size — not user count — bounds the
degree of multiprogramming; everything beyond it waits in the
dispatcher queue.

This module models the mechanics: a :class:`WorkProcess` knows how to
roll a request in, run it and roll it out, charging the roll costs to
the shared simulated clock; a :class:`WorkProcessPool` owns the fixed
set of processes per type (dialog / update) and restarts crashed ones.
Scheduling *policy* — queueing, admission control, shedding, requeue —
lives in :mod:`repro.r3.dispatcher`.
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.r3.errors import WorkProcessCrash


class WorkProcessType(enum.Enum):
    """The two process types the throughput workload exercises."""

    DIALOG = "DIA"
    UPDATE = "UPD"


class WorkProcessState(enum.Enum):
    IDLE = "idle"
    BUSY = "busy"
    CRASHED = "crashed"


class WorkProcess:
    """One work process: rolls requests in, serves them, rolls out.

    ``serve`` charges the roll-in cost, fires the fault injector's
    work-process hook at the transaction boundary (before any request
    work, so a crash here leaves nothing behind to undo), runs the
    request body and charges the roll-out cost.  A
    :class:`~repro.r3.errors.WorkProcessCrash` marks the process
    CRASHED and propagates — the dispatcher owns restart/requeue
    policy.  Any other exception leaves the process IDLE again (the
    process survives; the *request* failed).
    """

    __slots__ = ("number", "kind", "state", "served", "crashes",
                 "restarts", "busy_s")

    def __init__(self, number: int, kind: WorkProcessType) -> None:
        self.number = number
        self.kind = kind
        self.state = WorkProcessState.IDLE
        self.served = 0
        self.crashes = 0
        self.restarts = 0
        self.busy_s = 0.0

    @property
    def name(self) -> str:
        return f"{self.kind.value}{self.number:02d}"

    def serve(self, r3, fn: Callable[[], object],
              rollin_s: float, rollout_s: float) -> tuple[object, float]:
        """Roll in, run ``fn``, roll out.

        Returns ``(value, service_s)`` where ``service_s`` is the
        simulated time from roll-in start to roll-out end.
        """
        if self.state is not WorkProcessState.IDLE:
            raise RuntimeError(f"{self.name} is {self.state.value}, "
                               f"cannot serve")
        self.state = WorkProcessState.BUSY
        span = r3.clock.span()
        try:
            if rollin_s:
                with r3.tracer.layer("rollin"):
                    r3.clock.charge(rollin_s)
                r3.metrics.count("dispatcher.rollin_s", rollin_s)
            if r3.faults is not None:
                try:
                    r3.faults.on_wp_request()
                except WorkProcessCrash:
                    self.state = WorkProcessState.CRASHED
                    self.crashes += 1
                    raise
            value = fn()
            if rollout_s:
                with r3.tracer.layer("rollout"):
                    r3.clock.charge(rollout_s)
                r3.metrics.count("dispatcher.rollout_s", rollout_s)
        except WorkProcessCrash:
            self.busy_s += span.stop()
            raise
        except Exception:
            self.state = WorkProcessState.IDLE
            self.busy_s += span.stop()
            raise
        self.state = WorkProcessState.IDLE
        self.served += 1
        service_s = span.stop()
        self.busy_s += service_s
        return value, service_s


class WorkProcessPool:
    """The fixed per-type pool of work processes of one app server."""

    def __init__(self, r3, dialog: int, update: int,
                 restart_s: float) -> None:
        if dialog < 1:
            raise ValueError(f"need at least one dialog process: {dialog}")
        if update < 0:
            raise ValueError(f"update processes must be >= 0: {update}")
        self._r3 = r3
        self._restart_s = restart_s
        self.processes: list[WorkProcess] = (
            [WorkProcess(i, WorkProcessType.DIALOG) for i in range(dialog)]
            + [WorkProcess(i, WorkProcessType.UPDATE) for i in range(update)]
        )

    def of_type(self, kind: WorkProcessType) -> list[WorkProcess]:
        return [wp for wp in self.processes if wp.kind is kind]

    def idle(self, kind: WorkProcessType) -> list[WorkProcess]:
        return [wp for wp in self.processes
                if wp.kind is kind and wp.state is WorkProcessState.IDLE]

    def restart(self, wp: WorkProcess) -> WorkProcess:
        """Bring a crashed process back; charges the restart cost."""
        if wp.state is not WorkProcessState.CRASHED:
            raise RuntimeError(f"{wp.name} is not crashed")
        if self._restart_s:
            self._r3.clock.charge(self._restart_s)
        wp.state = WorkProcessState.IDLE
        wp.restarts += 1
        self._r3.metrics.count("dispatcher.wp_restarts")
        return wp

    def stats(self) -> dict[str, dict[str, float]]:
        return {
            wp.name: {"served": wp.served, "crashes": wp.crashes,
                      "restarts": wp.restarts,
                      "busy_s": round(wp.busy_s, 6)}
            for wp in self.processes
        }
