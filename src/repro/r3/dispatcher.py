"""The R/3 dispatcher: bounded queue + work-process scheduling.

The paper's three-tier configuration (Figure 1) puts a *dispatcher*
between the users and the application server's fixed work-process
pool: every dialog step waits in the dispatcher queue until a work
process is free, is rolled in, served, rolled out — and under overload
the queue, not the database, is what saturates first.  This module
models that layer with explicit overload protection:

* **admission control** — the queue is bounded; a request arriving at
  a full queue is rejected with a typed
  :class:`~repro.r3.errors.DispatcherOverload` instead of growing an
  unbounded backlog,
* **queue-wait deadlines** — a request that waited longer than the
  configured deadline is shed when its turn comes (the user has given
  up; serving it would waste a work process),
* **priority load shedding** — low-priority requests (the throughput
  test's update stream) are shed at admission when queue occupancy is
  past the high-water mark, protecting dialog traffic,
* **crash restart + requeue** — a work process killed by the fault
  injector is restarted (cost charged) and its request requeued at the
  front of the queue; the crash fires at the roll-in transaction
  boundary, so the requeue is idempotent by construction.

Scheduling is deterministic and runs on the shared simulated clock:
``dispatch_round`` assigns queued requests FIFO to idle work processes
of the matching type, then serves the batch serially (the paper's
single machine time-shares; the pool bounds multiprogramming, the
serial clock models the one CPU).  Queue-wait is the simulated time
between submission and roll-in — exactly zero when the pool is never
outnumbered.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.engine.errors import TransientError
from repro.r3.errors import DispatcherOverload, WorkProcessCrash
from repro.r3.workproc import WorkProcessPool, WorkProcessType

#: request priorities (lower = more important)
PRIORITY_DIALOG = 0
PRIORITY_UPDATE = 1


@dataclass
class Request:
    """One unit of work submitted to the dispatcher."""

    stream: int                    #: owning stream (-1 = update stream)
    label: str                     #: e.g. ``"Q14"`` or ``"UF-pair-0"``
    fn: Callable[[], object]       #: the request body
    priority: int = PRIORITY_DIALOG
    submitted_at: float = 0.0      #: simulated submission time
    requeues: int = 0              #: crash-requeue count

    @property
    def wp_type(self) -> WorkProcessType:
        return (WorkProcessType.UPDATE if self.priority > PRIORITY_DIALOG
                else WorkProcessType.DIALOG)


@dataclass
class Completion:
    """The dispatcher's verdict on one dispatched request."""

    request: Request
    kind: str                      #: ``completed`` | ``shed`` | ``requeued``
    service_s: float = 0.0
    queue_wait_s: float = 0.0
    reason: str | None = None
    value: object = None


@dataclass
class DispatcherConfig:
    """Pool sizes, queue bound and overload policy.

    ``rollin_s``/``rollout_s``/``restart_s`` default to the system's
    :class:`~repro.sim.params.SimParams` values when ``None``.
    """

    dialog_processes: int = 4
    update_processes: int = 1
    queue_capacity: int = 12
    #: shed a queued request older than this at dispatch time (None =
    #: requests wait forever)
    queue_wait_deadline_s: float | None = None
    #: occupancy fraction of ``queue_capacity`` beyond which
    #: low-priority submissions are shed
    shed_highwater: float = 0.75
    rollin_s: float | None = None
    rollout_s: float | None = None
    restart_s: float | None = None
    #: crash-requeue budget per request before it is shed
    max_requeues: int = 5

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1: {self.queue_capacity}")
        if not 0.0 < self.shed_highwater <= 1.0:
            raise ValueError(
                f"shed_highwater must be in (0, 1]: {self.shed_highwater}")

    @classmethod
    def unconstrained(cls, streams: int) -> "DispatcherConfig":
        """An identity-preserving config for ``streams`` streams.

        Pool ≥ stream count, queue that can never overflow, no
        deadlines, zero roll costs: scheduling through the dispatcher
        then charges exactly zero extra ticks versus the bare
        round-robin loop it replaced.
        """
        return cls(
            dialog_processes=max(1, streams),
            update_processes=1,
            queue_capacity=streams + 1,
            queue_wait_deadline_s=None,
            rollin_s=0.0,
            rollout_s=0.0,
            restart_s=0.0,
        )


class Dispatcher:
    """Admission control + FIFO scheduling over a work-process pool."""

    def __init__(self, r3, config: DispatcherConfig | None = None) -> None:
        self._r3 = r3
        self.config = config or DispatcherConfig()
        params = r3.params
        self.rollin_s = (params.wp_rollin_s if self.config.rollin_s is None
                         else self.config.rollin_s)
        self.rollout_s = (params.wp_rollout_s
                          if self.config.rollout_s is None
                          else self.config.rollout_s)
        restart_s = (params.wp_restart_s if self.config.restart_s is None
                     else self.config.restart_s)
        self.pool = WorkProcessPool(
            r3, dialog=self.config.dialog_processes,
            update=self.config.update_processes, restart_s=restart_s)
        self.queue: deque[Request] = deque()
        #: occupancy at which low-priority admissions start shedding
        self._shed_threshold = max(
            1, int(self.config.shed_highwater * self.config.queue_capacity))
        r3.monitor.attach_source(
            f"queue_depth{r3.gauge_suffix}",
            lambda: float(len(self.queue)))

    # -- admission -----------------------------------------------------------

    def submit(self, request: Request) -> Request:
        """Admit a request to the queue or raise ``DispatcherOverload``."""
        r3 = self._r3
        occupancy = len(self.queue)
        if request.priority > PRIORITY_DIALOG \
                and occupancy >= self._shed_threshold:
            r3.metrics.count("dispatcher.shed_lowprio")
            raise DispatcherOverload(
                f"{request.label}: queue at {occupancy}/"
                f"{self.config.queue_capacity}, past the "
                f"{self.config.shed_highwater:.0%} high-water mark — "
                f"low-priority request shed", shed=True)
        if occupancy >= self.config.queue_capacity:
            r3.metrics.count("dispatcher.rejected")
            raise DispatcherOverload(
                f"{request.label}: dispatcher queue full "
                f"({occupancy}/{self.config.queue_capacity})")
        request.submitted_at = r3.clock.now
        self.queue.append(request)
        r3.metrics.count("dispatcher.submitted")
        return request

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    def drain(self) -> list[Request]:
        """Remove and return every queued request, preserving order.

        Used when this dispatcher's application server crashes: the
        queued dialog steps have not started (roll-in is the
        transaction boundary), so the login balancer can re-route them
        to a surviving server idempotently.
        """
        drained = list(self.queue)
        self.queue.clear()
        return drained

    # -- scheduling ----------------------------------------------------------

    def dispatch_round(self) -> list[Completion]:
        """Assign queued requests FIFO to idle processes and serve them.

        Returns one :class:`Completion` per request resolved this round
        (completed, shed or crash-requeued).  Requests left queued —
        no idle process of their type — keep their order and age.
        """
        r3 = self._r3
        completions: list[Completion] = []
        idle = {
            WorkProcessType.DIALOG: deque(
                self.pool.idle(WorkProcessType.DIALOG)),
            WorkProcessType.UPDATE: deque(
                self.pool.idle(WorkProcessType.UPDATE)),
        }
        # Systems configured without update processes serve the update
        # stream from the dialog pool (a small installation's layout).
        if not self.pool.of_type(WorkProcessType.UPDATE):
            idle[WorkProcessType.UPDATE] = idle[WorkProcessType.DIALOG]
        deadline = self.config.queue_wait_deadline_s
        batch: list[tuple[object, Request, float]] = []
        leftovers: deque[Request] = deque()
        while self.queue:
            request = self.queue.popleft()
            # Queue wait ends at the *assignment* decision, taken for
            # the whole batch at this instant — the serial clock then
            # serves the batch one by one (time-sharing the one CPU),
            # which is service, not queueing.
            waited = r3.clock.now - request.submitted_at
            if deadline is not None and waited > deadline:
                r3.metrics.count("dispatcher.deadline_shed")
                r3.metrics.count("dispatcher.shed")
                completions.append(Completion(
                    request, "shed", queue_wait_s=waited,
                    reason=f"queue-wait deadline: waited {waited:.3f}s "
                           f"> {deadline:.3f}s"))
                continue
            avail = idle[request.wp_type]
            if avail:
                batch.append((avail.popleft(), request, waited))
            else:
                leftovers.append(request)
        self.queue = leftovers
        for wp, request, waited in batch:
            completions.append(self._serve(wp, request, waited))
        r3.monitor.maybe_sample()
        return completions

    # -- service -------------------------------------------------------------

    def _serve(self, wp, request: Request,
               queue_wait: float) -> Completion:
        r3 = self._r3
        if queue_wait:
            r3.metrics.count("dispatcher.queue_wait_s", queue_wait)
        task = ("update" if request.priority > PRIORITY_DIALOG
                else "dialog")
        span = r3.tracer.span("dispatcher.serve", layer="abap", wp=wp.name,
                              label=request.label, stream=request.stream)
        with r3.monitor.step(span, task, request.label,
                             stream=request.stream, wp=wp.name,
                             queue_wait_s=queue_wait,
                             server=r3.name) as step:
            try:
                value, service_s = wp.serve(
                    r3, request.fn, self.rollin_s, self.rollout_s)
            except WorkProcessCrash as exc:
                self.pool.restart(wp)
                request.requeues += 1
                if request.requeues > self.config.max_requeues:
                    r3.metrics.count("dispatcher.shed")
                    step.set(outcome="shed")
                    return Completion(
                        request, "shed", queue_wait_s=queue_wait,
                        reason=f"requeue budget exhausted after "
                               f"{request.requeues - 1} crashes: {exc}")
                r3.metrics.count("dispatcher.requeued")
                self.queue.appendleft(request)
                step.set(outcome="requeued")
                return Completion(request, "requeued",
                                  queue_wait_s=queue_wait,
                                  reason=f"{type(exc).__name__}: {exc}")
            except TransientError as exc:
                r3.metrics.count("dispatcher.shed")
                step.set(outcome="shed")
                return Completion(
                    request, "shed", queue_wait_s=queue_wait,
                    reason=f"{type(exc).__name__}: {exc}")
            r3.metrics.count("dispatcher.completed")
            step.set(outcome="completed", service_s=service_s,
                     queue_wait_s=queue_wait)
            return Completion(request, "completed", service_s=service_s,
                              queue_wait_s=queue_wait, value=value)


# re-exported for harness convenience
__all__ = [
    "Completion",
    "Dispatcher",
    "DispatcherConfig",
    "DispatcherOverload",
    "PRIORITY_DIALOG",
    "PRIORITY_UPDATE",
    "Request",
]
