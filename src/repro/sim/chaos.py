"""Chaos harness: throughput under overload × fault storms.

Darmont's benchmark survey stresses that *multi-user runs under
saturation* — not single-stream power runs — are what expose a
system's real robustness.  This harness sweeps stream counts × fault
profiles over the dispatcher-scheduled throughput test and asserts the
invariants that make the overload machinery trustworthy:

1. **conservation** — per cell, every submitted query is accounted
   for exactly once: ``submitted == completed + shed + rejected``
   (no lost queries, no double counting, crash requeues included);
2. **breaker recovery** — after the fault storm ends, the DBIF
   circuit breaker returns to *closed* (a half-open probe after the
   cooldown succeeds against the healthy backend);
3. **monotone degradation** — at a fixed stream count, a strictly
   heavier fault profile never yields *more* queries/hour;
4. **alert silence** — the workload monitor's default CCMS rules fire
   zero alerts on ``none``-profile cells (no faults, no alarms; the
   heavy profile's breaker trip firing ≥ 1 alert is asserted in the
   test suite rather than as a sweep invariant, since tiny custom
   sweeps need not provoke the breaker).

Everything is deterministic: seeded profiles, the simulated clock and
a fresh system per cell mean a sweep's JSON report is bit-identical
across runs — which is what lets CI assert on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.r3.dbif import BreakerState
from repro.r3.dispatcher import DispatcherConfig
from repro.sim.faults import FaultProfile
from repro.tables import render_table

#: Chaos fault profiles, tuned to the operation counts of the open30
#: suite at small scale factors (~20 DBIF round trips and ~3000 disk
#: ops per stream at SF 0.001).  ``light`` is retryable noise: every
#: fault is absorbed by a retry ladder, the run completes with a time
#: penalty.  ``heavy`` is a storm: connection-drop bursts longer than
#: the DBIF retry budget trip the circuit breaker, work processes
#: crash and the dispatcher sheds — the run degrades instead of dying.
CHAOS_PROFILES: dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "light": FaultProfile(
        name="chaos-light", seed=1996,
        disk_error_every=300, connection_drop_every=25,
        work_process_crash_every=30, jitter=0.2,
    ),
    "heavy": FaultProfile(
        name="chaos-heavy", seed=1996,
        disk_error_every=60, connection_drop_every=8,
        connection_drop_burst=18, work_process_crash_every=12, jitter=0.2,
    ),
}

#: severity rank used by the monotone-degradation invariant
_SEVERITY = {"none": 0, "light": 1, "heavy": 2}


def default_chaos_config() -> DispatcherConfig:
    """The constrained pool the sweep runs against: 4 dialog processes,
    a bounded queue and a queue-wait deadline, so stream counts past
    the pool size actually contend."""
    return DispatcherConfig(
        dialog_processes=4,
        update_processes=1,
        queue_capacity=8,
        queue_wait_deadline_s=120.0,
        shed_highwater=0.75,
    )


@dataclass
class ChaosCell:
    """One (streams, profile) sweep cell and its invariant verdicts."""

    streams: int
    profile: str
    elapsed_s: float = 0.0
    queries_per_hour: float = 0.0
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    rejected: int = 0
    requeued: int = 0
    queue_wait_s: float = 0.0
    updates_submitted: int = 0
    updates_run: int = 0
    updates_shed: int = 0
    wp_restarts: int = 0
    breaker_opened: int = 0
    breaker_final: str = BreakerState.CLOSED.value
    shed_reasons: dict[str, int] = field(default_factory=dict)
    alerts_fired: int = 0
    alerts_by_rule: dict[str, int] = field(default_factory=dict)
    conserved: bool = True
    breaker_recovered: bool = True

    def to_json(self) -> dict:
        return {
            "streams": self.streams,
            "profile": self.profile,
            "elapsed_s": round(self.elapsed_s, 6),
            "queries_per_hour": round(self.queries_per_hour, 3),
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "rejected": self.rejected,
            "requeued": self.requeued,
            "queue_wait_s": round(self.queue_wait_s, 6),
            "updates": {
                "submitted": self.updates_submitted,
                "run": self.updates_run,
                "shed": self.updates_shed,
            },
            "wp_restarts": self.wp_restarts,
            "breaker": {
                "opened": self.breaker_opened,
                "final": self.breaker_final,
                "recovered": self.breaker_recovered,
            },
            "shed_reasons": dict(sorted(self.shed_reasons.items())),
            "alerts": {
                "fired": self.alerts_fired,
                "by_rule": dict(sorted(self.alerts_by_rule.items())),
            },
            "conserved": self.conserved,
        }


@dataclass
class ChaosReport:
    scale_factor: float
    cells: list[ChaosCell] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def cell(self, streams: int, profile: str) -> ChaosCell:
        for cell in self.cells:
            if cell.streams == streams and cell.profile == profile:
                return cell
        raise KeyError(f"no cell ({streams}, {profile})")

    def to_json(self) -> dict:
        return {
            "format": "repro-chaos-v1",
            "scale_factor": self.scale_factor,
            "cells": [cell.to_json() for cell in self.cells],
            "violations": list(self.violations),
            "ok": self.ok,
        }

    def render(self) -> str:
        rows = []
        for cell in self.cells:
            rows.append([
                cell.streams, cell.profile,
                f"{cell.queries_per_hour:,.0f}",
                cell.completed, cell.shed, cell.rejected, cell.requeued,
                f"{cell.queue_wait_s:.1f}",
                cell.breaker_opened,
                cell.alerts_fired,
                "ok" if (cell.conserved and cell.breaker_recovered)
                else "VIOLATED",
            ])
        table = render_table(
            ["S", "Profile", "q/h", "Done", "Shed", "Rej", "Requeue",
             "Qwait s", "Brk", "Alerts", "Invariants"],
            rows,
            title=f"Chaos sweep at SF={self.scale_factor} "
                  f"(dispatcher-scheduled throughput)")
        if self.violations:
            table += "\n\nInvariant violations:\n" + "\n".join(
                f"  - {v}" for v in self.violations)
        else:
            table += ("\nAll invariants hold: conservation, breaker "
                      "recovery, monotone degradation.")
        return table


def _severity(profile_name: str) -> int:
    return _SEVERITY.get(profile_name, len(_SEVERITY))


def run_chaos_cell(data, streams: int, profile: FaultProfile,
                   scale_factor: float,
                   config: DispatcherConfig | None = None,
                   update_pairs: int = 2,
                   name: str | None = None) -> ChaosCell:
    """Run one (streams, profile) cell on a fresh system.

    ``name`` is the sweep key recorded on the cell (defaults to the
    profile's own name).
    """
    from repro.core.powertest import build_sap_system
    from repro.core.throughput import run_throughput_test
    from repro.r3.appserver import R3Version
    from repro.reports import open30
    from repro.tpcd.dbgen import delete_keys, generate_refresh_orders

    r3 = build_sap_system(data, R3Version.V30)
    r3.monitor.enable()
    suite = open30.make_queries(scale_factor)
    # Disjoint keyspaces: each UF1 set gets its own order-key range so
    # the pairs can be applied to the same database in sequence.
    pair_size = max(1, round(len(data.orders) * 0.001))
    update_sets = [
        (generate_refresh_orders(
            data, seed=123 + i,
            start_key=data.max_orderkey + 1 + i * pair_size),
         delete_keys(data, seed=321 + i))
        for i in range(update_pairs)
    ]
    base = r3.metrics.snapshot()
    r3.attach_faults(profile)
    result = run_throughput_test(
        r3, suite, streams=streams, update_sets=update_sets,
        dispatcher=config or default_chaos_config())
    r3.detach_faults()

    breaker = r3.dbif.breaker
    cell = ChaosCell(streams=streams, profile=name or profile.name)
    cell.elapsed_s = result.elapsed_s
    cell.queries_per_hour = result.queries_per_hour
    cell.submitted = result.submitted
    cell.completed = result.completed
    cell.shed = result.shed
    cell.rejected = result.rejected
    cell.requeued = result.requeued
    cell.queue_wait_s = result.queue_wait_s
    cell.updates_submitted = result.updates_submitted
    cell.updates_run = result.updates_run
    cell.updates_shed = result.updates_shed
    cell.shed_reasons = dict(result.shed_reasons)
    cell.wp_restarts = int(base.get("dispatcher.wp_restarts"))
    cell.breaker_opened = breaker.opened_count
    cell.conserved = result.conservation_ok()
    # Alert totals are captured before the recovery probe below: the
    # probe is harness bookkeeping, not part of the measured storm.
    cell.alerts_fired = r3.monitor.alerts.fired_total
    cell.alerts_by_rule = r3.monitor.alerts.fired_by_rule()

    # Breaker recovery: the storm is over (faults detached).  If the
    # breaker is not closed, wait out the cooldown on the simulated
    # clock and send a probe — against the healthy backend it must
    # succeed and re-close the breaker.
    if breaker.state is not BreakerState.CLOSED:
        r3.clock.charge(breaker.cooldown_s)
        suite[1](r3)
    cell.breaker_final = breaker.state.value
    cell.breaker_recovered = breaker.state is BreakerState.CLOSED
    return cell


def run_chaos(
    scale_factor: float = 0.001,
    stream_counts: tuple[int, ...] = (2, 4, 8),
    profiles: tuple[str, ...] = ("none", "light", "heavy"),
    config: DispatcherConfig | None = None,
    data=None,
    update_pairs: int = 2,
) -> ChaosReport:
    """Sweep ``stream_counts`` × ``profiles`` and check the invariants."""
    from repro.tpcd.dbgen import generate

    unknown = [p for p in profiles if p not in CHAOS_PROFILES]
    if unknown:
        raise ValueError(f"unknown chaos profile(s): {unknown}; "
                         f"choose from {sorted(CHAOS_PROFILES)}")
    data = data if data is not None else generate(scale_factor)
    report = ChaosReport(scale_factor=scale_factor)
    for streams in stream_counts:
        for name in profiles:
            cell = run_chaos_cell(
                data, streams, CHAOS_PROFILES[name], scale_factor,
                config=config, update_pairs=update_pairs, name=name)
            report.cells.append(cell)
            if not cell.conserved:
                report.violations.append(
                    f"S={streams} {name}: conservation violated — "
                    f"submitted {cell.submitted} != completed "
                    f"{cell.completed} + shed {cell.shed} + rejected "
                    f"{cell.rejected}")
            if not cell.breaker_recovered:
                report.violations.append(
                    f"S={streams} {name}: breaker stuck "
                    f"{cell.breaker_final!r} after the storm ended")
            if name == "none" and cell.alerts_fired:
                report.violations.append(
                    f"S={streams} none: {cell.alerts_fired} alert(s) "
                    f"fired without injected faults "
                    f"({cell.alerts_by_rule})")
    # Monotone degradation: within a stream count, heavier profiles
    # must not complete more work per hour (tiny tolerance for float
    # division noise).
    for streams in stream_counts:
        ranked = sorted(
            (c for c in report.cells if c.streams == streams),
            key=lambda c: _severity(c.profile))
        for lighter, heavier in zip(ranked, ranked[1:]):
            if heavier.queries_per_hour > lighter.queries_per_hour * (
                    1 + 1e-9):
                report.violations.append(
                    f"S={streams}: {heavier.profile} yields "
                    f"{heavier.queries_per_hour:,.1f} q/h > "
                    f"{lighter.profile} "
                    f"{lighter.queries_per_hour:,.1f} q/h — "
                    f"degradation is not monotone")
    return report


# -- kill-appserver scenario (multi-server scale-out) ---------------------

#: tables buffered on every server of a scale-out cell: the SELECT
#: SINGLE targets of the open30 suite (lfa1) and the update stream's
#: existence checks (vbak) — vbak is also what UF1/UF2 write, so the
#: DDLOG actually carries invalidations between servers.
SCALEOUT_BUFFERED_TABLES = {"vbak": 256 * 1024, "lfa1": 64 * 1024}


def default_scaleout_config() -> DispatcherConfig:
    """The per-server pool for scale-out cells: 2 dialog processes and
    a bounded queue per server, so adding servers adds real service
    capacity (more pool slots, shorter queues) and losing one hurts."""
    return DispatcherConfig(
        dialog_processes=2,
        update_processes=1,
        queue_capacity=8,
        queue_wait_deadline_s=120.0,
        shed_highwater=0.75,
    )


@dataclass
class ScaleoutCell:
    """One (n_servers, kill?) cell of the kill-appserver sweep."""

    n_servers: int
    kill: bool
    routing: str
    sync_period_s: float | None
    streams: int = 0
    elapsed_s: float = 0.0
    queries_per_hour: float = 0.0
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    rejected: int = 0
    requeued: int = 0
    queue_wait_s: float = 0.0
    updates_submitted: int = 0
    updates_run: int = 0
    updates_shed: int = 0
    per_server_completed: dict[str, int] = field(default_factory=dict)
    server_crashes: int = 0
    server_rejoins: int = 0
    sessions_rerouted: int = 0
    ddlog_invalidations: int = 0
    stale_reads_prevented: int = 0
    max_read_staleness_s: float = 0.0
    buffer_quality: float | None = None
    shed_reasons: dict[str, int] = field(default_factory=dict)
    alerts_by_rule: dict[str, int] = field(default_factory=dict)
    conserved: bool = True
    recovered: bool = True

    def to_json(self) -> dict:
        return {
            "n_servers": self.n_servers,
            "kill": self.kill,
            "routing": self.routing,
            "sync_period_s": self.sync_period_s,
            "streams": self.streams,
            "elapsed_s": round(self.elapsed_s, 6),
            "queries_per_hour": round(self.queries_per_hour, 3),
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "rejected": self.rejected,
            "requeued": self.requeued,
            "queue_wait_s": round(self.queue_wait_s, 6),
            "updates": {
                "submitted": self.updates_submitted,
                "run": self.updates_run,
                "shed": self.updates_shed,
            },
            "per_server_completed": dict(
                sorted(self.per_server_completed.items())),
            "failover": {
                "server_crashes": self.server_crashes,
                "server_rejoins": self.server_rejoins,
                "sessions_rerouted": self.sessions_rerouted,
            },
            "coherence": {
                "ddlog_invalidations": self.ddlog_invalidations,
                "stale_reads_prevented": self.stale_reads_prevented,
                "max_read_staleness_s": round(
                    self.max_read_staleness_s, 6),
                "buffer_quality": (round(self.buffer_quality, 6)
                                   if self.buffer_quality is not None
                                   else None),
            },
            "shed_reasons": dict(sorted(self.shed_reasons.items())),
            "alerts_by_rule": dict(sorted(self.alerts_by_rule.items())),
            "conserved": self.conserved,
            "recovered": self.recovered,
        }


@dataclass
class ScaleoutReport:
    scale_factor: float
    streams: int
    routing: str
    sync_period_s: float
    cells: list[ScaleoutCell] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def cell(self, n_servers: int, kill: bool) -> ScaleoutCell:
        for cell in self.cells:
            if cell.n_servers == n_servers and cell.kill == kill:
                return cell
        raise KeyError(f"no cell (n_servers={n_servers}, kill={kill})")

    def to_json(self) -> dict:
        return {
            "format": "repro-scaleout-chaos-v1",
            "scale_factor": self.scale_factor,
            "streams": self.streams,
            "routing": self.routing,
            "sync_period_s": self.sync_period_s,
            "cells": [cell.to_json() for cell in self.cells],
            "violations": list(self.violations),
            "ok": self.ok,
        }

    def render(self) -> str:
        rows = []
        for cell in self.cells:
            rows.append([
                cell.n_servers,
                "kill" if cell.kill else "-",
                f"{cell.queries_per_hour:,.0f}",
                cell.completed, cell.shed, cell.rejected,
                cell.sessions_rerouted,
                cell.ddlog_invalidations,
                cell.stale_reads_prevented,
                f"{cell.max_read_staleness_s:.3f}",
                (f"{cell.buffer_quality:.2f}"
                 if cell.buffer_quality is not None else "-"),
                "ok" if (cell.conserved and cell.recovered)
                else "VIOLATED",
            ])
        table = render_table(
            ["N", "Fail", "q/h", "Done", "Shed", "Rej", "Reroute",
             "DDLOG", "StaleRd", "MaxStale s", "BufQ", "Invariants"],
            rows,
            title=f"Kill-appserver sweep at SF={self.scale_factor} "
                  f"({self.streams} streams, {self.routing} routing, "
                  f"sync={self.sync_period_s}s)")
        if self.violations:
            table += "\n\nInvariant violations:\n" + "\n".join(
                f"  - {v}" for v in self.violations)
        else:
            table += ("\nAll invariants hold: conservation, bounded "
                      "staleness, kill-never-helps, shrinking failover "
                      "impact, post-recovery steady state.")
        return table


def run_scaleout_cell(data, n_servers: int, streams: int,
                      scale_factor: float,
                      routing: str = "sticky",
                      sync_period_s: float = 5.0,
                      kill: bool = False,
                      kill_at_s: float = 0.0,
                      rejoin_after_s: float | None = None,
                      config: DispatcherConfig | None = None,
                      update_pairs: int = 2) -> ScaleoutCell:
    """Run one scale-out cell on a fresh cluster.

    With ``kill`` set, server ``n_servers - 1`` crashes at
    ``kill_at_s`` and (optionally) rejoins ``rejoin_after_s`` later;
    afterwards the cell checks post-recovery steady state: every
    server back up with a closed breaker, and a probe query through
    the rejoined server completing.
    """
    from repro.core.throughput import run_cluster_throughput_test
    from repro.r3.appserver import R3Version
    from repro.r3.cluster import ServerKill, build_sap_cluster
    from repro.reports import open30
    from repro.tpcd.dbgen import delete_keys, generate_refresh_orders

    cluster = build_sap_cluster(
        data, R3Version.V30, n_servers=n_servers,
        sync_period_s=sync_period_s if n_servers > 1 else None,
        routing=routing, buffered_tables=SCALEOUT_BUFFERED_TABLES)
    cluster.monitor.enable()
    suite = open30.make_queries(scale_factor)
    pair_size = max(1, round(len(data.orders) * 0.001))
    update_sets = [
        (generate_refresh_orders(
            data, seed=123 + i,
            start_key=data.max_orderkey + 1 + i * pair_size),
         delete_keys(data, seed=321 + i))
        for i in range(update_pairs)
    ]
    failover = None
    if kill:
        if n_servers < 2:
            raise ValueError("kill requires n_servers >= 2")
        failover = [ServerKill(at_s=kill_at_s, server=n_servers - 1,
                               rejoin_after_s=rejoin_after_s)]
    result = run_cluster_throughput_test(
        cluster, suite, streams=streams, update_sets=update_sets,
        dispatcher=config or default_scaleout_config(),
        failover=failover)

    metrics = cluster.metrics
    cell = ScaleoutCell(
        n_servers=n_servers, kill=kill, routing=routing,
        sync_period_s=cluster.sync_period_s, streams=streams)
    cell.elapsed_s = result.elapsed_s
    cell.queries_per_hour = result.queries_per_hour
    cell.submitted = result.submitted
    cell.completed = result.completed
    cell.shed = result.shed
    cell.rejected = result.rejected
    cell.requeued = result.requeued
    cell.queue_wait_s = result.queue_wait_s
    cell.updates_submitted = result.updates_submitted
    cell.updates_run = result.updates_run
    cell.updates_shed = result.updates_shed
    cell.per_server_completed = dict(result.per_server_completed)
    cell.server_crashes = int(metrics.get("cluster.server_crashes"))
    cell.server_rejoins = int(metrics.get("cluster.server_rejoins"))
    cell.sessions_rerouted = result.sessions_rerouted
    cell.ddlog_invalidations = int(
        metrics.get("cluster.ddlog_invalidations"))
    cell.stale_reads_prevented = int(
        metrics.get("cluster.stale_reads_prevented"))
    cell.max_read_staleness_s = result.max_read_staleness_s
    cell.buffer_quality = result.buffer_quality
    cell.shed_reasons = dict(result.shed_reasons)
    cell.conserved = result.conservation_ok()
    cell.alerts_by_rule = cluster.monitor.alerts.fired_by_rule()

    # Post-recovery steady state: every server is back in rotation
    # with a closed breaker, and the crashed server itself serves a
    # probe query end to end (cold buffers, fresh cursor cache).
    recovered = all(server.up for server in cluster.servers)
    from repro.r3.dbif import BreakerState as _BS

    recovered = recovered and all(
        server.dbif.breaker.state is _BS.CLOSED
        for server in cluster.servers)
    if kill and recovered:
        probe_server = cluster.servers[n_servers - 1]
        try:
            suite[1](probe_server)
        except Exception:          # noqa: BLE001 — any failure = not steady
            recovered = False
    cell.recovered = recovered
    return cell


def run_kill_appserver(
    scale_factor: float = 0.001,
    server_counts: tuple[int, ...] = (1, 2, 4),
    streams: int = 6,
    routing: str = "sticky",
    sync_period_s: float = 5.0,
    kill_fraction: float = 0.3,
    rejoin_fraction: float = 0.25,
    config: DispatcherConfig | None = None,
    data=None,
    update_pairs: int = 2,
) -> ScaleoutReport:
    """Sweep server counts with and without a mid-run app-server crash.

    Per count N >= 2 the sweep runs a no-kill baseline and a kill cell
    (crash at ``kill_fraction`` of the baseline's elapsed time, rejoin
    ``rejoin_fraction`` later) and asserts:

    1. **conservation** in every cell;
    2. **bounded staleness** — no buffered read served under a
       staleness bound of one sync period or more;
    3. **kill never helps** — the kill cell's queries/hour cannot
       exceed its own baseline's;
    4. **shrinking failover impact** — the *relative* throughput drop
       a single crash causes does not grow with the server count
       (losing 1 of 4 servers hurts no more than losing 1 of 2);
    5. **post-recovery steady state** — after the run every server is
       up, breakers are closed and the rejoined server completes a
       probe query.
    """
    from repro.tpcd.dbgen import generate

    data = data if data is not None else generate(scale_factor)
    report = ScaleoutReport(scale_factor=scale_factor, streams=streams,
                            routing=routing, sync_period_s=sync_period_s)
    baselines: dict[int, ScaleoutCell] = {}
    for n_servers in server_counts:
        cell = run_scaleout_cell(
            data, n_servers, streams, scale_factor, routing=routing,
            sync_period_s=sync_period_s, kill=False, config=config,
            update_pairs=update_pairs)
        baselines[n_servers] = cell
        report.cells.append(cell)
        if n_servers < 2:
            continue
        kill_cell = run_scaleout_cell(
            data, n_servers, streams, scale_factor, routing=routing,
            sync_period_s=sync_period_s, kill=True,
            kill_at_s=cell.elapsed_s * kill_fraction,
            rejoin_after_s=cell.elapsed_s * rejoin_fraction,
            config=config, update_pairs=update_pairs)
        report.cells.append(kill_cell)

    for cell in report.cells:
        tag = (f"N={cell.n_servers}"
               f"{' kill' if cell.kill else ''}")
        if not cell.conserved:
            report.violations.append(
                f"{tag}: conservation violated — submitted "
                f"{cell.submitted} != completed {cell.completed} + shed "
                f"{cell.shed} + rejected {cell.rejected}")
        if cell.sync_period_s is not None \
                and cell.max_read_staleness_s >= cell.sync_period_s:
            report.violations.append(
                f"{tag}: buffered read served "
                f"{cell.max_read_staleness_s:.3f}s stale >= sync "
                f"period {cell.sync_period_s}s")
        if not cell.recovered:
            report.violations.append(
                f"{tag}: post-recovery steady state violated (server "
                f"down, breaker open, or probe failed)")
        if cell.kill and cell.server_crashes < 1:
            report.violations.append(f"{tag}: kill cell saw no crash")
        if cell.kill and not cell.alerts_by_rule.get("appserver_down"):
            report.violations.append(
                f"{tag}: appserver_down alert did not fire on a kill")
        if not cell.kill \
                and cell.alerts_by_rule.get("appserver_down"):
            report.violations.append(
                f"{tag}: appserver_down fired without a kill")

    drops: list[tuple[int, float]] = []
    for n_servers in server_counts:
        if n_servers < 2:
            continue
        base = baselines[n_servers]
        kill_cell = report.cell(n_servers, True)
        if kill_cell.queries_per_hour > base.queries_per_hour * (
                1 + 1e-9):
            report.violations.append(
                f"N={n_servers}: kill cell yields "
                f"{kill_cell.queries_per_hour:,.1f} q/h > baseline "
                f"{base.queries_per_hour:,.1f} q/h — a crash must not "
                f"improve throughput")
        if base.queries_per_hour > 0:
            drops.append((
                n_servers,
                1.0 - kill_cell.queries_per_hour
                / base.queries_per_hour))
    for (n_small, drop_small), (n_large, drop_large) in zip(
            drops, drops[1:]):
        if drop_large > drop_small + 1e-9:
            report.violations.append(
                f"failover impact grows with scale: losing 1 of "
                f"{n_large} costs {drop_large:.1%} > losing 1 of "
                f"{n_small} costs {drop_small:.1%}")
    return report
