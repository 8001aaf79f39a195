"""The TPC-D power test across all measured configurations.

Reproduces the paper's Tables 4 and 5: every query and update function
executed one at a time, timed individually on the simulated clock, for

* the isolated RDBMS on the original schema,
* Native SQL reports on the SAP schema,
* Open SQL reports on the SAP schema,

in either Release 2.2G or 3.0E.  The update functions run through
batch input for both SAP variants, so their times are recorded
identically (as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import paperdata
from repro.core.results import duration_cell, render_table
from repro.engine.database import Database
from repro.engine.errors import StatementTimeout, TransientError
from repro.r3.appserver import R3System, R3Version
from repro.r3.upgrade import upgrade_to_30
from repro.reports import native22, native30, open22, open30
from repro.reports.updatefuncs import run_uf1_sap, run_uf2_sap
from repro.sapschema.loader import load_sap_fast
from repro.sim.params import SimParams
from repro.tpcd.dbgen import (
    TpcdData,
    delete_keys,
    generate,
    generate_refresh_orders,
)
from repro.tpcd.loader import load_original
from repro.tpcd.queries import build_queries, run_query
from repro.tpcd.updates import run_uf1_rdbms, run_uf2_rdbms


@dataclass
class PowerTestResult:
    version: R3Version
    scale_factor: float
    #: variant -> {'Q1': seconds, ..., 'UF1': ..., 'UF2': ...}
    times: dict[str, dict[str, float]] = field(default_factory=dict)
    #: variant -> {'Q1': rows, ...} for sanity checks
    row_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    #: variant -> {'Q5': reason} for queries that failed or timed out;
    #: their ``times`` entry holds the partial simulated charge
    failures: dict[str, dict[str, str]] = field(default_factory=dict)
    #: variant -> Tracer with the full span tree (tracing runs only)
    traces: dict[str, object] = field(default_factory=dict)
    #: variant -> WorkloadMonitor with STAT records (monitoring runs only)
    monitors: dict[str, object] = field(default_factory=dict)

    def total(self, variant: str, queries_only: bool = False) -> float:
        names = paperdata.QUERIES if queries_only \
            else paperdata.QUERIES + paperdata.UPDATES
        times = self.times[variant]
        return sum(times[name] for name in names if name in times)

    def completed(self, variant: str) -> list[str]:
        """Names that ran to completion (the degraded suite's metric)."""
        failed = self.failures.get(variant, {})
        return [name for name in self.times[variant] if name not in failed]

    def completed_total(self, variant: str) -> float:
        times = self.times[variant]
        return sum(times[name] for name in self.completed(variant))

    def render(self) -> str:
        variants = list(self.times)
        headers = ["Query"] + [v.upper() for v in variants]
        rows = []
        any_failed = any(self.failures.get(v) for v in variants)
        for name in paperdata.QUERIES + paperdata.UPDATES:
            cells = [name]
            for v in variants:
                cell = duration_cell(self.times[v].get(name))
                if name in self.failures.get(v, {}):
                    cell += " !"
                cells.append(cell)
            rows.append(cells)
        rows.append(["Total (quer.)"] + [
            duration_cell(self.total(v, queries_only=True))
            for v in variants
        ])
        rows.append(["Total (all)"] + [
            duration_cell(self.total(v)) for v in variants
        ])
        if any_failed:
            rows.append(["Total (compl.)"] + [
                duration_cell(self.completed_total(v)) for v in variants
            ])
        title = (f"TPC-D Power Test, SAP R/3 {self.version.value}, "
                 f"SF={self.scale_factor} (simulated time)")
        table = render_table(headers, rows, title=title)
        if any_failed:
            table += ("\n! failed/timed out; time shown is the partial "
                      "charge until the abort")
        return table


def build_sap_system(data: TpcdData, version: R3Version,
                     params: SimParams | None = None,
                     degree: int = 1, storage: str = "heap") -> R3System:
    """A loaded SAP system at the requested release level.

    3.0E systems are produced the way the paper produced them: install
    2.2G, load, then upgrade in place (KONV conversion included) and
    drop the counterproductive default shipdate index.
    """
    r3 = R3System(R3Version.V22, params=params, storage=storage)
    load_sap_fast(r3, data)
    if version is R3Version.V30:
        upgrade_to_30(r3)
        r3.db.drop_index("idx_vbep_edatu")
        r3.db.analyze()
    if degree > 1:
        r3.db.set_degree(degree)
        r3.db.prepartition()
    return r3


def _run_step(system, variant: str, task: str, wp: str, name: str,
              timeout_s: float | None, fn, times: dict[str, float],
              failed: dict[str, str]):
    """Run one suite member as a STAT step around its ``power.query``
    span; never abort the suite.

    Records the simulated seconds in ``times[name]`` and returns
    ``fn()``.  Arms a per-query clock deadline when ``timeout_s`` is set
    and degrades gracefully on robustness failures: a query killed by
    its timeout or by an exhausted fault-retry budget gets its reason in
    ``failed[name]``, its partial charge as its time, and returns
    ``None`` instead of raising, so the power test continues with the
    remaining queries (the paper's "real world" never gets to abort a
    benchmark run and start over).
    """
    clock = system.clock
    span = system.tracer.span("power.query", layer="abap",
                              capture_metrics=True, name=name,
                              variant=variant)
    with system.monitor.step(span, task, name, wp=wp) as step:
        started = clock.span()
        token = None
        if timeout_s is not None:
            token = clock.push_deadline(
                clock.now + timeout_s, lambda: StatementTimeout(
                    f"{name} exceeded {timeout_s}s (simulated)"))
        value, reason = None, None
        try:
            value = fn()
        except TransientError as exc:
            system.metrics.count("powertest.failures")
            reason = f"{type(exc).__name__}: {exc}"
            step.outcome = "failed"
        finally:
            if token is not None:
                clock.pop_deadline(token)
        elapsed = started.stop()
        step.set(elapsed_s=elapsed, failed=reason is not None)
    times[name] = elapsed
    if reason is not None:
        failed[name] = reason
    return value


def _instrument(result: PowerTestResult, variant: str, system,
                tracing: bool, monitoring: bool) -> None:
    if tracing:
        result.traces[variant] = system.tracer.enable()
    if monitoring:
        result.monitors[variant] = system.monitor.enable()


def run_power_test(
    scale_factor: float = 0.002,
    version: R3Version = R3Version.V30,
    params: SimParams | None = None,
    variants: tuple[str, ...] = ("rdbms", "native", "open"),
    include_updates: bool = True,
    data: TpcdData | None = None,
    query_timeout_s: float | None = None,
    tracing: bool = False,
    degree: int = 1,
    monitoring: bool = False,
    storage: str = "heap",
) -> PowerTestResult:
    """Run the power test; with ``tracing=True`` each variant's system
    records a full hierarchical trace (enabled after load, so the trace
    covers the measured suite only) available in ``result.traces``.
    ``monitoring=True`` likewise enables each variant's workload
    monitor after load (query steps land as dialog STAT records, UF
    steps as update ones) available in ``result.monitors``.  ``degree``
    sets intra-query parallelism on every variant's database; at the
    default of 1 execution is strictly serial."""
    data = data or generate(scale_factor)
    refresh = generate_refresh_orders(data)
    doomed = delete_keys(data)
    result = PowerTestResult(version=version, scale_factor=scale_factor)

    if "rdbms" in variants:
        db = load_original(data, params=params, degree=degree,
                           storage=storage)
        _instrument(result, "rdbms", db, tracing, monitoring)
        (result.times["rdbms"], result.row_counts["rdbms"],
         result.failures["rdbms"]) = _run_rdbms(
            db, scale_factor, refresh, doomed, include_updates,
            query_timeout_s)
        db.monitor.finish()

    sap_suites = {
        "native": (native22 if version is R3Version.V22
                   else native30).make_queries(scale_factor),
        "open": (open22 if version is R3Version.V22
                 else open30).make_queries(scale_factor),
    }
    sap_needed = [v for v in variants if v in sap_suites]
    uf_times: dict[str, float] = {}
    uf_failures: dict[str, str] = {}
    for i, variant in enumerate(sap_needed):
        r3 = build_sap_system(data, version, params, degree=degree,
                              storage=storage)
        _instrument(result, variant, r3, tracing, monitoring)
        times: dict[str, float] = {}
        counts: dict[str, int] = {}
        failed: dict[str, str] = {}
        for number in range(1, 18):
            name = f"Q{number}"
            rows = _run_step(r3, variant, "dialog", "PWR", name,
                             query_timeout_s,
                             lambda fn=sap_suites[variant][number]: fn(r3),
                             times, failed)
            if name not in failed:
                counts[name] = len(rows)
        if include_updates:
            if not uf_times:
                # Both SAP variants use the identical batch-input
                # implementation; measure once, record for both.
                for name, fn in (("UF1", lambda: run_uf1_sap(r3, refresh)),
                                 ("UF2", lambda: run_uf2_sap(r3, doomed))):
                    _run_step(r3, variant, "update", "PWR", name,
                              query_timeout_s, fn, uf_times, uf_failures)
            times.update(uf_times)
            failed.update(uf_failures)
        r3.monitor.finish()
        result.times[variant] = times
        result.row_counts[variant] = counts
        result.failures[variant] = failed
    return result


def _run_rdbms(db: Database, scale_factor: float, refresh: TpcdData,
               doomed: list[int], include_updates: bool,
               query_timeout_s: float | None = None,
               ) -> tuple[dict[str, float], dict[str, int], dict[str, str]]:
    specs = build_queries(scale_factor)
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    failed: dict[str, str] = {}
    for number in sorted(specs):
        name = f"Q{number}"
        rows = _run_step(db, "rdbms", "dialog", "SQL", name, query_timeout_s,
                         lambda s=specs[number]: run_query(db, s),
                         times, failed)
        if name not in failed:
            counts[name] = len(rows.rows)
    if include_updates:
        for name, fn in (("UF1", lambda: run_uf1_rdbms(db, refresh)),
                         ("UF2", lambda: run_uf2_rdbms(db, doomed))):
            _run_step(db, "rdbms", "update", "SQL", name, query_timeout_s,
                      fn, times, failed)
    return times, counts, failed
