"""The three workloads: set-up, measured phase and output checks.

Each workload runs one *round*: its set-up, then its measured phase,
then checks on what the program returned.  A round builds every system
it uses afresh, so rounds are independent and repeat the same simulated
work tick for tick.  Only the measured phase counts into ``wall_s``; the
checks run between its timed segments.

Every phase also records the machine's speed while it ran (see
:class:`Clock`), so that times can be reported at one reference speed.

The program is imported through ``repro.core`` first: a bare
``import repro.tpcd`` raises ``ImportError`` from the open
engine -> monitor -> core import cycle, which the test suite's conftest
sidesteps the same way.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import os
import signal
import subprocess
import sys
import time
import traceback
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import repro.core  # noqa: F401  (must precede the imports below)
from repro.core import powertest
from repro.r3 import batchinput, upgrade
from repro.r3.appserver import R3System, R3Version
from repro.reports import native30, open22, open30, updatefuncs
from repro.sapschema import loader as sap_loader
from repro.tpcd import dbgen, queries, updates
from repro.tpcd import loader as tpcd_loader
from repro.tpcd.answers import rows_match
from repro.trace.analyze import TraceAnalyzer

import spec


#: wall seconds between two speed probes inside a timed segment
SAMPLE_EVERY_S = 0.1


def derived_seed(seed: int, purpose: str) -> int:
    """A seed for ``purpose`` (UF1 refresh set, UF2 victims) from ``seed``."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Round:
    """What one round measured and checked."""

    #: raw wall seconds of the set-up and of the measured phase
    setup_s: float = 0.0
    wall_s: float = 0.0
    #: reference probe time over measured probe time in each phase:
    #: multiply a raw time by it for the time at the reference speed
    setup_speed: float = 1.0
    wall_speed: float = 1.0
    sim_s: float = 0.0
    space_ratio: float = 0.0
    #: wall seconds of every step of the measured phase, and the
    #: reference speed around each (Clock.step_speeds)
    steps: list[float] = field(default_factory=list)
    step_speeds: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: checks against an empty reference result (they prove nothing)
    vacuous: list[str] = field(default_factory=list)
    #: every deterministic value of the round: sim seconds, space ratio,
    #: counters, result sizes, digests
    fingerprint: dict[str, object] = field(default_factory=dict)
    #: summed measured-phase program counters (spec.COUNTERS)
    counters: dict[str, float] = field(default_factory=dict)
    #: program tracers enabled during a traced round
    tracers: list = field(default_factory=list)


_PROBE_TABLE = {i: i * 7 % 1009 for i in range(2048)}


def _probe_kernel() -> int:
    """Fixed pure-Python work sharing no code with the program (~2 ms).

    It creates no container objects, so it never advances or triggers the
    cyclic garbage collector of the program it interrupts."""
    table = _PROBE_TABLE
    total = 0
    for i in range(12000):
        total += table[(i * 31) & 2047]
    return total


def warm_up_probe() -> None:
    """Run the kernel until the interpreter has specialised its code."""
    for _ in range(50):
        _probe_kernel()


class Clock:
    """Wall time of timed segments, and the machine's speed during them.

    The CPU speed of a small shared VM swings by up to 1.7x within
    minutes as its neighbours come and go, which no number of rounds
    averages out.  So the clock times :func:`_probe_kernel` after every
    segment and, with ``sampling``, every ``SAMPLE_EVERY_S`` inside it
    (from a SIGALRM handler, between two bytecodes of whatever runs),
    always leaving the kernel's own time out of :attr:`total` and of the
    steps timed by :meth:`step`.  :attr:`speed` is the kernel's reference
    time over its mean measured time, so ``total * speed`` is the
    segments' wall time at the reference speed.  The program cannot move
    the probe: the kernel runs none of its code.  Traced rounds do
    without ``sampling``, so that no probe lands inside a layer span.

    The speed also changes within a second, so a single step is scaled
    by the speed around it instead (:meth:`step_speeds`): over four
    rounds of one power_sql seed on a 2-vCPU VM that cut the coefficient
    of variation of a step's time from 0.14 to 0.08, and of the median
    step from 0.12 to 0.04.
    """

    def __init__(self, sampling: bool) -> None:
        self.total = 0.0
        self.sampling = sampling
        #: seconds spent in probes so far
        self.probe_s = 0.0
        self._probes = 0
        self._excluded = 0.0
        # start and seconds of every probe, start and end of every step;
        # arrays, so that a probe records itself without creating an
        # object the garbage collector tracks
        self._probe_starts = array("d")
        self._probe_seconds = array("d")
        self._step_starts = array("d")
        self._step_ends = array("d")
        self.probe()

    @contextmanager
    def timed(self):
        self._excluded = 0.0
        if self.sampling:
            previous = signal.signal(signal.SIGALRM,
                                     lambda _sig, _frame: self.probe())
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            yield
        finally:
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            if self.sampling:
                signal.signal(signal.SIGALRM, previous)
            self.total += end - start - self._excluded
            self.probe()

    @contextmanager
    def step(self, steps: list[float]):
        """Append the wall time of the block, less any probe, to ``steps``."""
        probed = self.probe_s
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            steps.append(end - start - (self.probe_s - probed))
            self._step_starts.append(start)
            self._step_ends.append(end)

    def probe(self) -> None:
        """Time the kernel once; inside a segment its time is left out."""
        start = time.perf_counter()
        _probe_kernel()
        elapsed = time.perf_counter() - start
        self.probe_s += elapsed
        self._probes += 1
        self._excluded += elapsed
        self._probe_starts.append(start)
        self._probe_seconds.append(elapsed)

    def step_speeds(self) -> list[float]:
        """The speed around each step timed by :meth:`step`: from the
        probes inside it and the first one after it (the one that ends
        its segment, or the next sample)."""
        starts = self._probe_starts
        speeds = []
        for start, end in zip(self._step_starts, self._step_ends):
            probes = self._probe_seconds[bisect.bisect_left(starts, start):
                                         bisect.bisect_left(starts, end) + 1]
            speeds.append(len(probes) * spec.PROBE_REFERENCE_S / sum(probes)
                          if probes else self.speed)
        return speeds

    @property
    def speed(self) -> float:
        return self._probes * spec.PROBE_REFERENCE_S / self.probe_s


class Systems:
    """The simulated systems a measured phase charges, by role."""

    def __init__(self) -> None:
        self._systems: dict[str, object] = {}
        self._clock_at: dict[str, float] = {}
        self._counts_at: dict[str, dict[str, float]] = {}

    def add(self, role: str, system, traced: bool,
            from_start: bool = False) -> None:
        """Account ``system`` (a Database or R3System) from now on, or
        from its creation with ``from_start``."""
        self._systems[role] = system
        self._clock_at[role] = 0.0 if from_start else system.clock.now
        self._counts_at[role] = {} if from_start else system.metrics.all()
        if traced:
            system.tracer.enable()

    def close(self, rnd: Round) -> None:
        """Record sim seconds, counters and tracers into ``rnd``."""
        for role, system in self._systems.items():
            rnd.sim_s += system.clock.now - self._clock_at[role]
            base = self._counts_at[role]
            for name, value in sorted(system.metrics.all().items()):
                if value != base.get(name, 0):
                    rnd.fingerprint[f"counter.{role}.{name}"] = \
                        value - base.get(name, 0)
            for name in spec.COUNTERS:
                rnd.counters[name] = rnd.counters.get(name, 0) + \
                    system.metrics.get(name) - base.get(name, 0)
            if system.tracer.enabled:
                rnd.tracers.append(system.tracer)
        rnd.fingerprint["sim_s"] = rnd.sim_s
        rnd.fingerprint["space_ratio"] = rnd.space_ratio


def _db_bytes(db) -> int:
    return sum(t["data_bytes"] + t["index_bytes"]
               for t in db.storage_report().values())


def _generate(sf: float, seed: int):
    data = dbgen.generate(sf, seed=seed)
    refresh = dbgen.generate_refresh_orders(
        data, seed=derived_seed(seed, "uf1"))
    doomed = dbgen.delete_keys(data, seed=derived_seed(seed, "uf2"))
    return data, refresh, doomed


def _failure(rnd: Round, label: str, exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)
    rnd.failures.append(f"{label}: {type(exc).__name__}: {exc}")


# -- power steps --------------------------------------------------------------


def _run_step(rnd: Round, clock: Clock, system, variant: str, name: str,
              fn, check, layers) -> None:
    """Run one power-test step, time it and check what it returned."""
    label = f"{variant}.{name}"
    if layers is not None:
        layers.run_id += 1
    sim_before = system.clock.now
    try:
        with system.tracer.span("power.query", capture_metrics=True,
                                name=name, variant=variant), clock.timed(), \
                clock.step(rnd.steps):
            out = fn()
    except Exception as exc:  # a failed step is counted, the run goes on
        _failure(rnd, label, exc)
        return
    rnd.fingerprint[f"sim.{label}"] = system.clock.now - sim_before
    if rnd.steps[-1] > spec.STEP_TIMEOUT_S:
        rnd.failures.append(f"{label}: exceeded {spec.STEP_TIMEOUT_S} s")
    problem = check(label, out)
    if problem:
        rnd.failures.append(problem)


def _suite(module, sf: float, system, layers):
    """(name, callable) for Q1-Q17 of a report suite."""
    suite = module.make_queries(sf)
    for number in range(1, 18):
        fn = suite[number]
        if layers is not None:
            fn = layers.wrap("reports", fn)
        yield f"Q{number}", lambda fn=fn: fn(system)


def _rows_check(rnd: Round, reference: dict[str, list]):
    def check(label: str, rows) -> str | None:
        name = label.rsplit(".", 1)[1]
        rnd.fingerprint[f"rows.{label}"] = len(rows)
        if name not in reference:
            return f"{label}: no RDBMS reference to check against"
        if not reference[name]:
            rnd.vacuous.append(label)
        if not rows_match(reference[name], rows):
            return f"{label}: rows differ from the RDBMS reference"
        return None
    return check


def _uf_steps(rnd: Round, clock: Clock, system, variant: str, uf1, uf2,
              tables, layers) -> None:
    """UF1 then UF2.  ``tables`` holds ``(table, rows UF1 adds, rows UF2
    removes)``; each step checks the row counts it leaves behind."""
    before = [(table, table.row_count, added, removed)
              for table, added, removed in tables]

    def counts(after_uf2: bool):
        def check(label: str, _out) -> str | None:
            for table, start, added, removed in before:
                expected = start + added - (removed if after_uf2 else 0)
                if table.row_count != expected:
                    return (f"{label}: {table.name} holds "
                            f"{table.row_count} rows, expected {expected}")
            return None
        return check

    _run_step(rnd, clock, system, variant, "UF1", uf1, counts(False), layers)
    _run_step(rnd, clock, system, variant, "UF2", uf2, counts(True), layers)


# -- workloads ----------------------------------------------------------------


def power_sql(sf: float, seed: int, rnd: Round, layers_for,
              _cache: dict) -> None:
    """RDBMS Q1-Q17 + UF1/UF2, then Native SQL 3.0 Q1-Q17."""
    with layers_for("setup") as layers:
        clock = Clock(sampling=layers is None)
        with clock.timed():
            data, refresh, doomed = _generate(sf, seed)
            db = tpcd_loader.load_original(data)
        with clock.timed():
            r30 = powertest.build_sap_system(data, R3Version.V30)
        rnd.setup_s, rnd.setup_speed = clock.total, clock.speed
    rnd.space_ratio = _db_bytes(r30.db) / _db_bytes(db)
    specs = queries.build_queries(sf)
    doomed_set = set(doomed)
    lines_deleted = sum(1 for row in data.lineitem if row[0] in doomed_set)
    reference: dict[str, list] = {}

    def keep(label: str, result) -> None:
        name = label.rsplit(".", 1)[1]
        reference[name] = result.rows
        rnd.fingerprint[f"rows.{label}"] = len(result.rows)

    gc.collect()
    with layers_for("measured") as layers:
        traced = layers is not None
        systems = Systems()
        systems.add("rdbms", db, traced)
        systems.add("native30", r30, traced)
        clock = Clock(sampling=not traced)
        for number in range(1, 18):
            _run_step(rnd, clock, db, "rdbms", f"Q{number}",
                      lambda s=specs[number]: queries.run_query(db, s),
                      keep, layers)
        _uf_steps(rnd, clock, db, "rdbms",
                  lambda: updates.run_uf1_rdbms(db, refresh),
                  lambda: updates.run_uf2_rdbms(db, doomed),
                  [(db.catalog.table("orders"), len(refresh.orders),
                    len(doomed)),
                   (db.catalog.table("lineitem"), len(refresh.lineitem),
                    lines_deleted)], layers)
        check = _rows_check(rnd, reference)
        for name, fn in _suite(native30, sf, r30, layers):
            _run_step(rnd, clock, r30, "native30", name, fn, check, layers)
        rnd.wall_s, rnd.wall_speed = clock.total, clock.speed
        rnd.step_speeds = clock.step_speeds()
    systems.close(rnd)


def _rdbms_reference(sf: float, data, cache: dict):
    """RDBMS answers to Q1-Q17 and the original schema's bytes.

    Output-check work, not the program's set-up: computed untimed, once
    per run (every round of a run uses the same seed)."""
    if "reference" not in cache:
        db = tpcd_loader.load_original(data)
        specs = queries.build_queries(sf)
        cache["reference"] = (
            {f"Q{n}": queries.run_query(db, specs[n]).rows for n in specs},
            _db_bytes(db))
    return cache["reference"]


def power_open(sf: float, seed: int, rnd: Round, layers_for,
               cache: dict) -> None:
    """Open SQL 2.2 Q1-Q17, Open SQL 3.0 Q1-Q17, then UF1/UF2."""
    with layers_for("setup") as layers:
        clock = Clock(sampling=layers is None)
        with clock.timed():
            data, refresh, doomed = _generate(sf, seed)
            r22 = powertest.build_sap_system(data, R3Version.V22)
        with clock.timed():
            r30 = powertest.build_sap_system(data, R3Version.V30)
        rnd.setup_s, rnd.setup_speed = clock.total, clock.speed
    reference, original_bytes = _rdbms_reference(sf, data, cache)
    rnd.space_ratio = _db_bytes(r22.db) / original_bytes
    gc.collect()
    with layers_for("measured") as layers:
        traced = layers is not None
        systems = Systems()
        systems.add("open22", r22, traced)
        systems.add("open30", r30, traced)
        clock = Clock(sampling=not traced)
        check = _rows_check(rnd, reference)
        for module, system, variant in ((open22, r22, "open22"),
                                        (open30, r30, "open30")):
            for name, fn in _suite(module, sf, system, layers):
                _run_step(rnd, clock, system, variant, name, fn, check,
                          layers)
        _uf_steps(rnd, clock, r30, "open30",
                  lambda: updatefuncs.run_uf1_sap(r30, refresh),
                  lambda: updatefuncs.run_uf2_sap(r30, doomed),
                  [(r30.db.catalog.table("vbak"), len(refresh.orders),
                    len(doomed))], layers)
        rnd.wall_s, rnd.wall_speed = clock.total, clock.speed
        rnd.step_speeds = clock.step_speeds()
    systems.close(rnd)


def _time_imports(rnd: Round, times: int = 3) -> None:
    """Mean wall seconds for a fresh interpreter to import the program."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent / "src"), str(here)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    clock = Clock(sampling=True)
    for _ in range(times):
        with clock.timed():
            subprocess.run([sys.executable, "-c", "import workloads"],
                           env=env, check=True, timeout=120, cwd=here.parent)
    rnd.setup_s, rnd.setup_speed = clock.total / times, clock.speed


@contextmanager
def _batch_steps(rnd: Round, clock: Clock, system, layers):
    """Time every batch-input transaction as one step."""
    session_cls = batchinput.BatchInputSession
    original = session_cls.__dict__["run"]
    tracer = system.tracer

    def run(session, transaction):
        if layers is not None:
            layers.run_id += 1
        with tracer.span("power.query", capture_metrics=True, name="BI",
                         variant="batchinput"), clock.step(rnd.steps):
            return original(session, transaction)

    session_cls.run = run
    try:
        yield
    finally:
        session_cls.run = original


def load(sf: float, seed: int, rnd: Round, layers_for,
         _cache: dict) -> None:
    """dbgen -> original load -> SAP fast load -> batch input -> 3.0."""
    _time_imports(rnd)
    gc.collect()
    with layers_for("measured") as layers:
        traced = layers is not None
        systems = Systems()
        clock = Clock(sampling=not traced)
        with clock.timed():
            data = dbgen.generate(sf, seed=seed)
            db = tpcd_loader.load_original(data)
            fast = R3System(R3Version.V22)
        systems.add("original", db, False, from_start=True)
        systems.add("fast", fast, traced, from_start=True)
        with clock.timed():
            sap_loader.load_sap_fast(fast, data)
        fast_digest = fast.db.content_digest()
        with clock.timed():
            batch = R3System(R3Version.V22)
        systems.add("batch", batch, traced, from_start=True)
        with _batch_steps(rnd, clock, batch, layers), clock.timed():
            sap_loader.load_sap_batch_input(batch, data)
        batch_digest = batch.db.content_digest()
        rnd.fingerprint["digest.fast22"] = fast_digest
        if batch_digest != fast_digest:
            rnd.failures.append("batch-input system content differs from "
                                "the fast-loaded one")
        rnd.space_ratio = _db_bytes(batch.db) / _db_bytes(db)
        if layers is not None:
            layers.run_id += 1
        with fast.tracer.span("power.query", capture_metrics=True,
                              name="UPGRADE", variant="upgrade"), \
                clock.timed():
            upgrade.upgrade_to_30(fast)
            fast.db.analyze()
        rnd.fingerprint["digest.upgraded30"] = fast.db.content_digest()
        rnd.wall_s, rnd.wall_speed = clock.total, clock.speed
        rnd.step_speeds = clock.step_speeds()
    systems.close(rnd)


WORKLOADS = {"load": load, "power_sql": power_sql, "power_open": power_open}


def run_round(workload: str, seed: int, layers_for, cache: dict,
              share: float = 1.0) -> Round:
    """One round of ``workload`` at ``share`` of its scale factor.

    ``layers_for(phase)`` gives the context manager a phase ("setup",
    "measured") runs in: a :class:`layers.LayerTracer` in a traced round.
    ``cache`` carries check data between the rounds of one run.  A round
    that raises counts as a failed step."""
    rnd = Round()
    try:
        WORKLOADS[workload](spec.SCALE_FACTORS[workload] * share, seed, rnd,
                            layers_for, cache)
    except Exception as exc:  # reported as a failure, the run goes on
        _failure(rnd, f"{workload} round", exc)
    return rnd


def trace_split(rnd: Round) -> dict[str, float]:
    """Simulated seconds per tier from the program tracers' span trees."""
    totals = dict.fromkeys(spec.TRACE_SPLIT, 0.0)
    for tracer in rnd.tracers:
        for row in TraceAnalyzer(tracer).query_breakdowns():
            totals["trace.sim_app_s"] += row.app_s
            totals["trace.sim_dbif_s"] += row.dbif_s
            totals["trace.sim_engine_s"] += row.engine_s
            totals["trace.sim_disk_s"] += row.disk_s
    return totals
