"""What the benchmark measures: workloads, metrics and unmeasured layers.

``BENCHMARK.json`` at the repository root is generated from these
declarations (``python3 perfbench/run.py --write-manifest``), and every
run refuses to start when the committed file disagrees with them, so the
manifest and the printed metrics cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

#: TPC-D scale factor per workload.  0.002 is the repo's bench default,
#: the smallest SF with stable paper orderings, and load runs there.  The
#: power workloads run at 0.0025: between SF ~0.00195 and ~0.0022 single
#: query working sets on the SAP schema (VBAP with KOCLU or KONV, ~10 MB)
#: cross the 10 MB simulated buffer pool one query at a time, so the
#: simulated seconds of a suite jump by 2-8x between seeds of one SF
#: (at 0.002, 2 seeds in 10 for Native SQL 3.0 Q1, 1 in 4 for Open SQL
#: 2.2).  At 0.0025 every seed is clear of those steps, on the paper's
#: side: the working sets do not fit.
SCALE_FACTORS = {"load": 0.002, "power_sql": 0.0025, "power_open": 0.0025}
#: dbgen's own default seed
DEFAULT_SEED = 19970601
#: how long one run measures, nominally
RUN_SECONDS = 40
#: rounds (set-up + measured phase + checks) per run of RUN_SECONDS; a
#: run of S seconds makes ROUNDS * S / RUN_SECONDS of them, at least one.
#: A fixed count, not a deadline, so every run at one setting does the
#: same work and reports its percentiles over the same number of steps.
#: A step's time is its least over the rounds (run.step_times), which
#: leaves out the host's stalls that the step percentiles, over 36
#: queries or beyond load's collector pauses, are sensitive to.
#: power_open runs one: its rounds are the longest, and a second one
#: (~25 s more per run on a busy host) did not narrow its step spreads,
#: which come from the seed's data.  Rounds take 13-21 s (load), 11-18 s
#: (power_sql) and 16-27 s (power_open) on a 2-vCPU 2.1 GHz Xeon VM, as
#: busy as its host is.
ROUNDS = {"load": 2, "power_sql": 2, "power_open": 1}
#: the untimed warm-up round before a run's rounds runs at this share of
#: the workload's scale factor (see run.run)
WARM_UP_SHARE = 0.1
#: a step slower than this (wall seconds) counts as failed
STEP_TIMEOUT_S = 60.0
#: the reference speed: the probe kernel (workloads._probe_kernel) takes
#: this long.  Reported times are raw times scaled by reference / measured
#: probe time (workloads.Clock); between the program's steps the kernel
#: takes 1.3-3.5 ms on a 2-vCPU 2.1 GHz Xeon VM, as busy as its host is
PROBE_REFERENCE_S = 0.002

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

WORKLOADS = {
    "load": (
        "write and DDL path: dbgen, original-schema bulk load, SAP fast "
        "load, ~5k batch-input transactions, 3.0 upgrade + ANALYZE; "
        "expression evaluation and joins are idle"
    ),
    "power_sql": (
        "set-oriented engine work: RDBMS Q1-Q17 + UF1/UF2 on the original "
        "schema (fits the buffer pool), Native SQL 3.0 Q1-Q17 on the SAP "
        "schema (does not); app server is passthrough"
    ),
    "power_open": (
        "many small statements through DBIF, the cursor cache, Open SQL "
        "and KONV decode: Open SQL 2.2 and 3.0 Q1-Q17, then UF1/UF2 "
        "batch-input writes beside the reads"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None

    def manifest(self) -> dict:
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


#: measured with no instrumentation; each is the median over a run's rounds
END_TO_END = [
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("sim_s", "sim-s", "lower", 0.10),
    Metric("sim_per_wall", "sim-s/s", "higher", 0.25),
    Metric("step_p50_ms", "ms", "lower", 0.25),
    Metric("step_tail_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("space_ratio", "ratio", "lower", 0.05),
]


@dataclass(frozen=True)
class Layer:
    """One program layer the traced run wraps, named after its module.

    ``entries`` are ``(module, qualified name)`` pairs; a class method is
    patched on its class, a module-level function wherever a loaded
    ``repro`` module binds it.  Each layer reports ``wall_s`` (inclusive,
    renamed by ``wall_name``), ``self_s`` (exclusive of nested layers)
    and ``calls``; ``moves`` names the end-to-end metric and workload a
    change in the layer should show in.
    """

    name: str
    entries: tuple[tuple[str, str], ...]
    moves: str
    wall_name: str = "wall_s"


LAYERS = [
    Layer("tpcd.dbgen", (("repro.tpcd.dbgen", "generate"),
                         ("repro.tpcd.dbgen", "generate_refresh_orders"),
                         ("repro.tpcd.dbgen", "delete_keys")),
          "wall_s on load; setup_s on power_*"),
    Layer("tpcd.loader", (("repro.tpcd.loader", "load_original"),),
          "wall_s on load; setup_s on power_sql"),
    Layer("tpcd.queries", (("repro.tpcd.queries", "run_query"),),
          "wall_s on power_sql (RDBMS suite calls)"),
    Layer("tpcd.updates", (("repro.tpcd.updates", "run_uf1_rdbms"),
                           ("repro.tpcd.updates", "run_uf2_rdbms")),
          "wall_s on power_sql (RDBMS UF1/UF2)"),
    Layer("sapschema.loader",
          (("repro.sapschema.loader", "load_sap_fast"),
           ("repro.sapschema.loader", "load_sap_batch_input")),
          "wall_s on load; setup_s on power_*"),
    Layer("r3.appserver", (("repro.r3.appserver", "R3System.insert_logical"),
                           ("repro.r3.appserver", "R3System.insert_cluster")),
          "wall_s on load"),
    Layer("r3.batchinput",
          (("repro.r3.batchinput", "BatchInputSession.run"),),
          "wall_s, step_* on load"),
    Layer("r3.upgrade", (("repro.r3.upgrade", "upgrade_to_30"),),
          "wall_s on load"),
    Layer("engine.bulk_load",
          (("repro.engine.database", "Database.bulk_load"),),
          "wall_s on load"),
    Layer("engine.stats", (("repro.engine.database", "Database.analyze"),),
          "wall_s on load; setup_s on power_*"),
    Layer("engine.index",
          (("repro.engine.database", "Database.create_index"),),
          "wall_s on load, power_open", wall_name="build_wall_s"),
    Layer("engine.sql", (("repro.engine.sql.parser", "parse_sql"),),
          "wall_s on power_open (~0 on power_sql)"),
    Layer("engine.plan",
          (("repro.engine.plan.planner", "Planner.plan_select"),),
          "wall_s on power_open"),
    Layer("engine.exec", (("repro.engine.database", "Database.execute"),
                          ("repro.engine.database",
                           "PreparedStatement.execute")),
          "wall_s, sim_s on power_sql"),
    Layer("r3.dbif",
          (("repro.r3.dbif", "DatabaseInterface.execute_param"),
           ("repro.r3.dbif", "DatabaseInterface.execute_literal")),
          "wall_s, sim_s on power_open"),
    Layer("r3.opensql", (("repro.r3.opensql.executor", "OpenSql.select"),
                         ("repro.r3.opensql.executor",
                          "OpenSql.select_single")),
          "wall_s on power_open"),
    Layer("r3.pools", (("repro.r3.pools", "PoolContainer.decode"),
                       ("repro.r3.pools", "ClusterContainer.decode_page")),
          "wall_s on power_open, load"),
    # the suite functions themselves (repro.reports.*: Native/Open SQL
    # reports and the batch-input UFs); the step runner wraps the report
    # callables, the UFs are patched like any other entry point
    Layer("reports", (("repro.reports.updatefuncs", "run_uf1_sap"),
                      ("repro.reports.updatefuncs", "run_uf2_sap")),
          "wall_s on power_open"),
]

#: program counters summed over every system of the measured phase
COUNTERS = [
    "batchinput.screens",
    "index.eq_lookups", "index.prefix_scans", "index.range_scans",
    "exec.tuples",
    "buffer.hits", "buffer.misses",
    "dbif.roundtrips", "dbif.tuples_shipped",
    "dbif.cursor_cache_hits", "dbif.cursor_cache_misses",
    "buffer_mgr.hits", "buffer_mgr.lookups",
    "disk.time_s",
]

#: ratios: name -> (numerator, counters summed into the denominator);
#: engine.exec.rows counts the rows engine.exec calls returned
RATIOS = {
    "engine.exec.tuples_per_row": ("exec.tuples", ("engine.exec.rows",)),
    "engine.buffer.hit_ratio": ("buffer.hits",
                                ("buffer.hits", "buffer.misses")),
    "r3.dbif.cursor_hit_ratio": ("dbif.cursor_cache_hits",
                                 ("dbif.cursor_cache_hits",
                                  "dbif.cursor_cache_misses")),
    "r3.buffers.hit_ratio": ("buffer_mgr.hits", ("buffer_mgr.lookups",)),
}

#: calls counted (not spanned) on the simulator's own primitives
SIM_CALLS = {
    "sim.metrics.calls": ("repro.sim.metrics", "MetricsCollector.count"),
    "sim.clock.charges": ("repro.sim.clock", "SimulatedClock.charge"),
}

#: the program's own tracer (repro.trace), simulated seconds per tier
TRACE_SPLIT = ["trace.sim_app_s", "trace.sim_dbif_s", "trace.sim_engine_s",
               "trace.sim_disk_s"]

#: layers deliberately left out, with the reason for each
UNMEASURED = {
    "r3.dispatcher": "work-process queueing is off the power/load path "
                     "(the benchmark calls the suites directly, serially)",
    "r3.workproc": "roll-in/roll-out only runs under the dispatcher",
    "r3.cluster": "multi-app-server installs are not on the default path",
    "engine.lsm": "the default storage backend is the heap",
    "engine.wal": "the default durability is off (no log writes)",
    "engine.parallel": "the default degree is 1 (strictly serial plans)",
}


def _layer_metrics() -> list[Metric]:
    out = []
    for layer in LAYERS:
        out.append(Metric(f"{layer.name}.{layer.wall_name}", "s", "lower"))
        out.append(Metric(f"{layer.name}.self_s", "s", "lower"))
        out.append(Metric(f"{layer.name}.calls", "count", "lower"))
    return out


PER_LAYER = (
    _layer_metrics()
    + [Metric("engine.bulk_load.rows", "count", "lower")]
    + [Metric(name, "sim-s" if name.endswith("_s") else "count", "lower")
       for name in COUNTERS]
    + [Metric(name, "ratio",
              "lower" if name.endswith("tuples_per_row") else "higher")
       for name in RATIOS]
    + [Metric(name, "count", "lower") for name in SIM_CALLS]
    + [Metric(name, "sim-s", "lower") for name in TRACE_SPLIT]
    + [Metric("trace.overhead_pct", "%", "lower"),
       Metric("traced.wall_s", "s", "lower"),
       Metric("unattributed_s", "s", "lower")]
    # the traced round's set-up, attributed the same way
    + [Metric(f"setup.{layer.name}.self_s", "s", "lower") for layer in LAYERS]
    + [Metric("setup.traced_s", "s", "lower"),
       Metric("setup.unattributed_s", "s", "lower")]
)


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [m.manifest() for m in END_TO_END],
        "per_layer": [m.manifest() for m in PER_LAYER],
    }
