"""One instrumentation plane: layer-tagged spans feed trace and STAT.

The tracer's layer-tagged spans are the only timing primitive.  The
trace analyzer splits a query by the tags in the span tree; the
workload monitor, as the tracer's layer sink, splits a dialog step by
the same tags as they open and close.  Both splits must agree exactly,
and neither consumer may change a tick or the other's output.
"""

import pytest

from repro.core.powertest import build_sap_system, run_power_test
from repro.r3.appserver import R3Version
from repro.reports import open30
from repro.sim.params import SimParams
from repro.tpcd.dbgen import generate
from repro.trace import TraceAnalyzer

SF = 0.0005

#: (tracing, monitoring) per mode
MODES = {"trace": (True, False), "monitor": (False, True),
         "both": (True, True)}


@pytest.fixture(scope="module")
def tiny_data():
    return generate(SF)


@pytest.fixture(scope="module")
def runs(tiny_data):
    return {mode: run_power_test(SF, R3Version.V30, data=tiny_data,
                                 tracing=tracing, monitoring=monitoring)
            for mode, (tracing, monitoring) in MODES.items()}


def _stat_dicts(monitor):
    return [record.to_dict() for record in monitor.stat_records]


class TestTraceEqualsStat:
    def test_trace_split_equals_stat_split_for_every_query(self, runs):
        result = runs["both"]
        compared = 0
        for variant in ("rdbms", "native", "open"):
            rows = TraceAnalyzer(result.traces[variant]).query_breakdowns()
            records = list(result.monitors[variant].stat_records)
            assert [b.name for b in rows] == [r.label for r in records]
            for b, record in zip(rows, records):
                assert b.total_s == record.response_s, b.name
                assert b.app_s == record.abap_s, b.name
                assert b.dbif_s == record.dbif_s, b.name
                assert b.engine_s == record.engine_s + record.commit_s, \
                    b.name
                compared += 1
        assert compared == 55  # 17 + 2 UFs for rdbms and native, 17 open

    def test_plan_cpu_is_engine_time(self, runs):
        """Planning CPU is charged inside the ``db.plan`` span."""
        tracer = runs["trace"].traces["rdbms"]
        plans = tracer.find("db.plan")
        assert plans
        for span in plans:
            assert span.elapsed_s >= SimParams().plan_cpu_s


class TestConsumersAreIndependent:
    def test_same_ticks_in_every_mode(self, runs):
        times = {mode: result.times for mode, result in runs.items()}
        assert times["trace"] == times["monitor"] == times["both"]

    def test_monitor_only_and_both_give_identical_stat_records(self, runs):
        for variant in ("rdbms", "native", "open"):
            assert _stat_dicts(runs["monitor"].monitors[variant]) == \
                _stat_dicts(runs["both"].monitors[variant])

    def test_tracer_only_and_both_give_identical_breakdowns(self, runs):
        for variant in ("rdbms", "native", "open"):
            alone = TraceAnalyzer(runs["trace"].traces[variant]).summary()
            both = TraceAnalyzer(runs["both"].traces[variant]).summary()
            assert alone["queries"] == both["queries"]


def _monitored_suite(data, max_spans=None):
    """open30 Q1-Q17 as STAT steps; tracing on when ``max_spans`` set."""
    r3 = build_sap_system(data, R3Version.V30)
    r3.monitor.enable()
    if max_spans is not None:
        r3.tracer.max_spans = max_spans
        r3.tracer.enable()
    suite = open30.make_queries(SF)
    for number in range(1, 18):
        span = r3.tracer.span("power.query", layer="abap",
                              name=f"Q{number}")
        with r3.monitor.step(span, "dialog", f"Q{number}", wp="PWR"):
            suite[number](r3)
    return r3


class TestSpanCap:
    def test_layer_accounting_continues_past_max_spans(self, tiny_data):
        unbounded = _monitored_suite(tiny_data)
        capped = _monitored_suite(tiny_data, max_spans=50)
        assert capped.tracer.span_count == 50
        assert capped.tracer.dropped > 0
        assert capped.clock.now == unbounded.clock.now
        records = list(capped.monitor.stat_records)
        assert len(records) == 17
        for record in records:
            assert record.decomposed_s() == record.response_s
        assert any(record.dbif_s > 0 for record in records)
        assert _stat_dicts(capped.monitor) == _stat_dicts(unbounded.monitor)
        assert capped.tracer.layer_s == unbounded.tracer.layer_s
        assert {sql: stats.to_dict()
                for sql, stats in capped.monitor.statements.items()} == \
            {sql: stats.to_dict()
             for sql, stats in unbounded.monitor.statements.items()}
