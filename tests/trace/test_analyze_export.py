"""TraceAnalyzer layer algebra and the JSON/Chrome exporters."""

import pytest

from repro.engine.exec.profile import OperatorProfile
from repro.sim.clock import LaneSink, SimulatedClock
from repro.sim.metrics import MetricsCollector
from repro.trace import TraceAnalyzer, Tracer, to_chrome, to_json


def traced_query(with_profile=False):
    """A hand-built power.query: ABAP work, one DBIF call wrapping
    engine work, and one direct engine call (the rdbms idiom)."""
    clock = SimulatedClock()
    metrics = MetricsCollector()
    tracer = Tracer(clock, metrics, enabled=True)
    profile = None
    if with_profile:
        profile = OperatorProfile("SeqScan(lineitem)", 0)
        profile.loops = 1
        profile.rows_out = 50
        profile.pages_read = 8.0
        profile.inclusive_s = 2.5
    with tracer.span("power.query", layer="abap", capture_metrics=True,
                     name="Q3", variant="open"):
        clock.charge(1.0)                      # app-server work
        with tracer.span("dbif.call", layer="dbif", mode="param"):
            clock.charge(0.5)                  # shipping / latency
            with tracer.span("db.query", layer="engine") as dbspan:
                metrics.count("disk.time_s", 1.5)
                clock.charge(2.5)              # engine incl. disk
                if profile is not None:
                    dbspan.set(profile=profile)
            clock.charge(0.25)                 # more DBIF overhead
        with tracer.span("db.query", layer="engine"):  # direct (no DBIF)
            clock.charge(0.75)
        clock.charge(0.5)                      # app-server epilogue
        metrics.count("dbif.roundtrips", 3)
    return tracer


class TestLayerAlgebra:
    def test_breakdown_sums_exactly(self):
        analyzer = TraceAnalyzer(traced_query())
        b, = analyzer.query_breakdowns()
        assert b.name == "Q3" and b.variant == "open"
        assert b.total_s == pytest.approx(5.5)
        assert b.dbif_s == pytest.approx(0.75)     # 3.25 call - 2.5 engine
        assert b.engine_s == pytest.approx(3.25)   # 2.5 under dbif + 0.75
        assert b.app_s == pytest.approx(1.5)
        assert b.app_s + b.dbif_s + b.engine_s == pytest.approx(b.total_s)
        assert b.disk_s == pytest.approx(1.5)
        assert b.roundtrips == 3
        assert b.dbif_calls == 1

    def test_parallel_lane_siblings_fold_as_max(self):
        """Concurrent worker-lane spans contribute their slowest lane,
        not their sum — the layer identity must survive parallelism."""
        clock = SimulatedClock()
        metrics = MetricsCollector()
        tracer = Tracer(clock, metrics, enabled=True)
        lane_costs = ((0.2, 0.6), (0.1, 0.3))  # (dbif ship, engine) per lane
        with tracer.span("power.query", name="Q6", variant="rdbms"):
            clock.charge(1.0)                  # app-server prologue
            with tracer.span("exec.fragment", operator="Gather"):
                sinks = []
                for index, (ship, engine) in enumerate(lane_costs):
                    sink = LaneSink()
                    sinks.append(sink)
                    with clock.redirect(sink):
                        with tracer.span("exec.lane", lane=index,
                                         parallel=True):
                            with tracer.span("dbif.call", layer="dbif"):
                                clock.charge(ship)
                                with tracer.span("db.query", layer="engine"):
                                    clock.charge(engine)
                clock.charge(max(s.seconds for s in sinks))  # barrier
            clock.charge(0.2)                  # app-server epilogue
        analyzer = TraceAnalyzer(tracer)
        b, = analyzer.query_breakdowns()
        assert b.total_s == pytest.approx(2.0)     # 1.0 + max(0.8) + 0.2
        assert b.engine_s == pytest.approx(0.6)    # slowest lane's engine
        assert b.dbif_s == pytest.approx(0.2)      # slowest lane's shipping
        assert b.dbif_calls == 2                   # discrete counts still add
        # The identity holds even though the lanes overlap on the time
        # axis; summing the lanes would have produced app + dbif +
        # engine = 2.9 against a 2.0 total.
        assert b.app_s + b.dbif_s + b.engine_s == pytest.approx(b.total_s)

    def test_sequential_phases_fold_per_phase(self):
        """Lane groups with distinct phase attrs (a barrier between
        them) contribute the sum of per-phase maxima."""
        clock = SimulatedClock()
        tracer = Tracer(clock, MetricsCollector(), enabled=True)
        with tracer.span("power.query", name="Q3", variant="rdbms"):
            with tracer.span("exec.fragment", operator="ParallelHashJoin"):
                for phase, costs in ((1, (0.4, 0.1)), (2, (0.1, 0.3))):
                    for index, cost in enumerate(costs):
                        with clock.redirect(LaneSink()):
                            with tracer.span("exec.lane", lane=index,
                                             phase=phase, parallel=True):
                                with tracer.span("db.query", layer="engine"):
                                    clock.charge(cost)
                    clock.charge(max(costs))   # per-phase barrier
        b, = TraceAnalyzer(tracer).query_breakdowns()
        assert b.total_s == pytest.approx(0.7)
        assert b.engine_s == pytest.approx(0.7)    # max(phase1) + max(phase2)
        assert b.app_s == pytest.approx(0.0)

    def test_layer_tag_not_span_name_decides_the_column(self):
        clock = SimulatedClock()
        tracer = Tracer(clock, MetricsCollector(), enabled=True)
        with tracer.span("power.query", layer="abap", name="Q1"):
            with tracer.span("dbif.call"):     # untagged: stays app time
                clock.charge(1.0)
            with tracer.span("custom.fetch", layer="dbif"):
                clock.charge(0.5)
                with tracer.span("custom.exec", layer="commit"):
                    clock.charge(0.25)         # commit folds into engine
        b, = TraceAnalyzer(tracer).query_breakdowns()
        assert (b.app_s, b.dbif_s, b.engine_s) == (1.0, 0.5, 0.25)
        assert b.dbif_calls == 1

    def test_summary_totals(self):
        summary = TraceAnalyzer(traced_query()).summary()
        assert len(summary["queries"]) == 1
        totals = summary["totals"]
        assert totals["total_s"] == pytest.approx(
            totals["app_server_s"] + totals["dbif_s"] + totals["engine_s"])

    def test_top_operators_dedupes_shared_profile(self):
        tracer = traced_query(with_profile=True)
        # attach the same profile object to a second db.query span, as
        # repeated executions of a cached plan do
        profile = tracer.find("db.query")[0].attrs["profile"]
        with tracer.span("db.query", layer="engine") as extra:
            extra.set(profile=profile)
        ops = TraceAnalyzer(tracer).top_operators(5)
        op, = ops
        assert op.label == "SeqScan(lineitem)"
        assert op.loops == 1 and op.rows_out == 50
        assert op.exclusive_s == pytest.approx(2.5)

    def test_render_text_has_layers_and_operators(self):
        text = TraceAnalyzer(traced_query(with_profile=True)) \
            .render_text(top=5, title="unit")
        assert "App-server s" in text and "DBIF s" in text
        assert "SeqScan(lineitem)" in text
        assert "Total" in text


class TestExporters:
    def test_json_document_shape(self):
        document = to_json(traced_query(with_profile=True),
                           meta={"variant": "open"})
        assert document["format"] == "repro-trace-v1"
        assert document["meta"] == {"variant": "open"}
        root, = document["spans"]
        assert root["name"] == "power.query"
        assert root["counters"]["dbif.roundtrips"] == 3
        names = {root["name"]}
        stack = list(root["children"])
        while stack:
            node = stack.pop()
            names.add(node["name"])
            stack.extend(node["children"])
        assert names == {"power.query", "dbif.call", "db.query"}
        # the profile serialised through its to_dict()
        dbif, = [c for c in root["children"] if c["name"] == "dbif.call"]
        prof = dbif["children"][0]["attrs"]["profile"]
        assert prof["operator"] == "SeqScan(lineitem)"
        assert prof["rows_out"] == 50

    def test_json_is_json_serialisable(self):
        import json

        text = json.dumps(to_json(traced_query(with_profile=True)))
        assert "SeqScan" in text

    def test_chrome_roundtrip_from_json(self):
        tracer = traced_query(with_profile=True)
        document = to_json(tracer)
        chrome = to_chrome(document, tid=7, thread_name="open")
        events = chrome["traceEvents"]
        meta_events = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert meta_events[0]["args"]["name"] == "open"
        assert len(spans) == sum(1 for _ in tracer.iter_spans())
        root = spans[0]
        assert root["name"] == "power.query"
        assert root["ts"] == 0.0
        assert root["dur"] == pytest.approx(5.5e6)  # seconds -> µs
        assert all(e["tid"] == 7 for e in spans)
        # profiles stay out of chrome args; scalars and counters go in
        assert all("profile" not in e["args"] for e in spans)
        assert root["args"]["counter:dbif.roundtrips"] == 3

    def test_chrome_accepts_tracer_directly(self):
        chrome = to_chrome(traced_query())
        assert any(e["name"] == "db.query" for e in chrome["traceEvents"])
