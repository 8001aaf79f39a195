"""Workload monitor: STAT conservation, zero-tick identity, CCMS alerts."""

import json

import pytest

from repro.monitor import (
    AlertEngine,
    AlertRule,
    RingSeries,
    WorkloadMonitor,
    build_report,
    render_report,
)
from repro.monitor.core import statement_fingerprint
from repro.monitor.profile import percentile
from repro.sim.clock import SimulatedClock
from repro.sim.metrics import MetricsCollector
from repro.trace import NOOP_SPAN, Tracer

#: tiny world so the integration runs stay fast in CI
MONITOR_SF = 0.0005


def _bare_monitor(**kwargs):
    clock = SimulatedClock()
    metrics = MetricsCollector()
    tracer = Tracer(clock, metrics)
    return WorkloadMonitor(tracer, **kwargs), clock, metrics


def _step(monitor, label, **kwargs):
    """A dialog step around an abap-layer span, as the harness runs one."""
    span = monitor.tracer.span("power.query", layer="abap")
    return monitor.step(span, "dialog", label, **kwargs)


def _run_workload(monitoring):
    """One deterministic throughput run; monitor optionally enabled."""
    from repro.core.powertest import build_sap_system
    from repro.core.throughput import run_throughput_test
    from repro.r3.appserver import R3Version
    from repro.reports import open30
    from repro.sim.chaos import default_chaos_config
    from repro.tpcd.dbgen import (
        delete_keys,
        generate,
        generate_refresh_orders,
    )

    data = generate(MONITOR_SF)
    r3 = build_sap_system(data, R3Version.V30)
    if monitoring:
        r3.monitor.enable()
    suite = open30.make_queries(MONITOR_SF)
    update_sets = [(generate_refresh_orders(
        data, seed=123, start_key=data.max_orderkey + 1),
        delete_keys(data, seed=321))]
    result = run_throughput_test(
        r3, suite, streams=2, update_sets=update_sets,
        dispatcher=default_chaos_config())
    return r3, result


@pytest.fixture(scope="module")
def monitored():
    return _run_workload(monitoring=True)


@pytest.fixture(scope="module")
def unmonitored():
    return _run_workload(monitoring=False)


class TestLayerAccounting:
    def test_disabled_layer_is_the_noop_singleton(self):
        monitor, _clock, _metrics = _bare_monitor()
        tracer = monitor.tracer
        assert tracer.span("dbif.call", layer="dbif") is NOOP_SPAN
        assert tracer.span("db.query", layer="engine") is NOOP_SPAN
        assert tracer.layer("commit") is NOOP_SPAN

    def test_begin_step_disabled_returns_none(self):
        monitor, clock, _metrics = _bare_monitor()
        with _step(monitor, "q1") as step:
            clock.charge(1.0)
        assert step.record is None
        assert len(monitor.stat_records) == 0

    def test_exclusive_attribution_with_nesting(self):
        monitor, clock, _metrics = _bare_monitor()
        tracer = monitor.tracer
        monitor.enable()
        with _step(monitor, "q1", wp="D0") as step:
            clock.charge(1.0)                    # abap
            with tracer.span("dbif.call", layer="dbif"):
                clock.charge(2.0)                # dbif
                with tracer.span("db.dml", layer="engine"):
                    clock.charge(3.0)            # engine
                    with tracer.layer("commit"):
                        clock.charge(0.25)       # commit
                clock.charge(1.0)                # dbif again
            clock.charge(0.5)                    # abap again
        record = step.record
        assert record.abap_s == pytest.approx(1.5)
        assert record.dbif_s == pytest.approx(3.0)
        assert record.engine_s == pytest.approx(3.0)
        assert record.commit_s == pytest.approx(0.25)
        assert record.rollin_s == 0.0
        assert record.response_s == pytest.approx(7.75)
        assert record.db_s == pytest.approx(6.25)

    def test_conservation_is_bit_exact(self):
        monitor, clock, _metrics = _bare_monitor()
        tracer = monitor.tracer
        monitor.enable()
        # awkward float charges so naive regrouping would leave residue
        with _step(monitor, "q", queue_wait_s=0.1) as step:
            for amount in (0.1, 0.2, 0.3, 0.7, 1e-9, 0.111111):
                clock.charge(amount)
                with tracer.span("dbif.call", layer="dbif"):
                    clock.charge(amount / 3)
                    with tracer.span("db.query", layer="engine"):
                        clock.charge(amount / 7)
        record = step.record
        assert record.decomposed_s() == record.response_s

    def test_nested_steps_are_suppressed(self):
        monitor, clock, _metrics = _bare_monitor()
        monitor.enable()
        with _step(monitor, "outer") as outer:
            with _step(monitor, "inner") as inner:
                clock.charge(1.0)
        assert inner.record is None
        assert outer.record is not None and outer.record.label == "outer"
        assert outer.record.abap_s == 1.0
        assert len(monitor.stat_records) == 1

    def test_unbalanced_exit_recovers_stack(self):
        monitor, clock, _metrics = _bare_monitor()
        tracer = monitor.tracer
        monitor.enable()
        dbif = tracer.span("dbif.call", layer="dbif").__enter__()
        tracer.span("db.query", layer="engine").__enter__()
        clock.charge(1.0)
        # an exception unwound past "engine" without closing it
        dbif.__exit__(RuntimeError, RuntimeError("boom"), None)
        assert tracer._layers == []
        clock.charge(2.0)
        with tracer.layer("commit"):
            pass  # settles: the 2.0 s belong to no layer
        assert tracer.layer_s == {"engine": 1.0}

    def test_disable_mid_step_abandons_the_record(self):
        monitor, clock, metrics = _bare_monitor()
        monitor.enable()
        with _step(monitor, "q") as step:
            clock.charge(1.0)
            monitor.disable()
        assert step.record is None
        assert len(monitor.stat_records) == 0
        assert metrics.get("monitor.stat_records") == 0

    def test_step_counts_metric(self):
        monitor, clock, metrics = _bare_monitor()
        monitor.enable()
        for i in range(3):
            with _step(monitor, f"q{i}"):
                clock.charge(0.5)
        assert metrics.get("monitor.stat_records") == 3

    def test_step_outcome_from_set_and_from_exceptions(self):
        monitor, _clock, _metrics = _bare_monitor()
        monitor.enable()
        with _step(monitor, "shed") as step:
            step.set(outcome="shed")
        with pytest.raises(RuntimeError):
            with _step(monitor, "boom"):
                raise RuntimeError("boom")
        assert [(r.label, r.outcome) for r in monitor.stat_records] == [
            ("shed", "shed"), ("boom", "failed")]


class TestRings:
    def test_stat_ring_caps_but_seq_keeps_counting(self):
        monitor, clock, _metrics = _bare_monitor(stat_capacity=4)
        monitor.enable()
        for i in range(10):
            with _step(monitor, f"q{i}"):
                clock.charge(0.1)
        assert len(monitor.stat_records) == 4
        assert monitor.stat_records[-1].seq == 10
        assert monitor.stat_records[0].seq == 7

    def test_series_ring_capacity_and_summary(self):
        series = RingSeries("queue_depth", capacity=3)
        for i in range(5):
            series.append(float(i), float(i * 2))
        assert len(series) == 3
        assert series.values() == [4.0, 6.0, 8.0]
        assert series.last == (4.0, 8.0)
        summary = series.summary()
        assert summary == {"samples": 3, "last": 8.0, "min": 4.0,
                           "max": 8.0, "mean": 6.0}

    def test_empty_series_summary(self):
        assert RingSeries("x", 4).summary() == {"samples": 0}


class TestStatements:
    def test_aggregation_and_ranking(self):
        monitor, _clock, _metrics = _bare_monitor()
        monitor.enable()
        monitor.record_statement("SELECT a FROM t", 0.5, 10)
        monitor.record_statement("SELECT a FROM t", 0.25, 5)
        monitor.record_statement("SELECT b FROM u", 2.0, 1)
        top = monitor.top_statements(10)
        assert [s.sql for s in top] == ["SELECT b FROM u",
                                        "SELECT a FROM t"]
        assert top[1].calls == 2
        assert top[1].db_s == pytest.approx(0.75)
        assert top[1].rows == 15
        assert top[1].to_dict()["per_call_s"] == pytest.approx(0.375)

    def test_capacity_drops_are_counted(self):
        monitor, _clock, metrics = _bare_monitor(statement_capacity=2)
        monitor.enable()
        monitor.record_statement("one", 0.1, 1)
        monitor.record_statement("two", 0.1, 1)
        monitor.record_statement("three", 0.1, 1)
        monitor.record_statement("one", 0.1, 1)  # known: still tracked
        assert len(monitor.statements) == 2
        assert metrics.get("monitor.statements_dropped") == 1
        assert monitor.statements["one"].calls == 2

    def test_fingerprint_normalizes_whitespace_and_case(self):
        a = statement_fingerprint("SELECT  x\n  FROM t")
        b = statement_fingerprint("select x from T".replace("T", "t"))
        assert a == b
        assert len(a) == 12
        assert a != statement_fingerprint("select y from t")


class TestAlertEngine:
    def test_fire_after_hysteresis(self):
        engine = AlertEngine([AlertRule("q", "depth", ">=", 5,
                                        fire_after=2, clear_after=2)])
        assert engine.observe(1.0, {"depth": 7.0}) == []
        fired = engine.observe(2.0, {"depth": 9.0})
        assert [e.kind for e in fired] == ["fired"]
        assert engine.active() == ["q"]
        # one calm window is not enough to clear
        assert engine.observe(3.0, {"depth": 1.0}) == []
        cleared = engine.observe(4.0, {"depth": 0.0})
        assert [e.kind for e in cleared] == ["cleared"]
        assert engine.active() == []
        assert engine.fired_total == 1

    def test_missing_gauge_keeps_streaks(self):
        engine = AlertEngine([AlertRule("q", "depth", ">=", 5,
                                        fire_after=2)])
        engine.observe(1.0, {"depth": 9.0})
        engine.observe(2.0, {})  # gauge absent: streak untouched
        fired = engine.observe(3.0, {"depth": 9.0})
        assert [e.kind for e in fired] == ["fired"]

    def test_refire_after_clear(self):
        engine = AlertEngine([AlertRule("q", "depth", ">=", 5)])
        engine.observe(1.0, {"depth": 9.0})
        engine.observe(2.0, {"depth": 0.0})
        engine.observe(3.0, {"depth": 9.0})
        assert engine.fired_total == 2
        assert engine.fired_by_rule() == {"q": 2}

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError):
            AlertEngine([AlertRule("q", "a", ">=", 1),
                         AlertRule("q", "b", ">=", 1)])

    def test_bad_op_and_bad_windows_rejected(self):
        with pytest.raises(ValueError):
            AlertRule("q", "depth", "==", 5)
        with pytest.raises(ValueError):
            AlertRule("q", "depth", ">=", 5, fire_after=0)

    def test_to_dict_shape(self):
        engine = AlertEngine([AlertRule("q", "depth", ">=", 5,
                                        severity="red")])
        engine.observe(1.5, {"depth": 6.0})
        doc = engine.to_dict()
        assert doc["fired_total"] == 1
        rule = doc["rules"][0]
        assert rule["severity"] == "red" and rule["active"]
        event = doc["events"][0]
        assert event["kind"] == "fired" and event["rule"] == "q"
        assert "depth >= 5" in event["condition"]
        json.dumps(doc)


class TestGaugeSampling:
    def test_event_gauges_are_window_deltas(self):
        monitor, clock, metrics = _bare_monitor()
        monitor.enable()
        metrics.count("dbif.breaker.open")
        clock.charge(1.0)
        monitor.sample()
        metrics.count("dispatcher.shed", 3)
        clock.charge(1.0)
        monitor.sample()
        assert monitor.series["breaker_open_events"].values() == [1.0, 0.0]
        assert monitor.series["shed_events"].values() == [0.0, 3.0]

    def test_rate_gauges_skip_empty_windows(self):
        monitor, clock, metrics = _bare_monitor()
        monitor.enable()
        clock.charge(1.0)
        monitor.sample()
        assert "pool_hit_rate" not in monitor.series
        metrics.count("buffer.hits", 3)
        metrics.count("buffer.misses", 1)
        clock.charge(1.0)
        monitor.sample()
        assert monitor.series["pool_hit_rate"].values() == [0.75]

    def test_maybe_sample_respects_interval(self):
        monitor, clock, metrics = _bare_monitor(sample_interval_s=2.0)
        monitor.enable()
        clock.charge(1.0)
        monitor.maybe_sample()
        assert metrics.get("monitor.samples") == 0
        clock.charge(1.0)
        monitor.maybe_sample()
        assert metrics.get("monitor.samples") == 1

    def test_attached_source_sampled_and_replaceable(self):
        monitor, clock, _metrics = _bare_monitor()
        monitor.enable()
        monitor.attach_source("queue_depth", lambda: 4.0)
        clock.charge(1.0)
        monitor.sample()
        monitor.attach_source("queue_depth", lambda: None)  # replaced
        clock.charge(1.0)
        monitor.sample()
        assert monitor.series["queue_depth"].values() == [4.0]

    def test_alert_fires_from_sampled_gauge(self):
        monitor, clock, metrics = _bare_monitor()
        monitor.enable()
        metrics.count("dbif.breaker.open")
        clock.charge(1.0)
        transitions = monitor.sample()
        assert [t.kind for t in transitions] == ["fired"]
        assert metrics.get("monitor.alerts_fired") == 1
        clock.charge(1.0)
        monitor.sample()  # calm window clears (clear_after=1)
        assert metrics.get("monitor.alerts_cleared") == 1

    def test_finish_forces_tail_sample(self):
        monitor, clock, metrics = _bare_monitor(sample_interval_s=100.0)
        monitor.enable()
        clock.charge(1.0)
        monitor.finish()
        assert metrics.get("monitor.samples") == 1


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 99) == 99.0
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0
        assert percentile([3.0, 1.0, 2.0], 99) == 3.0
        assert percentile([], 95) == 0.0


class TestMonitoredWorkload:
    def test_stat_records_written(self, monitored):
        r3, _result = monitored
        records = list(r3.monitor.stat_records)
        assert len(records) >= 30  # 2 streams x 17 queries + updates
        assert {r.task for r in records} >= {"dialog", "update"}
        assert all(r.wp for r in records if r.outcome == "completed")

    def test_conservation_on_every_record(self, monitored):
        r3, _result = monitored
        for record in r3.monitor.stat_records:
            assert record.decomposed_s() == record.response_s
            assert record.db_s <= record.response_s + 1e-9

    def test_layers_actually_populated(self, monitored):
        r3, _result = monitored
        records = list(r3.monitor.stat_records)
        assert any(r.dbif_s > 0 for r in records)
        assert any(r.engine_s > 0 for r in records)
        assert any(r.rollin_s > 0 for r in records)
        # 2 streams on 4 dialog processes: no queue contention expected;
        # durability is off on this path, so commit time lives below
        assert all(r.queue_wait_s >= 0 for r in records)
        assert all(r.commit_s == 0 for r in records)

    def test_commit_layer_accrues_under_wal(self):
        from repro.engine.database import Database

        db = Database(durability="wal")
        db.monitor.enable()
        from repro.engine.schema import Column, TableSchema
        from repro.engine.types import SqlType

        db.create_table(TableSchema(
            "t", [Column("id", SqlType.integer())], ["id"]))
        table = db.catalog.table("t")
        span = db.tracer.span("power.query", layer="abap")
        with db.monitor.step(span, "update", "ins", wp="UPD") as step:
            db.begin()
            for i in range(5):
                table.insert((i,))
            db.commit()
        record = step.record
        assert record.commit_s > 0
        assert record.decomposed_s() == record.response_s

    def test_statements_recorded(self, monitored):
        r3, _result = monitored
        top = r3.monitor.top_statements(5)
        assert top and top[0].calls >= 1 and top[0].db_s > 0

    def test_gauges_sampled(self, monitored):
        r3, _result = monitored
        assert len(r3.monitor.series.get("queue_depth", ())) >= 1
        assert r3.metrics.get("monitor.samples") >= 1

    def test_no_alerts_without_faults(self, monitored):
        r3, _result = monitored
        assert r3.monitor.alerts.fired_total == 0

    def test_build_report_shape(self, monitored):
        r3, result = monitored
        report = build_report(r3.monitor, meta={"streams": 2},
                              include_stat_records=True)
        assert report["format"] == "repro-monitor-v1"
        tasks = [p["task"] for p in report["profile"]]
        assert tasks == sorted(
            tasks, key=lambda t: {"dialog": 0, "update": 1}.get(t, 9))
        dialog = report["profile"][0]
        assert dialog["task"] == "dialog"
        assert dialog["response_s"]["p95"] >= dialog["response_s"]["p50"]
        assert 0 < dialog["db_share"] <= 1
        assert report["db"]["top"]
        assert report["counters"]["stat_records"] == \
            len(r3.monitor.stat_records)
        assert len(report["stat_records"]) == len(r3.monitor.stat_records)
        json.dumps(report)

    def test_render_report_sections(self, monitored):
        r3, _result = monitored
        report = build_report(r3.monitor)
        text = render_report(report)
        assert "ST03 workload profile" in text
        assert "ST04 top statements" in text
        assert "CCMS alerts" in text
        only_alerts = render_report(report, sections=("alerts",))
        assert "ST03" not in only_alerts and "CCMS alerts" in only_alerts


class TestZeroTick:
    def test_monitoring_is_tick_identical(self, monitored, unmonitored):
        r3_on, result_on = monitored
        r3_off, result_off = unmonitored
        assert r3_on.clock.now == r3_off.clock.now
        assert result_on.elapsed_s == result_off.elapsed_s
        assert result_on.queries_per_hour == result_off.queries_per_hour

    def test_only_monitor_counters_differ(self, monitored, unmonitored):
        r3_on, _on = monitored
        r3_off, _off = unmonitored
        on = {name: value for name, value in r3_on.metrics.all().items()
              if not name.startswith("monitor.")}
        off = {name: value for name, value in r3_off.metrics.all().items()
               if not name.startswith("monitor.")}
        assert on == off

    def test_disabled_monitor_leaves_no_counters(self, unmonitored):
        r3_off, _off = unmonitored
        assert not any(name.startswith("monitor.")
                       for name in r3_off.metrics.all())
        assert len(r3_off.monitor.stat_records) == 0
        assert r3_off.monitor.series == {}


class TestCli:
    def test_monitor_json_smoke(self, tmp_path, capsys):
        from repro.__main__ import main

        out_file = tmp_path / "workload.json"
        rc = main(["monitor", "--profile", "--format", "json",
                   "--sf", str(MONITOR_SF),
                   "--monitor-streams", "2",
                   "--monitor-out", str(out_file)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro-monitor-v1"
        assert doc["meta"]["streams"] == 2
        assert doc["profile"]
        assert json.loads(out_file.read_text()) == doc

    def test_monitor_text_output(self, capsys):
        from repro.__main__ import main

        rc = main(["monitor", "--alerts", "--sf", str(MONITOR_SF),
                   "--monitor-streams", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CCMS alerts" in out
        assert "ST03" not in out  # --alerts alone skips the profile

    def test_monitor_bad_args(self, capsys):
        from repro.__main__ import main

        assert main(["monitor", "--monitor-streams", "0"]) == 2
        assert main(["monitor", "--window", "0"]) == 2
        assert main(["monitor", "--format", "chrome"]) == 2
