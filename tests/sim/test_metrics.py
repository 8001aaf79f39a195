from repro.sim.metrics import MetricsCollector


class TestMetricsCollector:
    def test_count_default_one(self):
        metrics = MetricsCollector()
        metrics.count("x")
        metrics.count("x")
        assert metrics.get("x") == 2

    def test_count_amount(self):
        metrics = MetricsCollector()
        metrics.count("rows", 10)
        metrics.count("rows", 5)
        assert metrics.get("rows") == 15

    def test_unknown_counter_is_zero(self):
        assert MetricsCollector().get("missing") == 0

    def test_snapshot_delta(self):
        metrics = MetricsCollector()
        metrics.count("a", 3)
        snap = metrics.snapshot()
        metrics.count("a", 2)
        metrics.count("b", 1)
        assert snap.delta() == {"a": 2, "b": 1}
        assert snap.get("a") == 2
        assert snap.get("c") == 0

    def test_snapshot_excludes_unchanged(self):
        metrics = MetricsCollector()
        metrics.count("a")
        snap = metrics.snapshot()
        assert snap.delta() == {}

    def test_iteration_sorted(self):
        metrics = MetricsCollector()
        metrics.count("zz")
        metrics.count("aa")
        assert [name for name, _v in metrics] == ["aa", "zz"]

    def test_reset(self):
        metrics = MetricsCollector()
        metrics.count("a")
        metrics.reset()
        assert metrics.all() == {}

    def test_delta_reports_reset_counters(self):
        metrics = MetricsCollector()
        metrics.count("a", 3)
        metrics.count("b", 1)
        snap = metrics.snapshot()
        metrics.reset()
        metrics.count("b", 1)
        # 'a' vanished entirely, 'b' is back at its old value
        assert snap.delta() == {"a": -3}
        assert snap.get("a") == -3

    def test_delta_negative_when_counter_readded_lower(self):
        metrics = MetricsCollector()
        metrics.count("a", 10)
        snap = metrics.snapshot()
        metrics.reset()
        metrics.count("a", 4)
        # not dropped and not +4: reset-then-recount must be visible
        assert snap.delta() == {"a": -6}
        assert snap.get("a") == -6

    def test_snapshot_isolation_across_collectors(self):
        one, two = MetricsCollector(), MetricsCollector()
        one.count("shared", 1)
        snap_one = one.snapshot()
        snap_two = two.snapshot()
        one.count("shared", 2)
        two.count("shared", 7)
        two.count("other", 1)
        assert snap_one.delta() == {"shared": 2}
        assert snap_two.delta() == {"shared": 7, "other": 1}
        # each snapshot reads only its own collector
        assert snap_one.get("other") == 0
        assert snap_two.get("shared") == 7


class TestMetricsScope:
    def test_scoped_freezes_delta_at_exit(self):
        metrics = MetricsCollector()
        metrics.count("before", 5)
        with metrics.scoped() as scope:
            metrics.count("inside", 2)
            assert scope.get("inside") == 2
        metrics.count("after", 9)
        assert scope.delta == {"inside": 2}

    def test_scope_before_enter_is_empty(self):
        scope = MetricsCollector().scoped()
        assert scope.delta == {} and scope.get("x") == 0

    def test_nested_scopes_account_independently(self):
        metrics = MetricsCollector()
        with metrics.scoped() as outer:
            metrics.count("a", 1)
            with metrics.scoped() as inner:
                metrics.count("a", 2)
                metrics.count("b", 5)
            metrics.count("a", 4)
        # the inner scope sees only what happened inside it; the outer
        # scope sees everything, including the inner block's counts
        assert inner.delta == {"a": 2, "b": 5}
        assert outer.delta == {"a": 7, "b": 5}

    def test_nested_scope_live_reads_do_not_leak_outer(self):
        metrics = MetricsCollector()
        metrics.count("x", 3)
        with metrics.scoped():
            metrics.count("x", 1)
            with metrics.scoped() as inner:
                assert inner.get("x") == 0
                metrics.count("x", 2)
                assert inner.get("x") == 2


_DELTA_SCRIPT = """
import json
from repro.sim.metrics import MetricsCollector
metrics = MetricsCollector()
for name in ("disk.reads", "buffer.hits", "dbif.roundtrips", "old"):
    metrics.count(name)
snap = metrics.snapshot()
metrics.reset()
for i, name in enumerate(("zeta", "buffer.hits", "alpha", "mu", "disk.reads",
                          "omega", "beta", "kappa")):
    metrics.count(name, i + 1)
print(json.dumps(snap.delta()))
"""


class TestDeltaOrder:
    def test_delta_order_current_then_base_only(self):
        metrics = MetricsCollector()
        metrics.count("gone", 2)
        metrics.count("kept", 1)
        snap = metrics.snapshot()
        metrics.reset()
        metrics.count("new")
        metrics.count("kept", 5)
        assert list(snap.delta().items()) == [
            ("new", 1), ("kept", 4), ("gone", -2)]

    def test_delta_bytes_do_not_depend_on_the_hash_seed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.append(subprocess.run(
                [sys.executable, "-c", _DELTA_SCRIPT], env=env, check=True,
                capture_output=True, text=True, timeout=60).stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith('{"zeta": 1,')
