"""Aggregate span trees into per-query layer breakdowns.

The :class:`TraceAnalyzer` turns a raw span tree into the paper-style
decomposition: for every ``power.query`` span it splits the inclusive
simulated time by the spans' layer tags — a span's time belongs to its
nearest tagged ancestor-or-self, the same exclusive attribution the
workload monitor's STAT records use — into

* **app-server** — layers ``abap``/``rollin``/``rollout``: ABAP
  interpreter, decode, internal tables, report logic (everything above
  the database interface),
* **DBIF** — layer ``dbif``: round-trip latency, cursor cache, tuple
  shipping, backoff,
* **engine** — layers ``engine``/``commit``: planning + plan execution
  inside the RDBMS, and
* **disk** — the page-transfer seconds charged by the disk model (a
  sub-component of engine time, reported from span counter deltas).

``app + dbif + engine == total`` holds by construction; disk is
informational ("of which disk").  On top of the per-query rows the
analyzer aggregates the EXPLAIN ANALYZE operator profiles attached to
``db.query`` spans into a top-N hottest-operator list.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tables import render_table

#: breakdown column of each layer tag (the STAT layers folded to three)
LAYER_COLUMNS = {"abap": "app", "rollin": "app", "rollout": "app",
                 "dbif": "dbif", "engine": "engine", "commit": "engine"}


@dataclass
class QueryBreakdown:
    """Layer decomposition of one power-test query."""

    name: str
    variant: str
    total_s: float
    app_s: float
    dbif_s: float
    engine_s: float
    disk_s: float
    roundtrips: float = 0
    dbif_calls: int = 0
    tuples_shipped: float = 0
    failed: bool = False

    def to_dict(self) -> dict:
        return {
            "query": self.name,
            "variant": self.variant,
            "total_s": self.total_s,
            "app_server_s": self.app_s,
            "dbif_s": self.dbif_s,
            "engine_s": self.engine_s,
            "disk_s": self.disk_s,
            "roundtrips": self.roundtrips,
            "dbif_calls": self.dbif_calls,
            "tuples_shipped": self.tuples_shipped,
            "failed": self.failed,
        }


@dataclass
class OperatorTotals:
    """One operator label aggregated across plans and executions."""

    label: str
    loops: int = 0
    rows_out: int = 0
    pages_read: float = 0.0
    inclusive_s: float = 0.0
    exclusive_s: float = 0.0
    plans: int = 0

    def to_dict(self) -> dict:
        return {
            "operator": self.label,
            "plans": self.plans,
            "loops": self.loops,
            "rows_out": self.rows_out,
            "pages_read": self.pages_read,
            "inclusive_s": self.inclusive_s,
            "exclusive_s": self.exclusive_s,
        }


class _LayerSums:
    """Seconds that tagged spans moved into and out of each column."""

    __slots__ = ("entered", "left", "dbif_calls")

    def __init__(self) -> None:
        self.entered = {"app": 0.0, "dbif": 0.0, "engine": 0.0}
        self.left = {"app": 0.0, "dbif": 0.0, "engine": 0.0}
        self.dbif_calls = 0


class TraceAnalyzer:
    """Aggregations over one tracer's span tree."""

    def __init__(self, tracer) -> None:
        #: a Tracer or any object with ``roots``/``iter_spans``
        self.tracer = tracer

    # -- layer breakdowns --------------------------------------------------

    def query_breakdowns(self) -> list[QueryBreakdown]:
        """One row per ``power.query`` span, in execution order."""
        out = []
        for span in self.tracer.iter_spans():
            if span.name != "power.query":
                continue
            sums = _LayerSums()
            column = LAYER_COLUMNS.get(span.layer, "app")
            self._collect_children(span.children, column, sums)
            total = span.elapsed_s
            seconds = {name: sums.entered[name] - sums.left[name]
                       for name in sums.entered}
            seconds[column] += total
            out.append(QueryBreakdown(
                name=str(span.attrs.get("name", "?")),
                variant=str(span.attrs.get("variant", "?")),
                total_s=total,
                app_s=seconds["app"],
                dbif_s=seconds["dbif"],
                engine_s=seconds["engine"],
                disk_s=span.counters.get("disk.time_s", 0.0),
                roundtrips=span.counters.get("dbif.roundtrips", 0),
                dbif_calls=sums.dbif_calls,
                tuples_shipped=span.counters.get("dbif.tuples_shipped", 0),
                failed=bool(span.attrs.get("failed", False)),
            ))
        return out

    def _collect(self, span, column: str, sums: _LayerSums) -> None:
        """Move ``span``'s time into its layer's column if that differs
        from ``column``, the column of the enclosing layer."""
        inner = LAYER_COLUMNS.get(span.layer, column)
        if span.layer == "dbif":
            sums.dbif_calls += 1
        if inner != column:
            sums.entered[inner] += span.elapsed_s
            sums.left[column] += span.elapsed_s
        self._collect_children(span.children, inner, sums)

    def _collect_children(self, children, column: str,
                          sums: _LayerSums) -> None:
        """Walk child spans; concurrent siblings contribute max, not sum.

        Worker-lane spans (``parallel=True``) under one parent ran
        concurrently on the simulated time axis, so adding their layer
        seconds would overcount against the parent's wall-clock.  Lane
        siblings are grouped by their ``phase`` attribute (a barrier
        separates phases, making phases sequential) and each group
        folds its per-lane time fields via max — the straggler lane
        sets the group's contribution — while discrete counts such as
        ``dbif_calls`` still add across lanes.
        """
        lane_groups: dict[object, list] = {}
        for child in children:
            if child.attrs.get("parallel"):
                lane_groups.setdefault(
                    child.attrs.get("phase"), []).append(child)
            else:
                self._collect(child, column, sums)
        for lanes in lane_groups.values():
            per_lane = []
            for lane in lanes:
                lane_sums = _LayerSums()
                self._collect(lane, column, lane_sums)
                per_lane.append(lane_sums)
            for name in sums.entered:
                sums.entered[name] += max(s.entered[name] for s in per_lane)
                sums.left[name] += max(s.left[name] for s in per_lane)
            sums.dbif_calls += sum(s.dbif_calls for s in per_lane)

    # -- operator profiles -------------------------------------------------

    def top_operators(self, n: int = 10) -> list[OperatorTotals]:
        """Hottest plan operators by exclusive simulated time.

        Profiles accumulate across executions of a cached plan and the
        same profile object is attached to every execution span of that
        plan, so aggregation dedupes by object identity first.
        """
        seen: set[int] = set()
        totals: dict[str, OperatorTotals] = {}
        for span in self.tracer.iter_spans():
            if span.name != "db.query":
                continue
            profile = span.attrs.get("profile")
            if profile is None or id(profile) in seen:
                continue
            seen.add(id(profile))
            for node in profile.walk():
                entry = totals.setdefault(node.label,
                                          OperatorTotals(node.label))
                entry.plans += 1
                entry.loops += node.loops
                entry.rows_out += node.rows_out
                entry.pages_read += node.pages_read
                entry.inclusive_s += node.inclusive_s
                entry.exclusive_s += node.exclusive_s
        ranked = sorted(totals.values(), key=lambda t: -t.exclusive_s)
        return ranked[:n]

    # -- summaries ---------------------------------------------------------

    def summary(self, top: int = 10) -> dict:
        """JSON-ready dict: per-query breakdowns + hottest operators."""
        breakdowns = self.query_breakdowns()
        return {
            "queries": [b.to_dict() for b in breakdowns],
            "totals": self._totals(breakdowns),
            "top_operators": [o.to_dict() for o in self.top_operators(top)],
            "span_count": sum(1 for _ in self.tracer.iter_spans()),
        }

    @staticmethod
    def _totals(breakdowns: list[QueryBreakdown]) -> dict:
        return {
            "total_s": sum(b.total_s for b in breakdowns),
            "app_server_s": sum(b.app_s for b in breakdowns),
            "dbif_s": sum(b.dbif_s for b in breakdowns),
            "engine_s": sum(b.engine_s for b in breakdowns),
            "disk_s": sum(b.disk_s for b in breakdowns),
            "roundtrips": sum(b.roundtrips for b in breakdowns),
        }

    def render_text(self, top: int = 10, title: str | None = None) -> str:
        """The ST05-style text report (per-query layers + hot operators)."""
        breakdowns = self.query_breakdowns()
        rows = []
        for b in breakdowns:
            rows.append([
                b.name + (" !" if b.failed else ""),
                _seconds(b.total_s), _seconds(b.app_s), _seconds(b.dbif_s),
                _seconds(b.engine_s), _seconds(b.disk_s),
                f"{int(b.roundtrips):,}",
            ])
        totals = self._totals(breakdowns)
        rows.append([
            "Total", _seconds(totals["total_s"]),
            _seconds(totals["app_server_s"]), _seconds(totals["dbif_s"]),
            _seconds(totals["engine_s"]), _seconds(totals["disk_s"]),
            f"{int(totals['roundtrips']):,}",
        ])
        table = render_table(
            ["Query", "Total s", "App-server s", "DBIF s", "Engine s",
             "of which Disk s", "Round trips"],
            rows, title=title,
        )
        lines = [table, "",
                 f"Top {top} operators by exclusive simulated time:"]
        op_rows = []
        for i, op in enumerate(self.top_operators(top), 1):
            op_rows.append([
                str(i), op.label, f"{op.loops:,}", f"{op.rows_out:,}",
                f"{op.pages_read:,.0f}", _seconds(op.exclusive_s),
                _seconds(op.inclusive_s),
            ])
        if op_rows:
            lines.append(render_table(
                ["#", "Operator", "Loops", "Rows out", "Pages",
                 "Excl s", "Incl s"], op_rows))
        else:
            lines.append("  (no operator profiles in this trace)")
        return "\n".join(lines)


def _seconds(value: float) -> str:
    return f"{value:,.3f}"
