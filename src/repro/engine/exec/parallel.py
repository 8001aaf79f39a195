"""Parallel execution operators: partition scans, exchanges, fragments.

A parallel plan contains *fragments*: subtrees executed by N worker
lanes over partitioned inputs, stitched back into the serial plan by an
exchange.  The operators here are:

* :class:`PartitionScan` — scans one partition of a
  :class:`~repro.engine.parallel.partition.PartitionedHeap` through the
  buffer pool under the partition's virtual file name;
* :class:`Gather` — the exchange that runs one operator tree per lane
  (each under its own :class:`~repro.sim.clock.LaneSink`) and merges
  their outputs at the coordinator, advancing the global clock by the
  slowest lane plus coordination overhead;
* :class:`PartialAggregate` / :class:`FinalAggregate` — two-phase
  aggregation: lanes fold their partition into per-group accumulator
  states, the coordinator merges states and emits final values;
* :class:`Repartition` — hash-routing of keyed rows to lanes (the
  shuffle used by the repartition join strategy);
* :class:`ParallelHashJoin` — partitioned hash join; the build side is
  executed serially once, then either **broadcast** (every lane builds
  the full table and probes its own partition) or **repartitioned**
  (build and probe rows shuffled by join-key hash; each lane joins one
  hash bucket, with a barrier between shuffle and probe phases).

Every lane's operator tree is a distinct object tree, so EXPLAIN
ANALYZE profiling attaches per lane and reports per-lane rows/pages.
Lane spans are recorded as ``parallel=True`` siblings under one
``exec.fragment`` span; because lane time is lane-local, the spans come
out as overlapping concurrent windows whose max — not sum — equals the
fragment's elapsed time.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.engine.exec.aggregate import _COUNT_STAR, _AggState
from repro.engine.exec.base import ExecContext, Operator
from repro.engine.expr import AggCall, Expr, OutputSchema, predicate_holds
from repro.engine.parallel.lanes import LaneSet
from repro.engine.parallel.partition import (
    PartitionManager,
    PartitionSpec,
    stable_hash,
)
from repro.engine.table import Table


def key_hash(key: tuple, seed: int = 0) -> int:
    """Deterministic hash of a multi-column key (CRC chain)."""
    h = seed
    for value in key:
        h = stable_hash(value, h)
    return h


class PartitionScan(Operator):
    """Scan one partition of a table, with an optional pushed filter.

    The partition overlay is resolved at *execution* time through the
    :class:`PartitionManager`, so a plan cached across DML (the cursor
    cache) always scans a current snapshot.  Page reads charge the
    buffer pool under the partition's virtual file name; rows deleted
    since the snapshot resolve to tombstones and are skipped without
    shifting any sibling partition's rowids or page counts.
    """

    def __init__(
        self,
        ctx: ExecContext,
        manager: PartitionManager,
        table: Table,
        spec: PartitionSpec,
        lane_index: int,
        alias: str | None = None,
        predicate: Expr | None = None,
    ) -> None:
        from repro.engine.exec.scans import table_schema

        super().__init__(ctx, table_schema(table, alias))
        self.manager = manager
        self.table = table
        self.spec = spec
        self.lane_index = lane_index
        self.predicate = predicate

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        partition = self.manager.get(self.table, self.spec) \
            .partitions[self.lane_index]
        heap = self.table.heap
        buffer_pool = self.ctx.buffer_pool
        metrics = self.ctx.metrics
        counter = f"table.{self.table.name}.tuples_scanned"
        predicate = self.predicate
        last_page = -1
        for local_slot, rowid in enumerate(partition.rowids):
            page = partition.page_of(local_slot)
            if page != last_page:
                last_page = page
                buffer_pool.access(partition.file_name, page, sequential=True)
            row = heap.get(rowid)
            if row is None:
                continue  # tombstoned since the partition snapshot
            metrics.count(counter)
            self.ctx.charge_tuples(1)
            if predicate is None or predicate_holds(predicate, row, params):
                yield row

    def describe(self) -> str:
        filt = " (filtered)" if self.predicate is not None else ""
        return (f"PartitionScan({self.table.name} "
                f"p{self.lane_index}/{self.spec.degree}{filt})")


class Gather(Operator):
    """Exchange: execute one operator tree per lane, merge at the top.

    Lanes run under charge redirection; the global clock advances by
    ``max(lane seconds) + coordination overhead`` at the barrier.  Each
    gathered row pays an exchange shipping cost inside its lane.
    """

    def __init__(self, ctx: ExecContext, lane_ops: list[Operator],
                 label: str = "Gather") -> None:
        super().__init__(ctx, lane_ops[0].schema)
        self.lane_ops = lane_ops
        self.label = label

    @property
    def degree(self) -> int:
        return len(self.lane_ops)

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        ctx = self.ctx
        if ctx.clock.redirected:
            # Already inside a lane (defensive: the planner never nests
            # fragments): run the lane trees inline, charges flow into
            # the enclosing lane.
            for op in self.lane_ops:
                yield from op.rows(params)
            return
        clock = ctx.clock
        ship_s = ctx.params.parallel_ship_tuple_s
        lanes = LaneSet(clock, self.degree)
        outputs: list[list[tuple]] = []
        with ctx.tracer.span("exec.fragment", operator=self.label,
                             degree=self.degree) as fragment:
            for index, op in enumerate(self.lane_ops):
                def work(op: Operator = op,
                         index: int = index) -> list[tuple]:
                    with ctx.tracer.span("exec.lane", lane=index,
                                         parallel=True) as lane_span:
                        rows = list(op.rows(params))
                        clock.charge(len(rows) * ship_s)
                        lane_span.set(rows=len(rows))
                    return rows
                outputs.append(lanes.run(index, work))
            fragment.set(lane_seconds=lanes.lane_seconds(),
                         skew=lanes.skew(),
                         rows=sum(len(rows) for rows in outputs))
            lanes.barrier()
            clock.charge(ctx.params.parallel_fragment_overhead_s
                         + self.degree * ctx.params.parallel_lane_start_s)
        for rows in outputs:
            yield from rows

    def describe(self) -> str:
        return f"{self.label}(degree={self.degree})"

    def child_operators(self) -> list[Operator]:
        return list(self.lane_ops)


class PartialAggregate(Operator):
    """Lane-local aggregation emitting mergeable accumulator states.

    Output layout: group values first, then one state tuple
    ``(count, total, minimum, maximum)`` per aggregate call.  DISTINCT
    aggregates are not mergeable this way; the planner keeps them
    serial.  With no group expressions each lane emits exactly one
    state row, even over empty input, so the final phase always sees
    ``degree`` partials for a global aggregate.
    """

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        group_exprs: list[Expr],
        agg_calls: list[AggCall],
    ) -> None:
        entries: list[tuple[str | None, str]] = []
        entries.extend((None, f"_g{i}") for i in range(len(group_exprs)))
        entries.extend((None, f"_s{i}") for i in range(len(agg_calls)))
        super().__init__(ctx, OutputSchema(entries))
        assert not any(call.distinct for call in agg_calls), \
            "DISTINCT aggregates cannot be partially aggregated"
        self.child = child
        self.group_exprs = group_exprs
        self.agg_calls = agg_calls

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        groups: dict[tuple, list[_AggState]] = {}
        order: list[tuple] = []
        for row in self.child.rows(params):
            self.ctx.charge_tuples(1)
            key = tuple(expr.eval(row, params) for expr in self.group_exprs)
            states = groups.get(key)
            if states is None:
                states = [
                    _AggState(call.func, False) for call in self.agg_calls
                ]
                groups[key] = states
                order.append(key)
            for call, state in zip(self.agg_calls, states):
                if call.arg is None:
                    state.add(_COUNT_STAR)
                else:
                    state.add(call.arg.eval(row, params))
        if not self.group_exprs and not groups:
            states = [_AggState(call.func, False) for call in self.agg_calls]
            groups[()] = states
            order.append(())
        for key in order:
            self.ctx.charge_tuples(1)
            yield key + tuple(
                (s.count, s.total, s.minimum, s.maximum)
                for s in groups[key]
            )

    def describe(self) -> str:
        return (f"PartialAggregate(groups={len(self.group_exprs)}, "
                f"aggs={len(self.agg_calls)})")

    def child_operators(self) -> list[Operator]:
        return [self.child]


class FinalAggregate(Operator):
    """Merge partial aggregation states into final values.

    Consumes the gathered partial rows (group values + state tuples)
    and emits the same layout as :class:`GroupAggregate`: group values
    first, aggregate results after.
    """

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        group_count: int,
        agg_calls: list[AggCall],
    ) -> None:
        entries: list[tuple[str | None, str]] = []
        entries.extend((None, f"_g{i}") for i in range(group_count))
        entries.extend((None, f"_a{i}") for i in range(len(agg_calls)))
        super().__init__(ctx, OutputSchema(entries))
        self.child = child
        self.group_count = group_count
        self.agg_calls = agg_calls

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        merged: dict[tuple, list[_AggState]] = {}
        order: list[tuple] = []
        for row in self.child.rows(params):
            self.ctx.charge_tuples(1)
            key = row[:self.group_count]
            states = merged.get(key)
            if states is None:
                states = [
                    _AggState(call.func, False) for call in self.agg_calls
                ]
                merged[key] = states
                order.append(key)
            for state, packed in zip(states, row[self.group_count:]):
                count, total, minimum, maximum = packed
                state.count += count
                state.total += total
                if minimum is not None and (state.minimum is None
                                            or minimum < state.minimum):
                    state.minimum = minimum
                if maximum is not None and (state.maximum is None
                                            or maximum > state.maximum):
                    state.maximum = maximum
        if not self.group_count and not merged:
            states = [_AggState(call.func, False) for call in self.agg_calls]
            yield tuple(state.result() for state in states)
            return
        for key in order:
            self.ctx.charge_tuples(1)
            yield key + tuple(state.result() for state in merged[key])

    def describe(self) -> str:
        return (f"FinalAggregate(groups={self.group_count}, "
                f"aggs={len(self.agg_calls)})")

    def child_operators(self) -> list[Operator]:
        return [self.child]


class Repartition:
    """Hash-route keyed rows into per-lane buckets (the shuffle).

    Charges one exchange ship per routed row on whatever clock context
    is active — a lane's sink during a parallel shuffle phase, the
    global clock when the coordinator splits the build side.
    """

    def __init__(self, ctx: ExecContext, degree: int, seed: int = 0) -> None:
        self.ctx = ctx
        self.degree = degree
        self.seed = seed

    def route(
        self, keyed_rows: Iterator[tuple[tuple, tuple]]
    ) -> list[list[tuple[tuple, tuple]]]:
        buckets: list[list[tuple[tuple, tuple]]] = [
            [] for _ in range(self.degree)
        ]
        count = 0
        for key, row in keyed_rows:
            buckets[key_hash(key, self.seed) % self.degree].append((key, row))
            count += 1
        self.ctx.clock.charge(
            count * (self.ctx.params.tuple_cpu_s
                     + self.ctx.params.parallel_ship_tuple_s))
        self.ctx.metrics.count("parallel.repartitioned_rows", count)
        return buckets


class ParallelHashJoin(Operator):
    """Partitioned hash join fragment (broadcast or repartition).

    The build side runs serially at the coordinator (it is the smaller
    input by the optimizer's choice).  Probe lanes then join in
    parallel:

    * ``broadcast`` — every lane receives the whole build table and
      probes its own partition; chosen when the build side is small.
    * ``repartition`` — build rows are hash-split by join key at the
      coordinator; each lane shuffles its probe partition by the same
      hash (phase 1), then builds and probes one bucket (phase 2),
      with a lane barrier between the phases.
    """

    def __init__(
        self,
        ctx: ExecContext,
        build_op: Operator,
        probe_lane_ops: list[Operator],
        build_key_positions: list[int],
        probe_key_positions: list[int],
        probe_is_left: bool,
        strategy: str,
        residual: Expr | None = None,
        seed: int = 0,
    ) -> None:
        probe_schema = probe_lane_ops[0].schema
        if probe_is_left:
            schema = probe_schema.concat(build_op.schema)
        else:
            schema = build_op.schema.concat(probe_schema)
        super().__init__(ctx, schema)
        assert strategy in ("broadcast", "repartition")
        self.build_op = build_op
        self.probe_lane_ops = probe_lane_ops
        self.build_key_positions = build_key_positions
        self.probe_key_positions = probe_key_positions
        self.probe_is_left = probe_is_left
        self.strategy = strategy
        self.residual = residual
        self.seed = seed

    @property
    def degree(self) -> int:
        return len(self.probe_lane_ops)

    # -- helpers ---------------------------------------------------------

    def _build_rows(self, params: Sequence[object]) \
            -> list[tuple[tuple, tuple]]:
        keyed = []
        for row in self.build_op.rows(params):
            key = tuple(row[pos] for pos in self.build_key_positions)
            if any(value is None for value in key):
                continue
            keyed.append((key, row))
        self.ctx.charge_tuples(len(keyed))
        return keyed

    def _probe_one(
        self,
        buckets: dict[tuple, list[tuple]],
        probe_rows: Iterator[tuple[tuple, tuple]],
        params: Sequence[object],
        out: list[tuple],
    ) -> None:
        for key, probe_row in probe_rows:
            self.ctx.charge_tuples(1)
            for build_row in buckets.get(key, ()):
                if self.probe_is_left:
                    combined = probe_row + build_row
                else:
                    combined = build_row + probe_row
                if self.residual is None or predicate_holds(
                        self.residual, combined, params):
                    self.ctx.charge_tuples(1)
                    out.append(combined)

    def _keyed_probe(self, op: Operator, params: Sequence[object]) \
            -> Iterator[tuple[tuple, tuple]]:
        for row in op.rows(params):
            key = tuple(row[pos] for pos in self.probe_key_positions)
            if any(value is None for value in key):
                continue
            yield key, row

    @staticmethod
    def _hash_table(keyed: list[tuple[tuple, tuple]]) \
            -> dict[tuple, list[tuple]]:
        table: dict[tuple, list[tuple]] = {}
        for key, row in keyed:
            table.setdefault(key, []).append(row)
        return table

    # -- execution -------------------------------------------------------

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        ctx = self.ctx
        clock = ctx.clock
        p = ctx.params
        build_keyed = self._build_rows(params)
        if clock.redirected:
            # Defensive serial fallback (fragments never nest): probe
            # every partition against the full build table inline.
            table = self._hash_table(build_keyed)
            out: list[tuple] = []
            for op in self.probe_lane_ops:
                self._probe_one(table, self._keyed_probe(op, params),
                                params, out)
            yield from out
            return
        degree = self.degree
        lanes = LaneSet(clock, degree)
        outputs: list[list[tuple]] = [[] for _ in range(degree)]
        with ctx.tracer.span("exec.fragment", operator="ParallelHashJoin",
                             strategy=self.strategy, degree=degree) as fragment:
            if self.strategy == "broadcast":
                for index, probe in enumerate(self.probe_lane_ops):
                    def work(index: int = index,
                             probe: Operator = probe) -> None:
                        with ctx.tracer.span("exec.lane", lane=index,
                                             parallel=True) as lane_span:
                            # Receiving the broadcast copy + building.
                            clock.charge(len(build_keyed)
                                         * (p.tuple_cpu_s
                                            + p.parallel_ship_tuple_s))
                            table = self._hash_table(build_keyed)
                            self._probe_one(
                                table, self._keyed_probe(probe, params),
                                params, outputs[index])
                            lane_span.set(rows=len(outputs[index]))
                    lanes.run(index, work)
                lanes.barrier()
            else:
                build_shards = Repartition(ctx, degree, self.seed) \
                    .route(iter(build_keyed))
                shuffled: list[list[list[tuple[tuple, tuple]]]] = [
                    [[] for _ in range(degree)] for _ in range(degree)
                ]

                def shuffle(index: int, probe: Operator) -> None:
                    with ctx.tracer.span("exec.lane", lane=index, phase=1,
                                         parallel=True):
                        shuffled[index][:] = Repartition(
                            ctx, degree, self.seed
                        ).route(self._keyed_probe(probe, params))

                def probe_bucket(index: int) -> None:
                    with ctx.tracer.span("exec.lane", lane=index, phase=2,
                                         parallel=True) as lane_span:
                        table = self._hash_table(build_shards[index])
                        clock.charge(len(build_shards[index])
                                     * p.tuple_cpu_s)
                        for source in range(degree):
                            self._probe_one(
                                table, iter(shuffled[source][index]),
                                params, outputs[index])
                        lane_span.set(rows=len(outputs[index]))

                for index, probe in enumerate(self.probe_lane_ops):
                    lanes.run(index, lambda i=index, op=probe: shuffle(i, op))
                lanes.barrier()
                for index in range(degree):
                    lanes.run(index, lambda i=index: probe_bucket(i))
                lanes.barrier()
            clock.charge(p.parallel_fragment_overhead_s
                         + degree * p.parallel_lane_start_s)
            total = sum(len(rows) for rows in outputs)
            clock.charge(total * p.parallel_ship_tuple_s)
            fragment.set(lane_seconds=lanes.lane_seconds(),
                         skew=lanes.skew(), rows=total,
                         build_rows=len(build_keyed))
        for rows in outputs:
            yield from rows

    def describe(self) -> str:
        return f"ParallelHashJoin({self.strategy}, degree={self.degree})"

    def child_operators(self) -> list[Operator]:
        return [self.build_op] + list(self.probe_lane_ops)
