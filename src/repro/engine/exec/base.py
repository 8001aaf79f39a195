"""Operator base class and execution context."""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.engine.buffer import BufferPool
from repro.engine.expr import OutputSchema
from repro.sim.clock import SimulatedClock
from repro.sim.metrics import MetricsCollector
from repro.sim.params import SimParams
from repro.trace.tracer import Tracer

#: rough in-memory width used for spill decisions on derived rows
ESTIMATED_COLUMN_BYTES = 16


class ExecContext:
    """Shared execution services: clock, metrics, cost constants, buffer."""

    def __init__(
        self,
        clock: SimulatedClock,
        metrics: MetricsCollector,
        params: SimParams,
        buffer_pool: BufferPool,
    ) -> None:
        self.clock = clock
        self.metrics = metrics
        self.params = params
        self.buffer_pool = buffer_pool
        #: the tracer parallel fragments record lane spans into (the
        #: owning Database's; disabled until the Database enables it)
        self.tracer = Tracer(clock, metrics)
        self._spill_counter = 0

    def charge_tuples(self, count: int) -> None:
        if count:
            self.clock.charge(self.params.tuple_cpu_s * count)
            self.metrics.count("exec.tuples", count)

    def charge_comparisons(self, count: float) -> None:
        if count:
            self.clock.charge(self.params.sort_cmp_s * count)

    def spill_file_name(self, label: str) -> str:
        """Fresh scratch-file name for external sorts / grace hash."""
        self._spill_counter += 1
        return f"tmp:{label}:{self._spill_counter}"

    def charge_spill(self, byte_count: int, label: str) -> None:
        """Charge writing + re-reading ``byte_count`` bytes of scratch."""
        pages = self.params.pages_for_bytes(byte_count)
        file_name = self.spill_file_name(label)
        for page_no in range(pages):
            self.buffer_pool.write(file_name, page_no, fresh=True)
        for page_no in range(pages):
            self.buffer_pool.access(file_name, page_no, sequential=True)
        self.metrics.count("exec.spill_pages", pages * 2)

    def row_bytes(self, width: int) -> int:
        return width * ESTIMATED_COLUMN_BYTES


class Operator:
    """Base physical operator.

    ``schema`` names the output columns; ``rows(params)`` yields output
    tuples.  ``estimated_rows`` is filled by the planner for costing
    and for explain output.
    """

    def __init__(self, ctx: ExecContext, schema: OutputSchema) -> None:
        self.ctx = ctx
        self.schema = schema
        self.estimated_rows: float = 0.0

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.describe()}"]
        for child in self.child_operators():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__

    def child_operators(self) -> list["Operator"]:
        return []
