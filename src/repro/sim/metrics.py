"""Named operation counters with scoped snapshots.

Every layer of the stack counts what it does (pages read, tuples
shipped, round trips, cache hits, ...).  Counters feed both the
simulated clock (via the calibration table) and the experiment reports
(e.g. hit ratios in the paper's Table 8).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator


class MetricsSnapshot:
    """Delta view of a :class:`MetricsCollector` since snapshot creation."""

    def __init__(self, collector: "MetricsCollector") -> None:
        self._collector = collector
        self._base = Counter(collector._counts)

    def delta(self) -> dict[str, float]:
        """Counter deltas accumulated since the snapshot was taken.

        Counters that existed at the base but were reset or removed
        afterwards show up with a negative delta — a silent drop would
        make a ``reset()`` between snapshots look like "nothing
        happened".  Keys come in a fixed order — current counters in
        insertion order, then base-only ones — so a serialised delta is
        the same bytes under every hash seed.
        """
        current = self._collector._counts
        out: dict[str, float] = {}
        for name in dict.fromkeys([*current, *self._base]):
            change = current.get(name, 0) - self._base.get(name, 0)
            if change:
                out[name] = change
        return out

    def get(self, name: str) -> float:
        return self._collector._counts.get(name, 0) - self._base.get(name, 0)


class MetricsScope:
    """Context manager freezing the counter deltas over a ``with`` block.

    After exit, :attr:`delta` holds the per-counter changes accumulated
    inside the block.  The tracer uses one scope per span to attach
    counter deltas (round trips, pages, shipped tuples) to the span.
    """

    def __init__(self, collector: "MetricsCollector") -> None:
        self._collector = collector
        self._snapshot: MetricsSnapshot | None = None
        self.delta: dict[str, float] = {}

    def __enter__(self) -> "MetricsScope":
        self._snapshot = self._collector.snapshot()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._snapshot is not None
        self.delta = self._snapshot.delta()

    def get(self, name: str) -> float:
        if self._snapshot is None:
            return 0
        return self._snapshot.get(name)


class MetricsCollector:
    """A bag of named, monotonically increasing counters."""

    def __init__(self) -> None:
        self._counts: Counter[str] = Counter()

    def count(self, name: str, amount: float = 1) -> None:
        """Increase counter ``name`` by ``amount`` (default 1)."""
        self._counts[name] += amount

    def get(self, name: str) -> float:
        return self._counts.get(name, 0)

    def snapshot(self) -> MetricsSnapshot:
        """Mark the current state; deltas are measured against it."""
        return MetricsSnapshot(self)

    def scoped(self) -> MetricsScope:
        """Scope counters over a ``with`` block (see :class:`MetricsScope`)."""
        return MetricsScope(self)

    def all(self) -> dict[str, float]:
        return dict(self._counts)

    def reset(self) -> None:
        self._counts.clear()

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self._counts.items()))
