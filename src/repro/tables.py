"""Monospace tables, free of ``repro`` imports so that every layer (the
monitor, the trace analyzer, the chaos reports, the harness) can print."""

from __future__ import annotations

from typing import Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str | None = None) -> str:
    """Monospace table renderer (right-aligned numeric columns)."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def kb_cell(byte_count: int) -> str:
    return f"{byte_count // 1024:,}"
