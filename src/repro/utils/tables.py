"""Plain-text table rendering for benchmark and CLI reports.

The benchmark harness prints every reproduced table/figure as an ASCII
table so the rows can be compared side by side with the paper.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_count(value: float | int) -> str:
    """Format a count with thousands separators (floats get 2 decimals)."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == int(value) and abs(value) >= 1000:
            return f"{int(value):,}"
        return f"{value:,.2f}"
    return str(value)


class Table:
    """A simple column-aligned ASCII table builder."""

    def __init__(self, columns: Sequence[str], title: str):
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add_row(self, values: Iterable) -> None:
        """Append a row; values are stringified with :func:`format_count`."""
        row = [format_count(v) if isinstance(v, (int, float)) else str(v) for v in values]
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        """Render the table as a string."""
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def render_row(cells: Sequence[str]) -> str:
            return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

        lines = [self.title, render_row(self.columns), "-+-".join("-" * w for w in widths)]
        lines.extend(render_row(row) for row in self.rows)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
