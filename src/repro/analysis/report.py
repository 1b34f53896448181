"""Plain-text rendering of experiment results.

The paper being a theory paper, its "tables" are the bounds and constructions
themselves; the benchmark harness regenerates them as rows of measurements.
This module renders lists of row dictionaries as aligned fixed-width text so
that benchmark output and ``EXPERIMENTS.md`` show the same tables.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["format_value", "render_table", "render_series"]

#: Significant digits of every rendered float.
_PRECISION = 4


def format_value(value: object) -> str:
    """Render one cell: floats to :data:`_PRECISION` digits, booleans as yes/no, rest via ``str``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return f"{value:.{_PRECISION}g}"
    if value is None:
        return "-"
    return str(value)


def render_table(
    rows: Sequence[Mapping[str, object]],
    title: str | None = None,
) -> str:
    """Render rows (dictionaries) as an aligned text table.

    Columns follow the key order of the first row.  Missing cells render as
    ``-``.
    """
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    columns = list(rows[0].keys())
    rendered_rows = [[format_value(row.get(column)) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(rendered[index]) for rendered in rendered_rows))
        for index, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for rendered in rendered_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(rendered, widths)))
    return "\n".join(lines)


def render_series(values: Iterable[float], label: str) -> str:
    """Render a numeric series on one line: ``label: v0, v1, ...``."""
    rendered = ", ".join(format_value(float(value)) for value in values)
    return f"{label}: {rendered}"
