"""Plain-text tables and series formatting for experiment drivers.

Every experiment driver prints the rows/series the corresponding paper
table or figure reports; these helpers keep the formatting consistent and
dependency-free (no plotting libraries are assumed to be available).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


def format_table(headers: list[str], rows: Iterable[Iterable], title: str | None = None) -> str:
    """Render a simple fixed-width text table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(series: Mapping, name: str, unit: str = "") -> str:
    """Render a ``x -> value`` series on one line."""
    parts = [f"{key}: {_fmt(value)}{unit}" for key, value in series.items()]
    return f"{name}: " + ", ".join(parts)


def _fmt(value) -> str:
    """Human-friendly cell formatting."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)
