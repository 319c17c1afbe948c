"""ASCII reporting helpers for the experiment drivers.

Every experiment prints a *paper vs measured* table so runs are directly
comparable with the published figures; EXPERIMENTS.md records one full run.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["format_table", "ascii_bars"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    rendered_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_bars(
    values: Mapping[str, float],
    width: int = 40,
    title: str | None = None,
) -> str:
    """Render a horizontal ASCII bar chart (the terminal stand-in for the
    paper's bar figures).

    >>> print(ascii_bars({"a": 1.0, "b": 2.0}, width=4))
    a  ##    1.000
    b  ####  2.000
    """
    if not values:
        return title or ""
    peak = max(values.values())
    if peak <= 0:
        peak = 1.0
    label_width = max(len(k) for k in values)
    lines = [title] if title else []
    for key, value in values.items():
        bar = "#" * max(1, round(width * value / peak)) if value > 0 else ""
        lines.append(f"{key.ljust(label_width)}  {bar.ljust(width)}  {value:.3f}")
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}" if abs(cell) < 100 else f"{cell:.0f}"
    return str(cell)
