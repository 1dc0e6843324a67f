"""Result formatting: aligned text tables, CSV and JSON documents, shared by
all experiments."""

from __future__ import annotations

import json
from collections.abc import Sequence

Cell = "str | int | float | None"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    float_format: str = "{:.2f}",
) -> str:
    """Render rows as an aligned monospace table.

    ``None`` cells render as ``-`` (the harness uses this for excluded
    framework/model combinations, mirroring the gaps in the paper's
    Figure 2).
    """

    def render(cell: object) -> str:
        if cell is None:
            return "-"
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[col])), *(len(row[col]) for row in rendered))
        if rendered else len(str(headers[col]))
        for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as CSV (empty cell for ``None``)."""

    def render(cell: object) -> str:
        if cell is None:
            return ""
        text = str(cell)
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(str(h) for h in headers)]
    for row in rows:
        lines.append(",".join(render(cell) for cell in row))
    return "\n".join(lines)


def save_document(path: str, document: dict) -> None:
    """Write a benchmark document as JSON: 2-space indent, sorted keys."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
