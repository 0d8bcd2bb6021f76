"""Plain-text table rendering for benchmark output.

The benches print tables shaped like the paper's reported results; this
keeps the formatting in one place — :func:`format_table` for the table,
:func:`comparison_report` for the table-plus-verdict shape the variant
comparisons (E11–E14) publish.
"""

from __future__ import annotations

from typing import Optional, Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(
                f"row {row!r} has {len(row)} cells, expected {columns}"
            )
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered
        else len(headers[i])
        for i in range(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def comparison_report(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: Sequence[str] = (),
    headlines: Sequence[str] = (),
    verdict: Optional[tuple[bool, str]] = None,
    violations: Sequence[object] = (),
) -> str:
    """Titled table, blank line, indented ``notes`` (the schedule), the
    ``headlines`` sentences, ``verdict: PASS|FAIL (detail)`` and one
    ``  ! `` line per violation."""
    lines = [format_table(headers, rows, title=title), ""]
    lines += [f"  {note}" for note in notes]
    lines += headlines
    if verdict is not None:
        ok, detail = verdict
        lines.append(f"verdict: {'PASS' if ok else 'FAIL'} ({detail})")
    lines += [f"  ! {violation}" for violation in violations]
    return "\n".join(lines)
