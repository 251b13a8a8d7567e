"""Plain-text table rendering for experiment reports.

The benchmark harness prints the same rows the paper's tables report; this
module owns the formatting so tables V–VII and the figure-5 series all render
consistently (aligned columns, stable float formatting).
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["TextTable", "format_float", "format_si"]


def format_float(value: float, digits: int = 3) -> str:
    """Format a float with ``digits`` significant decimals, trimming noise.

    ``None`` and non-finite values render as ``-`` (the paper's tables use
    ``-`` for metrics that do not apply, e.g. |CoR| for TOTA).
    """
    if value is None:
        return "-"
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return "-"
    text = f"{value:.{digits}f}"
    return text


def format_si(value: float) -> str:
    """Format a count with k/M suffixes, e.g. ``2500 -> 2.5k``."""
    if value >= 1_000_000:
        return f"{value / 1_000_000:g}M"
    if value >= 1_000:
        return f"{value / 1_000:g}k"
    return f"{value:g}"


class TextTable:
    """A small aligned-text table builder.

    >>> table = TextTable(["Method", "Rev"])
    >>> table.add_row(["TOTA", 1.343])
    >>> print(table.render())  # doctest: +SKIP
    """

    def __init__(self, headers: Sequence[str], title: str | None = None):
        self.title = title
        self.headers = [str(header) for header in headers]
        self.rows: list[list[str]] = []

    def add_row(self, cells: Sequence[object]) -> None:
        """Append one row; cells are stringified (floats via format_float)."""
        rendered = []
        for cell in cells:
            if isinstance(cell, float):
                rendered.append(format_float(cell))
            elif cell is None:
                rendered.append("-")
            else:
                rendered.append(str(cell))
        if len(rendered) != len(self.headers):
            raise ValueError(
                f"row has {len(rendered)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(rendered)

    def _column_widths(self) -> list[int]:
        widths = [len(header) for header in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        return widths

    def render(self) -> str:
        """Render as an aligned plain-text table."""
        widths = self._column_widths()
        lines = []
        if self.title:
            lines.append(self.title)
        header_line = "  ".join(
            header.ljust(width) for header, width in zip(self.headers, widths)
        )
        lines.append(header_line)
        lines.append("  ".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(
                "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            )
        return "\n".join(lines)
