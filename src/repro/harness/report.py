"""Plain-text table rendering for experiment reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def geomean(values: list[float]) -> float:
    """Geometric mean (the paper's aggregate for speedups).

    Args:
        values: positive values.

    Returns:
        Their geometric mean (0.0 for an empty list).
    """
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_cell(value) -> str:
    """Format one table cell."""
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


@dataclass
class Table:
    """A printable experiment table.

    Attributes:
        title: table caption (names the paper artifact it regenerates).
        headers: column names.
        rows: row cell values (any printable types).
    """

    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        """Append one row.

        Args:
            *cells: cell values, one per column.
        """
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells; table has {len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    def render(self) -> str:
        """Render the table as aligned plain text."""
        cells = [[format_cell(c) for c in row] for row in self.rows]
        widths = [
            max([len(h)] + [len(row[i]) for row in cells])
            for i, h in enumerate(self.headers)
        ]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def column(self, name: str) -> list:
        """Extract a column's raw values by header name."""
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def to_dict(self) -> dict:
        """JSON-serializable form: title, headers, and native-typed rows.

        Numpy scalars are converted to their Python equivalents so the
        result feeds ``json.dumps`` directly.
        """

        def native(cell):
            return cell.item() if hasattr(cell, "item") else cell

        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [[native(cell) for cell in row] for row in self.rows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Table":
        """Rebuild a table from its :meth:`to_dict` form.

        Rows go through :meth:`add_row`, so a row whose length does not
        match the headers raises ``ValueError``.  Attributes beyond the
        three serialized fields (Fig 17's ``curves``) are not restored.
        """
        title, headers, rows = data["title"], data["headers"], data["rows"]
        if not (
            isinstance(title, str)
            and isinstance(headers, list)
            and all(isinstance(h, str) for h in headers)
            and isinstance(rows, list)
            and all(isinstance(row, list) for row in rows)
        ):
            raise ValueError("malformed table: wrong field types")
        table = cls(title, headers)
        for row in rows:
            table.add_row(*row)
        return table

    def show(self) -> None:
        """Print the rendered table (with a trailing blank line)."""
        print(self.render())
        print()
