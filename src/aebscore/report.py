"""Report rendering: scenario-score tables and relativity matrices.

Score tables put scenarios in rows and vehicles in columns; each cell shows
``mean±std`` trimmed to two decimals, or ``NA`` where the protocol does not
license the (scenario, light) instance. Matrix tables are ranked best to
worst in both dimensions; cells show the relative score as a percentage with
two decimals, a literal ``inf`` for comparisons against a zero score, and
``0.00%`` on the diagonal, formatted a row per call.

CSV is the authoritative output; markdown and HTML are presentational (the
HTML matrices add a red-green diverging shade anchored at zero). Markdown
escapes a backslash or pipe in a cell and writes a line break as ``<br>``.
"""

from __future__ import annotations

import csv
import html
import math
from itertools import zip_longest
from types import SimpleNamespace
from typing import Iterable, Mapping, NamedTuple

from .aggregate import METRIC_FREQ, RelativityMatrix, ScoreValue
from .campaign import CompletionStats, vehicle_sort_key
from .protocol import ProtocolDefinition
from .scoring import ScenarioScore

FORMATS = ("csv", "markdown", "html")
EXTENSIONS = {"csv": "csv", "markdown": "md", "html": "html"}

NA_CELL = "NA"
INF_CELL = "inf"
_INFINITIES = (math.inf, -math.inf)


def format_number(value: float) -> str:
    """Two decimals with trailing zeros trimmed: 0.9, 0.07, 0, 1."""
    rounded = round(value, 2)
    if rounded == 0:
        return "0"
    return f"{rounded:.2f}".rstrip("0").rstrip(".")


def format_score_cell(score: ScoreValue | None) -> str:
    if score is None:
        return NA_CELL
    return f"{format_number(score.mean)}±{format_number(score.std)}"


def format_percent_row(values: Iterable[float]) -> tuple[str, ...]:
    """Each relativity as a percentage with two decimals, or a literal ``inf``."""
    return tuple([INF_CELL if v in _INFINITIES else "%.2f%%" % (v * 100.0) for v in values])


class Table(NamedTuple):
    """A rendered-table skeleton: title, corner label, headers, rows."""

    title: str
    corner: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, tuple[str, ...]], ...]
    # values the HTML rendering shades, one tuple per row; colours are computed there
    shading: tuple[tuple[float, ...], ...] | None = None


def score_table(
    scores: Iterable[ScenarioScore],
    protocol: ProtocolDefinition,
    metric: str,
    light: str,
    region: str,
) -> Table:
    """Appendix-style scenario/vehicle grid of mean±std cells for one light."""
    relevant = [s for s in scores if s.light == light]
    vehicles = sorted({s.vehicle for s in relevant}, key=vehicle_sort_key)
    by_key = {(s.scenario, s.vehicle): s for s in relevant}
    rows = []
    for spec in protocol.scenarios:
        cells = []
        for vehicle in vehicles:
            score = by_key.get((spec.code, vehicle))
            value = None
            if score is not None and not score.not_applicable:
                value = score.fs if metric == METRIC_FREQ else score.mps
            cells.append(format_score_cell(value))
        rows.append((spec.code, tuple(cells)))
    title = score_title(metric, light, region)
    return Table(title=title, corner="MODEL", columns=tuple(vehicles), rows=tuple(rows))


def score_title(metric: str, light: str, region: str) -> str:
    """The title of a score table; only this differs between regions."""
    name = "FREQ_SCORE_MEAN" if metric == METRIC_FREQ else "MIT_POW"
    return f"{name}_{light.upper()}_{region.upper()}"


def matrix_table(matrix: RelativityMatrix) -> Table:
    """Ranked pairwise relativity grid; HTML shades it from the matrix rows."""
    rows = tuple([(x, format_percent_row(values)) for x, values in zip(matrix.order, matrix.rows)])
    metric_name = "FREQ" if matrix.metric == METRIC_FREQ else "MP"
    title = f"REL_{metric_name}_{matrix.group.value}_{matrix.region.upper()}"
    return Table(title=title, corner="", columns=matrix.order, rows=rows, shading=matrix.rows)


def completion_table(stats: Mapping[str, CompletionStats]) -> Table:
    rows = []
    for vehicle in sorted(stats, key=vehicle_sort_key):
        s = stats[vehicle]
        rows.append(
            (vehicle, (str(s.expected), str(s.executed), str(s.judged), f"{s.completion_percent}%"))
        )
    return Table(
        title="COMPLETION",
        corner="vehicle",
        columns=("expected", "executed", "judged", "completion_percent"),
        rows=tuple(rows),
    )


def _diverging_color(value: float) -> str:
    """White at zero, saturating to green at +100% and red at -100%."""
    t = 1.0 if math.isinf(value) else max(-1.0, min(1.0, value))
    if t >= 0:
        r, g, b = (int(255 - 155 * t), 255, int(255 - 155 * t))
    else:
        r, g, b = (255, int(255 + 155 * t), int(255 + 155 * t))
    return f"#{r:02x}{g:02x}{b:02x}"


def render(table: Table, fmt: str) -> str:
    if fmt == "csv":
        return to_csv(table)
    if fmt == "markdown":
        return to_markdown(table)
    if fmt == "html":
        return to_html(table)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def to_csv(table: Table) -> str:
    # writerow returns what the file's write returns: here, the line itself. The
    # "\r" in its terminator makes it quote a cell holding one; lines end in "\n".
    encode = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n").writerow
    head = [[table.title] + [""] * len(table.columns), [table.corner, *table.columns]]
    rows = head + [[label, *cells] for label, cells in table.rows]
    return "".join(encode(row)[:-2] + "\n" for row in rows)


def to_markdown(table: Table) -> str:
    lines = [f"## {table.title}", ""]
    lines.append(_markdown_row([table.corner, *table.columns]))
    lines.append("|" + "---|" * (len(table.columns) + 1))
    for label, cells in table.rows:
        lines.append(_markdown_row([label, *cells]))
    return "\n".join(lines) + "\n"


def _markdown_row(cells: list[str]) -> str:
    """One table row: a cell's backslashes and pipes escaped, its line breaks as <br>."""
    cells = [c.replace("\\", "\\\\").replace("|", "\\|").replace("\r\n", "\n") for c in cells]
    return "| " + " | ".join([c.replace("\r", "<br>").replace("\n", "<br>") for c in cells]) + " |"


def to_html(table: Table) -> str:
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\">",
        f"<title>{html.escape(table.title)}</title>",
        "<style>",
        "table { border-collapse: collapse; font-family: sans-serif; }",
        "th, td { border: 1px solid #999; padding: 4px 8px; text-align: right; }",
        "th { background: #eee; }",
        "</style></head><body>",
        f"<h1>{html.escape(table.title)}</h1>",
        "<table>",
        "<tr>"
        + "".join(f"<th>{html.escape(h)}</th>" for h in (table.corner, *table.columns))
        + "</tr>",
    ]
    for (label, cells), values in zip(table.rows, table.shading or ((),) * len(table.rows)):
        cols = [f"<th>{html.escape(label)}</th>"]
        for cell, value in zip_longest(cells, values):
            style = "" if value is None else f' style="background-color:{_diverging_color(value)}"'
            cols.append(f"<td{style}>{html.escape(cell)}</td>")
        parts.append("<tr>" + "".join(cols) + "</tr>")
    parts.append("</table></body></html>")
    return "\n".join(parts) + "\n"
