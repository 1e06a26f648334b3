import math

import pytest

from aebscore.aggregate import GroupScore, build_matrix
from aebscore.protocol import ScenarioGroup
from aebscore.report import (
    format_number,
    format_percent_row,
    format_score_cell,
    matrix_table,
    render,
    score_table,
    to_csv,
    to_html,
    to_markdown,
)
from aebscore.scoring import ScenarioScore, ScoreValue
from reference import parse_csv, parse_percent_cell, parse_score_cell


def test_format_number_trims_trailing_zeros():
    assert format_number(0.9) == "0.9"
    assert format_number(0.07) == "0.07"
    assert format_number(0.0) == "0"
    assert format_number(1.0) == "1"
    assert format_number(0.875) == "0.88"
    assert format_number(0.001) == "0"


def test_format_score_cell():
    assert format_score_cell(None) == "NA"
    assert format_score_cell(ScoreValue(0.9, 0.83, 0.97)) == "0.9±0.06"
    assert format_score_cell(ScoreValue.zero()) == "0±0"
    assert format_score_cell(ScoreValue.constant(1.0)) == "1±0"


def test_format_percent_cell():
    assert format_percent_row((0.1286, -0.1139, 0.0, -1.0, math.inf, 17.9963)) == (
        "12.86%", "-11.39%", "0.00%", "-100.00%", "inf", "1799.63%"
    )


def test_cell_parsers_invert_formatters():
    mean, std = parse_score_cell("0.9±0.07")
    assert (mean, std) == (0.9, 0.07)
    assert parse_score_cell("NA") is None
    assert parse_percent_cell("12.86%") == pytest.approx(0.1286)
    assert parse_percent_cell("inf") == math.inf


def _scores():
    def sv(x, spread=0.0):
        return ScoreValue(x, x - spread, x + spread)

    return [
        ScenarioScore("1A", "CCRs", "day", sv(0.9, 0.1), sv(0.8), 32),
        ScenarioScore("1A", "CPLAs", "day", None, None, 0, True),
        ScenarioScore("2", "CCRs", "day", sv(0.0), sv(0.0), 32),
        ScenarioScore("2", "CPLAs", "day", None, None, 0, True),
    ]


def test_score_table_layout(protocol):
    table = score_table(_scores(), protocol, "freq", "day", "EU")
    assert table.title == "FREQ_SCORE_MEAN_DAY_EU"
    assert table.corner == "MODEL"
    assert table.columns == ("1A", "2")
    labels = [label for label, _ in table.rows]
    assert labels == [s.code for s in protocol.scenarios]
    cells = dict(zip(labels, (row for _, row in table.rows)))
    assert cells["CPLAs"] == ("NA", "NA")
    assert cells["CCRs"][1] == "0±0"
    # vehicles without a score for a scenario render as NA as well
    assert cells["Tire"] == ("NA", "NA")


def test_csv_round_trip_preserves_cells(protocol):
    table = score_table(_scores(), protocol, "MP", "day", "US")
    text = to_csv(table)
    parsed = parse_csv(text)
    assert parsed.title == "MIT_POW_DAY_US"
    assert parsed.columns == table.columns
    assert parsed.rows == table.rows


def _matrix():
    scores = {"6": 0.5, "7B": 0.4, "3": 0.0}
    group_scores = [
        GroupScore(v, ScenarioGroup.C2C, "EU", ScoreValue.constant(s), ScoreValue.constant(s))
        for v, s in scores.items()
    ]
    return build_matrix(group_scores, "freq")


def test_matrix_table_cells():
    table = matrix_table(_matrix())
    assert table.title == "REL_FREQ_C2C_EU"
    assert table.columns == ("6", "7B", "3")
    rows = dict((label, cells) for label, cells in table.rows)
    assert rows["6"] == ("0.00%", "25.00%", "inf")
    assert rows["7B"] == ("-20.00%", "0.00%", "inf")
    assert rows["3"] == ("-100.00%", "-100.00%", "0.00%")


def test_matrix_round_trip_reciprocity():
    table = matrix_table(_matrix())
    parsed = parse_csv(to_csv(table))
    cells = {}
    for label, row in parsed.rows:
        for header, cell in zip(parsed.columns, row):
            cells[(label, header)] = parse_percent_cell(cell)
    for x in parsed.columns:
        assert cells[(x, x)] == 0.0
        for y in parsed.columns:
            a, b = cells[(x, y)], cells[(y, x)]
            if x != y and math.isfinite(a) and math.isfinite(b):
                # rendered at 2 decimals of a percent
                assert abs((1 + a) * (1 + b) - 1) < 2e-3


def test_markdown_and_html_render(protocol):
    table = score_table(_scores(), protocol, "freq", "day", "EU")
    md = to_markdown(table)
    assert md.startswith("## FREQ_SCORE_MEAN_DAY_EU")
    assert "| MODEL | 1A | 2 |" in md
    html_text = to_html(table)
    assert "<title>FREQ_SCORE_MEAN_DAY_EU</title>" in html_text
    assert "NA" in html_text

    matrix = matrix_table(_matrix())
    html_matrix = to_html(matrix)
    assert "background-color:#" in html_matrix
    md_matrix = to_markdown(matrix)
    assert "inf" in md_matrix


def _markdown_cells(line):
    """A markdown table row's cells, split at the pipes no backslash escapes, unescaped."""
    assert line.startswith("| ") and line.endswith(" |")
    cells, cell, escaped = [], "", False
    for ch in line[1:-1]:  # each cell then has one space on either side
        if escaped:
            cell, escaped = cell + ch, False
        elif ch == "\\":
            escaped = True
        elif ch == "|":
            cells.append(cell)
            cell = ""
        else:
            cell += ch
    cells.append(cell)
    return [c[1:-1].replace("<br>", "\n") for c in cells]


MARKDOWN_IDS = ("A|B", "A\\|", "A\nB")


def test_markdown_escapes_pipes_backslashes_and_line_breaks(protocol):
    scores = [
        ScenarioScore(v, "CCRs", "day", ScoreValue.constant(x), ScoreValue.constant(x), 1)
        for v, x in zip(MARKDOWN_IDS, (0.5, 0.25, 0.0))
    ]
    group_scores = [
        GroupScore(s.vehicle, ScenarioGroup.C2C, "EU", s.fs, s.mps) for s in scores
    ]
    for table in (
        score_table(scores, protocol, "freq", "day", "EU"),
        matrix_table(build_matrix(group_scores, "freq")),
    ):
        assert sorted(table.columns) == sorted(MARKDOWN_IDS)
        lines = to_markdown(table).splitlines()
        assert len(lines) == 4 + len(table.rows)
        assert lines[3] == "|" + "---|" * (len(table.columns) + 1)
        for line, expected in zip(
            [lines[2], *lines[4:]],
            [(table.corner, *table.columns), *((label, *cells) for label, cells in table.rows)],
        ):
            assert _markdown_cells(line) == list(expected)
    text = to_markdown(table)
    assert "| A|B |" not in text
    assert "| A\\|B |" in text and "| A\\\\\\| |" in text and "| A<br>B |" in text


def test_render_dispatch_and_unknown_format(protocol):
    table = score_table(_scores(), protocol, "freq", "day", "EU")
    assert render(table, "csv") == to_csv(table)
    with pytest.raises(ValueError, match="unknown format"):
        render(table, "pdf")
