"""Relativity matrices against the cell-by-cell brute-force reference.

``compare`` writes every matrix in csv, markdown and html. Each cell of each
format is checked against ``reference.matrix_reference``, which works every
cell out on its own from the nominal group scores that ``compare`` ranked:
the relativity, its printed percentage and its HTML shade.
"""

import html
import json
import random
import re
import tracemalloc
from pathlib import Path

import pytest

from aebscore import cli
from aebscore.aggregate import (
    METRIC_FREQ, AggregationError, GroupScore, build_matrix, relativity_row
)
from aebscore.cli import main
from aebscore.protocol import ScenarioGroup, bundled_protocol_path
from aebscore.report import format_percent_row, matrix_table, render
from aebscore.scoring import ScoreValue
from reference import matrix_reference, percent_text, relativity_cell

DATA_DIR = bundled_protocol_path().parent
GOLDEN_LOG = Path(__file__).parent / "data" / "golden" / "fixture_campaign.jsonl"

# Ties at the top (two vehicles that always avoid) and at the bottom (two
# that never respond, so zero scores: -100% one way and inf the other),
# with graded vehicles between them.
SYNTHETIC_SPEC = {
    "seed": 5,
    "vehicles": [
        {"id": "10", "oracle": {"type": "always_avoid"}},
        {"id": "2", "oracle": {"type": "always_avoid"}},
        {"id": "3", "oracle": {"type": "never_respond"}},
        {"id": "1B", "oracle": {"type": "never_respond"}},
        {"id": "4", "oracle": {"type": "threshold", "fail_at": 40}},
        {"id": "5", "oracle": {"type": "random", "never_prob": 0.3}},
        {"id": "X", "oracle": {"type": "threshold", "fail_at": 70}},
    ],
}
HTML_CELL = re.compile(r'<td style="background-color:(#[0-9a-f]{6})">([^<]*)</td>')


def _synthetic_log(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SYNTHETIC_SPEC))
    log = tmp_path / "synthetic.jsonl"
    args = ["--protocol", str(bundled_protocol_path()), "--oracle", str(spec), "--out", str(log)]
    assert main(["simulate", *args]) == 0
    return log


def _compare(log, out, monkeypatch):
    """Run compare in all formats; return the nominal scores of each matrix by file stem."""
    nominal = {}
    build = cli.build_matrix

    def recorded(group_scores, metric):
        matrix = build(group_scores, metric)
        name = "freq" if metric == METRIC_FREQ else "mp"
        stem = f"rel_{name}_{matrix.group.value}_{matrix.region}".lower()
        field = "fs" if metric == METRIC_FREQ else "mps"
        nominal[stem] = {gs.vehicle: getattr(gs, field).nominal for gs in group_scores}
        return matrix

    monkeypatch.setattr(cli, "build_matrix", recorded)
    weights = []
    for region in ("eu", "us"):
        weights += ["--weights", str(DATA_DIR / f"weights_{region}_example.json")]
    args = ["compare", "--protocol", str(bundled_protocol_path()), "--log", str(log), *weights]
    assert main([*args, "--out", str(out), "--format", "csv,markdown,html"]) == 0
    return nominal


def _check_against_reference(out, stem, scores):
    order, cells = matrix_reference(scores)
    csv_lines = (out / f"{stem}.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == stem.upper() + "," * len(order)
    assert csv_lines[1] == ",".join(["", *order])
    md_lines = (out / f"{stem}.md").read_text(encoding="utf-8").splitlines()
    assert md_lines[2] == "| " + " | ".join(["", *order]) + " |"
    html_rows = re.findall(r"<tr><th>([^<]*)</th>(<td.*)</tr>", (out / f"{stem}.html").read_text())
    assert [html.unescape(label) for label, _ in html_rows] == order
    for i, x in enumerate(order):
        texts = [cells[(x, y)][1] for y in order]
        assert csv_lines[2 + i] == ",".join([x, *texts])
        assert md_lines[4 + i] == "| " + " | ".join([x, *texts]) + " |"
        shaded = HTML_CELL.findall(html_rows[i][1])
        assert shaded == [(cells[(x, y)][2], cells[(x, y)][1]) for y in order]


@pytest.mark.parametrize("campaign", ["golden", "synthetic"])
def test_compare_matches_the_cell_by_cell_reference(tmp_path, monkeypatch, campaign):
    log = GOLDEN_LOG if campaign == "golden" else _synthetic_log(tmp_path)
    out = tmp_path / "matrices"
    nominal = _compare(log, out, monkeypatch)
    assert len(nominal) == 12  # 2 metrics x 3 groups x 2 regions
    assert sorted(p.stem for p in out.glob("*.csv")) == sorted(nominal)
    texts = set()
    for stem, scores in nominal.items():
        _check_against_reference(out, stem, scores)
        texts.update(cell[1] for cell in matrix_reference(scores)[1].values())
    if campaign == "synthetic":  # the cases the campaign was built for do occur
        assert {"inf", "-100.00%"} <= texts
        scores = nominal["rel_freq_c2c_eu"]
        assert scores["10"] == scores["2"] > 0 and scores["3"] == scores["1B"] == 0


def _matrix(values, metric="freq"):
    group_scores = [
        GroupScore(v, ScenarioGroup.C2VRU, "US", ScoreValue.constant(s), ScoreValue.constant(s))
        for v, s in values.items()
    ]
    return build_matrix(group_scores, metric)


def _rendered_cells(table):
    """(colour, text) of each cell of the HTML rendering, row by row."""
    rows = re.findall(r"<tr><th>[^<]*</th>(<td.*)</tr>", render(table, "html"))
    return [HTML_CELL.findall(row) for row in rows]


@pytest.mark.parametrize(
    "values",
    [
        {"solo": 0.4},
        {"solo": -0.25},  # the diagonal takes no ratio, so a negative score is fine alone
        {"solo": 0.0},
        {"a": 0.5, "b": 0.5, "c": 0.0, "d": 0.0, "e": 0.2, "1": 1e-300},
    ],
    ids=["one-vehicle", "one-vehicle-negative", "one-vehicle-zero", "ties-and-zeros"],
)
def test_matrix_table_matches_the_reference_cell_by_cell(values):
    order, cells = matrix_reference(values)
    matrix = _matrix(values)
    table = matrix_table(matrix)
    assert list(matrix.order) == order == list(table.columns)
    assert len(matrix.cells) == len(order) ** 2
    assert list(matrix.cells) == [(x, y) for x in order for y in order]
    for (x, y), (value, _, _) in cells.items():
        assert matrix.cell(x, y) == matrix.cells[(x, y)] == value
    assert [label for label, _ in table.rows] == order
    texts = [[cells[(x, y)][1] for y in order] for x in order]
    assert [list(row) for _, row in table.rows] == texts
    shaded = [[(cells[(x, y)][2], cells[(x, y)][1]) for y in order] for x in order]
    assert _rendered_cells(table) == shaded


ROW_CASES = {
    "all-zero": {"a": 0.0, "b": 0.0, "c": 0.0},
    "zero-among-positive": {"a": 0.3, "b": 0.0, "c": 0.7, "d": 1e-300},
    "tied": {"a": 0.5, "b": 0.25, "c": 0.5, "d": 0.25, "e": 0.25},
    "lone-negative": {"solo": -0.25},
    "random": {str(i): random.Random(8).random() for i in range(1, 41)},
}


@pytest.mark.parametrize("values", list(ROW_CASES.values()), ids=list(ROW_CASES))
def test_matrix_rows_built_and_formatted_a_row_at_a_time_match_the_reference(values):
    order, cells = matrix_reference(values)
    matrix = _matrix(values, "MP")
    table = matrix_table(matrix)
    assert list(matrix.order) == order
    ranked = [values[v] for v in order]
    for x, row, (label, texts) in zip(order, matrix.rows, table.rows):
        assert label == x
        assert row == tuple(cells[(x, y)][0] for y in order)
        assert texts == tuple(cells[(x, y)][1] for y in order)
        assert format_percent_row(row) == tuple(percent_text(v) for v in row)
        if len(order) > 1:  # the row function itself, off the diagonal too
            assert relativity_row(values[x], ranked) == tuple(
                relativity_cell(values[x], y) for y in ranked
            )


def test_cells_view_is_a_read_only_mapping_over_the_rows():
    matrix = _matrix({"a": 0.5, "b": 0.25})
    assert ("a", "b") in matrix.cells and ("a", "z") not in matrix.cells
    assert matrix.cells.get(("z", "a")) is None
    with pytest.raises(KeyError):
        matrix.cell("a", "z")
    with pytest.raises(TypeError):
        matrix.cells[("a", "b")] = 0.0
    expected = {("a", "a"): 0.0, ("a", "b"): 1.0, ("b", "a"): -0.5, ("b", "b"): 0.0}
    assert dict(matrix.cells) == expected


def test_a_negative_score_beside_another_vehicle_is_rejected():
    for values in ({"a": -0.25, "b": 0.5}, {"a": 0.0, "b": -1e-12}):
        with pytest.raises(AggregationError, match="^relativity requires non-negative scores$"):
            _matrix(values, "MP")


def test_matrix_build_and_table_stay_within_their_memory_bound():
    # 300 vehicles: 90,000 cells. Measured on CPython 3.11: build_matrix
    # peaks at 2.9 MB and build_matrix + matrix_table at 8.7 MB; the bounds
    # are twice that. A per-cell {(x, y): value} dict peaks at 14.8 MB and
    # 18.2 MB.
    rng = random.Random(3)
    values = {str(i): rng.random() for i in range(1, 301)}
    tracemalloc.start()
    try:
        matrix = _matrix(values)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        table = matrix_table(matrix)
        peak = max(build_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(table.rows) == 300
    assert build_peak < 5.8e6
    assert peak < 17.4e6
