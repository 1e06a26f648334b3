"""``read_log`` against a row-by-row reference.

The reference decodes and checks every line on its own, with no memo. The
memo-soundness cases put each tricky JSON line after a line that differs
from it only in the vehicle, where a wrong memo key would hand back the
earlier row; the impact-cut cases put each impact text after a line that
differs from it only in the vehicle and the impact speed. The mutation
cases perturb one field of one row of the golden campaign log, and of a CSV
export of it, in seeded ways (non-finite, wrong type, empty, null, escaped,
duplicated key) and require the same records or the same located error,
plus a clean exit from ``validate``; a mutated JSON row that was impacted
also gets a new impact speed, so each of its mutations crosses the cut.
"""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from itertools import chain, cycle
from pathlib import Path

import pytest

import aebscore
from aebscore import logio
from aebscore.campaign import TestRecord
from aebscore.cli import main
from aebscore.logio import LOG_COLUMNS, LogFormatError, _entry_from_row, read_log, write_log
from aebscore.protocol import bundled_protocol_path

GOLDEN_LOG = Path(__file__).parent / "data" / "golden" / "fixture_campaign.jsonl"


def _record_from_row(row, protocol):
    """The record of one decoded row, checked on its own."""
    vehicle, (_, config, outcome, pre_test) = _entry_from_row(row, protocol)
    return TestRecord(vehicle, config, outcome, pre_test)


def _jsonl_reference(text, protocol):
    """Records of a JSONL log, each line decoded and checked on its own."""
    records = []
    for line, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            row = json.loads(raw)
        except ValueError as exc:
            return f"line {line}: invalid JSON: {exc}"
        try:
            records.append(_record_from_row(row, protocol))
        except LogFormatError as exc:
            return f"line {line}: {exc}"
    return tuple(records)


NUMBER_COLUMNS = frozenset({"vut_speed", "tg_speed", "overlap", "impact_speed"})


class _NotANumber(str):
    """A number cell that ``float()`` reads as a finite number but JSON does
    not read as a number: the row check reads no number in it."""

    def __float__(self):
        raise ValueError(self)


def _float_only(cell):
    """Whether ``float()`` reads the cell as a finite number and ``json.loads``
    does not read it, as it stands, as a number."""
    try:
        if not math.isfinite(float(cell)):
            return False
    except ValueError:
        return False
    try:
        value = json.loads(cell)
    except ValueError:
        return True
    return cell != cell.strip(" \t\n\r") or type(value) not in (int, float)


def _csv_reference(text, protocol):
    """Records of a CSV log, each row checked on its own.

    The last of two equal column names wins, an empty cell is a missing
    value, and a row may not have more cells than the header has columns.
    A number cell is a JSON number in full: a cell that ``float()`` reads as
    a finite number but ``json.loads`` does not read as one is no number.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        return ()
    unknown = set(header) - set(LOG_COLUMNS)
    if unknown:
        return f"unknown column(s) {sorted(unknown)}"
    records = []
    while True:
        try:
            cells = next(reader, None)
        except csv.Error as exc:
            return f"line {reader.line_num}: {exc}"
        if cells is None:
            break
        if not cells:
            continue
        # "\r\n", "\r" and "\n" each end a line, in a quoted cell too
        ends = [cell.replace("\r\n", "\n").replace("\r", "\n").count("\n") for cell in cells]
        line = reader.line_num - sum(ends)
        if len(cells) > len(header):
            return f"line {line}: unknown field(s): {len(cells)} cells for {len(header)} columns"
        row = {k: v for k, v in dict(zip(header, cells)).items() if v}
        for k in NUMBER_COLUMNS & row.keys():
            if _float_only(row[k]):
                row[k] = _NotANumber(row[k])
        try:
            records.append(_record_from_row(row, protocol))
        except LogFormatError as exc:
            return f"line {line}: {exc}"
    return tuple(records)


def _read(path, protocol):
    """The records ``read_log`` returns, or the message it raises after the
    ``log <file>: `` that every log error starts with."""
    try:
        return read_log(path, protocol).records
    except LogFormatError as exc:
        prefix, message = f"log {path}: ", str(exc)
        assert message.startswith(prefix), message
        return message[len(prefix) :]


# One CCRm row; %s is the text of the vehicle value.
ROW = (
    '{"impact_speed": 30, "intervention": true, "light": "day", "outcome": "impacted", '
    '"overlap": 100, "scenario": "CCRm", "tg_speed": 20, "vehicle": %s, "vut_speed": 55}'
)
ROW_FIELDS = json.loads(ROW % '"A"')


def _compact(**fields):
    return json.dumps(dict(ROW_FIELDS, **fields), separators=(",", ":"))


def _vehicle_first(**fields):
    row = dict(ROW_FIELDS, **fields)
    return json.dumps({"vehicle": row.pop("vehicle"), **row})


def _impact(text):
    """ROW with ``text`` for its impact speed."""
    return ROW.replace('"impact_speed": 30', '"impact_speed": ' + text)


def _intervention(text):
    """ROW with ``text`` for its intervention."""
    return ROW.replace('"intervention": true', '"intervention": ' + text)


MEMO_CASES = {
    "escaped-key": (
        [ROW % '"B"', ROW.replace('"vehicle"', '"vehicl\\u0065"') % '"A"', ROW % '"C"'],
        ["B", "A", "C"],
    ),
    "escaped-key-only-line": (
        [ROW.replace('"vehicle"', '"vehicl\\u0065"') % '"A"', ROW % '"B"'],
        ["A", "B"],
    ),
    "duplicate-key": (
        [ROW % '"B", "vehicle": "C"', ROW % '"A", "vehicle": "C"', ROW % '"A", "vehicle": "D"'],
        ["C", "C", "D"],
    ),
    "duplicate-key-after-plain-line": (
        [ROW % '"B"', ROW % '"A", "vehicle": "C"'],
        ["B", "C"],
    ),
    "duplicate-key-same-value": (
        [ROW % '"A", "vehicle": "A"', ROW % '"B", "vehicle": "A"'],
        ["A", "A"],
    ),
    "duplicate-escaped-key-same-value": (
        [ROW % '"A", "vehicl\\u0065": "A"', ROW % '"B", "vehicl\\u0065": "A"'],
        ["A", "A"],
    ),
    "duplicate-escaped-key": (
        [ROW % '"B"', ROW % '"A", "vehicl\\u0065": "C"', ROW % '"D"'],
        ["B", "C", "D"],
    ),
    "vehicle-escapes": (
        [
            ROW % '"B"',
            ROW % '"\\u0041"',
            ROW % '"A"',
            ROW % '"say \\"hi\\""',
            ROW % '"back\\\\slash"',
            ROW % '"\\u00dc"',
            ROW % '"Ü"',
            ROW % '"\\ud83d\\ude97"',
        ],
        ["B", "A", "A", 'say "hi"', "back\\slash", "Ü", "Ü", "\U0001f697"],
    ),
    "vehicle-named-vehicle": (
        [ROW % '"B"', ROW % '"vehicle"', ROW % '"C"', ROW % '"vehicle"'],
        ["B", "vehicle", "C", "vehicle"],
    ),
    "vehicle-as-another-value": (
        [ROW % '"B"', ROW % '"A"', ROW.replace('"CCRm"', '"vehicle"') % '"A"'],
        "line 3: unknown scenario 'vehicle'",
    ),
    "numeric-vehicle": (
        [ROW % '"7"', ROW % "7", ROW % "-3", ROW % '"B"', ROW % "7"],
        ["7", "7", "-3", "B", "7"],
    ),
    "compact-and-reordered": (
        [ROW % '"B"', _compact(vehicle="A"), _vehicle_first(vehicle="C"), _compact(vehicle="D")],
        ["B", "A", "C", "D"],
    ),
    "escape-outside-the-vehicle": (
        [
            ROW % '"B"',
            ROW.replace('"day"', '"d\\u0061y"') % '"A"',
            ROW.replace('"impacted"', '"impacte\\u0064"') % '"C"',
            ROW % '"D"',
        ],
        ["B", "A", "C", "D"],
    ),
    "escape-outside-changes-a-value": (
        [ROW % '"B"', ROW.replace('"impacted"', '"impacte\\u0065"') % '"A"'],
        "line 2: unknown outcome 'impactee'",
    ),
    "empty-vehicle": (
        [ROW % '"B"', ROW % '""'],
        "line 2: vehicle must be a non-empty string or an integer, got ''",
    ),
    "null-vehicle": (
        [ROW % '"B"', ROW % "null"],
        "line 2: vehicle must be a non-empty string or an integer, got None",
    ),
    "object-vehicle": (
        [ROW % '"B"', ROW % '{"a": 1}'],
        "line 2: vehicle must be a non-empty string or an integer, got {'a': 1}",
    ),
    "boolean-vehicle": (
        [ROW % '"1"', ROW % "true"],
        "line 2: vehicle must be a non-empty string or an integer, got True",
    ),
    "float-vehicle": (
        [ROW % '"1.5"', ROW % "1.5"],
        "line 2: vehicle must be a non-empty string or an integer, got 1.5",
    ),
    # Lines whose "impact_speed" number is no key: each takes the full parse.
    "duplicate-impact-key": (
        [ROW % '"B"', ROW % '"A", "impact_speed": 30', _impact("12") % '"C", "impact_speed": 30'],
        ["B", "A", "C"],
    ),
    "escaped-impact-key": (
        [ROW % '"B"', _impact("41").replace('"impact_speed"', '"impact_spee\\u0064"') % '"A"'],
        ["B", "A"],
    ),
    "spaced-impact-key": (
        [
            ROW.replace('"impact_speed": 30', '"impact_speed" :\t12 ') % '"B"',
            ROW.replace('"impact_speed": 30', '"impact_speed" :\t41 ') % '"A"',
            ROW.replace('"impact_speed": 30', '"impact_speed" : 41') % '"C"',
        ],
        ["B", "A", "C"],
    ),
    "empty-vehicle-new-impact": (
        [ROW % '"B"', _impact("41") % '""'],
        "line 2: vehicle must be a non-empty string or an integer, got ''",
    ),
    "impact-text-in-a-string": (
        [ROW % '"B"', _impact("41").replace('"day"', '"day \\"impact_speed\\": 5"') % '"A"'],
        "line 2: unknown light 'day \"impact_speed\": 5'",
    ),
    # A boolean is a JSON true or false, or a string that is exactly one.
    "intervention-string": ([ROW % '"B"', _intervention('"true"') % '"A"'], ["B", "A"]),
    "intervention-one": (
        [ROW % '"B"', _intervention("1") % '"A"'], "line 2: intervention must be a boolean, got 1"
    ),
    "intervention-yes": (
        [ROW % '"B"', _intervention('"yes"') % '"A"'],
        "line 2: intervention must be a boolean, got 'yes'",
    ),
}
# The MEMO_CASES above that take the full parse on every line.
FULL_PARSE_CASES = (
    "duplicate-impact-key", "escaped-impact-key", "empty-vehicle-new-impact",
    "impact-text-in-a-string",
)


@pytest.mark.parametrize("lines, expected", MEMO_CASES.values(), ids=MEMO_CASES.keys())
def test_jsonl_memo_matches_a_line_by_line_parse(protocol, tmp_path, lines, expected):
    path = tmp_path / "log.jsonl"
    text = "".join(line + "\n" for line in lines)
    path.write_text(text, encoding="utf-8")
    got = _read(path, protocol)
    assert got == _jsonl_reference(text, protocol)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert [r.vehicle for r in got] == expected


@pytest.mark.parametrize("case", FULL_PARSE_CASES)
def test_jsonl_lines_with_no_impact_key_take_the_full_parse(protocol, tmp_path, monkeypatch, case):
    lines, _ = MEMO_CASES[case]
    path = tmp_path / "log.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    calls = _count_checks(monkeypatch)
    _read(path, protocol)
    assert len(calls) == len(lines)


# An impact-speed text on a line after a checked line that differs from it
# only there and in its vehicle: the checked entry with the number parsed
# alone, or, for a text that is not a finite number, the full parse and its
# first error. Each case: the texts; their impact speeds, or the error (None
# where its text depends on the Python version); whether line 2 takes the full
# parse.
JSONL_CUT_IMPACTS = {
    "negative-zero": (["-0"], [0.0], False),
    "integer-then-float": (["30", "30.0"], [30.0, 30.0], False),
    "exponent": (["3e1"], [30.0], False),
    "upper-exponent": (["1E1"], [10.0], False),
    "overflow": (["1e400"], "line 2: impact_speed must be a finite number, got inf", True),
    "negative-overflow": (
        ["-1e400"], "line 2: impact_speed must be a finite number, got -inf", True
    ),
    # invalid JSON where the decoder limits integer digits (Python 3.11 on)
    "huge-integer": (["9" * 5000], None, True),
    "nan": (["NaN"], "line 2: impact_speed must be a finite number, got nan", True),
    "infinity": (["Infinity"], "line 2: impact_speed must be a finite number, got inf", True),
    "null": (["null"], [None], True),
    "string": (['"30"'], [30.0], True),
    # float() reads any Unicode digit; the decoder only ASCII ones
    "arabic-indic-digit": (["3\u0660"], None, True),
    # a string reads as a number only if it is a JSON number
    "string-with-underscore": (['"5_5"'], "line 2: impact_speed must be a number, got '5_5'", True),
}


@pytest.mark.parametrize(
    "texts, expected, checked", JSONL_CUT_IMPACTS.values(), ids=JSONL_CUT_IMPACTS.keys()
)
def test_jsonl_impact_after_a_cut_hit_reads_as_the_full_parse_does(
    protocol, tmp_path, monkeypatch, texts, expected, checked
):
    calls = _count_checks(monkeypatch)
    lines = [_impact("12.5") % '"B"'] + [_impact(t) % f'"A{i}"' for i, t in enumerate(texts)]
    path = tmp_path / "log.jsonl"
    text = "".join(line + "\n" for line in lines)
    path.write_text(text, encoding="utf-8")
    got = _read(path, protocol)
    assert got == _jsonl_reference(text, protocol)
    if expected is None:
        assert got.startswith("line 2: "), got
    elif isinstance(expected, str):
        assert got == expected
    else:
        assert [repr(r.outcome.impact_speed) for r in got[1:]] == list(map(repr, expected))
    # A line that fails to decode never reaches the checks.
    decoded = not (isinstance(got, str) and "invalid JSON" in got)
    assert calls == ["B"] + (["A0"] if checked and decoded else [])


def test_jsonl_lines_that_differ_only_in_impact_share_all_but_the_outcome(
    protocol, tmp_path, monkeypatch
):
    calls = _count_checks(monkeypatch)
    lines = [
        _impact("12.5") % '"B"',
        _impact("41") % '"A"',  # a new impact speed: parsed alone
        _impact("41") % '"C"',  # as A's line but for the vehicle: A's entry
        _compact(vehicle="D", impact_speed=41),  # another key text: checked
        _compact(vehicle="E", impact_speed=7.25),
    ]
    path = tmp_path / "log.jsonl"
    text = "".join(line + "\n" for line in lines)
    path.write_text(text, encoding="utf-8")
    log = read_log(path, protocol)
    assert log.records == _jsonl_reference(text, protocol)
    assert calls == ["B", "D"]
    b, a, c, d, e = (log.vehicles[v][0] for v in "BACDE")
    assert c is a and a is not b and e is not d
    for first, later in ((b, a), (d, e)):
        assert later[0] == first[0] and later[1] is first[1] and later[3] == first[3]
        assert later[2]._replace(impact_speed=None) == first[2]._replace(impact_speed=None)
    assert [x[2].impact_speed for x in (b, a, d, e)] == [12.5, 41.0, 41.0, 7.25]


class _Line(str):
    """A line that counts the calls of its ``strip``."""

    strips = 0

    def strip(self, *args):
        _Line.strips += 1
        return super().strip(*args)


def test_jsonl_blank_test_runs_only_on_a_memo_miss(protocol, monkeypatch):
    monkeypatch.setattr(_Line, "strips", 0)
    bad = ROW.replace('"CCRm"', '"CCRx"') % '"E"'
    lines = [ROW % '"B"', ROW % '"A"', _impact("41") % '"C"', "", " \t", ROW % '"D"', bad]
    rows = logio._read_jsonl((_Line(line + "\n") for line in lines), protocol)
    assert [next(rows)[0] for _ in range(4)] == ["B", "A", "C", "D"]
    assert _Line.strips == 2  # the two blank lines
    with pytest.raises(LogFormatError) as error:
        next(rows)
    text = "".join(line + "\n" for line in lines)
    assert str(error.value) == _jsonl_reference(text, protocol) == "line 7: unknown scenario 'CCRx'"


def test_lines_that_differ_only_in_an_escaped_vehicle_share_one_parse(protocol, tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(ROW % '"B"' + "\n" + ROW % '"\\u00dc"' + "\n")
    first, second = read_log(path, protocol).records
    assert second.vehicle == "Ü"
    assert second.outcome is first.outcome and second.config is first.config


# ---------------------------------------------------------------------------
# CSV files, read by their line text while each line is plain


def _csv_line(vehicle="A", columns=LOG_COLUMNS, **cells):
    """One CSV line of the CCRm row above; ``cells`` replace its values."""
    values = {k: "true" if v is True else str(v) for k, v in ROW_FIELDS.items()}
    values.update({k: str(v) for k, v in cells.items()}, vehicle=vehicle)
    return ",".join(values.get(k, "") for k in columns)


HEADER = ",".join(LOG_COLUMNS)
REORDERED = ("scenario", "outcome", "vut_speed", "vehicle", "light", "overlap", "tg_speed",
             "impact_speed", "intervention")
NO_OPTIONAL = ("vehicle", "scenario", "light", "vut_speed", "overlap", "outcome")
# No line holds a quote or NUL or is beyond the field limit, and the first
# column is the only vehicle column.
PLAIN_CASES = {
    "short-rows": [
        HEADER,
        *(_csv_line(v).rsplit(",", 2)[0] for v in "BAB"),  # no projected, no pre_test cell
        "A,CCRm,day,55",
    ],
    "long-row": [HEADER, _csv_line("B"), _csv_line("A") + ",x"],
    "empty-vehicle": [HEADER, _csv_line("B"), _csv_line("")],
    "whitespace-only-line": [HEADER, _csv_line("B"), "   "],
    "blank-lines": [
        HEADER, "", _csv_line("B"), "", "", _csv_line("A"), _csv_line("C", outcome="meh")
    ],
    "header-only": [HEADER],
    "unknown-column": [HEADER + ",colour", _csv_line("B") + ",red"],
    "missing-optional-columns": [
        ",".join(NO_OPTIONAL),
        *(_csv_line(v, NO_OPTIONAL, outcome="avoided") for v in "BAB"),
        _csv_line("C", NO_OPTIONAL, outcome="impacted"),
    ],
    "odd-characters": [
        HEADER,
        _csv_line("B"),
        _csv_line("A\u2028B"),
        _csv_line("A\x0bB\x1cC\x85"),
        _csv_line(" A\t"),
        _csv_line("A\u2028B", light="day\u2028"),
    ],
    # "\r\n" and a lone "\r" end a line as "\n" does
    "crlf": [HEADER + "\r", _csv_line("B") + "\r", "\r", _csv_line("A", outcome="meh") + "\r"],
    "lone-cr": [HEADER, _csv_line("B") + "\r" + _csv_line("A"), _csv_line("A")],
}


def _write(tmp_path, lines, end="\n"):
    path = tmp_path / "log.csv"
    text = "".join(line + end for line in lines)
    path.write_bytes(text.encode("utf-8"))
    return path, text


def _spy_csv_reader(monkeypatch):
    """The list of the lines ``csv.reader`` starts on, one per call."""
    calls = []
    reader = csv.reader

    def spied(lines, *args, **kwargs):
        lines = iter(lines)
        first = next(lines, None)
        calls.append(first)
        return reader(chain([] if first is None else [first], lines), *args, **kwargs)

    monkeypatch.setattr(csv, "reader", spied)
    return calls


@pytest.mark.parametrize("lines", PLAIN_CASES.values(), ids=PLAIN_CASES.keys())
def test_plain_csv_reads_like_the_reference_without_csv_reader(
    protocol, tmp_path, monkeypatch, lines
):
    path, text = _write(tmp_path, lines)
    expected = _csv_reference(text, protocol)
    calls = _spy_csv_reader(monkeypatch)
    assert _read(path, protocol) == expected
    assert calls == []


def test_empty_csv_file_reads_as_an_empty_log(protocol, tmp_path):
    path, text = _write(tmp_path, [], end="")
    assert _read(path, protocol) == _csv_reference(text, protocol) == ()


def test_csv_line_numbers_count_blank_lines(protocol, tmp_path):
    path, _ = _write(tmp_path, PLAIN_CASES["blank-lines"])
    assert _read(path, protocol) == "line 7: unknown outcome 'meh'"


# One trigger each: csv.reader reads the file from the first line that is not
# plain, or from the header when its first column is not its only vehicle column.
LONG = "0" * 70_000 + "30"  # a line beyond the field limit, each cell within it
FALLBACK_CASES = {
    "quote-in-a-cell": [HEADER, _csv_line("B"), _csv_line('"A"'), _csv_line("C")],
    "quote-only-in-a-late-row": [HEADER, _csv_line("B"), _csv_line('x"y', outcome="meh")],
    "quoted-then-empty-vehicle": [
        HEADER, _csv_line("B", scenario='"CCRm"'), _csv_line("", scenario='"CCRm"')
    ],
    # quoted cells that span lines at "\r" and "\r\n": the bad row starts on line 6
    "quoted-carriage-returns": [
        HEADER, _csv_line('"A\rB"'), _csv_line('"C\r\nD"'), _csv_line("E", outcome="meh")
    ],
    # the same after plain lines: the switch comes mid-file, the bad row is on line 9
    "late-quoted-carriage-returns": [
        HEADER, _csv_line("B"), "", _csv_line("A"), _csv_line('"A\rB"'), _csv_line('"C\r\nD"'),
        _csv_line("E", outcome="meh"),
    ],
    # lines that equal a checked line after its vehicle cell, which is quoted
    "quoted-vehicle-on-a-hit": [
        HEADER, _csv_line("B"), _csv_line("A"), _csv_line('"B"'), _csv_line('"A"x'),
        _csv_line("C", outcome="meh"),
    ],
    "nul": [HEADER, _csv_line("B"), _csv_line("A\0")],
    "line-beyond-the-field-limit": [
        HEADER, _csv_line("B"), _csv_line("A" * 70_000, impact_speed=LONG), _csv_line("C")
    ],
    "quoted-header": ['"vehicle"' + HEADER[7:], _csv_line("B"), _csv_line("A", outcome="meh")],
    # Headers whose first column is not their only vehicle column.
    "blank-first-line": ["", HEADER, _csv_line("B")],
    "vehicle-not-first": [
        ",".join(REORDERED),
        *(_csv_line(v, REORDERED) for v in "BAB"),
        _csv_line("", REORDERED),
    ],
    "vehicle-not-first-then-a-bad-row": [
        ",".join(REORDERED), _csv_line("B", REORDERED), _csv_line("A", REORDERED, outcome="meh")
    ],
    "vehicle-last-and-short-rows": [
        ",".join(LOG_COLUMNS[1:] + ("vehicle",)),
        _csv_line("B", LOG_COLUMNS[1:] + ("vehicle",)),
        _csv_line("A", LOG_COLUMNS[1:] + ("vehicle",)),
        "CCRm,day",
    ],
    "duplicate-columns": [
        HEADER + ",vehicle,outcome",
        _csv_line("B") + ",C,impacted",
        _csv_line("A") + ",D,avoided",
        _csv_line("A", outcome="meh") + ",D,avoided",
        _csv_line("A") + ",D,",
    ],
    "no-vehicle-column": [",".join(NO_OPTIONAL[1:]), "CCRm,day,55,100,avoided"],
}
# The physical line csv.reader starts on where that is not the header.
SWITCH_LINES = {
    "quote-in-a-cell": 3,
    "quote-only-in-a-late-row": 3,
    "quoted-then-empty-vehicle": 2,
    "quoted-carriage-returns": 2,
    "late-quoted-carriage-returns": 5,
    "quoted-vehicle-on-a-hit": 4,
    "nul": 3,
    "line-beyond-the-field-limit": 3,
}


@pytest.mark.parametrize("case", FALLBACK_CASES)
def test_csv_text_with_a_trigger_takes_the_csv_reader_loop(protocol, tmp_path, monkeypatch, case):
    lines = FALLBACK_CASES[case]
    path, text = _write(tmp_path, lines)
    expected = _csv_reference(text, protocol)
    calls = _spy_csv_reader(monkeypatch)
    assert _read(path, protocol) == expected
    physical = io.StringIO(text, newline="").readlines()  # each ends at "\n", "\r\n" or "\r"
    assert calls == [physical[SWITCH_LINES.get(case, 1) - 1]]


def test_line_ends_inside_quoted_cells_count_in_the_error_line(protocol, tmp_path):
    path, _ = _write(tmp_path, FALLBACK_CASES["quoted-carriage-returns"])
    assert _read(path, protocol) == "line 6: unknown outcome 'meh'"


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
def test_csv_file_with_carriage_returns_reads_like_its_newline_copy(protocol, tmp_path, end):
    lines = [HEADER, _csv_line("B"), "", _csv_line("A"), _csv_line("C", outcome="meh")]
    path, _ = _write(tmp_path, lines, end)
    assert _read(path, protocol) == _csv_reference(path.read_text(encoding="utf-8"), protocol)
    assert _read(path, protocol) == "line 5: unknown outcome 'meh'"


def _count_checks(monkeypatch):
    calls = []
    check = logio._entry_from_row

    def counted(row, protocol):
        calls.append(row.get("vehicle"))
        return check(row, protocol)

    monkeypatch.setattr(logio, "_entry_from_row", counted)
    return calls


def _quote_first_row(lines):
    """The lines with one cell of the first row quoted: the csv.reader loop reads them."""
    return [lines[0], lines[1].replace("CCRm", '"CCRm"'), *lines[2:]]


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_row_differing_only_in_vehicle_and_impact_shares_the_checked_entry(
    protocol, tmp_path, monkeypatch, quoted
):
    calls = _count_checks(monkeypatch)
    lines = [
        HEADER,
        _csv_line("A"),
        _csv_line("B", impact_speed=41),  # a new impact speed: parsed alone
        _csv_line("C"),
        _csv_line("D", impact_speed=""),
        _csv_line("E", vut_speed=65, pre_test="passed"),  # new cells: checked
        _csv_line("F", vut_speed=65, pre_test="passed", impact_speed=12.5),
    ]
    path, text = _write(tmp_path, _quote_first_row(lines) if quoted else lines)
    log = read_log(path, protocol)
    assert log.records == _csv_reference(text, protocol)
    assert calls == ["A", "E"]
    entries = [log.vehicles[v][0] for v in "ABCDEF"]
    a, b, c, d, e, f = log.records
    assert entries[2] is entries[0]  # the same impact text: the same entry
    for first, later in ((a, b), (a, d), (e, f)):
        assert later.config is first.config and later.pre_test == first.pre_test
        assert later.outcome._replace(impact_speed=None) == first.outcome._replace(
            impact_speed=None
        )
    assert (b.outcome.impact_speed, d.outcome.impact_speed, f.outcome.impact_speed) == (
        41.0, None, 12.5
    )


# Cells float() reads as a finite number that are no JSON number.
NOT_JSON_NUMBERS = {
    "underscore": "5_5",
    "spaces": " 3e1 ",
    "arabic-indic-digits": "\u0663\u0660",
    "ascii-then-arabic-indic-digit": "3\u0660",  # [1-9] is ASCII; a later \d is not
    "plus-sign": "+5",
    "leading-point": ".5",
    "leading-zero": "05",
}

# An impact-speed cell on a row that differs from a checked row only there
# and in its vehicle: no full check, but its value or first error.
CUT_IMPACTS = {
    "negative-zero": ("-0", 0.0),
    "empty": ("", None),
    "overflow": ("1e400", "line 3: impact_speed must be a finite number, got '1e400'"),
    "negative-overflow": ("-1e400", "line 3: impact_speed must be a finite number, got '-1e400'"),
    "huge-integer": (
        "9" * 5000, f"line 3: impact_speed must be a finite number, got '{'9' * 5000}'"
    ),
    "exponent": ("3e1", 30.0),
    **{
        name: (cell, f"line 3: impact_speed must be a number, got {cell!r}")
        for name, cell in NOT_JSON_NUMBERS.items()
    },
}


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("cell, expected", CUT_IMPACTS.values(), ids=CUT_IMPACTS.keys())
def test_impact_cell_after_a_cut_hit_reads_as_the_full_check_does(
    protocol, tmp_path, monkeypatch, quoted, cell, expected
):
    calls = _count_checks(monkeypatch)
    lines = [HEADER, _csv_line("B"), _csv_line("A", impact_speed=cell)]
    path, text = _write(tmp_path, _quote_first_row(lines) if quoted else lines)
    got = _read(path, protocol)
    assert calls == ["B"]
    assert got == _csv_reference(text, protocol)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert repr(got[1].outcome.impact_speed) == repr(expected)


def test_line_spanning_impact_cell_after_a_cut_hit_names_the_line_its_row_starts_on(
    protocol, tmp_path, monkeypatch
):
    calls = _count_checks(monkeypatch)
    lines = [HEADER, _csv_line("B"), _csv_line("C"), _csv_line("A", impact_speed='"3\r\n0\n1"')]
    path, text = _write(tmp_path, lines)
    got = _read(path, protocol)
    assert calls == ["B"]
    assert got == _csv_reference(text, protocol)
    assert got == "line 4: impact_speed must be a number, got '3\\r\\n0\\n1'"


# A good row, then a row with bad cells; it keeps the first error of a full check.
BAD_CELLS = {
    "outcome": ({"outcome": "meh"}, "line 3: unknown outcome 'meh'"),
    "impact-speed": ({"impact_speed": "x"}, "line 3: impact_speed must be a number, got 'x'"),
    "impact-speed-inf": (
        {"impact_speed": "inf"}, "line 3: impact_speed must be a finite number, got 'inf'"
    ),
    "intervention": (
        {"intervention": "maybe"}, "line 3: intervention must be a boolean, got 'maybe'"
    ),
    # a boolean cell is exactly "true" or "false"
    "intervention-padded": (
        {"intervention": " Yes "}, "line 3: intervention must be a boolean, got ' Yes '"
    ),
    "intervention-upper": (
        {"intervention": "TRUE"}, "line 3: intervention must be a boolean, got 'TRUE'"
    ),
    "intervention-one": ({"intervention": "1"}, "line 3: intervention must be a boolean, got '1'"),
    "projected": ({"projected": "2"}, "line 3: projected must be a boolean, got '2'"),
    "projected-no": ({"projected": "no"}, "line 3: projected must be a boolean, got 'no'"),
    "pre-test": ({"pre_test": "skipped"}, "line 3: pre_test must be 'passed' or 'failed'"),
    "missing-outcome": ({"outcome": ""}, "line 3: missing field 'outcome'"),
    "outcome-before-tg-speed": (
        {"outcome": "meh", "tg_speed": "x"}, "line 3: unknown outcome 'meh'"
    ),
    "scenario-before-intervention": (
        {"scenario": "CCRx", "intervention": "maybe"}, "line 3: unknown scenario 'CCRx'"
    ),
    "light-before-pre-test": (
        {"light": "dusk", "pre_test": "x"}, "line 3: unknown light 'dusk'"
    ),
    "pre-test-before-scenario": (
        {"scenario": "CCRx", "pre_test": "x"}, "line 3: pre_test must be 'passed' or 'failed'"
    ),
    # each cell in one of the other number columns in turn
    **{
        f"{column}-{name}": ({column: cell}, f"line 3: {column} must be a number, got {cell!r}")
        for (name, cell), column in zip(
            NOT_JSON_NUMBERS.items(), cycle(("vut_speed", "tg_speed", "overlap"))
        )
    },
}


@pytest.mark.parametrize("cells, expected", BAD_CELLS.values(), ids=BAD_CELLS.keys())
def test_bad_cells_after_a_good_row_keep_their_first_error(protocol, tmp_path, cells, expected):
    path, text = _write(tmp_path, [HEADER, _csv_line("B"), _csv_line("A", **cells)])
    assert _read(path, protocol) == _csv_reference(text, protocol) == expected


def test_rows_differing_only_in_vehicle_and_impact_never_reach_the_row_check(
    protocol, golden, tmp_path, monkeypatch
):
    _, cells = golden
    at = LOG_COLUMNS.index("impact_speed")
    impacts = sorted({row[at] for row in cells}) + ["-0", "0", "12.25", ""]
    lines = [HEADER, *(",".join(row) for row in cells)]
    # Every row again under a new vehicle, with some seen or new impact
    # speed: each row above passed the check, so none of these takes it.
    lines += [
        ",".join((f"N{i}", *row[1:at], impacts[i % len(impacts)], *row[at + 1:]))
        for i, row in enumerate(cells)
    ]
    calls = _count_checks(monkeypatch)
    path, text = _write(tmp_path, lines)
    records = read_log(path, protocol).records
    assert records == _csv_reference(text, protocol)
    assert not any(str(v).startswith("N") for v in calls)
    assert len(calls) < len(cells)
    for old, new in zip(records, records[len(cells):]):
        assert new.config is old.config and new.pre_test == old.pre_test


def test_random_plain_csv_files_read_like_the_reference(protocol, golden, tmp_path):
    """Seeded edits of a quote-free export: cells swapped, emptied or doubled, odd characters."""
    rng = random.Random("plain-csv")
    _, cells = golden
    junk = ["", " ", "x", "\x0b", "\x1c", "\u2028", "\x85", "\t", "1e400", "-0", "NaN", "yes"]
    for _ in range(40):
        rows = [list(cells[i]) for i in rng.sample(range(len(cells)), 12)]
        rows += [["V9"] + rows[rng.randrange(12)][1:] for _ in range(4)]
        for row in rng.sample(rows, 3):
            row[rng.randrange(len(row))] = rng.choice(junk + row)
        lines = [HEADER] + [",".join(row) for row in rows]
        for _ in range(rng.randrange(3)):
            lines.insert(rng.randrange(1, len(lines) + 1), rng.choice(["", " ", ",", "V1"]))
        path, text = _write(tmp_path, lines)
        assert _read(path, protocol) == _csv_reference(text, protocol), text


# ---------------------------------------------------------------------------
# Seeded mutations of the golden log

BASE_ROWS = 24  # unmutated rows before the mutated one
# One field's value replaced by this text (JSON) or cell (CSV).
JSON_VALUES = {
    "nan": "NaN",
    "inf": "Infinity",
    "-inf": "-Infinity",
    "true": "true",
    "list": "[1]",
    "object": '{"a": 1}',
    "string": '"x"',
    "number": "12.5",
    "integer": "7",
    "one": "1",
    "string-true": '"true"',
    "yes": '"yes"',
    "empty": '""',
    "null": "null",
    "huge-integer": "9" * 5000,
}
CSV_CELLS = {
    "nan": "nan",
    "inf": "inf",
    "-inf": "-Infinity",
    "true": "true",
    "list": "[1]",
    "string": "x",
    "number": "12.5",
    "integer": "7",
    "one": "1",
    "upper-true": "TRUE",
    "padded-yes": " Yes ",
    "empty": "",
    "null": "null",
    "huge-integer": "9" * 5000,
    "quote-and-break": 'a,"b"\nc',
}


@pytest.fixture(scope="module")
def golden(protocol, tmp_path_factory):
    """The golden log's rows as dicts, and the cells of its CSV export, row for row."""
    export = tmp_path_factory.mktemp("export") / "campaign.csv"
    write_log(read_log(GOLDEN_LOG, protocol), export)
    header, *cells = csv.reader(io.StringIO(export.read_text(encoding="utf-8")))
    assert tuple(header) == LOG_COLUMNS
    rows = [json.loads(line) for line in GOLDEN_LOG.read_text(encoding="utf-8").splitlines()]
    return rows, cells


def _pick(rng, rows, field):
    """Indices of seeded base rows, and of one of them to copy and mutate.

    The copy gets another vehicle, so before its mutation it differs from a
    base row only there (and, in JSON, in an impact speed); it has ``field``
    where some base row does.
    """
    base = rng.sample(range(len(rows)), BASE_ROWS)
    with_field = [i for i in base if field in rows[i]] or base
    return base, rng.choice(with_field)


def _escape_first(text):
    return "\\u%04x" % ord(text[0]) + text[1:]


def _json_mutations(target, field):
    """(name, line) for each mutation of ``field`` in ``target``."""
    pairs = [(json.dumps(k), json.dumps(v)) for k, v in target.items()]
    at = next((i for i, (k, _) in enumerate(pairs) if k == json.dumps(field)), None)

    def line(items):
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"

    def with_value(text):
        if at is None:
            return pairs + [(json.dumps(field), text)]
        return pairs[:at] + [(pairs[at][0], text)] + pairs[at + 1:]

    mutations = [(name, line(with_value(text))) for name, text in JSON_VALUES.items()]
    if at is not None:
        key, value = pairs[at]
        body = value.strip('"') if value.startswith('"') else value
        escaped_key = '"' + _escape_first(key[1:])
        mutations += [
            ("missing", line(pairs[:at] + pairs[at + 1:])),
            ("escaped-key", line(pairs[:at] + [(escaped_key, value)] + pairs[at + 1:])),
            ("escaped-value", line(with_value('"' + _escape_first(body) + '"'))),
            ("duplicate-same", line(pairs + [(key, value)])),
            ("duplicate-other", line(pairs + [(key, '"x"')])),
            ("duplicate-first", line([(key, '"x"')] + pairs)),
        ]
    return mutations


def _csv_text(header, rows, quote_last=False):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows[:-1] if quote_last else rows)
    if quote_last:
        csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL).writerow(rows[-1])
    return buffer.getvalue()


def _csv_mutations(rows, field):
    """(name, text) for each mutation of ``field`` in the last CSV row."""
    col = LOG_COLUMNS.index(field)
    mutations = []
    for name, cell in CSV_CELLS.items():
        mutated = rows[-1][:col] + [cell] + rows[-1][col + 1:]
        mutations.append((name, _csv_text(LOG_COLUMNS, rows[:-1] + [mutated])))
    mutations.append(("quoted", _csv_text(LOG_COLUMNS, rows, quote_last=True)))
    # The column again at the end: equal cells, but "x" in the mutated row.
    doubled = [r + [r[col]] for r in rows[:-1]] + [rows[-1] + ["x"]]
    mutations.append(("duplicate-column", _csv_text(LOG_COLUMNS + (field,), doubled)))
    return mutations


def _mutated_logs(golden, fmt, field):
    rows, cells = golden
    base, target = _pick(random.Random(f"{fmt}-{field}"), rows, field)
    if fmt == "jsonl":
        head = "".join(json.dumps(rows[i]) + "\n" for i in base)
        copy = dict(rows[target], vehicle="Z9")
        if copy["outcome"] == "impacted":  # each mutation crosses the impact cut
            copy["impact_speed"] /= 2
        mutations = _json_mutations(copy, field)
        return [(name, head + line + "\n") for name, line in mutations]
    return _csv_mutations([cells[i] for i in base] + [["Z9"] + cells[target][1:]], field)


@pytest.mark.parametrize("field", LOG_COLUMNS)
@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_mutated_log_reads_like_the_reference_and_validates_cleanly(
    protocol, golden, tmp_path, capsys, fmt, field
):
    reference = _jsonl_reference if fmt == "jsonl" else _csv_reference
    path = tmp_path / f"log.{fmt}"
    for name, text in _mutated_logs(golden, fmt, field):
        path.write_text(text, encoding="utf-8")
        got = _read(path, protocol)
        assert got == reference(text, protocol), name
        if isinstance(got, str):
            assert got.startswith(f"line {BASE_ROWS + 1 + (fmt == 'csv')}: "), (name, got)
        code = main(["validate", "--protocol", str(bundled_protocol_path()), "--log", str(path)])
        assert code in (0, 1, 2), name
        assert "Traceback" not in capsys.readouterr().err, name


def test_mutated_logs_exit_cleanly_from_the_command_line(golden, tmp_path):
    rng = random.Random("command-line")
    src = str(Path(aebscore.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    chosen = [("jsonl", "vehicle", "null")] + [
        (fmt, rng.choice(LOG_COLUMNS), None) for fmt in ("jsonl", "csv", "csv")
    ]
    for fmt, field, name in chosen:
        logs = dict(_mutated_logs(golden, fmt, field))
        name = name or rng.choice(sorted(logs))
        path = tmp_path / f"{name}.{fmt}"
        path.write_text(logs[name], encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "aebscore", "validate",
             "--protocol", str(bundled_protocol_path()), "--log", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode in (0, 1, 2), (fmt, field, name)
        assert "Traceback" not in result.stderr, (fmt, field, name)
