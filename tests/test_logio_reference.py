"""``read_log`` against a row-by-row reference.

The reference decodes and checks every line on its own, with no memo. The
memo-soundness cases put each tricky JSON line after a line that differs
from it only in the vehicle, where a wrong memo key would hand back the
earlier row. The mutation cases perturb one field of one row of the golden
campaign log, and of a CSV export of it, in seeded ways (non-finite, wrong
type, empty, null, escaped, duplicated key) and require the same records or
the same located error, plus a clean exit from ``validate``.
"""

import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import aebscore
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


def _csv_reference(text, protocol):
    """Records of a CSV log, each row checked on its own.

    The last of two equal column names wins, and an empty cell is a missing
    value.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    records = []
    for cells in reader:
        if not cells:
            continue
        line = reader.line_num - sum(cell.count("\n") for cell in cells)
        row = {k: v for k, v in dict(zip(header, cells)).items() if v}
        try:
            records.append(_record_from_row(row, protocol))
        except LogFormatError as exc:
            return f"line {line}: {exc}"
    return tuple(records)


def _read(path, protocol):
    """The records ``read_log`` returns, or the message it raises."""
    try:
        return read_log(path, protocol).records
    except LogFormatError as exc:
        return str(exc)


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
}


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


def test_lines_that_differ_only_in_an_escaped_vehicle_share_one_parse(protocol, tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(ROW % '"B"' + "\n" + ROW % '"\\u00dc"' + "\n")
    first, second = read_log(path, protocol).records
    assert second.vehicle == "Ü"
    assert second.outcome is first.outcome and second.config is first.config


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
    base row only there; it has ``field`` where some base row does.
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
        mutations = _json_mutations(dict(rows[target], vehicle="Z9"), field)
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
