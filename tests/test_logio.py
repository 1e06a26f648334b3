import csv
import gc
import io
import json
import math
import random
import re
import tracemalloc

import pytest

from aebscore import logio
from aebscore.campaign import CampaignLog, OutcomeKind, TestOutcome, TestRecord
from aebscore.inputs import load_simulation_spec
from aebscore.logio import LOG_COLUMNS, LogFormatError, read_log, write_log
from aebscore.cli import main
from aebscore.protocol import bundled_protocol_path, enumerate_configs
from aebscore.simulate import simulate_campaign
from reference import record_to_row


def _sample_log(protocol):
    configs = enumerate_configs(protocol, scenario="CCRs", light="day")
    records = (
        TestRecord("1A", configs[0], TestOutcome.avoided(), pre_test="passed"),
        TestRecord("1A", configs[1], TestOutcome.impacted(42.5, projected=True)),
        TestRecord("1A", configs[2], TestOutcome.judged()),
    )
    return CampaignLog(protocol=protocol, records=records)


def _located(path, message):
    """The pattern of a log error: ``log <file>: `` and then ``message``, a pattern."""
    return rf"^log {re.escape(str(path))}: {message}"


def _keys(log):
    return [
        (r.vehicle, r.config.key(), r.outcome.kind, r.outcome.impact_speed, r.pre_test)
        for r in log.records
    ]


def test_jsonl_round_trip(protocol, tmp_path):
    log = _sample_log(protocol)
    path = tmp_path / "campaign.jsonl"
    write_log(log, path)
    again = read_log(path, protocol)
    assert _keys(again) == _keys(log)
    assert again.records[1].outcome.projected is True


def test_csv_round_trip(protocol, tmp_path):
    log = _sample_log(protocol)
    path = tmp_path / "campaign.csv"
    write_log(log, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == (
        "vehicle,scenario,light,vut_speed,tg_speed,overlap,outcome,"
        "impact_speed,intervention,projected,pre_test"
    )
    again = read_log(path, protocol)
    assert _keys(again) == _keys(log)
    assert again.records[1].outcome.projected is True
    assert again.records[2].outcome.intervention is None


def test_unknown_scenario_rejected(protocol, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"vehicle":"V","scenario":"ZZZ","light":"day","vut_speed":55,"overlap":100,"outcome":"avoided"}\n'
    )
    with pytest.raises(LogFormatError, match="unknown scenario"):
        read_log(path, protocol)


def test_malformed_json_rejected(protocol, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{nope\n")
    with pytest.raises(LogFormatError, match="line 1"):
        read_log(path, protocol)


def test_bad_outcome_and_light_rejected(protocol, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"vehicle":"V","scenario":"CCRs","light":"dusk","vut_speed":55,"overlap":100,"outcome":"avoided"}\n'
    )
    with pytest.raises(LogFormatError, match="unknown light"):
        read_log(path, protocol)
    path.write_text(
        '{"vehicle":"V","scenario":"CCRs","light":"day","vut_speed":55,"overlap":100,"outcome":"meh"}\n'
    )
    with pytest.raises(LogFormatError, match="unknown outcome"):
        read_log(path, protocol)


def test_unknown_csv_column_rejected(protocol, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("vehicle,scenario,light,vut_speed,overlap,outcome,bogus\n")
    with pytest.raises(LogFormatError, match="bogus"):
        read_log(path, protocol)


def test_unlicensed_settings_parse_but_flag_in_validation(protocol, tmp_path):
    from aebscore.campaign import validate_log

    path = tmp_path / "odd.jsonl"
    path.write_text(
        '{"vehicle":"V","scenario":"CCRs","light":"day","vut_speed":60,"overlap":100,"outcome":"avoided"}\n'
    )
    log = read_log(path, protocol)
    assert len(log.records) == 1
    assert [d.code for d in validate_log(log)] == ["unlicensed-config"]


def test_licensed_rows_resolve_to_canonical_configs(protocol, tmp_path):
    log = _sample_log(protocol)
    path = tmp_path / "campaign.csv"
    write_log(log, path)
    canonical = set(map(id, protocol.configs))
    assert all(id(r.config) in canonical for r in read_log(path, protocol).records)
    # a second read shares the same objects
    first, second = read_log(path, protocol), read_log(path, protocol)
    assert all(a.config is b.config for a, b in zip(first.records, second.records))


def test_off_lattice_row_gets_a_fresh_config(protocol, tmp_path):
    path = tmp_path / "odd.jsonl"
    path.write_text(
        '{"vehicle":"V","scenario":"CCRs","light":"day","vut_speed":60,"overlap":100,"outcome":"avoided"}\n'
    )
    config = read_log(path, protocol).records[0].config
    assert config.key() not in protocol.index
    assert all(config is not c for c in protocol.configs)
    assert config.scenario is protocol.scenario("CCRs")


@pytest.mark.parametrize("field", ["vut_speed", "overlap", "tg_speed", "impact_speed"])
@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_non_finite_numbers_rejected_with_location(protocol, tmp_path, field, value):
    row = {
        "vehicle": "V",
        "scenario": "CCRm",
        "light": "day",
        "vut_speed": "55",
        "tg_speed": "20",
        "overlap": "100",
        "outcome": "impacted",
        "impact_speed": "30",
    }
    row[field] = value
    path = tmp_path / "bad.csv"
    path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
    with pytest.raises(LogFormatError, match=rf"line 2: {field} must be a finite number"):
        read_log(path, protocol)


def test_non_finite_json_literal_rejected(protocol, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"vehicle":"V","scenario":"CCRs","light":"day","vut_speed":NaN,"overlap":100,"outcome":"avoided"}\n'
    )
    with pytest.raises(LogFormatError, match="line 1: vut_speed must be a finite number"):
        read_log(path, protocol)


# Column order of a third-party track export; differs from LOG_COLUMNS.
EXPORT_COLUMNS = (
    "vehicle", "scenario", "light", "overlap", "tg_speed", "vut_speed",
    "outcome", "intervention", "impact_speed", "projected", "pre_test",
)


def _row_by_row(rows, protocol):
    """Parse each row on its own, as a reference for ``read_log``."""

    def number(value):
        return None if value in (None, "") else float(value)

    def flag(value):
        return None if value in (None, "") else value is True or value == "true"

    records = []
    for row in rows:
        key = (
            row["scenario"], row["light"], number(row["overlap"]),
            number(row["vut_speed"]), number(row.get("tg_speed")),
        )
        outcome = TestOutcome(
            OutcomeKind(row["outcome"]),
            impact_speed=number(row.get("impact_speed")),
            intervention=flag(row.get("intervention")),
            projected=flag(row.get("projected")),
        )
        i = protocol.index.get(key)
        config = None if i is None else protocol.configs[i]
        records.append((str(row["vehicle"]), config, outcome, row.get("pre_test") or None))
    return records


def _simulated_log(protocol):
    oracle = {"type": "random", "pretest_fail_prob": 0.3, "never_prob": 0.2}
    spec = load_simulation_spec(
        {"seed": 7, "vehicles": [{"id": f"V{i}", "oracle": oracle} for i in range(8)]}
    )
    return simulate_campaign(protocol, spec)


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_read_log_matches_a_row_by_row_parse(protocol, tmp_path, suffix):
    log = _simulated_log(protocol)
    path = tmp_path / f"campaign{suffix}"
    if suffix == ".jsonl":
        write_log(log, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
    else:
        rows = [
            {k: "" if v is None else str(v).lower() if isinstance(v, bool) else str(v)
             for k, v in record_to_row(r).items()}
            for r in log.records
        ]
        with path.open("w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=EXPORT_COLUMNS, restval="")
            writer.writeheader()
            writer.writerows(rows)
    expected = _row_by_row(rows, protocol)
    got = read_log(path, protocol).records
    assert len(got) == len(expected) == len(log.records)
    assert len({r.vehicle for r in got}) == 8
    for record, (vehicle, config, outcome, pre_test) in zip(got, expected):
        assert record.vehicle == vehicle
        assert config is not None and record.config is config
        assert record.outcome == outcome
        assert record.pre_test == pre_test


_ROW = {"scenario": "CCRm", "light": "day", "vut_speed": 55, "tg_speed": 20, "overlap": 100,
        "outcome": "impacted", "impact_speed": 30, "intervention": True}


@pytest.mark.parametrize(
    "field, good, bad, message",
    [
        ("vut_speed", 1, True, "vut_speed must be a number"),
        ("intervention", True, 1, "intervention must be a boolean"),
        ("tg_speed", 20, [20], "tg_speed must be a number"),
    ],
)
def test_equal_values_of_another_type_are_parsed_again(
    protocol, tmp_path, field, good, bad, message
):
    rows = [dict(_ROW, vehicle="A", **{field: good}), dict(_ROW, vehicle="B", **{field: bad})]
    assert rows[0][field] == rows[1][field] or field == "tg_speed"
    path = tmp_path / "log.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(LogFormatError, match=_located(path, f"line 2: {message}")):
        read_log(path, protocol)


def test_negative_zero_parses_like_zero(protocol, tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(
        '{"vehicle":"A","scenario":"CCRs","light":"day","vut_speed":-0.0,"overlap":100,"outcome":"avoided"}\n'
        '{"vehicle":"B","scenario":"CCRs","light":"day","vut_speed":0.0,"overlap":100,"outcome":"avoided"}\n'
    )
    speeds = [r.config.vut_speed for r in read_log(path, protocol).records]
    assert [math.copysign(1.0, s) for s in speeds] == [1.0, 1.0]


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_bad_row_after_many_good_ones_is_located(protocol, tmp_path, suffix):
    good = [dict(_ROW, vehicle=f"V{i}", intervention="true") for i in range(200)]
    rows = good + [dict(good[0], vehicle="X", outcome="meh")]
    path = tmp_path / f"log{suffix}"
    if suffix == ".jsonl":
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        line = 201
    else:
        lines = [",".join(rows[0])] + [",".join(map(str, r.values())) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        line = 202
    with pytest.raises(LogFormatError, match=_located(path, f"line {line}: unknown outcome 'meh'")):
        read_log(path, protocol)


def test_repeated_rows_share_one_outcome(protocol, tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "vehicle,scenario,light,vut_speed,overlap,outcome,impact_speed,intervention\n"
        "A,CCRs,day,60,100,impacted,20,true\n"
        "B,CCRs,day,60,100,impacted,20,true\n"
        "C,CCRs,day,60,100,impacted,21,true\n"
    )
    a, b, c = read_log(path, protocol).records
    assert [a.vehicle, b.vehicle, c.vehicle] == ["A", "B", "C"]
    assert a.outcome is b.outcome and a.config is b.config
    assert c.outcome is not a.outcome and c.outcome.impact_speed == 21


_IMPACT_ROW = {"vehicle": "V", **_ROW, "intervention": "true"}  # the vehicle first, as plain CSV is read
_BAD_SPEEDS = {  # a bad impact cell -> (its JSON text, the error it gives)
    "abc": ('"abc"', "impact_speed must be a number, got 'abc'"),
    "inf": ('"inf"', "impact_speed must be a finite number, got 'inf'"),
    "1e400": ("1e400", "impact_speed must be a finite number, got '1e400'"),
    "05": ('"05"', "impact_speed must be a number, got '05'"),
}


@pytest.mark.parametrize("bad", _BAD_SPEEDS)
@pytest.mark.parametrize("form", ["plain-csv", "quoted-csv", "jsonl"])
def test_a_bad_impact_speed_on_a_checked_row_shape_is_located(protocol, tmp_path, form, bad):
    # Line 3 repeats line 2, a checked row of the same vehicle, but for its
    # impact speed: a match on everything else must still name line 3.
    text, message = _BAD_SPEEDS[bad]
    rows = [dict(_IMPACT_ROW, vehicle="W"), _IMPACT_ROW, dict(_IMPACT_ROW, impact_speed=bad)]
    if form == "jsonl":
        path = tmp_path / "log.jsonl"
        lines = [json.dumps(r) for r in rows]
        lines[2] = lines[2].replace(json.dumps(bad), text)
        if bad == "1e400":  # the decoder reads the literal as inf
            message = message.replace("'1e400'", "inf")
    else:
        path = tmp_path / "log.csv"
        quote = '"' if form == "quoted-csv" else ""
        lines = [",".join(_IMPACT_ROW)] + [
            ",".join(f"{quote}{v}{quote}" for v in r.values()) for r in rows[1:]
        ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogFormatError, match=_located(path, f"line 3: {re.escape(message)}$")):
        read_log(path, protocol)


def test_plain_csv_checks_each_row_shape_once_whatever_its_impact_speeds(
    protocol, tmp_path, monkeypatch
):
    configs = enumerate_configs(protocol, scenario="CCRm", light="day")[:3]
    speeds = iter(range(1, 1000))
    records = []
    for vehicle in (f"V{i}" for i in range(30)):  # every impact its own measured speed
        records.append(TestRecord(vehicle, configs[0], TestOutcome.avoided()))
        for config, flag in zip(configs, (True, False, None)):
            outcome = TestOutcome.impacted(next(speeds) / 8, intervention=flag)
            records.append(TestRecord(vehicle, config, outcome))
    path = tmp_path / "log.csv"
    write_log(CampaignLog(protocol=protocol, records=tuple(records)), path)
    assert '"' not in path.read_text()
    calls = []
    entry = logio._CsvRows.entry
    monkeypatch.setattr(logio._CsvRows, "entry", lambda self, cells: calls.append(1) or entry(self, cells))
    got = read_log(path, protocol).records
    # The four row shapes once each, then each later vehicle's first line:
    # not each impact line.
    assert len(calls) == 4 + 29
    assert got == tuple(records)


def _csv_text(header, *rows):
    return "\n".join((",".join(header),) + rows) + "\n"


_HEADER = ("vehicle", "scenario", "light", "vut_speed", "overlap", "outcome")


@pytest.mark.parametrize(
    "rows, line",
    [
        (("", "V1,CCRs,day,55,100,meh"), 3),
        (("", "", "V1,CCRs,day,55,100,avoided", "", "V2,CCRs,day,55,100,meh"), 6),
        (('"V\n1",CCRs,day,55,100,avoided', "V2,CCRs,day,55,100,meh"), 4),
        (('"V\n1",CCRs,day,55,100,meh',), 2),
    ],
    ids=["blank", "blanks", "after-two-line-row", "two-line-row"],
)
def test_csv_errors_name_the_physical_line(protocol, tmp_path, rows, line):
    path = tmp_path / "log.csv"
    path.write_text(_csv_text(_HEADER, *rows))
    with pytest.raises(LogFormatError, match=_located(path, f"line {line}: unknown outcome 'meh'")):
        read_log(path, protocol)


def test_csv_row_with_extra_cells_names_the_count(protocol, tmp_path):
    path = tmp_path / "log.csv"
    rows = ("V1,CCRs,day,55,100,avoided", "", "V2,CCRs,day,55,100,avoided,x,")
    path.write_text(_csv_text(_HEADER, *rows))
    message = r"line 4: unknown field\(s\): 8 cells for 6 columns$"
    with pytest.raises(LogFormatError, match=_located(path, message)):
        read_log(path, protocol)


def test_csv_cell_beyond_the_field_limit_is_a_located_error(protocol, tmp_path):
    limit = csv.field_size_limit()
    path = tmp_path / "log.csv"
    rows = ("V1,CCRs,day,55,100,avoided", "V2,CCRs,day,55,100," + "x" * (limit + 1))
    path.write_text(_csv_text(_HEADER, *rows))
    message = rf"line 3: field larger than field limit \({limit}\)"
    with pytest.raises(LogFormatError, match=_located(path, message)):
        read_log(path, protocol)
    assert csv.field_size_limit() == limit


def _reference_write(records, path):
    """Encode every record in full, one row at a time."""

    def cell(value):
        if value is None:
            return ""
        text = ("true" if value else "false") if isinstance(value, bool) else str(value)
        # quoted when it holds a delimiter, a quote or either line-end character
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    if path.suffix == ".csv":
        lines = [",".join(LOG_COLUMNS) + "\n"]
        for record in records:
            row = record_to_row(record)
            lines.append(",".join(cell(row.get(k)) for k in LOG_COLUMNS) + "\n")
        return "".join(lines).encode("utf-8")
    lines = [json.dumps(record_to_row(r), sort_keys=True) + "\n" for r in records]
    return "".join(lines).encode("utf-8")


VEHICLES = ("a,b", 'say "hi"', "two\nlines", "Zürich ß ✓", "", "cr\rhere", " padded ", "1A")
OUTCOMES = (
    TestOutcome.avoided(),
    TestOutcome(OutcomeKind.AVOIDED),
    TestOutcome.impacted(30.5, intervention=False, projected=True),
    TestOutcome.impacted(42, intervention=True, projected=False),
    TestOutcome(OutcomeKind.IMPACTED, impact_speed=12.25),
    TestOutcome.judged(),
    TestOutcome(OutcomeKind.NOT_EXECUTED),
    # one row shape at many speeds: each line prints its own
    *(
        TestOutcome.impacted(speed, intervention=True, projected=False)
        for speed in (42.0, -0.0, 0.1 + 0.2, 1e16, 1e300, 5e-324, math.inf, math.nan)
    ),
)


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_write_log_matches_a_row_by_row_writer(protocol, tmp_path, suffix):
    # tg_speed absent (CCRs) and present (CCRm); each optional outcome field
    # and pre_test both set and unset; every row repeated across vehicles.
    configs = enumerate_configs(protocol, scenario="CCRs")[:3] + enumerate_configs(
        protocol, scenario="CCRm"
    )[:3]
    records = [
        TestRecord(vehicle, config, outcome, pre_test)
        for config in configs
        for outcome in OUTCOMES
        for pre_test in (None, "passed", "failed")
        for vehicle in VEHICLES
    ]
    random.Random(1).shuffle(records)
    records.append(TestRecord("V", configs[0], TestOutcome(OutcomeKind.AVOIDED, projected=False)))
    path = tmp_path / f"log{suffix}"
    for chosen in (records, records[:1], []):
        write_log(CampaignLog(protocol=protocol, records=tuple(chosen)), path)
        assert path.read_bytes() == _reference_write(chosen, path)


def test_jsonl_vehicle_holding_a_raw_line_separator_reads_back(protocol, tmp_path):
    # Valid JSON may hold these raw inside a string; only "\n" ends a line.
    config = enumerate_configs(protocol, scenario="CCRs")[0]
    vehicles = ["A\u2028B", "C\u2029D", "E\u0085F", "G\x1cH", "plain"]
    rows = [record_to_row(TestRecord(v, config, TestOutcome.avoided())) for v in vehicles]
    path = tmp_path / "log.jsonl"
    path.write_text(
        "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8"
    )
    assert [r.vehicle for r in read_log(path, protocol).records] == vehicles


def test_csv_vehicle_holding_a_carriage_return_round_trips(protocol, tmp_path, capsys):
    # write_log quotes a cell holding "\r"; read_log reads CSV without newline translation.
    configs = enumerate_configs(protocol, scenario="CCRs", light="day")
    vehicles = ["A\rB", "A\r\nB", "C\nD", "plain"]
    # an impact below an avoided speed of the same series: one finding per vehicle
    impact = TestOutcome.impacted(10.0, intervention=False)
    records = tuple(
        r for v in vehicles
        for r in (TestRecord(v, configs[0], impact), TestRecord(v, configs[1], TestOutcome.avoided()))
    )
    log = CampaignLog(protocol=protocol, records=records)
    csv_path, jsonl_path = tmp_path / "log.csv", tmp_path / "log.jsonl"
    write_log(log, csv_path)
    write_log(log, jsonl_path)
    assert b'"A\rB"' in csv_path.read_bytes() and b'"A\r\nB"' in csv_path.read_bytes()
    assert read_log(csv_path, protocol).records == records
    assert list(read_log(csv_path, protocol).vehicles) == vehicles
    # validate reads both files alike: same findings, same exit code, no input error
    outputs = []
    for path in (csv_path, jsonl_path):
        code = main(["validate", "--protocol", str(bundled_protocol_path()), "--log", str(path)])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 1 and "A\r\nB" in outputs[0][1].out and not outputs[0][1].err
    # the same file with CRLF line ends still reads; the "\n" inside "C\nD" becomes "\r\n" too
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(csv_path.read_bytes().replace(b"\n", b"\r\n").replace(b"\r\r\n", b"\r\n"))
    again = read_log(crlf, protocol).records
    assert [r.vehicle for r in again] == [r.vehicle.replace("C\nD", "C\r\nD") for r in records]
    assert [(r.config, r.outcome) for r in again] == [(r.config, r.outcome) for r in records]


def test_jsonl_with_crlf_line_ends_reads_with_the_same_line_numbers(protocol, tmp_path):
    row = '{"vehicle":"%s","scenario":"CCRs","light":"day","vut_speed":55,"overlap":100,"outcome":"%s"}'
    good = [row % ("V1", "avoided"), "", row % ("V2", "avoided"), row % ("V3", "avoided")]
    bad = good[:3] + [row % ("V3", "meh")]
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    lf.write_bytes("\n".join(good).encode() + b"\n")
    crlf.write_bytes("\r\n".join(good).encode() + b"\r\n")
    assert read_log(crlf, protocol).records == read_log(lf, protocol).records
    assert len(read_log(crlf, protocol).records) == 3
    for path, sep in ((lf, "\n"), (crlf, "\r\n")):
        path.write_bytes(sep.join(bad).encode() + sep.encode())
        with pytest.raises(LogFormatError, match=_located(path, r"line 4: unknown outcome 'meh'$")):
            read_log(path, protocol)


# Streaming: a log is read a line at a time from its open file, which reads
# _CHUNK bytes at a time, and written logio._WRITE_BATCH lines at a time.
_CHUNK = 8192  # io.TextIOWrapper's read size
_LINE = '{"vehicle":%s,"scenario":"CCRs","light":"day","vut_speed":55,"overlap":100,"outcome":"%s"}'


def _jsonl(*rows, end="\n"):
    """JSON lines of (vehicle, outcome) pairs, each ended by ``end``; None is a blank line."""
    return "".join(
        ("" if row is None else _LINE % (json.dumps(row[0], ensure_ascii=False), row[1])) + end
        for row in rows
    )


def _read_or_error(path, protocol):
    """The vehicles of the records ``read_log`` returns, or the message it raises."""
    try:
        return [r.vehicle for r in read_log(path, protocol).records]
    except LogFormatError as exc:
        return str(exc)


def _padded(data, at):
    """``data`` after one blank line that puts its byte ``at`` first in the file's second read."""
    return b" " * (_CHUNK - at - 1) + b"\n" + data


_OK, _BAD = "avoided", "meh"
STREAM_CASES = {
    "crlf": (_jsonl(("V1", _OK), ("V2", _OK), None, ("V3", _BAD), end="\r\n"), 4),
    "lone-cr": (_jsonl(("V1", _OK), None, ("V2", _OK), ("V3", _BAD), end="\r"), 4),
    "no-final-newline": (_jsonl(("V1", _OK), ("V2", _OK)).rstrip("\n"), ["V1", "V2"]),
    "blank-lines": ("\n \n" + _jsonl(("V1", _OK), None, None, ("V2", _BAD)) + "\t\n", 6),
    "raw-separators": (
        _jsonl(("A\u2028B", _OK), ("C\u0085D", _OK), ("E\u2029F\x1cG", _OK)),
        ["A\u2028B", "C\u0085D", "E\u2029F\x1cG"],
    ),
    "multibyte": (_jsonl(("Zürich ß", _OK), ("✓ \U0001F697", _OK)), ["Zürich ß", "✓ \U0001F697"]),
}


@pytest.mark.parametrize("case", STREAM_CASES)
def test_jsonl_reads_alike_wherever_a_read_of_the_file_ends(protocol, tmp_path, case):
    # The file's first read ends before each byte of the case in turn: between
    # the "\r" and the "\n" of a line end, inside every line and inside every
    # multibyte character. The blank line in front moves each line down by one.
    text, expected = STREAM_CASES[case]
    path = tmp_path / "log.jsonl"
    data = text.encode("utf-8")
    if isinstance(expected, int):  # the line of the row with the bad outcome
        expected = f"log {path}: line {expected + 1}: unknown outcome 'meh'"
    with open(path, "w") as file:
        assert file._CHUNK_SIZE == _CHUNK
    for at in range(len(data) + 1):
        path.write_bytes(_padded(data, at))
        assert _read_or_error(path, protocol) == expected, at


def test_jsonl_line_longer_than_several_chunks(protocol, tmp_path):
    long = "L" * (3 * _CHUNK + 17)
    path = tmp_path / "log.jsonl"
    path.write_text(_jsonl(("V1", _OK), (long, _OK), ("V3", _OK)), encoding="utf-8")
    assert _read_or_error(path, protocol) == ["V1", long, "V3"]
    path.write_text(_jsonl(("V1", _OK), (long, _OK), ("V3", _BAD)), encoding="utf-8")
    assert _read_or_error(path, protocol) == f"log {path}: line 3: unknown outcome 'meh'"


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_log_of_several_chunks_writes_back_byte_for_byte(protocol, tmp_path, suffix):
    log = _simulated_log(protocol)
    first, again = tmp_path / f"first{suffix}", tmp_path / f"again{suffix}"
    write_log(log, first)
    data = first.read_bytes()
    assert data == _reference_write(log.records, first)
    assert len(data) > 2 * _CHUNK and data.count(b"\n") > 2 * logio._WRITE_BATCH
    again_log = read_log(first, protocol)
    assert again_log.records == log.records
    write_log(again_log, again)
    assert again.read_bytes() == data


@pytest.mark.parametrize("bad_row", [True, False], ids=["after-a-bad-row", "alone"])
def test_non_utf8_byte_in_a_later_chunk_is_reported_as_such(protocol, tmp_path, bad_row):
    # The bad row comes first, but the file is not UTF-8 text, and the message
    # names the byte's position in the file, not in its read. The bad bytes
    # lie several reads in, at or across the end of a read.
    for suffix, header, good in (
        (".jsonl", b"", _jsonl(("V1", _OK)).encode()),
        (".csv", ",".join(LOG_COLUMNS).encode() + b"\n", b"V1,CCRs,day,55,,100,avoided,,,,\n"),
    ):
        path = tmp_path / f"log{suffix}"
        head = header + good + (b"{not json\n" if bad_row else b"")
        head += good * (2 * _CHUNK // len(good))
        for at, bad in ((1, b"\xff"), (0, b"\xff"), (-1, b"\xc3("), (-2, b"\xe2\x9c")):
            # a blank line puts the bad bytes at byte `at` of the file's fourth read
            blank = b" " * (3 * _CHUNK + at - len(head) - 1) + b"\n"
            data = head + blank + bad + b"\n" + good
            path.write_bytes(data)
            with pytest.raises(ValueError) as info:
                read_log(path, protocol)
            assert not isinstance(info.value, LogFormatError)
            with pytest.raises(UnicodeDecodeError) as decoding:
                data.decode("utf-8")
            assert str(info.value) == f"log {path}: not UTF-8 text ({decoding.value})"


@pytest.fixture(scope="module")
def fleet_jsonl(protocol, tmp_path_factory):
    """A 100-vehicle random-oracle campaign written as JSON lines."""
    rng = random.Random(11)
    vehicles = []
    for i in range(100):
        lo = rng.uniform(0.2, 0.5)
        oracle = {
            "type": "random",
            "never_prob": rng.uniform(0.1, 0.4),
            "pretest_fail_prob": rng.uniform(0.0, 0.2),
            "impact_fraction_range": [lo, rng.uniform(lo + 0.1, 0.95)],
            "respond_prob": rng.uniform(0.7, 0.95),
        }
        vehicles.append({"id": f"{i + 1}{rng.choice(['', 'A'])}", "oracle": oracle})
    spec = load_simulation_spec({"seed": 5, "vehicles": vehicles})
    path = tmp_path_factory.mktemp("fleet") / "fleet.jsonl"
    write_log(simulate_campaign(protocol, spec), path)
    return path


def _held(call):
    """The result of ``call`` and the most memory it held beyond what it returns:
    the traced peak less what is still traced when it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current


def test_log_io_holds_less_than_half_the_file(protocol, fleet_jsonl, tmp_path):
    # Holding the text, its lines or the written text whole would each take
    # about the file's size.
    size = fleet_jsonl.stat().st_size
    log, read_held = _held(lambda: read_log(fleet_jsonl, protocol))
    assert len(log.records) == 22_400
    _, write_held = _held(lambda: write_log(log, tmp_path / "again.jsonl"))
    assert (tmp_path / "again.jsonl").read_bytes() == fleet_jsonl.read_bytes()
    assert read_held < size / 2
    assert write_held < size / 2


@pytest.mark.parametrize("copy", ["plain", "quoted", "crlf"])
def test_csv_read_holds_less_than_the_file(protocol, fleet_jsonl, tmp_path, copy):
    # Holding the text whole, its lines, or a StringIO of it (4 B per
    # character) would each take at least the file's size.
    log = read_log(fleet_jsonl, protocol)
    path = tmp_path / "fleet.csv"
    write_log(log, path)
    if copy == "quoted":
        with open(path, encoding="utf-8", newline="") as file:
            rows = list(csv.reader(file))
        with open(path, "w", encoding="utf-8", newline="") as file:
            csv.writer(file, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
    elif copy == "crlf":
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    again, held = _held(lambda: read_log(path, protocol))
    assert again.records == log.records
    assert held < path.stat().st_size


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_a_failed_read_holds_less_than_the_file(protocol, fleet_jsonl, tmp_path, suffix):
    # The read stops at line 2. Telling the bad row from a byte that is not
    # UTF-8 reads the file again a part at a time; reading it whole would
    # take at least the file's size.
    path = tmp_path / f"fleet{suffix}"
    write_log(read_log(fleet_jsonl, protocol), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    if suffix == ".csv":
        cells = lines[1].split(",")
        lines[1] = ",".join([cells[0], "Nowhere", *cells[2:]])
    else:
        lines[1] = json.dumps({**json.loads(lines[1]), "scenario": "Nowhere"}) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    message = _located(path, "line 2: unknown scenario 'Nowhere'$")
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(LogFormatError, match=message):
            read_log(path, protocol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def _retained(call):
    """The result of ``call`` and the traced memory it still holds on return."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current


@pytest.mark.parametrize("shape, limit", [("grouped", 48), ("alternating", 60)])
def test_read_log_table_retains_few_bytes_per_row(protocol, fleet_jsonl, tmp_path, shape, limit):
    # The log keeps per row one reference to an entry that rows reading
    # alike share, and per run of one vehicle's rows a length and the
    # vehicle's key string: about 35 B per row grouped by vehicle, 53 B with
    # a run per row. Keeping row numbers per row, or each row's own vehicle
    # string, takes 70 B or more in both shapes.
    path = fleet_jsonl
    if shape == "alternating":  # each vehicle's n-th row, vehicle after vehicle
        by_vehicle = {}
        for line in fleet_jsonl.read_text(encoding="utf-8").splitlines(keepends=True):
            by_vehicle.setdefault(json.loads(line)["vehicle"], []).append(line)
        path = tmp_path / "alternating.jsonl"
        path.write_text("".join(map("".join, zip(*by_vehicle.values()))), encoding="utf-8")
    log, retained = _retained(lambda: read_log(path, protocol))
    assert log.size == 22_400
    assert retained / 22_400 <= limit
    assert len(log.run_lengths) == (100 if shape == "grouped" else 22_400)
