"""Campaign-log file I/O.

Logs are line-delimited records with the columns ``vehicle, scenario, light,
vut_speed, tg_speed, overlap, outcome, impact_speed, intervention, projected,
pre_test``, accepted as JSON lines (``.jsonl``) or CSV with identical column
names. Missing optional values are omitted (JSON) or left empty (CSV).
A number reads alike in both formats: a CSV cell, or a JSON string in a
number field, must be a JSON number in full (``_NUMBER``), so ``5_5``,
`` 3e1 ``, ``+5``, ``.5``, ``05`` and non-ASCII digits are not numbers, though
``float()`` reads them. A text ``float()`` reads as infinite or NaN is "not
a finite number", as a JSON ``NaN`` or ``1e400`` is. A boolean is a JSON
``true`` or ``false``, or a CSV cell or JSON string that is exactly one of
them: ``TRUE``, `` yes ``, ``1`` and a JSON ``1`` are not booleans.

``read_log`` streams rows straight into the log (see ``campaign.CampaignLog``):
each row appends its entry, the protocol's position of its config with the
config, outcome and pre-test, to its vehicle's entries.
Campaign logs repeat themselves: every vehicle runs the same configurations
with few distinct outcomes. ``read_log`` therefore checks each distinct row
once per call. Rows that differ only in their vehicle share one entry, and
only the first of them goes through the checks; the rest cost a lookup and
an append. A row that differs from a checked row also in its impact speed
shares all of its entry but that speed, which is parsed alone.
A JSON line, or a plain CSV line, is looked up by its text with the vehicle
cut out, before it is split or decoded. A CSV line is plain if it holds no
quote or NUL and is within ``csv.field_size_limit()``: ``csv.reader`` would
split it on its commas alone. While the header's first column is its only
``vehicle`` column and each line is plain, a line is keyed on its text after
the first comma; a line that matches a key splits alike if its vehicle cell
is one a checked line had. A line that misses is looked up once more with its
impact cell emptied too, as each impact has its own measured speed: a match
with such a vehicle cell shares the checked line's entry with that cell for
its impact speed, parsed alone, and is not keyed on its text. From the first
other line on, ``csv.reader`` reads the rest of the file. A CSV row that
reaches its cells is keyed on them with the vehicle and impact-speed cells
emptied. A match shares the checked row's entry, or all of it but a new
impact speed, parsed alone: no check spans it and another field. Any other
row takes the full check.
A JSON line is keyed on its text around the body of the first string after
the first ``"vehicle"``, which json's own string scanner reads, escapes
included. The line becomes a key only when that string is the decoded
vehicle, ``"vehicle"`` occurs once and no backslash lies outside the
string; then every other quote is a delimiter, and lines with the same key
decode to the same row but for the vehicle. A line that misses is looked
up once more with the number after its ``"impact_speed":`` cut out of its
key too (``_IMPACT``: json's ``NUMBER_RE`` in ASCII digits, as the decoder
reads a number); a match shares the checked row's entry with that number
for its impact speed, parsed alone as a CSV cell is, and keys the line's
new entry on its text as a checked line's is. Only a checked line
that is a key, holds ``"impact_speed"`` once and decoded to that number
gives such a key. A number that is not finite, any other value (``null``,
``NaN``, a string), an empty vehicle and every other line take the full
parse, as do lines equal only once decoded (``1`` and ``1.0``, another key
order). A blank line holds no ``"vehicle"``, so only a miss tests for one.
A vehicle is a non-empty string or an integer. In both formats
``\n``, ``\r\n`` and ``\r`` alone end a line, and nothing else does.
``write_log`` works the other way round: it walks the log's runs of rows
and splices each vehicle's cell and each impact speed into its rows' text.
A row is keyed on all but those two: its position (or config off the
lattice), outcome kind, intervention, projected, pre-test and whether it
has an impact speed. Each distinct key and each vehicle cell is encoded the
first time a line needs it; a speed is printed per line, as ``json.dumps``
or ``str`` prints it. The memos are locals of one call; nothing is cached
between calls. CSV errors name the physical line a row starts on.

Neither direction holds a log whole. ``read_log`` iterates the lines of the
open file and checks each as it arrives, keeping per row only its entry in
the log; a read that fails reads the file again in ``_CHECK_CHUNK``-byte
parts, to tell a byte that is not UTF-8 from a bad row. ``write_log`` keeps
one text per distinct row key and per vehicle, and writes ``_WRITE_BATCH`` lines
per call to the file's ``write``.
Every error names the file, as in ``log <file>: line N: ...``.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import re
from itertools import chain
from json.decoder import scanstring
from json.scanner import NUMBER_RE
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping

from .campaign import CampaignLog, OutcomeKind, TestOutcome
from .protocol import LIGHTS, ProtocolDefinition, TestConfig, _plain, has_lone_surrogate, read_text

LOG_COLUMNS = (
    "vehicle",
    "scenario",
    "light",
    "vut_speed",
    "tg_speed",
    "overlap",
    "outcome",
    "impact_speed",
    "intervention",
    "projected",
    "pre_test",
)
_COLUMNS = frozenset(LOG_COLUMNS)
_KINDS = {kind.value: kind for kind in OutcomeKind}
_PRE_TESTS = ("passed", "failed")
# A number as the decoder reads it, which a text value must be: json.scanner's
# NUMBER_RE with ASCII digits only, as the C scanner reads them (float() takes any).
_NUMBER = re.compile(NUMBER_RE.pattern, re.ASCII)
# What follows an "impact_speed" key up to the end of its value, when that is a number.
_IMPACT = re.compile(r'[ \t\n\r]*:[ \t\n\r]*(%s)' % NUMBER_RE.pattern, re.ASCII)
# Lines per write of a log.
_WRITE_BATCH = 256
# Bytes per read when a failed read checks the file's encoding.
_CHECK_CHUNK = 1 << 16


class LogFormatError(ValueError):
    """Raised when a campaign-log file cannot be parsed."""


def write_log(log: CampaignLog, path: str | Path) -> None:
    """Write a log as CSV (``.csv``) or JSON lines (any other suffix).

    Same bytes as encoding each record in full, but each distinct row and
    vehicle cell is encoded once per call, by the first line that holds it;
    a row's impact speed alone is printed per line (see the module docstring).
    """
    path = Path(path)
    as_csv = path.suffix.lower() == ".csv"
    # writerow returns what the file's write returns: here, the line itself. The
    # "\r" in its terminator makes it quote a cell holding one; lines end in "\n".
    encode = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n").writerow
    cells: dict[str, str] = {}  # vehicle -> its encoded cell
    # (position, or config off the lattice, outcome, pre_test) with no impact speed, or
    # (position, or config, kind, intervention, projected, pre_test) with any -> _row_text
    rows: dict[tuple, tuple[str, str, str]] = {}
    with path.open("w", encoding="utf-8") as file:
        if as_csv:
            file.write(encode(LOG_COLUMNS)[:-2] + "\n")
        lines = []
        for vehicle, entries in log.runs():
            cell = cells.get(vehicle)
            if cell is None:
                if as_csv:  # quoted as inside a row; a lone empty cell would print as ""
                    cell = cells[vehicle] = encode([_csv_cell(vehicle), ""])[:-3]
                else:
                    cell = cells[vehicle] = f'"vehicle": {json.dumps(vehicle)}, '
            for pos, config, outcome, pre_test in entries:
                impact = outcome.impact_speed
                if impact is None:
                    key, speed = (config if pos is None else pos, outcome, pre_test), ""
                else:
                    kind, _, intervention, projected = outcome
                    key = (config if pos is None else pos, kind, intervention, projected, pre_test)
                    speed = _speed_text(impact, as_csv)
                text = rows.get(key)
                if text is None:
                    text = rows[key] = _row_text(config, outcome, pre_test, as_csv, encode)
                if as_csv:  # the vehicle is column 0, the speed column 7
                    lines.append(cell + text[1] + speed + text[2])
                else:  # "impact_speed" sorts first, "vehicle" just before "vut_speed"
                    lines.append(text[0] + speed + text[1] + cell + text[2])
                if len(lines) == _WRITE_BATCH:
                    file.write("".join(lines))
                    lines.clear()
        file.write("".join(lines))


def _row_text(config, outcome, pre_test, as_csv, encode) -> tuple[str, str, str]:
    """A row's encoded text around its two holes, in line order: the vehicle
    cell and the impact speed (CSV), or the impact speed and the vehicle (JSON).
    A row with no impact speed has an empty speed hole."""
    impact, tg = outcome.impact_speed, config.tg_speed
    fields = {
        "scenario": config.code,
        "light": config.light,
        "vut_speed": _plain(config.vut_speed),
        "tg_speed": None if tg is None else _plain(tg),
        "overlap": _plain(config.overlap),
        "outcome": outcome.kind.value,
        "impact_speed": None if impact is None else 0,
        "intervention": outcome.intervention,
        "projected": outcome.projected,
        "pre_test": pre_test,
    }
    if as_csv:  # the cells before the impact cell, and after it
        cells = [_csv_cell(fields.get(k)) for k in LOG_COLUMNS]
        return "", "," + encode(cells[1:7])[:-2] + ",", "," + encode(cells[8:])[:-2] + "\n"
    # Only tg_speed is written as null.
    fields = {k: v for k, v in fields.items() if v is not None or k == "tg_speed"}
    text = json.dumps(fields, sort_keys=True)
    cut = text.rindex('"vut_speed": ')
    if impact is None:
        return "", text[:cut], text[cut:] + "\n"
    hole = len('{"impact_speed": ')  # where the 0 written for the speed stands
    return text[:hole], text[hole + 1 : cut], text[cut:] + "\n"


def _speed_text(speed, as_csv: bool) -> str:
    """An impact speed as ``json.dumps`` (JSON) or ``str`` (CSV) prints its ``_plain`` value."""
    speed = _plain(speed)
    return str(speed) if as_csv or math.isfinite(speed) else json.dumps(speed)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def read_log(path: str | Path, protocol: ProtocolDefinition) -> CampaignLog:
    """Parse a log file and resolve its rows against the protocol.

    Rows naming a scenario the protocol does not know are rejected here;
    rows whose settings are not licensed parse fine and are reported by
    ``validate_log`` instead. A licensed row resolves to the protocol's
    canonical ``TestConfig`` object in its entry in the log.
    Each distinct row is checked once per call (see the module docstring).
    """
    path = Path(path)
    read = _read_csv if path.suffix.lower() == ".csv" else _read_jsonl
    try:
        # CSV keeps its line ends as they are: a quoted cell may hold a "\r".
        with open(path, encoding="utf-8", newline="" if read is _read_csv else None) as file:
            log = CampaignLog._of_entries(protocol, read(file, protocol))
    except (LogFormatError, UnicodeDecodeError) as exc:
        if not _decodes(path):  # a file that is not UTF-8 text is reported as such
            read_text(path, "log")
        raise LogFormatError(f"log {path}: {exc}") from None
    for vehicle in log.vehicles:
        if has_lone_surrogate(vehicle):
            raise LogFormatError(f"log {path}: vehicle {vehicle!r} holds a lone surrogate")
    return log


def _decodes(path: Path) -> bool:
    """Whether the file is UTF-8 text, checked a chunk at a time."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    try:
        with open(path, "rb") as file:
            while chunk := file.read(_CHECK_CHUNK):
                decode(chunk)
        decode(b"", True)
    except UnicodeDecodeError:
        return False
    return True


def _read_jsonl(file: Iterable[str], protocol: ProtocolDefinition) -> Iterator[tuple]:
    decode = json.JSONDecoder().decode
    memo: dict[str, tuple] = {}  # line with its vehicle string's body cut out -> shared parse
    cuts: dict[str, tuple] = {}  # that key with its impact number cut out too -> shared parse
    for line, raw in enumerate(file, start=1):
        key = vehicle = impact = None
        at = raw.find('"vehicle"')
        start = raw.find('"', at + 9) if at >= 0 else -1
        if start >= 0:
            try:
                vehicle, end = scanstring(raw, start + 1)
            except ValueError:  # unterminated or bad escape: the decode below reports it
                pass
            else:
                key = raw[: start + 1] + raw[end - 1 :]
                shared = memo.get(key)
                if shared is not None and vehicle:  # an empty vehicle takes the checks
                    yield vehicle, shared
                    continue
                speed_at = key.find('"impact_speed"')
                impact = _IMPACT.match(key, speed_at + 14) if speed_at >= 0 else None
                if impact is not None:
                    cut = key[: impact.start(1)] + key[impact.end() :]
                    shared = cuts.get(cut)
                    if shared is not None and vehicle:
                        try:
                            shared = memo[key] = _with_impact(shared, impact[1])
                        except LogFormatError:  # not finite: the checks below report it
                            pass
                        else:
                            yield vehicle, shared
                            continue
        elif not raw.strip():  # a blank line holds no "vehicle"
            continue
        try:  # without its line end, which would move the position an error names
            row = decode(raw.rstrip("\n"))
        except (ValueError, RecursionError) as exc:  # also a big integer or deep nesting
            raise LogFormatError(f"line {line}: invalid JSON: {exc}") from exc
        if not isinstance(row, dict):  # the decoder makes every object a dict
            raise LogFormatError(f"line {line}: expected a JSON object")
        # The cut text is a key only if the cut string is the vehicle value and
        # every quote outside it is a delimiter (see the module docstring).
        if key is not None and (
            row.get("vehicle") != vehicle or raw.count('"vehicle"') != 1 or "\\" in key
        ):
            key = None
        try:
            vehicle, shared = _entry_from_row(row, protocol)
        except LogFormatError as exc:
            raise LogFormatError(f"line {line}: {exc}") from None
        if key is not None:
            memo[key] = shared
            # The cut number is a key only if it is the row's one impact speed:
            # "impact_speed" occurs once, none after this first one.
            if (
                impact is not None
                and key.find('"impact_speed"', impact.end()) < 0
                and row.get("impact_speed") == float(impact[1])
            ):
                cuts[cut] = shared
        yield vehicle, shared


def _read_csv(file: Iterator[str], protocol: ProtocolDefinition) -> Iterator[tuple]:
    limit = csv.field_size_limit()
    head = next(file, "")  # the first line csv.reader reads, if it runs
    header = head.rstrip("\r\n").split(",")
    line, rows = 1, None
    # The keyed loop takes the vehicle from before a line's first comma.
    if '"' not in head and "\0" not in head and len(head) <= limit and (
        header[0] == "vehicle" and header.count("vehicle") == 1
    ):
        rows = _CsvRows(header, protocol)
        memo: dict[str, tuple] = {}  # line after its vehicle cell -> entry
        cuts: dict[str, tuple] = {}  # that text with its impact cell emptied -> entry
        vehicles = set()  # vehicle cells of checked lines: a hit on one is plain too
        # Finds the impact cell in a line's text after its vehicle cell, if there is a column.
        impact_cell = rows.impact < rows.width and re.compile(
            r"(?:[^,]*,){%d}([^,\r\n]*)" % (rows.impact - 1)
        ).match
        for line, head in enumerate(file, start=2):
            vehicle, _, key = head.partition(",")
            shared = memo.get(key)
            if shared is not None and vehicle in vehicles:
                yield vehicle, shared
                continue
            if '"' in head or "\0" in head or len(head) > limit:
                break
            speed = impact_cell and impact_cell(key)
            if speed:
                cut = key[: speed.start(1)] + key[speed.end(1) :]
                shared = cuts.get(cut)
                if shared is not None and vehicle in vehicles:
                    try:
                        shared = _with_impact(shared, speed[1])
                    except LogFormatError as exc:
                        raise LogFormatError(f"line {line}: {exc}") from None
                    yield vehicle, shared
                    continue
            cells = head.rstrip("\r\n").split(",")
            if cells == [""]:
                continue
            try:
                vehicle, shared = rows.entry(cells)
            except LogFormatError as exc:
                raise LogFormatError(f"line {line}: {exc}") from None
            memo[key] = shared
            if speed:
                cuts[cut] = shared
            vehicles.add(vehicle)
            yield vehicle, shared
        else:
            return
    reader = csv.reader(chain((head,), file))
    before = line - 1  # reader.line_num counts from the line it starts on
    try:
        if rows is None:
            rows = _CsvRows(next(reader, []), protocol)
        for cells in reader:
            if not cells:
                continue
            try:
                yield rows.entry(cells)
            except LogFormatError as exc:
                # The physical line the row starts on: quoted cells may span lines.
                breaks = sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in cells)
                raise LogFormatError(f"line {before + reader.line_num - breaks}: {exc}") from None
    except csv.Error as exc:  # e.g. a cell beyond csv.field_size_limit()
        raise LogFormatError(f"line {before + reader.line_num}: {exc}") from None


class _CsvRows:
    """A CSV log's header and the memo of one read (see the module docstring)."""

    def __init__(self, header: list[str], protocol: ProtocolDefinition):
        unknown = set(header) - _COLUMNS
        if unknown:
            raise LogFormatError(f"unknown column(s) {sorted(unknown)}")
        self.header, self.protocol, self.width = header, protocol, len(header)
        columns = dict(zip(header, range(len(header))))  # the last of equal names wins
        # A missing column reads the empty cell that entry() appends to a row's key.
        self.vehicle = columns.get("vehicle", len(header))
        self.impact = columns.get("impact_speed", len(header))
        self.memo: dict = {}  # cells, vehicle and impact emptied -> (entry, impact cell)

    def entry(self, cells: list[str]) -> tuple:
        """Check one non-blank row, leaving ``cells`` as they are; ``(vehicle, entry)``."""
        if len(cells) > self.width:
            raise LogFormatError(f"unknown field(s): {len(cells)} cells for {self.width} columns")
        key = cells + [""] * (self.width + 1 - len(cells))  # an empty cell is a missing value
        vehicle, impact = key[self.vehicle], key[self.impact]
        key[self.vehicle] = key[self.impact] = ""
        key = tuple(key)
        seen = self.memo.get(key)
        if seen is not None and vehicle:  # an empty vehicle takes the checks
            shared, cell = seen
            return vehicle, shared if cell == impact else _with_impact(shared, impact)
        row = {k: v for k, v in dict(zip(self.header, cells)).items() if v}
        vehicle, shared = _entry_from_row(row, self.protocol)
        self.memo[key] = shared, impact
        return vehicle, shared


def _with_impact(shared: tuple, cell: str) -> tuple:
    """A checked entry with the impact speed of ``cell`` (a CSV cell or a JSON
    number's text), None if empty; no check spans the impact speed and another
    field, so only its number check applies."""
    pos, config, (kind, _, intervention, projected), pre_test = shared
    speed = _parse_number(cell, "impact_speed") if cell else None
    # Built directly: _replace costs twice as much, on every cut hit.
    return pos, config, TestOutcome(kind, speed, intervention, projected), pre_test


def _entry_from_row(row: Mapping, protocol: ProtocolDefinition) -> tuple:
    """Check one decoded row; ``(vehicle, (position, config, outcome, pre_test))``."""
    unknown = row.keys() - _COLUMNS
    if unknown:
        raise LogFormatError(f"unknown field(s) {sorted(unknown)}")
    try:
        vehicle = row["vehicle"]
        code = str(row["scenario"])
        light = str(row["light"])
        vut_speed = _parse_number(row["vut_speed"], "vut_speed")
        overlap = _parse_number(row["overlap"], "overlap")
        outcome_name = str(row["outcome"])
    except KeyError as exc:
        raise LogFormatError(f"missing field {exc.args[0]!r}") from None
    if isinstance(vehicle, bool) or not isinstance(vehicle, (str, int)) or vehicle == "":
        raise LogFormatError(f"vehicle must be a non-empty string or an integer, got {vehicle!r}")
    if light not in LIGHTS:
        raise LogFormatError(f"unknown light {light!r}")
    kind = _KINDS.get(outcome_name)
    if kind is None:
        raise LogFormatError(f"unknown outcome {outcome_name!r}")

    tg_speed = row.get("tg_speed")
    tg_speed = None if tg_speed is None else _parse_number(tg_speed, "tg_speed")
    impact_speed = row.get("impact_speed")
    impact_speed = None if impact_speed is None else _parse_number(impact_speed, "impact_speed")
    pre_test = row.get("pre_test")
    if pre_test is not None and pre_test not in _PRE_TESTS:
        raise LogFormatError("pre_test must be 'passed' or 'failed'")

    if not protocol.has_scenario(code):
        raise LogFormatError(f"unknown scenario {code!r}")
    pos = protocol.index.get((code, light, overlap, vut_speed, tg_speed))
    if pos is not None:
        config = protocol.configs[pos]
    else:
        config = TestConfig(
            scenario=protocol.scenario(code),
            vut_speed=vut_speed,
            tg_speed=tg_speed,
            overlap=overlap,
            light=light,
        )
    outcome = TestOutcome(
        kind=kind,
        impact_speed=impact_speed,
        intervention=_parse_bool(row.get("intervention"), "intervention"),
        projected=_parse_bool(row.get("projected"), "projected"),
    )
    return str(vehicle), (pos, config, outcome, pre_test)


def _parse_number(value, name: str) -> float:
    """A finite number, or text (a CSV cell, a JSON string) that is a JSON number."""
    if isinstance(value, bool):
        raise LogFormatError(f"{name} must be a number")
    try:
        num = float(value if isinstance(value, (int, float, str)) else str(value))
    except ValueError:
        raise LogFormatError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:  # an integer beyond float range
        num = math.inf
    if not math.isfinite(num):
        raise LogFormatError(f"{name} must be a finite number, got {value!r}")
    # float() also reads "5_5", " 3e1 ", "+5", ".5", "05" and non-ASCII digits.
    if isinstance(value, str) and _NUMBER.fullmatch(value) is None:
        raise LogFormatError(f"{name} must be a number, got {value!r}")
    # -0.0 == 0.0 but prints as "-0"; adding 0.0 gives +0.0, so rows whose
    # values compare equal parse to equal values and may share a parse.
    return num + 0.0


def _parse_bool(value, name: str) -> bool | None:
    """A JSON boolean, or text (a CSV cell, a JSON string) that is ``true`` or ``false``."""
    if value is None or isinstance(value, bool):
        return value
    if value == "true" or value == "false":
        return value == "true"
    raise LogFormatError(f"{name} must be a boolean, got {value!r}")
