"""Campaign-log file I/O.

Logs are line-delimited records with the columns ``vehicle, scenario, light,
vut_speed, tg_speed, overlap, outcome, impact_speed, intervention, projected,
pre_test``, accepted as JSON lines (``.jsonl``) or CSV with identical column
names. Missing optional values are omitted (JSON) or left empty (CSV).

``read_log`` stores rows straight into the log's table (see
``campaign.LogTable``): each row fills its vehicle's slot at the compiled
position of its config, or joins the residual. Campaign logs repeat
themselves: every vehicle runs the same configurations with few distinct
outcomes. ``read_log`` therefore parses each distinct row once per call.
Rows that differ only in their vehicle share one position, config, outcome
and pre-test, and only the first of them goes through the checks; the rest
cost a lookup and a slot store.
A row is looked up by its text with the vehicle cut out, before it is
decoded: a CSV row by its other cells, a JSON line by its text around the
body of the first string after the first ``"vehicle"``, which json's own
string scanner reads, escapes included. A JSON line becomes a key only when
that string is the decoded vehicle, ``"vehicle"`` occurs once and no
backslash lies outside the string; then every other quote is a delimiter,
and lines with the same key decode to the same row but for the vehicle.
Other lines, and lines equal only once decoded (``1`` and ``1.0``, another
key order), take the full parse. A vehicle is a non-empty string or an
integer. Only ``\n`` ends a JSON line.
``write_log`` works the other way round: it encodes each distinct row once
and splices each vehicle's cell into it, putting each line at the row
number the table keeps. Both memos are locals of one call; nothing is
cached between calls. CSV errors name the physical line a row starts on.
"""

from __future__ import annotations

import csv
import io
import json
import math
from json.decoder import scanstring
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Mapping

from .campaign import (
    CampaignLog,
    LogTable,
    OutcomeKind,
    TestOutcome,
    TestRecord,
    VehicleProfile,
)
from .protocol import LIGHTS, ProtocolDefinition, TestConfig, read_text

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


class LogFormatError(ValueError):
    """Raised when a campaign-log file cannot be parsed."""


def record_to_row(record: TestRecord) -> dict:
    c = record.config
    row: dict = {
        "vehicle": record.vehicle,
        "scenario": c.code,
        "light": c.light,
        "vut_speed": _plain(c.vut_speed),
        "tg_speed": None if c.tg_speed is None else _plain(c.tg_speed),
        "overlap": _plain(c.overlap),
        "outcome": record.outcome.kind.value,
    }
    if record.outcome.impact_speed is not None:
        row["impact_speed"] = _plain(record.outcome.impact_speed)
    if record.outcome.intervention is not None:
        row["intervention"] = record.outcome.intervention
    if record.outcome.projected is not None:
        row["projected"] = record.outcome.projected
    if record.pre_test is not None:
        row["pre_test"] = record.pre_test
    return row


def write_log(log: CampaignLog, path: str | Path) -> None:
    """Write a log as CSV (``.csv``) or JSON lines (any other suffix).

    Same bytes as encoding each record in full, but each distinct row and
    vehicle cell is encoded once per call (see the module docstring).
    """
    path = Path(path)
    as_csv = path.suffix.lower() == ".csv"
    # writerow returns what the file's write returns: here, the line itself.
    encode = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    table = log.records
    configs = table.compiled.configs
    lines: list = [None] * len(table)
    # (position, or config off the lattice, outcome, pre_test) -> text around the vehicle cell
    rows: dict[tuple, tuple[str, str]] = {}
    for vehicle, slots in table.vehicles.items():
        if as_csv:  # quoted as inside a row; a lone empty cell would print as ""
            cell = encode([_csv_cell(vehicle), ""])[:-2]
        else:
            cell = f'"vehicle": {json.dumps(vehicle)}, '
        for line, pos, config, outcome, pre_test in slots.entries(configs):
            key = (config if pos is None else pos, outcome, pre_test)
            row = rows.get(key)
            if row is None:
                fields = record_to_row(TestRecord(vehicle, config, outcome, pre_test))
                del fields["vehicle"]
                if as_csv:  # the vehicle is column 0
                    row = "", encode([_csv_cell(fields.get(k)) for k in LOG_COLUMNS])
                else:  # "vehicle" sorts second to last, just before "vut_speed"
                    text = json.dumps(fields, sort_keys=True)
                    cut = text.rindex('"vut_speed": ')
                    row = text[:cut], text[cut:] + "\n"
                rows[key] = row
            lines[line] = row[0] + cell + row[1]
    header = encode(LOG_COLUMNS) if as_csv else ""
    path.write_text(header + "".join(lines), encoding="utf-8")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def read_log(
    path: str | Path,
    protocol: ProtocolDefinition,
    vehicles: Iterable[VehicleProfile] = (),
) -> CampaignLog:
    """Parse a log file and resolve its rows against the protocol.

    Rows naming a scenario the protocol does not know are rejected here;
    rows whose settings are not licensed parse fine and are reported by
    ``validate_log`` instead. A licensed row resolves to the protocol's
    canonical ``TestConfig`` object and fills its slot in the log's table.

    Each distinct row is parsed once per call: rows that differ only in
    their vehicle share the position, config, outcome and pre-test of the
    first such row, which alone goes through the checks. The memo lives for
    this call.
    """
    path = Path(path)
    text = read_text(path, "log")
    if path.suffix.lower() == ".csv":
        reader = csv.reader(io.StringIO(text))
        try:
            entries = _read_csv(reader, protocol)
        except csv.Error as exc:  # e.g. a cell beyond csv.field_size_limit()
            raise LogFormatError(f"line {reader.line_num}: {exc}") from None
    else:
        entries = _read_jsonl(text, protocol)

    table = LogTable(protocol.compiled, entries)
    profiles = {v.id: v for v in vehicles}
    for vehicle in table.vehicles:
        if vehicle not in profiles:
            profiles[vehicle] = VehicleProfile(id=vehicle)
    return CampaignLog(protocol=protocol, vehicles=tuple(profiles.values()), records=table)


def _read_jsonl(text: str, protocol: ProtocolDefinition) -> list[tuple]:
    decode = json.JSONDecoder().decode
    memo: dict[str, tuple] = {}  # line with its vehicle string's body cut out -> shared parse
    entries = []
    # Only "\n" ends a line: str.splitlines() would also split inside a
    # string holding a raw U+2028, U+0085 or another such character.
    for line, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip():
            continue
        key = vehicle = None
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
                    entries.append((vehicle, shared))
                    continue
        try:
            row = decode(raw)
        except ValueError as exc:  # also an integer beyond int's digit limit
            raise LogFormatError(f"line {line}: invalid JSON: {exc}") from exc
        if not isinstance(row, dict):  # the decoder makes every object a dict
            raise LogFormatError(f"line {line}: expected a JSON object")
        # The cut text is a key only if the cut string is the vehicle value and
        # every quote outside it is a delimiter (see the module docstring).
        if key is not None and (
            row.get("vehicle") != vehicle or raw.count('"vehicle"') != 1 or "\\" in key
        ):
            key = None
        entries.append(_parse_row(row, protocol, line, memo, key))
    return entries


def _read_csv(reader, protocol: ProtocolDefinition) -> list[tuple]:
    header = next(reader, None)
    if header is None:
        return []
    unknown = set(header) - set(LOG_COLUMNS)
    if unknown:
        raise LogFormatError(f"unknown column(s) {sorted(unknown)}")
    width = len(header)
    at = {name: i for i, name in enumerate(header)}.get("vehicle")  # the last one wins
    memo: dict[tuple, tuple] = {}
    entries = []
    for cells in reader:
        if not cells:
            continue
        key = None
        # Only full-width rows with a vehicle can share a parse; the others
        # take the checks below and fail or parse on their own.
        if at is not None and len(cells) == width and cells[at]:
            vehicle = cells[at]
            cells[at] = ""
            key = tuple(cells)
            shared = memo.get(key)
            if shared is not None:
                entries.append((vehicle, shared))
                continue
            cells[at] = vehicle
        # The physical line the row starts on: quoted cells may span lines.
        line = reader.line_num - sum(cell.count("\n") for cell in cells)
        if len(cells) > width:
            raise LogFormatError(
                f"line {line}: unknown field(s): {len(cells)} cells for {width} columns"
            )
        row = {k: v for k, v in dict(zip(header, cells)).items() if v}
        entries.append(_parse_row(row, protocol, line, memo, key))
    return entries


def _parse_row(
    row: Mapping, protocol: ProtocolDefinition, line: int, memo: dict, key: str | tuple | None
) -> tuple:
    """Parse one row in full and remember its vehicle-free part under ``key``.

    Returns the row's table entry: ``(vehicle, (position, config, outcome,
    pre_test))``, where the position is the config's in the compiled table.
    """
    try:
        vehicle, shared = _entry_from_row(row, protocol)
    except LogFormatError as exc:
        raise LogFormatError(f"line {line}: {exc}") from None
    if key is not None:
        memo[key] = shared
    return vehicle, shared


def _entry_from_row(row: Mapping, protocol: ProtocolDefinition) -> tuple:
    """Check one decoded row; ``(vehicle, (position, config, outcome, pre_test))``."""
    unknown = set(row) - set(LOG_COLUMNS)
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
    try:
        kind = OutcomeKind(outcome_name)
    except ValueError:
        raise LogFormatError(f"unknown outcome {outcome_name!r}") from None

    tg_speed = row.get("tg_speed")
    tg_speed = None if tg_speed is None else _parse_number(tg_speed, "tg_speed")
    impact_speed = row.get("impact_speed")
    impact_speed = None if impact_speed is None else _parse_number(impact_speed, "impact_speed")
    pre_test = row.get("pre_test")
    if pre_test is not None and pre_test not in ("passed", "failed"):
        raise LogFormatError("pre_test must be 'passed' or 'failed'")

    if not protocol.has_scenario(code):
        raise LogFormatError(f"unknown scenario {code!r}")
    compiled = protocol.compiled
    pos = compiled.index.get((code, light, overlap, vut_speed, tg_speed))
    if pos is not None:
        config = compiled.configs[pos]
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
    if isinstance(value, bool):
        raise LogFormatError(f"{name} must be a number")
    try:
        num = float(value if isinstance(value, (int, float)) else str(value))
    except ValueError:
        raise LogFormatError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:  # an integer beyond float range
        num = math.inf
    if not math.isfinite(num):
        raise LogFormatError(f"{name} must be a finite number, got {value!r}")
    # -0.0 == 0.0 but prints as "-0"; adding 0.0 gives +0.0, so rows whose
    # values compare equal parse to equal values and may share a parse.
    return num + 0.0


def _parse_bool(value, name: str) -> bool | None:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise LogFormatError(f"{name} must be a boolean, got {value!r}")


def _plain(x: float):
    return int(x) if float(x).is_integer() else float(x)
