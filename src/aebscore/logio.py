"""Campaign-log file I/O.

Logs are line-delimited records with the columns ``vehicle, scenario, light,
vut_speed, tg_speed, overlap, outcome, impact_speed, intervention, projected,
pre_test``, accepted as JSON lines (``.jsonl``) or CSV with identical column
names. Missing optional values are omitted (JSON) or left empty (CSV).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Iterable, Mapping

from .campaign import CampaignLog, OutcomeKind, TestOutcome, TestRecord, VehicleProfile
from .protocol import LIGHTS, ProtocolDefinition, TestConfig

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
    path = Path(path)
    if path.suffix.lower() == ".csv":
        path.write_text(_to_csv(log.records), encoding="utf-8")
    else:
        lines = [json.dumps(record_to_row(r), sort_keys=True) for r in log.records]
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _to_csv(records: Iterable[TestRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=LOG_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for record in records:
        row = record_to_row(record)
        writer.writerow(
            {k: _csv_cell(row.get(k)) for k in LOG_COLUMNS}
        )
    return buffer.getvalue()


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
    canonical ``TestConfig`` object, so records share their configs.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".csv":
        rows = _rows_from_csv(text)
    else:
        rows = _rows_from_jsonl(text)

    records = [
        _record_from_row(row, protocol, where) for row, where in rows
    ]
    profiles = {v.id: v for v in vehicles}
    for record in records:
        profiles.setdefault(record.vehicle, VehicleProfile(id=record.vehicle))
    return CampaignLog(
        protocol=protocol,
        vehicles=tuple(profiles.values()),
        records=tuple(records),
    )


def _rows_from_jsonl(text: str) -> list[tuple[Mapping, str]]:
    rows = []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"line {i}: invalid JSON: {exc}") from exc
        if not isinstance(row, dict):  # json.loads makes every object a dict
            raise LogFormatError(f"line {i}: expected a JSON object")
        rows.append((row, f"line {i}"))
    return rows


def _rows_from_csv(text: str) -> list[tuple[Mapping, str]]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        return []
    unknown = set(reader.fieldnames) - set(LOG_COLUMNS)
    if unknown:
        raise LogFormatError(f"unknown column(s) {sorted(unknown)}")
    rows = []
    for i, raw in enumerate(reader, start=2):
        row = {k: v for k, v in raw.items() if v not in (None, "")}
        rows.append((row, f"line {i}"))
    return rows


def _record_from_row(row: Mapping, protocol: ProtocolDefinition, where: str) -> TestRecord:
    unknown = set(row) - set(LOG_COLUMNS)
    if unknown:
        raise LogFormatError(f"{where}: unknown field(s) {sorted(unknown)}")
    try:
        vehicle = str(row["vehicle"])
        code = str(row["scenario"])
        light = str(row["light"])
        vut_speed = _parse_number(row["vut_speed"], where, "vut_speed")
        overlap = _parse_number(row["overlap"], where, "overlap")
        outcome_name = str(row["outcome"])
    except KeyError as exc:
        raise LogFormatError(f"{where}: missing field {exc.args[0]!r}") from None
    if light not in LIGHTS:
        raise LogFormatError(f"{where}: unknown light {light!r}")
    try:
        kind = OutcomeKind(outcome_name)
    except ValueError:
        raise LogFormatError(f"{where}: unknown outcome {outcome_name!r}") from None

    tg_speed = row.get("tg_speed")
    tg_speed = None if tg_speed is None else _parse_number(tg_speed, where, "tg_speed")
    impact_speed = row.get("impact_speed")
    impact_speed = (
        None if impact_speed is None else _parse_number(impact_speed, where, "impact_speed")
    )
    pre_test = row.get("pre_test")
    if pre_test is not None and pre_test not in ("passed", "failed"):
        raise LogFormatError(f"{where}: pre_test must be 'passed' or 'failed'")

    if not protocol.has_scenario(code):
        raise LogFormatError(f"{where}: unknown scenario {code!r}")
    config = protocol.compiled.canonical((code, light, overlap, vut_speed, tg_speed))
    if config is None:
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
        intervention=_parse_bool(row.get("intervention"), where, "intervention"),
        projected=_parse_bool(row.get("projected"), where, "projected"),
    )
    return TestRecord(vehicle=vehicle, config=config, outcome=outcome, pre_test=pre_test)


def _parse_number(value, where: str, name: str) -> float:
    if isinstance(value, bool):
        raise LogFormatError(f"{where}: {name} must be a number")
    try:
        num = float(value if isinstance(value, (int, float)) else str(value))
    except ValueError:
        raise LogFormatError(f"{where}: {name} must be a number, got {value!r}") from None
    except OverflowError:  # an integer beyond float range
        num = math.inf
    if not math.isfinite(num):
        raise LogFormatError(f"{where}: {name} must be a finite number, got {value!r}")
    return num


def _parse_bool(value, where: str, name: str) -> bool | None:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise LogFormatError(f"{where}: {name} must be a boolean, got {value!r}")


def _plain(x: float):
    return int(x) if float(x).is_integer() else float(x)
