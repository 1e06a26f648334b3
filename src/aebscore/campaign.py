"""Campaign engine: the incremental test procedure and campaign-log checks.

A campaign exposes each vehicle to the protocol's scenarios. Within one
escalation series (scenario, overlap, light, TG speed) testing starts at the
lowest lattice speed and climbs one step at a time; once the vehicle fails,
every higher speed in the series is recorded as judged failed without being
driven. Night tests whose daylight counterpart failed are likewise judged
without execution. Scenarios outside standardized protocols get a low-speed
pre-test first; no response there fails the whole scenario.

A campaign log is its rows: ``CampaignLog`` keeps, per vehicle, its
``(position, config, outcome, pre_test)`` entries in row order, where the
position indexes the protocol's config table, and the vehicle column as
runs of consecutive rows. Validation, completion statistics, night
expansion, scoring and log writing read each vehicle's entries, with the
protocol's series numbers and night-to-day position pairs;
``log.records`` builds ``TestRecord`` objects, in row order, on each read.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Collection, Iterable, Iterator
from enum import Enum
from typing import NamedTuple

from .protocol import (
    DAY,
    ProtocolDefinition,
    ScenarioSpec,
    TestConfig,
)


class OutcomeKind(str, Enum):
    AVOIDED = "avoided"
    IMPACTED = "impacted"
    JUDGED_FAILED = "judged_failed"
    NOT_EXECUTED = "not_executed"


EXECUTED_KINDS = (OutcomeKind.AVOIDED, OutcomeKind.IMPACTED)
# The loops over a log's entries compare kinds with these: looking a member up
# on its Enum class costs about 0.2 us on Python 3.11.
_IMPACTED_KIND, _JUDGED_KIND = OutcomeKind.IMPACTED, OutcomeKind.JUDGED_FAILED

PRETEST_PASSED = "passed"
PRETEST_FAILED = "failed"


class OracleError(ValueError):
    """Raised when a braking oracle returns an inconsistent outcome."""


class TestOutcome(NamedTuple):
    """Result of one test: whether the collision was avoided and how hard it hit.

    ``intervention`` records whether the braking system responded at all;
    ``projected`` marks impact speeds reconstructed from vehicle dynamics
    after a safety-driver takeover rather than measured at contact.
    """

    kind: OutcomeKind
    impact_speed: float | None = None  # km/h, impacted outcomes only
    intervention: bool | None = None
    projected: bool | None = None

    @staticmethod
    def avoided() -> "TestOutcome":
        return _AVOIDED

    @staticmethod
    def impacted(
        impact_speed: float, intervention: bool = True, projected: bool = False
    ) -> "TestOutcome":
        return TestOutcome(
            OutcomeKind.IMPACTED,
            impact_speed=impact_speed,
            intervention=intervention,
            projected=projected,
        )

    @staticmethod
    def judged() -> "TestOutcome":
        return _JUDGED


# Outcomes are frozen, so every avoided and every judged record shares one.
_AVOIDED = TestOutcome(OutcomeKind.AVOIDED, intervention=True)
_JUDGED = TestOutcome(OutcomeKind.JUDGED_FAILED)


def outcome_problems(outcome: TestOutcome, config: TestConfig) -> list[str]:
    """Invariant violations of an outcome against its test configuration."""
    problems = []
    if outcome.kind is OutcomeKind.IMPACTED:
        if outcome.impact_speed is None:
            problems.append("impacted outcome is missing impact_speed")
        elif not 0 < outcome.impact_speed <= config.vut_speed + 1e-9:
            problems.append(
                f"impact_speed {outcome.impact_speed} outside (0, {config.vut_speed}]"
            )
    else:
        if outcome.impact_speed is not None:
            problems.append(f"{outcome.kind.value} outcome carries impact_speed")
    if outcome.kind in (OutcomeKind.JUDGED_FAILED, OutcomeKind.NOT_EXECUTED):
        if outcome.intervention is not None:
            problems.append(f"{outcome.kind.value} outcome carries intervention flag")
        if outcome.projected is not None:
            problems.append(f"{outcome.kind.value} outcome carries projected flag")
    return problems


_ID_PATTERN = re.compile(r"^(\d+)(.*)$")


def vehicle_sort_key(vehicle_id: str) -> tuple:
    """Natural ordering: numeric prefix first, so '2' sorts before '10'. The prefix
    compares by value without ``int()``; ids equal in value and suffix ('7',
    '07') fall back to the id text, so no two ids tie."""
    m = _ID_PATTERN.match(vehicle_id)
    if m is None:
        return (1, vehicle_id)
    digits = m.group(1)
    if not digits.isascii():  # any decimal digit, as int() reads it; rare, so imported here
        import unicodedata

        digits = "".join(str(unicodedata.decimal(d)) for d in digits)
    digits = digits.lstrip("0")
    return (0, len(digits), digits, m.group(2), vehicle_id)


class TestRecord(NamedTuple):
    """One judged or executed test of one vehicle in one configuration."""

    vehicle: str
    config: TestConfig
    outcome: TestOutcome
    pre_test: str | None = None  # "passed" | "failed" for pre-tested scenarios


_NO_VEHICLE = object()


class CampaignLog:
    """All records of a campaign against one protocol, stored per vehicle in row order.

    ``vehicles`` maps each vehicle, in order of first appearance, to its
    ``(position, config, outcome, pre_test)`` entries in row order, where the
    position indexes the protocol's ``configs`` or is None off the
    lattice; rows that read alike may share one entry tuple. The vehicle
    column is kept as runs of consecutive rows with one vehicle:
    ``run_lengths[i]`` rows of ``run_vehicles[i]``, the log's own key string.
    ``records``, given as any iterable of ``TestRecord``, is indexed once,
    here; reading ``records`` builds them again, in row order.
    """

    __slots__ = ("protocol", "vehicles", "run_vehicles", "run_lengths", "size")

    def __init__(self, protocol: ProtocolDefinition, records: Iterable[TestRecord] = ()):
        index = protocol.index
        self._fill(
            protocol,
            (
                (r.vehicle, (index.get(r.config.key()), r.config, r.outcome, r.pre_test))
                for r in records
            ),
        )

    @classmethod
    def _of_entries(
        cls, protocol: ProtocolDefinition, entries: Iterable[tuple], base: CampaignLog | None = None
    ) -> CampaignLog:
        """A log of ``(vehicle, entry)`` rows in row order. With ``base``, the
        rows come after the base's own: the new log shares the base's vehicles
        and copies only those the entries touch."""
        log = cls.__new__(cls)
        log._fill(protocol, entries, base)
        return log

    def _fill(
        self, protocol: ProtocolDefinition, entries: Iterable[tuple], base: CampaignLog | None = None
    ) -> None:
        vehicles: dict[str, list[tuple]] = {} if base is None else dict(base.vehicles)
        names = {vehicle: vehicle for vehicle in vehicles}  # a vehicle -> its key string
        run_vehicles = [] if base is None else base.run_vehicles[:]
        run_lengths = [] if base is None else base.run_lengths[:]
        rows = None
        last = _NO_VEHICLE
        for vehicle, entry in entries:
            if vehicle != last:
                if rows is not None:
                    run_lengths.append(len(rows) - start)
                last = vehicle
                rows = vehicles.get(vehicle)
                if rows is None:
                    rows = vehicles[vehicle] = []
                elif base is not None and base.vehicles.get(vehicle) is rows:
                    rows = vehicles[vehicle] = rows[:]
                run_vehicles.append(names.setdefault(vehicle, vehicle))
                start = len(rows)
                append = rows.append
            append(entry)
        if rows is not None:
            run_lengths.append(len(rows) - start)
        self.protocol = protocol
        self.vehicles = vehicles
        self.run_vehicles: list[str] = run_vehicles
        self.run_lengths: list[int] = run_lengths
        self.size = sum(run_lengths)

    def runs(self) -> Iterator[tuple[str, list[tuple]]]:
        """The rows in row order, as ``(vehicle, entries)`` runs."""
        vehicles = self.vehicles
        taken = dict.fromkeys(vehicles, 0)  # a vehicle -> its entries in earlier runs
        for vehicle, length in zip(self.run_vehicles, self.run_lengths):
            start = taken[vehicle]
            taken[vehicle] = start + length
            yield vehicle, vehicles[vehicle][start : start + length]

    @property
    def records(self) -> tuple[TestRecord, ...]:
        """The log's records in row order, built anew on each read."""
        return tuple(
            TestRecord(vehicle, config, outcome, pre_test)
            for vehicle, entries in self.runs()
            for _, config, outcome, pre_test in entries
        )

    def vehicle_ids(self) -> list[str]:
        return sorted(self.vehicles, key=vehicle_sort_key)


# A braking oracle answers one configuration deterministically.
BrakingOracle = Callable[[TestConfig], TestOutcome]


def series_key(config: TestConfig) -> tuple:
    """Escalation-series identity of a configuration (speed excluded)."""
    return (config.scenario.code, config.light, config.overlap, config.tg_speed)


def pretest_passes(outcome: TestOutcome) -> bool:
    """A pre-test passes when the braking system shows any response."""
    if outcome.kind is OutcomeKind.AVOIDED:
        return True
    return outcome.kind is OutcomeKind.IMPACTED and bool(outcome.intervention)


def run_scenario(
    oracle: BrakingOracle,
    spec: ScenarioSpec,
    overlap: float,
    light: str,
    requires_pretest: bool = False,
    *,
    vehicle: str = "VUT",
    stop_on_impact: bool = True,
    judged: Collection[TestConfig] = (),
) -> list[TestRecord]:
    """Drive one (scenario, overlap, light) slice against a braking oracle.

    Each TG-speed variant escalates independently from its lowest lattice
    speed. The series stops at the first non-avoided outcome (or, with
    ``stop_on_impact`` off, at the first impact without any braking response)
    and all higher speeds are emitted as judged failures. A series also
    stops, without driving it, at its first configuration in ``judged``:
    the night tests ``judged_nights`` finds from the day records. A failed
    pre-test judges every configuration of the slice.
    """
    settings = spec.settings(light)
    if overlap not in settings.overlaps:
        raise ValueError(f"overlap {overlap} is not licensed for {spec.code!r} at {light}")

    pre_test = None
    if requires_pretest:
        probe = oracle(settings.pretest)
        pre_test = PRETEST_PASSED if pretest_passes(probe) else PRETEST_FAILED

    records: list[TestRecord] = []
    configs = settings.configs
    for tg_speed, speeds in settings.variants:
        stopped = pre_test == PRETEST_FAILED
        for speed in speeds:
            config = configs[(overlap, speed, tg_speed)]
            if stopped or (judged and config in judged):
                stopped = True
                records.append(
                    TestRecord(vehicle, config, TestOutcome.judged(), pre_test=pre_test)
                )
                continue
            outcome = oracle(config)
            kind = outcome.kind
            if kind not in EXECUTED_KINDS:
                raise OracleError(f"oracle returned {kind.value!r} for {config.key()}")
            problems = outcome_problems(outcome, config)
            if problems:
                raise OracleError(f"oracle outcome invalid for {config.key()}: {problems}")
            records.append(TestRecord(vehicle, config, outcome, pre_test=pre_test))
            if kind is _IMPACTED_KIND:
                if stop_on_impact or not outcome.intervention:
                    stopped = True
    return records


def _series(protocol: ProtocolDefinition, pos: int | None, config: TestConfig):
    """Escalation series of a record: its number in the protocol's table, or
    the series key when the lattice has no such series."""
    if pos is not None:
        return protocol.series[pos]
    key = series_key(config)
    return protocol.series_index.get(key, key)


def judged_nights(
    protocol: ProtocolDefinition, entries: Iterable[tuple], night_pairs: Iterable[tuple]
) -> Iterator[int]:
    """The night rule: night positions judged failed from one vehicle's day records.

    ``entries`` are the vehicle's ``(position, config, outcome, pre_test)``
    entries in row order; only the day ones count, and of repeats at one
    configuration the last. ``night_pairs`` is ``protocol.night_pairs`` or a
    part of it. A night position is judged when its daylight counterpart was
    judged, or was an impact at the lowest impacted or judged speed of its
    day series. A night position without a daylight counterpart is never
    judged by this rule.
    """
    day = {}  # day position, or key off the lattice -> (series, speed, last outcome)
    failed = {}  # day series -> lowest impacted or judged speed
    for pos, config, outcome, _ in entries:
        if config.light != DAY:
            continue
        series = _series(protocol, pos, config)
        speed = config.vut_speed
        day[config.key() if pos is None else pos] = (series, speed, outcome)
        kind = outcome.kind
        if kind is _IMPACTED_KIND or kind is _JUDGED_KIND:
            failed[series] = min(speed, failed.get(series, speed))
    if not failed:
        return
    for night, counterpart in night_pairs:
        found = day.get(counterpart)
        if found is not None:
            series, speed, outcome = found
            kind = outcome.kind
            if kind is _JUDGED_KIND or (kind is _IMPACTED_KIND and failed[series] == speed):
                yield night


def expand_night_judgements(log: CampaignLog) -> CampaignLog:
    """Add the night tests ``judged_nights`` finds as judged failed.

    Only night positions that no record holds are filled: existing night
    records are never touched, and applying the expansion twice changes
    nothing.
    """
    protocol = log.protocol
    configs = protocol.configs
    judged = TestOutcome.judged()
    added = []
    for vehicle in log.vehicle_ids():
        entries = log.vehicles[vehicle]
        nights = list(judged_nights(protocol, entries, protocol.night_pairs))
        if nights:
            held = {entry[0] for entry in entries}
            added += [(vehicle, (n, configs[n], judged, None)) for n in nights if n not in held]
    if not added:
        return log
    return CampaignLog._of_entries(protocol, added, base=log)


class Diagnostic(NamedTuple):
    """One validation finding with a record locator."""

    code: str
    locator: str
    message: str

    def __str__(self) -> str:
        return f"{self.locator}: {self.message} [{self.code}]"


def _locator(vehicle: str, c: TestConfig) -> str:
    tg = "-" if c.tg_speed is None else f"{c.tg_speed:g}"
    return f"{vehicle}/{c.code}/{c.light}/overlap={c.overlap:g}/tg={tg}/vut={c.vut_speed:g}"


def validate_log(log: CampaignLog) -> list[Diagnostic]:
    """Check a campaign log against the procedure and record invariants.

    Findings, not exceptions: unlicensed configurations, duplicate records,
    outcome invariant violations, and executed tests above a speed where the
    same series had already failed without any braking response. Findings
    come in row order, those about a series last, one series after another
    in order of its first row.
    """
    protocol = log.protocol
    checked: dict[tuple, list[str]] = {}  # (position, id(outcome)) -> its problems
    # (vehicle, entry index, entry index of its series' first row or None, code, config, message)
    findings = []
    for vehicle, entries in log.vehicles.items():
        seen = set()  # positions, and keys off the lattice
        stops: dict = {}  # series -> lowest judged or unbraked-impact speed
        for i, (pos, config, outcome, _) in enumerate(entries):
            if pos is None:
                message = "configuration is not in the protocol"
                findings.append((vehicle, i, None, "unlicensed-config", config, message))
                key = config.key()
                problems = outcome_problems(outcome, config)
            else:
                key = pos
                problems = checked.get((pos, id(outcome)))
                if problems is None:
                    problems = checked[pos, id(outcome)] = outcome_problems(outcome, config)
            if key in seen:
                message = "duplicate record for this configuration"
                findings.append((vehicle, i, None, "duplicate-record", config, message))
            seen.add(key)
            for problem in problems:
                findings.append((vehicle, i, None, "invalid-outcome", config, problem))
            kind = outcome.kind
            # A judged record, or an impact with no braking response, ends a
            # series; nothing may execute above the lowest such speed.
            if kind is _JUDGED_KIND or (kind is _IMPACTED_KIND and outcome.intervention is False):
                series = _series(protocol, pos, config)
                stops[series] = min(config.vut_speed, stops.get(series, config.vut_speed))
        if not stops:
            continue
        above = []
        for i, (pos, config, outcome, _) in enumerate(entries):
            if outcome.kind in EXECUTED_KINDS:
                series = _series(protocol, pos, config)
                if config.vut_speed > stops.get(series, math.inf):
                    above.append((series, i, config))
        if not above:
            continue
        first: dict = {}  # series -> index of its first entry
        for i, (pos, config, _, _) in enumerate(entries):
            first.setdefault(_series(protocol, pos, config), i)
        for series, i, config in above:
            message = f"executed above a failure at {stops[series]:g} km/h in the same series"
            findings.append((vehicle, i, first[series], "executed-above-failure", config, message))
    if not findings:
        return []
    rows: dict[str, list[int]] = {vehicle: [] for vehicle in log.vehicles}
    row = 0
    for vehicle, length in zip(log.run_vehicles, log.run_lengths):
        rows[vehicle] += range(row, row + length)
        row += length

    def order(finding):  # row order, then each series by its first row
        vehicle_rows = rows[finding[0]]
        if finding[2] is None:
            return (0, vehicle_rows[finding[1]])
        return (1, vehicle_rows[finding[2]], vehicle_rows[finding[1]])

    findings.sort(key=order)
    return [
        Diagnostic(code, _locator(vehicle, config), message)
        for vehicle, _, _, code, config, message in findings
    ]


class CompletionStats(NamedTuple):
    expected: int
    executed: int
    judged: int
    completion_percent: int


def completion_stats(log: CampaignLog) -> dict[str, CompletionStats]:
    """Per-vehicle expected/executed/judged counts and completion percentage."""
    expected = log.protocol.config_count()
    stats: dict[str, CompletionStats] = {}
    for vehicle in log.vehicle_ids():
        executed = judged = 0
        for _, _, outcome, _ in log.vehicles[vehicle]:
            kind = outcome.kind
            if kind is _JUDGED_KIND:
                judged += 1
            elif kind in EXECUTED_KINDS:
                executed += 1
        percent = round(100.0 * (executed + judged) / expected) if expected else 0
        stats[vehicle] = CompletionStats(expected, executed, judged, percent)
    return stats
