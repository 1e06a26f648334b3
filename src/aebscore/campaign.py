"""Campaign engine: the incremental test procedure and campaign-log checks.

A campaign exposes each vehicle to the protocol's scenarios. Within one
escalation series (scenario, overlap, light, TG speed) testing starts at the
lowest lattice speed and climbs one step at a time; once the vehicle fails,
every higher speed in the series is recorded as judged failed without being
driven. Night tests whose daylight counterpart failed are likewise judged
without execution. Scenarios outside standardized protocols get a low-speed
pre-test first; no response there fails the whole scenario.

A campaign log is a vehicle x configuration table: ``LogTable`` keeps, per
vehicle, one outcome and one pre-test slot for each position of the
protocol's compiled table, with the row number of the record in each, and
a residual list of the records off the lattice and of repeated positions.
Validation, completion statistics, night expansion, scoring and log writing
read those slots, with the compiled series numbers and the night-to-day
position pairs; ``log.records`` builds ``TestRecord`` objects, in row
order, only when something reads them.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from enum import Enum
from typing import NamedTuple

from .impact import DEFAULT_VUT_MASS
from .protocol import (
    DAY,
    CompiledProtocol,
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
# The loops over a log's table compare kinds with these: looking a member up
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


class VehicleProfile:
    """A test-pool vehicle: its identity and its mass for the energy model."""

    __slots__ = ("id", "mass")

    def __init__(self, id: str, mass: float = DEFAULT_VUT_MASS):  # kg
        if mass <= 0:
            raise ValueError(f"vehicle {id!r}: mass must be > 0")
        self.id = id
        self.mass = mass


_ID_PATTERN = re.compile(r"^(\d+)(.*)$")


def vehicle_sort_key(vehicle_id: str) -> tuple:
    """Natural ordering: numeric prefix first, so '2' sorts before '10'."""
    m = _ID_PATTERN.match(vehicle_id)
    if m:
        return (0, int(m.group(1)), m.group(2))
    return (1, 0, vehicle_id)


class TestRecord(NamedTuple):
    """One judged or executed test of one vehicle in one configuration."""

    vehicle: str
    config: TestConfig
    outcome: TestOutcome
    pre_test: str | None = None  # "passed" | "failed" for pre-tested scenarios


class VehicleSlots:
    """One vehicle's records in a ``LogTable``.

    ``outcomes[i]``, ``pre_tests[i]`` and ``rows[i]`` hold the first record
    at compiled position ``i`` and its row number in the log (None while the
    slot is empty). ``residual`` holds every other record as ``(row,
    position, config, outcome, pre_test)`` in row order: repeats of a filled
    position, and records off the lattice, whose position is None.
    """

    __slots__ = ("outcomes", "pre_tests", "rows", "residual")

    def __init__(self, size: int):
        self.outcomes: list[TestOutcome | None] = [None] * size
        self.pre_tests: list[str | None] = [None] * size
        self.rows: list[int | None] = [None] * size
        self.residual: list[tuple] = []

    def copy(self) -> VehicleSlots:
        other = VehicleSlots(0)
        other.outcomes = self.outcomes[:]
        other.pre_tests = self.pre_tests[:]
        other.rows = self.rows[:]
        other.residual = self.residual[:]
        return other

    def entries(self, configs: Sequence[TestConfig]) -> list[tuple]:
        """``(row, position, config, outcome, pre_test)`` of every record:
        the slots in position order, then the residual."""
        outcomes, pre_tests = self.outcomes, self.pre_tests
        filled = [
            (row, i, configs[i], outcomes[i], pre_tests[i])
            for i, row in enumerate(self.rows)
            if row is not None
        ]
        return filled + self.residual if self.residual else filled


_NO_VEHICLE = object()


class LogTable(Sequence):
    """A campaign log's records, stored per vehicle by compiled position.

    Built in one pass from ``(vehicle, (position, config, outcome,
    pre_test))`` entries in row order, where the position indexes
    ``compiled.configs`` or is None off the lattice. With ``base``, the
    entries are rows after the base's own: the new table shares the base's
    vehicles and copies only those the entries touch. ``vehicles`` maps each
    vehicle, in order of first appearance, to its ``VehicleSlots``.

    As a sequence it is the log's records in row order, built on first
    access; its length is known without building them.
    """

    def __init__(
        self, compiled: CompiledProtocol, entries: Iterable[tuple], base: LogTable | None = None
    ):
        size = len(compiled.configs)
        vehicles = {} if base is None else dict(base.vehicles)
        start = 0 if base is None else base.size
        row = start - 1
        last = _NO_VEHICLE
        for row, (vehicle, (pos, config, outcome, pre_test)) in enumerate(entries, start):
            if vehicle != last:
                last = vehicle
                slots = vehicles.get(vehicle)
                if slots is None:
                    slots = vehicles[vehicle] = VehicleSlots(size)
                elif base is not None and base.vehicles.get(vehicle) is slots:
                    slots = vehicles[vehicle] = slots.copy()
                outcomes, pre_tests, rows = slots.outcomes, slots.pre_tests, slots.rows
                residual = slots.residual
            if pos is not None and outcomes[pos] is None:
                outcomes[pos] = outcome
                pre_tests[pos] = pre_test
                rows[pos] = row
            else:
                residual.append((row, pos, config, outcome, pre_test))
        self.compiled = compiled
        self.vehicles: dict[str, VehicleSlots] = vehicles
        self.size = row + 1
        self._records: tuple[TestRecord, ...] | None = None

    @classmethod
    def of_records(cls, compiled: CompiledProtocol, records: Iterable[TestRecord]) -> LogTable:
        """Index records by position; the table keeps them as its sequence."""
        records = tuple(records)
        index = compiled.index
        table = cls(
            compiled,
            (
                (r.vehicle, (index.get(r.config.key()), r.config, r.outcome, r.pre_test))
                for r in records
            ),
        )
        table._records = records
        return table

    def _tuple(self) -> tuple[TestRecord, ...]:
        if self._records is None:
            records: list = [None] * self.size
            configs = self.compiled.configs
            for vehicle, slots in self.vehicles.items():
                for row, _, config, outcome, pre_test in slots.entries(configs):
                    records[row] = TestRecord(vehicle, config, outcome, pre_test)
            self._records = tuple(records)
        return self._records

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        return self._tuple()[i]

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other):
        if other is self:
            return True
        if isinstance(other, LogTable):
            other = other._tuple()
        return self._tuple() == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __add__(self, other):
        return self._tuple() + tuple(other)

    def __repr__(self) -> str:
        return repr(self._tuple())


class CampaignLog:
    """All records of a campaign against one protocol.

    ``records`` may be given as any sequence of ``TestRecord``; it is
    indexed once, here, into a ``LogTable`` against the protocol's compiled
    table, and read back as that table. A ``LogTable`` of the same protocol
    is kept as it is, so a log built from another log's table shares it.
    """

    __slots__ = ("protocol", "vehicles", "records")

    def __init__(
        self,
        protocol: ProtocolDefinition,
        vehicles: tuple[VehicleProfile, ...] = (),
        records: Iterable[TestRecord] = (),
    ):
        compiled = protocol.compiled
        if not (isinstance(records, LogTable) and records.compiled is compiled):
            records = LogTable.of_records(compiled, records)
        self.protocol = protocol
        self.vehicles = vehicles
        self.records: LogTable = records

    def vehicle_ids(self) -> list[str]:
        ids = {v.id for v in self.vehicles}
        ids.update(self.records.vehicles)
        return sorted(ids, key=vehicle_sort_key)

    def with_records(self, records: Iterable[TestRecord]) -> "CampaignLog":
        return CampaignLog(self.protocol, self.vehicles, tuple(records))


# A braking oracle answers one configuration deterministically.
BrakingOracle = Callable[[TestConfig], TestOutcome]


def series_key(config: TestConfig) -> tuple:
    """Escalation-series identity of a configuration (speed excluded)."""
    return (config.scenario.code, config.light, config.overlap, config.tg_speed)


def pretest_config(spec: ScenarioSpec, light: str) -> TestConfig:
    """Low-speed probe configuration outside the scenario's speed range."""
    return spec.settings(light).pretest


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
        probe = oracle(pretest_config(spec, light))
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


def _series(compiled: CompiledProtocol, pos: int | None, config: TestConfig):
    """Escalation series of a record: its number in the compiled table, or
    the series key when the lattice has no such series."""
    if pos is not None:
        return compiled.series[pos]
    key = series_key(config)
    return compiled.series_index.get(key, key)


def judged_nights(
    compiled: CompiledProtocol, entries: Iterable[tuple], night_pairs: Iterable[tuple]
) -> Iterator[int]:
    """The night rule: night positions judged failed from one vehicle's day records.

    ``entries`` are the vehicle's records as ``VehicleSlots.entries`` lists
    them; only the day ones count, and of repeats at one configuration the
    last. ``night_pairs`` is ``compiled.night_pairs`` or a part of it. A
    night position is judged when its daylight counterpart was judged, or
    was an impact at the lowest impacted or judged speed of its day series.
    A night position without a daylight counterpart is never judged by this
    rule.
    """
    day = {}  # day position, or key off the lattice -> (series, speed, last outcome)
    failed = {}  # day series -> lowest impacted or judged speed
    for _, pos, config, outcome, _ in entries:
        if config.light != DAY:
            continue
        series = _series(compiled, pos, config)
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

    Only empty night slots are filled: existing night records are never
    touched, and applying the expansion twice changes nothing.
    """
    table = log.records
    compiled = table.compiled
    configs = compiled.configs
    judged = TestOutcome.judged()
    added = []
    for vehicle in log.vehicle_ids():
        slots = table.vehicles.get(vehicle)
        if slots is None:
            continue
        for night in judged_nights(compiled, slots.entries(configs), compiled.night_pairs):
            if slots.outcomes[night] is None:
                added.append((vehicle, (night, configs[night], judged, None)))
    if not added:
        return log
    return CampaignLog(log.protocol, log.vehicles, LogTable(compiled, added, base=table))


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
    table = log.records
    compiled = table.compiled
    configs = compiled.configs
    checked: dict[tuple, list[str]] = {}  # (position, id(outcome)) -> its problems
    findings = []  # (order, code, vehicle, config, message)
    for vehicle, slots in table.vehicles.items():
        entries = slots.entries(configs)
        off_lattice: set[tuple] = set()
        stops: dict = {}  # series -> lowest judged or unbraked-impact speed
        for row, pos, config, outcome, _ in entries:
            if pos is None:
                message = "configuration is not in the protocol"
                findings.append(((0, row), "unlicensed-config", vehicle, config, message))
                duplicate = config.key() in off_lattice
                off_lattice.add(config.key())
                problems = outcome_problems(outcome, config)
            else:
                duplicate = row != slots.rows[pos]
                problems = checked.get((pos, id(outcome)))
                if problems is None:
                    problems = checked[pos, id(outcome)] = outcome_problems(outcome, config)
            if duplicate:
                message = "duplicate record for this configuration"
                findings.append(((0, row), "duplicate-record", vehicle, config, message))
            for problem in problems:
                findings.append(((0, row), "invalid-outcome", vehicle, config, problem))
            kind = outcome.kind
            # A judged record, or an impact with no braking response, ends a
            # series; nothing may execute above the lowest such speed.
            if kind is _JUDGED_KIND or (kind is _IMPACTED_KIND and outcome.intervention is False):
                series = _series(compiled, pos, config)
                stops[series] = min(config.vut_speed, stops.get(series, config.vut_speed))
        if not stops:
            continue
        above = []
        for row, pos, config, outcome, _ in entries:
            if outcome.kind in EXECUTED_KINDS:
                series = _series(compiled, pos, config)
                if config.vut_speed > stops.get(series, math.inf):
                    above.append((series, row, config))
        if not above:
            continue
        first: dict = {}  # series -> its first row
        for row, pos, config, _, _ in entries:
            series = _series(compiled, pos, config)
            first[series] = min(row, first.get(series, row))
        for series, row, config in above:
            message = f"executed above a failure at {stops[series]:g} km/h in the same series"
            order = (1, first[series], row)
            findings.append((order, "executed-above-failure", vehicle, config, message))
    findings.sort(key=lambda finding: finding[0])
    return [
        Diagnostic(code, _locator(vehicle, config), message)
        for _, code, vehicle, config, message in findings
    ]


class CompletionStats(NamedTuple):
    expected: int
    executed: int
    judged: int
    completion_percent: int


def completion_stats(log: CampaignLog) -> dict[str, CompletionStats]:
    """Per-vehicle expected/executed/judged counts and completion percentage."""
    expected = log.protocol.config_count()
    table = log.records
    stats: dict[str, CompletionStats] = {}
    for vehicle in log.vehicle_ids():
        executed = judged = 0
        slots = table.vehicles.get(vehicle)
        outcomes = () if slots is None else slots.outcomes + [e[3] for e in slots.residual]
        for outcome in outcomes:
            if outcome is None:
                continue
            kind = outcome.kind
            if kind is _JUDGED_KIND:
                judged += 1
            elif kind in EXECUTED_KINDS:
                executed += 1
        percent = round(100.0 * (executed + judged) / expected) if expected else 0
        stats[vehicle] = CompletionStats(expected, executed, judged, percent)
    return stats
