"""Campaign engine: the incremental test procedure and campaign-log checks.

A campaign exposes each vehicle to the protocol's scenarios. Within one
escalation series (scenario, overlap, light, TG speed) testing starts at the
lowest lattice speed and climbs one step at a time; once the vehicle fails,
every higher speed in the series is recorded as judged failed without being
driven. Night tests whose daylight counterpart failed are likewise judged
without execution. Scenarios outside standardized protocols get a low-speed
pre-test first; no response there fails the whole scenario.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

from .protocol import (
    DAY,
    NIGHT,
    ProtocolDefinition,
    ScenarioSpec,
    TestConfig,
    enumerate_configs,
)


class OutcomeKind(str, Enum):
    AVOIDED = "avoided"
    IMPACTED = "impacted"
    JUDGED_FAILED = "judged_failed"
    NOT_EXECUTED = "not_executed"


EXECUTED_KINDS = (OutcomeKind.AVOIDED, OutcomeKind.IMPACTED)

PRETEST_PASSED = "passed"
PRETEST_FAILED = "failed"


class OracleError(ValueError):
    """Raised when a braking oracle returns an inconsistent outcome."""


@dataclass(frozen=True)
class TestOutcome:
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


@dataclass(frozen=True)
class VehicleProfile:
    """A test-pool vehicle: identity, sensor suite, and mass for the energy model."""

    id: str
    mass: float = 1500.0  # kg
    model_year: int | None = None
    sensors: frozenset[str] = frozenset()
    is_prototype: bool = False

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError(f"vehicle {self.id!r}: mass must be > 0")


_ID_PATTERN = re.compile(r"^(\d+)(.*)$")


def vehicle_sort_key(vehicle_id: str) -> tuple:
    """Natural ordering: numeric prefix first, so '2' sorts before '10'."""
    m = _ID_PATTERN.match(vehicle_id)
    if m:
        return (0, int(m.group(1)), m.group(2))
    return (1, 0, vehicle_id)


@dataclass(frozen=True)
class TestRecord:
    """One judged or executed test of one vehicle in one configuration."""

    vehicle: str
    config: TestConfig
    outcome: TestOutcome
    pre_test: str | None = None  # "passed" | "failed" for pre-tested scenarios


@dataclass(frozen=True)
class CampaignLog:
    """All records of a campaign against one protocol."""

    protocol: ProtocolDefinition
    vehicles: tuple[VehicleProfile, ...] = ()
    records: tuple[TestRecord, ...] = ()

    def vehicle_ids(self) -> list[str]:
        ids = {v.id for v in self.vehicles}
        ids.update(r.vehicle for r in self.records)
        return sorted(ids, key=vehicle_sort_key)

    def with_records(self, records: Iterable[TestRecord]) -> "CampaignLog":
        return replace(self, records=tuple(records))


# A braking oracle answers one configuration deterministically.
BrakingOracle = Callable[[TestConfig], TestOutcome]


def series_key(config: TestConfig) -> tuple:
    """Escalation-series identity of a configuration (speed excluded)."""
    return (config.scenario.code, config.light, config.overlap, config.tg_speed)


def pretest_config(spec: ScenarioSpec, light: str) -> TestConfig:
    """Low-speed probe configuration outside the scenario's speed range."""
    settings = spec.settings(light)
    return TestConfig(
        scenario=spec,
        vut_speed=spec.pretest_speed(),
        tg_speed=settings.variants[0].tg_speed,
        overlap=settings.overlaps[0],
        light=light,
    )


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
    judge_from: Mapping[float | None, float] | None = None,
) -> list[TestRecord]:
    """Drive one (scenario, overlap, light) slice against a braking oracle.

    Each TG-speed variant escalates independently from its lowest lattice
    speed. The series stops at the first non-avoided outcome (or, with
    ``stop_on_impact`` off, at the first impact without any braking response)
    and all higher speeds are emitted as judged failures. ``judge_from`` maps
    a TG speed to a speed at which the series is judged without execution,
    e.g. where the daylight run already failed. A failed pre-test judges
    every configuration of the slice.
    """
    settings = spec.settings(light)
    if overlap not in settings.overlaps:
        raise ValueError(f"overlap {overlap} is not licensed for {spec.code!r} at {light}")

    pre_test = None
    if requires_pretest:
        probe = oracle(pretest_config(spec, light))
        pre_test = PRETEST_PASSED if pretest_passes(probe) else PRETEST_FAILED

    records: list[TestRecord] = []
    for variant in settings.variants:
        judged_from = None
        if judge_from is not None:
            judged_from = judge_from.get(variant.tg_speed)
        stopped = pre_test == PRETEST_FAILED
        for speed in variant.speeds:
            config = settings.configs[(overlap, speed, variant.tg_speed)]
            if not stopped and judged_from is not None and speed >= judged_from:
                stopped = True
            if stopped:
                records.append(
                    TestRecord(vehicle, config, TestOutcome.judged(), pre_test=pre_test)
                )
                continue
            outcome = oracle(config)
            if outcome.kind not in EXECUTED_KINDS:
                raise OracleError(
                    f"oracle returned {outcome.kind.value!r} for {config.key()}"
                )
            problems = outcome_problems(outcome, config)
            if problems:
                raise OracleError(f"oracle outcome invalid for {config.key()}: {problems}")
            records.append(TestRecord(vehicle, config, outcome, pre_test=pre_test))
            if outcome.kind is OutcomeKind.IMPACTED:
                if stop_on_impact or not outcome.intervention:
                    stopped = True
    return records


def series_failure_speed(records: Sequence[TestRecord]) -> tuple[float, OutcomeKind] | None:
    """Lowest non-avoided speed of one series and the kind observed there."""
    failures = [
        (r.config.vut_speed, r.outcome.kind)
        for r in records
        if r.outcome.kind in (OutcomeKind.IMPACTED, OutcomeKind.JUDGED_FAILED)
    ]
    return min(failures) if failures else None


def expand_night_judgements(log: CampaignLog) -> CampaignLog:
    """Judge missing night tests whose daylight counterpart failed.

    A night configuration is added as judged failed when the same vehicle's
    day record at matching settings was judged, or was the impact that ended
    its day series. Existing night records are never touched; applying the
    expansion twice changes nothing.
    """
    day_records: dict[tuple, TestRecord] = {}
    day_series: dict[tuple, list[TestRecord]] = {}
    existing: set[tuple] = set()
    for record in log.records:
        existing.add((record.vehicle, record.config.key()))
        if record.config.light == DAY:
            day_records[(record.vehicle, record.config.key())] = record
            day_series.setdefault((record.vehicle,) + series_key(record.config), []).append(record)

    boundaries = {key: series_failure_speed(recs) for key, recs in day_series.items()}

    added: list[TestRecord] = []
    night_configs = [(c, c.key()) for c in enumerate_configs(log.protocol, light=NIGHT)]
    for vehicle in log.vehicle_ids():
        for config, key in night_configs:
            if (vehicle, key) in existing:
                continue
            day_key = (config.scenario.code, DAY, config.overlap, config.vut_speed, config.tg_speed)
            day_record = day_records.get((vehicle, day_key))
            if day_record is None:
                continue
            kind = day_record.outcome.kind
            if kind is OutcomeKind.JUDGED_FAILED:
                triggered = True
            elif kind is OutcomeKind.IMPACTED:
                boundary = boundaries.get((vehicle,) + series_key(day_record.config))
                triggered = boundary is not None and day_record.config.vut_speed == boundary[0]
            else:
                triggered = False
            if triggered:
                added.append(TestRecord(vehicle, config, TestOutcome.judged()))
    if not added:
        return log
    return log.with_records(log.records + tuple(added))


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding with a record locator."""

    code: str
    locator: str
    message: str

    def __str__(self) -> str:
        return f"{self.locator}: {self.message} [{self.code}]"


def _locator(record: TestRecord) -> str:
    c = record.config
    tg = "-" if c.tg_speed is None else f"{c.tg_speed:g}"
    return (
        f"{record.vehicle}/{c.code}/{c.light}/overlap={c.overlap:g}"
        f"/tg={tg}/vut={c.vut_speed:g}"
    )


def validate_log(log: CampaignLog) -> list[Diagnostic]:
    """Check a campaign log against the procedure and record invariants.

    Findings, not exceptions: unlicensed configurations, duplicate records,
    outcome invariant violations, and executed tests above a speed where the
    same series had already failed without any braking response.
    """
    diagnostics: list[Diagnostic] = []
    licensed = log.protocol.compiled.index
    seen: set[tuple] = set()
    series: dict[tuple, list[TestRecord]] = {}

    for record in log.records:
        key = record.config.key()
        if key not in licensed:
            diagnostics.append(
                Diagnostic(
                    "unlicensed-config", _locator(record), "configuration is not in the protocol"
                )
            )
        dup_key = (record.vehicle, key)
        if dup_key in seen:
            diagnostics.append(
                Diagnostic(
                    "duplicate-record", _locator(record), "duplicate record for this configuration"
                )
            )
        seen.add(dup_key)
        for problem in outcome_problems(record.outcome, record.config):
            diagnostics.append(Diagnostic("invalid-outcome", _locator(record), problem))
        series.setdefault((record.vehicle,) + series_key(record.config), []).append(record)

    for records in series.values():
        # A judged record, or an impact with no braking response, ends a series;
        # nothing may execute above the lowest such speed.
        hard_failures = [
            r.config.vut_speed
            for r in records
            if r.outcome.kind is OutcomeKind.JUDGED_FAILED
            or (r.outcome.kind is OutcomeKind.IMPACTED and r.outcome.intervention is False)
        ]
        if not hard_failures:
            continue
        stop_speed = min(hard_failures)
        for r in records:
            if r.outcome.kind in EXECUTED_KINDS and r.config.vut_speed > stop_speed:
                diagnostics.append(
                    Diagnostic(
                        "executed-above-failure",
                        _locator(r),
                        f"executed above a failure at {stop_speed:g} km/h in the same series",
                    )
                )
    return diagnostics


@dataclass(frozen=True)
class CompletionStats:
    expected: int
    executed: int
    judged: int
    completion_percent: int


def completion_stats(log: CampaignLog) -> dict[str, CompletionStats]:
    """Per-vehicle expected/executed/judged counts and completion percentage."""
    expected = log.protocol.config_count()
    counts = {vehicle: [0, 0] for vehicle in log.vehicle_ids()}  # executed, judged
    for record in log.records:
        kind = record.outcome.kind
        if kind is OutcomeKind.JUDGED_FAILED:
            counts[record.vehicle][1] += 1
        elif kind in EXECUTED_KINDS:
            counts[record.vehicle][0] += 1
    stats: dict[str, CompletionStats] = {}
    for vehicle, (executed, judged) in counts.items():
        percent = round(100.0 * (executed + judged) / expected) if expected else 0
        stats[vehicle] = CompletionStats(expected, executed, judged, percent)
    return stats
