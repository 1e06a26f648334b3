"""Seeded campaign simulation against configurable braking oracles.

A simulation spec names the vehicle pool and gives each vehicle a braking
oracle: a deterministic rule mapping a test configuration to avoided or
impacted. The driver replays the full incremental procedure - pre-tests,
speed escalation, judged expansion above failures, and night tests judged
where the daylight counterpart failed. Randomized oracles derive all draws
from the seed and the configuration identity, so a seed fixes the log
byte for byte regardless of execution order: one draw per escalation series
and one per pre-tested (scenario, light), each made on first use and kept
for that vehicle.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .protocol import LIGHTS, NIGHT, ProtocolDefinition, TestConfig, read_document, within
from .protocol import check_fields

if TYPE_CHECKING:  # imported where a simulation first runs, see simulate_campaign
    from .campaign import CampaignLog, TestOutcome

KNOWN_SENSORS = ("radar", "corner_radar", "camera", "lidar")


class SimulationSpecError(ValueError):
    """Raised when a simulation spec is malformed."""


class OracleSpec(NamedTuple):
    kind: str
    fail_at: float | None = None
    rules: tuple[Mapping, ...] = ()
    impact_fraction: float = 0.6
    respond: bool = True
    pretest_fail_prob: float = 0.0
    never_prob: float = 0.25
    impact_fraction_range: tuple[float, float] = (0.3, 0.95)
    respond_prob: float = 0.9


class SimulationSpec(NamedTuple):
    seed: int
    vehicles: tuple[tuple[str, OracleSpec], ...]  # (vehicle id, its oracle)


def load_simulation_spec(source: str | Path | Mapping) -> SimulationSpec:
    """Load and validate a simulation spec (a path or a mapping, see ``read_document``)."""
    doc = read_document(source, "simulation spec", SimulationSpecError)
    check_fields(doc, _SPEC_KEYS, "simulation spec", SimulationSpecError)
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SimulationSpecError("'seed' must be an integer")
    raw_vehicles = doc.get("vehicles")
    if not isinstance(raw_vehicles, list) or not raw_vehicles:
        raise SimulationSpecError("'vehicles' must be a non-empty array")
    default_oracle = doc.get("default_oracle")
    default = None  # default_oracle parsed, once, for the first vehicle that falls back on it

    vehicles = {}  # vehicle id -> its oracle
    for i, entry in enumerate(raw_vehicles):
        where = f"vehicles[{i}]"
        if not isinstance(entry, Mapping):
            raise SimulationSpecError(f"{where}: expected an object")
        check_fields(entry, _VEHICLE_KEYS, where, SimulationSpecError)
        vid = entry.get("id")
        if not isinstance(vid, str) or not vid:
            raise SimulationSpecError(f"{where}: 'id' must be a non-empty string")
        if vid in vehicles:
            raise SimulationSpecError(f"{where}: duplicate vehicle id {vid!r}")
        # Checked, not kept, as the next three: a mass cancels out of every score.
        mass = entry.get("mass", 1.0)
        if not within(mass, 0, _FLOAT_MAX) or mass == 0:
            raise SimulationSpecError(f"{where}: 'mass' must be a number > 0")
        sensors = entry.get("sensors", [])
        if not isinstance(sensors, list) or any(s not in KNOWN_SENSORS for s in sensors):
            raise SimulationSpecError(f"{where}: 'sensors' must be a subset of {KNOWN_SENSORS}")
        model_year, is_prototype = entry.get("model_year"), entry.get("is_prototype", False)
        if isinstance(model_year, bool) or not isinstance(model_year, (int, type(None))):
            raise SimulationSpecError(f"{where}: 'model_year' must be an integer or null")
        if not isinstance(is_prototype, bool):
            raise SimulationSpecError(f"{where}: 'is_prototype' must be a boolean")
        oracle_doc = entry.get("oracle", default_oracle)
        if oracle_doc is None:
            raise SimulationSpecError(f"{where}: no oracle and no default_oracle")
        if "oracle" in entry:
            vehicles[vid] = _parse_oracle(oracle_doc, f"{where}.oracle")
        else:
            if default is None:
                default = _parse_oracle(oracle_doc, "default_oracle")
            vehicles[vid] = default
    return SimulationSpec(seed=seed, vehicles=tuple(vehicles.items()))


_SPEC_KEYS = frozenset(("seed", "vehicles", "default_oracle"))
_VEHICLE_KEYS = frozenset(("id", "mass", "sensors", "model_year", "is_prototype", "oracle"))
_ORACLE_KINDS = ("always_avoid", "never_respond", "threshold", "random")
_ORACLE_KEYS = frozenset(("type", *OracleSpec._fields[1:]))  # "type" names the kind
_RULE_CONDITIONS = ("scenario", "light", "overlap", "tg_speed")
_RULE_KEYS = frozenset((*_RULE_CONDITIONS, "fail_at"))


_FLOAT_MAX = sys.float_info.max
# Numeric oracle fields: default, lowest and highest accepted value.
_ORACLE_NUMBERS = {
    "fail_at": (None, -_FLOAT_MAX, _FLOAT_MAX),
    "impact_fraction": (0.6, -_FLOAT_MAX, _FLOAT_MAX),
    "pretest_fail_prob": (0.0, 0.0, 1.0),
    "never_prob": (0.25, 0.0, 1.0),
    "respond_prob": (0.9, 0.0, 1.0),
}


def _parse_oracle(doc, where: str) -> OracleSpec:
    if not isinstance(doc, Mapping):
        raise SimulationSpecError(f"{where}: expected an object")
    check_fields(doc, _ORACLE_KEYS, where, SimulationSpecError)
    kind = doc.get("type")
    if kind not in _ORACLE_KINDS:
        raise SimulationSpecError(f"{where}: 'type' must be one of {_ORACLE_KINDS}")
    if "rules" in doc and kind != "threshold":  # no other kind reads them
        raise SimulationSpecError(f"{where}: 'rules' apply only to a 'threshold' oracle")
    rules = doc.get("rules", [])
    if not isinstance(rules, list):
        raise SimulationSpecError(f"{where}: 'rules' must be an array")
    for i, rule in enumerate(rules):
        if not isinstance(rule, Mapping):
            raise SimulationSpecError(f"{where}.rules[{i}]: expected an object")
        check_fields(rule, _RULE_KEYS, f"{where}.rules[{i}]", SimulationSpecError)
        fail_at = rule.get("fail_at")
        if fail_at is not None and not within(fail_at, -_FLOAT_MAX, _FLOAT_MAX):
            raise SimulationSpecError(
                f"{where}.rules[{i}]: 'fail_at' must be a finite number, got {fail_at!r}"
            )
    numbers = {}
    for name, (default, lo, hi) in _ORACLE_NUMBERS.items():
        value = doc.get(name, default)
        if value is not None or default is not None:  # null only where it is the default
            if not within(value, lo, hi):
                bounds = "" if hi == _FLOAT_MAX else f" in [{lo:g}, {hi:g}]"
                raise SimulationSpecError(
                    f"{where}: {name!r} must be a finite number{bounds}, got {value!r}"
                )
            value = float(value)
        numbers[name] = value
    fraction_range = doc.get("impact_fraction_range", [0.3, 0.95])
    if not (
        isinstance(fraction_range, list)
        and len(fraction_range) == 2
        and within(fraction_range[0], 0.0, 1.0)
        and within(fraction_range[1], fraction_range[0], 1.0)
    ):
        raise SimulationSpecError(
            f"{where}: 'impact_fraction_range' must be [lo, hi] with 0 <= lo <= hi <= 1"
        )
    respond = doc.get("respond", True)
    if not isinstance(respond, bool):
        raise SimulationSpecError(f"{where}: 'respond' must be true or false")
    return OracleSpec(
        kind=kind,
        rules=tuple(rules),
        respond=respond,
        impact_fraction_range=(float(fraction_range[0]), float(fraction_range[1])),
        **numbers,
    )


def _stable_rng(*parts) -> random.Random:
    # Imported here, not at the top: loading a spec never hashes, and hashlib
    # loads OpenSSL. A repeated import statement costs about 0.1 us.
    import hashlib

    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def build_oracle(spec: OracleSpec, seed: int, vehicle: str):
    """Deterministic braking oracle for one vehicle."""
    # Imported here, not at the top: loading a spec never simulates.
    from .campaign import TestOutcome, series_key

    def threshold_for(config: TestConfig) -> float | None:
        for rule in spec.rules:
            if rule.get("scenario") not in (None, config.code):
                continue
            if rule.get("light") not in (None, config.light):
                continue
            if rule.get("overlap") not in (None, config.overlap):
                continue
            if rule.get("tg_speed", "any") not in ("any", config.tg_speed):
                continue
            return rule.get("fail_at")
        return spec.fail_at

    pretest_failed: dict[tuple, bool] = {}  # (scenario, light) -> pre-test draw failed
    series_draws: dict[tuple, tuple] = {}  # series key -> (fail speed, fraction, respond)

    kind = spec.kind

    def oracle(config: TestConfig) -> TestOutcome:
        if kind == "always_avoid":
            return TestOutcome.avoided()
        if kind == "never_respond":
            return TestOutcome.impacted(config.vut_speed, intervention=False)
        if kind == "threshold":
            fail_at = threshold_for(config)
            if fail_at is None or config.vut_speed < fail_at:
                return TestOutcome.avoided()
            impact = max(min(spec.impact_fraction, 1.0), 1e-3) * config.vut_speed
            return TestOutcome.impacted(impact, intervention=spec.respond)
        # Random oracle: every draw is keyed by the series identity, or by
        # (scenario, light) for the pre-test, so it is made once per key and
        # the answer for a configuration never depends on visit order.
        pair = (config.code, config.light)
        failed = pretest_failed.get(pair)
        if failed is None:
            rng = _stable_rng(seed, vehicle, "pretest", *pair)
            failed = pretest_failed[pair] = rng.random() < spec.pretest_fail_prob
        if failed:
            return TestOutcome.impacted(config.vut_speed, intervention=False)
        series = series_key(config)
        draw = series_draws.get(series)
        if draw is None:
            rng = _stable_rng(seed, vehicle, *series)
            lattice = _series_speeds(config)
            fail_index = len(lattice) if rng.random() < spec.never_prob else rng.randrange(len(lattice))
            fraction = rng.uniform(*spec.impact_fraction_range)
            respond = rng.random() < spec.respond_prob
            fail_speed = lattice[fail_index] if fail_index < len(lattice) else None
            draw = series_draws[series] = (fail_speed, fraction, respond)
        fail_speed, fraction, respond = draw
        if fail_speed is None or config.vut_speed < fail_speed:
            return TestOutcome.avoided()
        return TestOutcome.impacted(
            max(fraction * config.vut_speed, 1e-3), intervention=respond
        )

    return oracle


def _series_speeds(config: TestConfig) -> tuple[float, ...]:
    settings = config.scenario.settings(config.light)
    for variant in settings.variants:
        if variant.tg_speed == config.tg_speed:
            return variant.speeds
    return (config.vut_speed,)


def _check_rules(protocol: ProtocolDefinition, spec: SimulationSpec) -> None:
    """Raise for an oracle rule that no configuration of ``protocol`` meets.

    A rule is compared as ``build_oracle`` compares it, with each licensed
    (scenario, light) and the overlaps and TG speeds of its settings; every
    lattice cell of those is a configuration. Each rule object is checked once.
    """
    matched = set()  # ids of the rules some configuration meets
    for i, (vehicle, oracle_spec) in enumerate(spec.vehicles):
        for j, rule in enumerate(oracle_spec.rules):
            if id(rule) in matched:
                continue
            code, light = rule.get("scenario"), rule.get("light")
            overlap, tg = rule.get("overlap"), rule.get("tg_speed", "any")
            for c, lt in protocol.instances:
                if code in (None, c) and light in (None, lt):
                    settings = protocol.scenario(c).settings(lt)
                    if overlap in (None, *settings.overlaps) and tg in (
                        "any", *(v.tg_speed for v in settings.variants)
                    ):
                        matched.add(id(rule))
                        break
            else:
                given = ", ".join(f"{k} {rule[k]!r}" for k in _RULE_CONDITIONS if k in rule)
                raise SimulationSpecError(
                    f"vehicles[{i}] ({vehicle!r}): oracle rules[{j}] matches no configuration"
                    f" of the protocol ({given or 'no condition'})"
                )


def simulate_campaign(
    protocol: ProtocolDefinition,
    spec: SimulationSpec,
    stop_on_impact: bool = True,
) -> CampaignLog:
    """Replay the incremental procedure for every vehicle in the spec."""
    # Imported here, not at the top: loading a spec never simulates.
    from .campaign import CampaignLog, TestOutcome, judged_nights, run_scenario

    _check_rules(protocol, spec)
    index, configs = protocol.index, protocol.configs
    night_pairs: dict[str, list[tuple]] = {}  # scenario -> its (night, day counterpart) pairs
    for pair in protocol.night_pairs:
        night_pairs.setdefault(configs[pair[0]].code, []).append(pair)
    entries = []  # (vehicle, (position, config, outcome, pre_test)) in row order
    avoided, judged_failed = TestOutcome.avoided(), TestOutcome.judged()  # one object each
    shared: dict[tuple, tuple] = {}  # (position, avoided?, pre_test) -> their rows' entry
    for vehicle, oracle_spec in spec.vehicles:
        oracle = build_oracle(oracle_spec, spec.seed, vehicle)
        for scenario in protocol.scenarios:
            day = []  # the scenario's day entries
            judged = ()
            for light in LIGHTS:
                if light not in scenario.lights:
                    continue
                if light == NIGHT:
                    pairs = night_pairs.get(scenario.code, ())
                    judged = {configs[night] for night in judged_nights(protocol, day, pairs)}
                for overlap in scenario.settings(light).overlaps:
                    for _, config, outcome, pre_test in run_scenario(
                        oracle,
                        scenario,
                        overlap,
                        light,
                        requires_pretest=scenario.requires_pretest,
                        vehicle=vehicle,
                        stop_on_impact=stop_on_impact,
                        judged=judged,
                    ):
                        pos = index[config.key()]
                        entry = (pos, config, outcome, pre_test)
                        if outcome is avoided or outcome is judged_failed:
                            entry = shared.setdefault((pos, outcome is avoided, pre_test), entry)
                        entries.append((vehicle, entry))
                        if light != NIGHT:
                            day.append(entry)
    return CampaignLog._of_entries(protocol, entries)
