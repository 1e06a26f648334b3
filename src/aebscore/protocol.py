"""Test protocol model: scenario catalogue and test-configuration enumeration.

A protocol is an ordered list of collision scenarios. Each scenario carries
the approach-speed ranges of the vehicle under test (VUT), optional target
(TG) speeds, a speed step, overlap percentages, and the light conditions it
is licensed for. Night settings may override the day settings (fewer
overlaps, a single TG speed, or shifted speed ranges).

Enumerating a protocol produces every concrete test configuration in a
deterministic order: scenario order, day before night, ascending overlap,
ascending VUT speed, ascending TG speed.

Each protocol builds its table once, when it is constructed: a
``ProtocolDefinition`` holds the canonical ``TestConfig`` objects in
enumeration order, a key -> position index, and one slice per licensed
(scenario, light) instance with an escalation-series id per config. The
configs themselves are built with each scenario's light settings.
Enumeration, lookups, log parsing, simulation and scoring all resolve
against them, so every licensed configuration exists as exactly one object.
Before anything is built, the size of the lattice is counted arithmetically
and capped at ``MAX_CONFIGS``.
"""

from __future__ import annotations

import json
import math
import sys
from enum import Enum
from pathlib import Path
from typing import Mapping, NamedTuple


DAY = "day"
NIGHT = "night"
LIGHTS = (DAY, NIGHT)

# Upper bound on the configurations one protocol may enumerate. Loading
# builds every configuration, so a range/step that implies more is refused
# before any lattice is built.
MAX_CONFIGS = 100_000
# Weights and masses must not exceed this: beyond it their products with
# passive powers can overflow, and an inf over an inf makes a nan score.
MAX_MAGNITUDE = 1e100


class ScenarioGroup(str, Enum):
    C2C = "C2C"  # car to car
    C2VRU = "C2VRU"  # car to vulnerable road user
    C2O = "C2O"  # car to object


class ProtocolError(ValueError):
    """Raised when a protocol document violates the schema or its invariants."""


class SpeedRange(NamedTuple):
    """Inclusive km/h range; (hi - lo) must be a multiple of the speed step."""

    lo: float
    hi: float

    def lattice(self, step: float) -> tuple[float, ...]:
        n = int(round((self.hi - self.lo) / step))
        return tuple(self.lo + k * step for k in range(n + 1))


class LightOverride(NamedTuple):
    """Per-light replacements for selected scenario settings (night rows)."""

    vut_speed_ranges: tuple[SpeedRange, ...] | None = None
    tg_speeds: tuple[float, ...] | None = None
    overlaps: tuple[float, ...] | None = None


class SeriesVariant(NamedTuple):
    """One escalation series shape: a TG speed and the VUT speed lattice."""

    tg_speed: float | None
    speeds: tuple[float, ...]


class LightSettings(NamedTuple):
    """The settings a scenario licenses under one light condition.

    ``configs`` maps each lattice cell (overlap, VUT speed, TG speed) to its
    one ``TestConfig``: the protocol's table and ``run_scenario`` share them.
    ``pretest`` is the low-speed probe below the lattice, one per light.
    """

    overlaps: tuple[float, ...]
    variants: tuple[SeriesVariant, ...]
    configs: Mapping[tuple, TestConfig]
    pretest: TestConfig


class ScenarioSpec:
    """One collision scenario with its licensed test settings.

    ``tg_paired`` pairs speed range i with TG speed i (dual-range crossing
    scenarios); otherwise every TG speed is crossed with the union lattice of
    all ranges. ``tg_crossing`` marks car-to-car scenarios whose target moves
    orthogonally to the impact axis, so its speed does not reduce the closing
    speed. ``night`` overrides individual settings for night tests.
    Specs with equal fields are equal and hash equal; the settings cache
    takes no part in that.
    """

    __slots__ = (
        "code", "group", "vut_speed_ranges", "tg_speeds", "speed_step", "overlaps", "lights",
        "description", "tg_paired", "tg_crossing", "requires_pretest", "night", "_settings",
    )

    def __init__(
        self, code: str, group: ScenarioGroup, vut_speed_ranges: tuple[SpeedRange, ...],
        tg_speeds: tuple[float, ...] | None, speed_step: float, overlaps: tuple[float, ...],
        lights: tuple[str, ...], description: str = "", tg_paired: bool = False,
        tg_crossing: bool = False, requires_pretest: bool = False,
        night: LightOverride | None = None,
    ):
        self.code = code
        self.group = group
        self.vut_speed_ranges = vut_speed_ranges
        self.tg_speeds = tg_speeds
        self.speed_step = speed_step
        self.overlaps = overlaps
        self.lights = lights
        self.description = description
        self.tg_paired = tg_paired
        self.tg_crossing = tg_crossing
        self.requires_pretest = requires_pretest
        self.night = night
        # light -> LightSettings, filled by settings() on first use per light.
        self._settings: dict[str, LightSettings] = {}

    def _values(self) -> tuple:
        """Every slot but the settings cache, which is last."""
        return tuple(getattr(self, name) for name in ScenarioSpec.__slots__[:-1])

    def __eq__(self, other):
        if other.__class__ is not ScenarioSpec:
            return NotImplemented
        return other is self or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def settings(self, light: str) -> LightSettings:
        if light not in self._settings:
            ranges, tg_speeds, overlaps = self._light_fields(light)
            variants = self._variants(ranges, tg_speeds)
            configs = {
                (overlap, speed, v.tg_speed): TestConfig(self, speed, v.tg_speed, overlap, light)
                for overlap in overlaps
                for v in variants
                for speed in v.speeds
            }
            pretest = TestConfig(
                self, self.pretest_speed(), variants[0].tg_speed, overlaps[0], light
            )
            self._settings[light] = LightSettings(overlaps, variants, configs, pretest)
        return self._settings[light]

    def _light_fields(
        self, light: str
    ) -> tuple[tuple[SpeedRange, ...], tuple[float, ...] | None, tuple[float, ...]]:
        """Speed ranges, TG speeds and overlaps under ``light``, overrides applied."""
        if light not in self.lights:
            raise ProtocolError(f"scenario {self.code!r} is not licensed for {light!r}")
        ranges = self.vut_speed_ranges
        tg_speeds = self.tg_speeds
        overlaps = self.overlaps
        if light == NIGHT and self.night is not None:
            ranges = self.night.vut_speed_ranges or ranges
            tg_speeds = self.night.tg_speeds if self.night.tg_speeds is not None else tg_speeds
            overlaps = self.night.overlaps or overlaps
        return ranges, tg_speeds, overlaps

    def config_bound(self) -> int:
        """Upper bound on the configurations this scenario enumerates.

        Counted from the ranges and steps alone, without building a lattice;
        exact unless ranges or TG speeds repeat each other.
        """
        total = 0
        for light in self.lights:
            ranges, tg_speeds, overlaps = self._light_fields(light)
            points = sum(int(round((r.hi - r.lo) / self.speed_step)) + 1 for r in ranges)
            series = 1 if self.tg_paired else len(tg_speeds or (None,))
            total += len(overlaps) * series * points
        return total

    def _variants(
        self, ranges: tuple[SpeedRange, ...], tg_speeds: tuple[float, ...] | None
    ) -> tuple[SeriesVariant, ...]:
        merged: dict[float | None, set[float]] = {}
        if self.tg_paired:
            assert tg_speeds is not None
            # Range i belongs to TG speed i; ranges sharing a TG merge into one series.
            for rng, tg in zip(ranges, tg_speeds):
                merged.setdefault(tg, set()).update(rng.lattice(self.speed_step))
        else:
            union = {speed for rng in ranges for speed in rng.lattice(self.speed_step)}
            for tg in tg_speeds or (None,):
                merged.setdefault(tg, set()).update(union)
        return tuple(
            SeriesVariant(tg, tuple(sorted(speeds)))
            for tg, speeds in sorted(merged.items(), key=lambda kv: _tg_key(kv[0]))
        )

    def pretest_speed(self) -> float:
        """Probe speed below the scenario's range, used before non-standard tests."""
        lo = min(r.lo for r in self.vut_speed_ranges)
        probe = lo - self.speed_step
        return probe if probe > 0 else lo / 2.0


class TestConfig(NamedTuple):
    """One concrete test setting of a scenario."""

    scenario: ScenarioSpec
    vut_speed: float
    tg_speed: float | None
    overlap: float
    light: str

    @property
    def code(self) -> str:
        return self.scenario.code

    def key(self) -> tuple:
        return (self.scenario.code, self.light, self.overlap, self.vut_speed, self.tg_speed)

    def __hash__(self) -> int:
        # Equal configs share their key fields, so this agrees with __eq__
        # without hashing the whole ScenarioSpec.
        return hash(self.key())


class InstanceSlice(NamedTuple):
    """The configs of one licensed (scenario, light) instance in the protocol's table.

    ``configs`` is ``ProtocolDefinition.configs[start:stop]``; ``series[i]``
    numbers the escalation series of ``configs[i]`` from 0, in order of
    first appearance.
    """

    start: int
    stop: int
    configs: tuple[TestConfig, ...]
    series: tuple[int, ...]


class ProtocolDefinition:
    """Validated, immutable scenario catalogue with every test configuration it licenses.

    ``configs`` holds the canonical configs in enumeration order, ``index``
    maps a config key to its position, and ``instances`` maps each licensed
    (scenario, light) pair, in output order, to its ``InstanceSlice``.
    ``series[i]`` numbers the escalation series of ``configs[i]`` across the
    table and ``series_index`` maps a series key (scenario, light, overlap,
    TG speed) to that number. ``night_pairs`` lists each night position in
    order with its daylight counterpart: the position of the day config with
    the same settings or, when the day lattice lacks it, that config's key.
    """

    __slots__ = ("scenarios", "provenance", "notes", "configs", "index", "instances", "series",
                 "series_index", "night_pairs", "_by_code")

    def __init__(self, scenarios: tuple[ScenarioSpec, ...], provenance: str = "", notes: str = ""):
        total = 0
        for i, spec in enumerate(scenarios):
            total += spec.config_bound()
            if total > MAX_CONFIGS:
                raise ProtocolError(
                    f"scenarios[{i}] ({spec.code}): the protocol would enumerate up to "
                    f"{total} configurations; the limit is {MAX_CONFIGS}"
                )
        configs: list[TestConfig] = []
        index: dict[tuple, int] = {}  # config key -> position
        instances: dict[tuple[str, str], InstanceSlice] = {}
        series_index: dict[tuple, int] = {}  # series key -> number across the table
        table_series: list[int] = []
        night_pairs = []
        # A scenario's day configs are indexed before its night ones.
        for spec, light in ((s, lt) for s in scenarios for lt in LIGHTS if lt in s.lights):
            cells = spec.settings(light).configs
            # An instance's series keys are all new, so it numbers them from here.
            start, first = len(configs), len(series_index)
            for cell in sorted(cells, key=lambda t: (t[0], t[1], _tg_key(t[2]))):
                overlap, speed, tg = cell
                if light == NIGHT:
                    day = (spec.code, DAY, overlap, speed, tg)
                    night_pairs.append((len(configs), index.get(day, day)))
                index[(spec.code, light, overlap, speed, tg)] = len(configs)
                configs.append(cells[cell])
                key = (spec.code, light, overlap, tg)
                table_series.append(series_index.setdefault(key, len(series_index)))
            series = tuple(n - first for n in table_series[start:])
            instances[(spec.code, light)] = InstanceSlice(
                start, len(configs), tuple(configs[start:]), series
            )
        self.scenarios = scenarios
        self.provenance = provenance
        self.notes = notes
        self.configs: tuple[TestConfig, ...] = tuple(configs)
        self.index = index
        self.instances = instances
        self.series = tuple(table_series)
        self.series_index = series_index
        self.night_pairs: tuple[tuple[int, int | tuple], ...] = tuple(night_pairs)
        self._by_code = {s.code: s for s in scenarios}

    def scenario(self, code: str) -> ScenarioSpec:
        try:
            return self._by_code[code]
        except KeyError:
            raise ProtocolError(f"unknown scenario code {code!r}") from None

    def has_scenario(self, code: str) -> bool:
        return code in self._by_code

    def config_count(self) -> int:
        return len(self.configs)

    def licensed_pairs(self) -> list[tuple[str, str]]:
        """(scenario code, light) pairs the protocol licenses, in output order."""
        return list(self.instances)


def _tg_key(tg: float | None) -> float:
    return float("-inf") if tg is None else tg


def enumerate_configs(
    protocol: ProtocolDefinition,
    scenario: str | None = None,
    light: str | None = None,
    group: ScenarioGroup | str | None = None,
) -> list[TestConfig]:
    """Enumerate test configurations, optionally filtered.

    Order: scenario order as listed, day before night, then ascending
    overlap, ascending VUT speed, ascending TG speed.
    """
    if scenario is not None and not protocol.has_scenario(scenario):
        raise ProtocolError(f"unknown scenario code {scenario!r}")
    if light is not None and light not in LIGHTS:
        raise ProtocolError(f"unknown light {light!r}; expected one of {LIGHTS}")
    if group is not None:
        try:
            group = ScenarioGroup(group)
        except ValueError:
            raise ProtocolError(f"unknown scenario group {group!r}") from None

    configs: list[TestConfig] = []
    for (code, lt), part in protocol.instances.items():
        if scenario is not None and code != scenario:
            continue
        if light is not None and lt != light:
            continue
        if group is not None and protocol.scenario(code).group is not group:
            continue
        configs.extend(part.configs)
    return configs


# ---------------------------------------------------------------------------
# Loading / serialization

_SCENARIO_KEYS = frozenset(ScenarioSpec.__slots__[:-1])  # every field but the settings cache


def load_protocol(source: str | Path | Mapping) -> ProtocolDefinition:
    """Load and validate a protocol document (a path or a mapping, see ``read_document``)."""
    doc = read_document(source, "protocol", ProtocolError)
    raw_scenarios = doc.get("scenarios")
    if not isinstance(raw_scenarios, list):
        raise ProtocolError("protocol document needs a top-level 'scenarios' array")
    if not raw_scenarios:  # a protocol that licenses no test rates no vehicle
        raise ProtocolError("scenarios: the protocol needs at least one scenario")

    scenarios = []
    codes: set[str] = set()
    for i, entry in enumerate(raw_scenarios):
        spec = _parse_scenario(entry, f"scenarios[{i}]")
        if spec.code in codes:
            raise ProtocolError(f"scenarios[{i}]: duplicate scenario code {spec.code!r}")
        codes.add(spec.code)
        scenarios.append(spec)

    protocol = ProtocolDefinition(
        scenarios=tuple(scenarios),
        provenance=str(doc.get("provenance", "")),
        notes=str(doc.get("notes", "")),
    )
    expected = doc.get("expected_config_count")
    if expected is not None:
        if isinstance(expected, bool) or not isinstance(expected, (int, float)):
            raise ProtocolError(f"expected_config_count: expected a number, got {expected!r}")
        actual = protocol.config_count()
        if actual != expected:
            raise ProtocolError(
                f"protocol declares {expected} configurations but enumerates {actual}"
            )
    return protocol


def read_text(path: str | Path, kind: str) -> str:
    """The text of a UTF-8 input file, with universal newlines; bytes that
    do not decode are an error naming the file and its kind."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{kind} {path}: not UTF-8 text ({exc})") from None


def read_document(source: str | Path | Mapping, kind: str, error: type[ValueError]) -> Mapping:
    """A JSON input document: a mapping as given, or the object in a UTF-8 file.

    Invalid JSON, nesting deeper than the decoder's recursion limit, a top level
    that is not an object and a string holding a lone surrogate raise ``error``
    naming ``kind`` and the file.
    """
    if isinstance(source, Mapping):
        return source
    text = read_text(source, kind)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer beyond int's digit limit
        raise error(f"{kind} {source}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise error(f"{kind} {source}: expected a JSON object")
    if "\\ud" in text or "\\uD" in text:  # walked without recursion: nesting may be deep
        nodes = [doc]
        while nodes:
            node = nodes.pop()
            if isinstance(node, dict):
                nodes += (*node, *node.values())
            elif isinstance(node, list):
                nodes += node
            elif isinstance(node, str) and has_lone_surrogate(node):
                raise error(f"{kind} {source}: string {node!r} holds a lone surrogate")
    return doc


def check_fields(doc: Mapping, keys: frozenset, where: str, error: type[ValueError]) -> None:
    """Raise ``error`` at ``where`` for the keys of ``doc`` that ``keys`` lacks."""
    if not doc.keys() <= keys:
        raise error(f"{where}: unknown field(s) {sorted(doc.keys() - keys)}")


def has_lone_surrogate(text: str) -> bool:
    """No UTF-8 file holds a lone surrogate, but a JSON escape such as "\\ud800" makes one."""
    return not text.isascii() and any("\ud800" <= c <= "\udfff" for c in text)


def _parse_scenario(entry, where: str) -> ScenarioSpec:
    if not isinstance(entry, Mapping):
        raise ProtocolError(f"{where}: scenario entry must be an object")
    check_fields(entry, _SCENARIO_KEYS, where, ProtocolError)
    code = entry.get("code")
    if not isinstance(code, str) or not code:
        raise ProtocolError(f"{where}: 'code' must be a non-empty string")
    where = f"{where} ({code})"
    try:
        group = ScenarioGroup(entry.get("group"))
    except ValueError:
        raise ProtocolError(
            f"{where}: 'group' must be one of {[g.value for g in ScenarioGroup]}"
        ) from None

    step = _positive_number(entry.get("speed_step"), f"{where}.speed_step")
    ranges = _parse_ranges(entry.get("vut_speed_ranges"), step, f"{where}.vut_speed_ranges")
    tg_speeds = _parse_tg_speeds(entry.get("tg_speeds"), f"{where}.tg_speeds")
    overlaps = _parse_overlaps(entry.get("overlaps"), f"{where}.overlaps")
    lights = _parse_lights(entry.get("lights"), f"{where}.lights")
    tg_paired = _flag(entry, "tg_paired", where)
    if tg_paired:
        if tg_speeds is None or len(tg_speeds) != len(ranges):
            raise ProtocolError(
                f"{where}: tg_paired requires one tg speed per speed range"
            )

    night = None
    if entry.get("night") is not None:
        night = _parse_override(entry["night"], step, f"{where}.night")
        if NIGHT not in lights:
            raise ProtocolError(f"{where}: night overrides given but night is not licensed")

    return ScenarioSpec(
        code=code,
        group=group,
        vut_speed_ranges=ranges,
        tg_speeds=tg_speeds,
        speed_step=step,
        overlaps=overlaps,
        lights=lights,
        description=str(entry.get("description", "")),
        tg_paired=tg_paired,
        tg_crossing=_flag(entry, "tg_crossing", where),
        requires_pretest=_flag(entry, "requires_pretest", where),
        night=night,
    )


def _flag(entry: Mapping, key: str, where: str) -> bool:
    """A JSON boolean; an absent key means false."""
    value = entry.get(key, False)
    if not isinstance(value, bool):
        raise ProtocolError(f"{where}.{key}: expected a boolean, got {value!r}")
    return value


def _parse_override(raw, step: float, where: str) -> LightOverride:
    if not isinstance(raw, Mapping):
        raise ProtocolError(f"{where}: override must be an object")
    check_fields(raw, frozenset(LightOverride._fields), where, ProtocolError)
    ranges = None
    if raw.get("vut_speed_ranges") is not None:
        ranges = _parse_ranges(raw["vut_speed_ranges"], step, f"{where}.vut_speed_ranges")
    tg_speeds = None
    if raw.get("tg_speeds") is not None:
        tg_speeds = _parse_tg_speeds(raw["tg_speeds"], f"{where}.tg_speeds")
    overlaps = None
    if raw.get("overlaps") is not None:
        overlaps = _parse_overlaps(raw["overlaps"], f"{where}.overlaps")
    return LightOverride(vut_speed_ranges=ranges, tg_speeds=tg_speeds, overlaps=overlaps)


def _parse_ranges(raw, step: float, where: str) -> tuple[SpeedRange, ...]:
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(f"{where}: expected a non-empty array of [min, max] pairs")
    ranges = []
    for j, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ProtocolError(f"{where}[{j}]: expected a [min, max] pair")
        lo, hi = (_number(v, f"{where}[{j}]") for v in pair)
        if lo > hi:
            raise ProtocolError(f"{where}[{j}]: min {lo} exceeds max {hi}")
        steps = (hi - lo) / step
        if not math.isfinite(steps):
            raise ProtocolError(f"{where}[{j}]: range {lo}-{hi} is too wide for speed step {step}")
        if abs(steps - round(steps)) > 1e-9:
            raise ProtocolError(
                f"{where}[{j}]: range {lo}-{hi} is not divisible by speed step {step}"
            )
        ranges.append(SpeedRange(lo, hi))
    return tuple(ranges)


def _parse_tg_speeds(raw, where: str) -> tuple[float, ...] | None:
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(f"{where}: expected null or a non-empty array of speeds")
    return tuple(_number(v, where) for v in raw)


def _parse_overlaps(raw, where: str) -> tuple[float, ...]:
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(f"{where}: expected a non-empty array of percentages")
    overlaps = tuple(_number(v, where) for v in raw)
    seen = set()
    for o in overlaps:
        if not 0 < o <= 100:
            raise ProtocolError(f"{where}: overlap {o} outside (0, 100]")
        if o in seen:
            raise ProtocolError(f"{where}: overlap {o:g} given twice")
        seen.add(o)
    return overlaps


def _parse_lights(raw, where: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(f"{where}: expected a non-empty array of light conditions")
    for lt in raw:
        if lt not in LIGHTS:
            raise ProtocolError(f"{where}: unknown light {lt!r}")
    return tuple(lt for lt in LIGHTS if lt in raw)


def within(value, lo: float, hi: float) -> bool:
    """A JSON number in [lo, hi]. Booleans are not numbers; NaN, infinities and
    integers beyond float range fall outside any finite bounds."""
    return isinstance(value, (int, float)) and value.__class__ is not bool and lo <= value <= hi


def _number(value, where: str) -> float:
    if not within(value, -sys.float_info.max, sys.float_info.max):
        raise ProtocolError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _positive_number(value, where: str) -> float:
    num = _number(value, where)
    if num <= 0:
        raise ProtocolError(f"{where}: must be > 0")
    return num


def _plain(x: float):
    return int(x) if float(x).is_integer() else float(x)


def bundled_protocol_path() -> Path:
    return Path(__file__).parent / "data" / "protocol_swissre.json"
