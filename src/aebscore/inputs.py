"""The input documents a run loads besides its protocol: weight tables and the simulation spec.

A weight table gives each (scenario, light) instance its relevance in a
region's accident statistics and lists the instances of each scenario group;
``aggregate`` weighs scores with it and checks it against the protocol. A
simulation spec names the vehicle pool and gives each vehicle a braking
oracle, which ``simulate`` runs. Both are read as ``load_protocol`` reads a
protocol, through ``protocol.read_document``, and checked in full here.

A run's set-up is the protocol and these documents, so this module holds
their loaders and nothing that runs later: set-up compiles and loads only
``protocol`` and this module, not ``aggregate``, ``simulate`` or ``campaign``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Mapping, NamedTuple

from .protocol import LIGHTS, MAX_MAGNITUDE, ScenarioGroup, check_fields, read_document, within

Instance = tuple[str, str]  # (scenario code, light)


class WeightTableError(ValueError):
    """Raised when a weight table is malformed or inconsistent."""


class WeightTable(NamedTuple):
    """Regional relevance weights and the group membership of instances."""

    region: str
    weights: Mapping[Instance, float]
    groups: Mapping[ScenarioGroup, tuple[Instance, ...]]

    def weight(self, instance: Instance) -> float:
        try:
            return self.weights[instance]
        except KeyError:
            raise WeightTableError(
                f"no weight for instance {instance} in region {self.region!r}"
            ) from None


# Report file names end in the region, spelled region.upper().lower(); the longest is
# freq_score_mean_night_<region>.html (see report.py), and a name holds 255 bytes at most.
MAX_REGION_BYTES = 255 - len("freq_score_mean_night_.html")


def load_weight_table(source: str | Path | Mapping) -> WeightTable:
    """Load and validate a weight table (a path or a mapping, see ``read_document``);
    an error in a file's table starts with ``weight table <file>: ``."""
    doc = read_document(source, "weight table", WeightTableError)
    try:
        return _weight_table(doc)
    except WeightTableError as exc:
        if isinstance(source, Mapping):
            raise
        raise WeightTableError(f"weight table {source}: {exc}") from None


def _weight_table(doc: Mapping) -> WeightTable:
    region = doc.get("region")
    if not isinstance(region, str) or not region:
        raise WeightTableError("'region' must be a non-empty string")
    if "/" in region or "\\" in region or "\0" in region:  # it names report files
        raise WeightTableError(f"region {region!r} cannot be in a file name")
    size = len(region.upper().lower().encode("utf-8", "surrogatepass"))
    if size > MAX_REGION_BYTES:
        raise WeightTableError(
            f"region is {size} bytes in a report file name, more than {MAX_REGION_BYTES}"
        )
    raw_weights = doc.get("weights")
    if not isinstance(raw_weights, list) or not raw_weights:
        raise WeightTableError("'weights' must be a non-empty array")
    weights: dict[Instance, float] = {}
    for i, entry in enumerate(raw_weights):
        where = f"weights[{i}]"
        if not isinstance(entry, Mapping):
            raise WeightTableError(f"{where}: expected an object")
        instance = _instance(entry, where)
        w = entry.get("w")
        if not within(w, 0, MAX_MAGNITUDE):
            raise WeightTableError(
                f"{where}: 'w' must be a finite number in [0, {MAX_MAGNITUDE:g}], got {w!r}"
            )
        if instance in weights:
            raise WeightTableError(f"{where}: duplicate instance {instance}")
        weights[instance] = float(w)

    raw_groups = doc.get("groups")
    if not isinstance(raw_groups, Mapping) or not raw_groups:
        raise WeightTableError("'groups' must be a non-empty object")
    groups: dict[ScenarioGroup, tuple[Instance, ...]] = {}
    for name, members in raw_groups.items():
        try:
            group = ScenarioGroup(name)
        except ValueError:
            raise WeightTableError(f"unknown scenario group {name!r}") from None
        if not isinstance(members, list) or not members:
            raise WeightTableError(f"groups.{name}: expected a non-empty array")
        instances = {}  # each member, in order -> its index in the group
        for j, entry in enumerate(members):
            where = f"groups.{name}[{j}]"
            if not isinstance(entry, Mapping):
                raise WeightTableError(f"{where}: expected an object")
            if instances.setdefault(instance := _instance(entry, where), j) != j:
                raise WeightTableError(f"{where}: duplicate instance {instance}")
        groups[group] = tuple(instances)
        if not any(weights.get(inst, 0.0) > 0 for inst in instances):
            raise WeightTableError(f"groups.{name}: weights sum to zero")
    return WeightTable(region=region, weights=weights, groups=groups)


def _instance(entry: Mapping, where: str) -> Instance:
    code = entry.get("scenario")
    light = entry.get("light")
    if not isinstance(code, str) or not code:
        raise WeightTableError(f"{where}: 'scenario' must be a non-empty string")
    if light not in LIGHTS:
        raise WeightTableError(f"{where}: 'light' must be one of {LIGHTS}")
    return (code, light)


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
        at = f"{where}.rules[{i}]"
        if not isinstance(rule, Mapping):
            raise SimulationSpecError(f"{at}: expected an object")
        check_fields(rule, _RULE_KEYS, at, SimulationSpecError)
        for name in ("overlap", "tg_speed"):  # True == 1 and False == 0 would match numbers
            if isinstance(value := rule.get(name), bool):
                raise SimulationSpecError(f"{at}: {name!r} must not be a boolean, got {value!r}")
        fail_at = rule.get("fail_at")
        if fail_at is not None and not within(fail_at, -_FLOAT_MAX, _FLOAT_MAX):
            raise SimulationSpecError(f"{at}: 'fail_at' must be a finite number, got {fail_at!r}")
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
