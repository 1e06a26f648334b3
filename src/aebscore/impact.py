"""Impact-power model: a collision energy proxy and the passive powers it gives.

The published scoring framework never discloses its impact-power formula, so
this module supplies a documented, pluggable default: a kinetic-energy proxy.
Car-to-car collisions use the reduced mass of the pair and the closing speed
along the impact axis; collisions with vulnerable road users or objects use
the full kinetic energy of the test vehicle. A geometry factor scales the
energy by the overlap between the vehicles. Only energy *ratios* enter the
mitigation scores, so any overall constant cancels downstream.
"""

from __future__ import annotations

from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .protocol import MAX_MAGNITUDE, ProtocolDefinition, ScenarioGroup, TestConfig
from .protocol import check_fields, read_document, within

KMH_TO_MS = 1.0 / 3.6

# kg; read-only, as every default ImpactPowerModel shares it.
DEFAULT_TG_MASSES: Mapping[ScenarioGroup, float] = MappingProxyType({ScenarioGroup.C2C: 1500.0})
DEFAULT_VUT_MASS = 1500.0  # kg


class ImpactModelError(ValueError):
    """Raised for invalid impact-model inputs or configuration."""


GEOMETRY_RULES: dict[str, Callable[[float], float]] = {
    # Linear: energy transfer proportional to the geometric overlap.
    "linear": lambda overlap: overlap / 100.0,
    # Unit: geometry ignored, full frontal energy regardless of overlap.
    "unit": lambda overlap: 1.0,
}


class ImpactPowerModel(NamedTuple):
    """Pluggable impact-power quantity; strictly increasing in impact speed."""

    name: str = "kinetic-energy-proxy"
    tg_masses: Mapping[ScenarioGroup, float] = DEFAULT_TG_MASSES
    geometry_rule: str = "linear"

    def __hash__(self) -> int:
        # A value type like any NamedTuple, though tg_masses is a mapping.
        return hash((self.name, frozenset(self.tg_masses.items()), self.geometry_rule))

    def geometry_factor(self, overlap: float) -> float:
        try:
            rule = GEOMETRY_RULES[self.geometry_rule]
        except KeyError:
            raise ImpactModelError(f"unknown geometry rule {self.geometry_rule!r}") from None
        return rule(overlap)

    def tg_mass(self, group: ScenarioGroup) -> float:
        mass = self.tg_masses.get(group, DEFAULT_TG_MASSES.get(group, 0.0))
        if group is ScenarioGroup.C2C and mass <= 0:
            raise ImpactModelError("car-to-car target mass must be > 0")
        return mass


def load_impact_config(source: str | Path | Mapping) -> ImpactPowerModel:
    """Load an impact config (a path or a mapping, see ``protocol.read_document``).

    Every mass, target or VUT, is a JSON number in (0, ``MAX_MAGNITUDE``]. VUT
    masses are checked, not kept: they cancel out of every score (see ``scoring``).
    """
    doc = read_document(source, "impact model", ImpactModelError)
    fields = frozenset(("name", "tg_masses", "geometry_rule", "vut_masses", "default_vut_mass"))
    check_fields(doc, fields, "impact model", ImpactModelError)
    geometry_rule = doc.get("geometry_rule", "linear")
    if not isinstance(geometry_rule, str) or geometry_rule not in GEOMETRY_RULES:
        raise ImpactModelError(
            f"unknown geometry rule {geometry_rule!r}; expected one of {sorted(GEOMETRY_RULES)}"
        )
    tg_masses = {}
    for name, mass in _masses(doc, "tg_masses").items():
        try:
            group = ScenarioGroup(name)
        except ValueError:
            raise ImpactModelError(f"unknown scenario group {name!r} in tg_masses") from None
        tg_masses[group] = _mass(mass, f"tg_masses[{name!r}]")
    name = doc.get("name", "kinetic-energy-proxy")
    if not isinstance(name, str):
        raise ImpactModelError(f"impact model name: expected a string, got {name!r}")
    for k, v in _masses(doc, "vut_masses").items():
        _mass(v, f"vut_masses[{k!r}]")
    _mass(doc.get("default_vut_mass", DEFAULT_VUT_MASS), "default_vut_mass")
    if tg_masses:
        return ImpactPowerModel(name=name, tg_masses=tg_masses, geometry_rule=geometry_rule)
    return ImpactPowerModel(name=name, geometry_rule=geometry_rule)


def _masses(doc: Mapping, key: str) -> Mapping:
    masses = doc.get(key, {})
    if not isinstance(masses, Mapping):
        raise ImpactModelError(f"impact model {key}: expected an object of masses")
    return masses


def _mass(value, where: str) -> float:
    if not within(value, -MAX_MAGNITUDE, MAX_MAGNITUDE):  # also a string, a boolean or NaN
        raise ImpactModelError(
            f"impact model {where}: expected a finite number up to {MAX_MAGNITUDE:g}, got {value!r}"
        )
    if value <= 0:
        raise ImpactModelError(f"impact model {where}: must be > 0, got {value!r}")
    return float(value)


PowerTerms = tuple  # (half the effective mass, same-axis TG speed or None, geometry factor)


def power_terms(model: ImpactPowerModel, config: TestConfig, vut_mass: float) -> PowerTerms:
    """The impact-power formula of one config, as the terms ``impact_power`` evaluates.

    Car-to-car: the reduced mass of the pair; the closing speed subtracts a
    same-axis target's speed. Car-to-VRU and car-to-object: the VUT mass.
    """
    if vut_mass <= 0:
        raise ImpactModelError(f"VUT mass must be > 0, got {vut_mass}")
    effective_mass, same_axis = vut_mass, None
    if config.scenario.group is ScenarioGroup.C2C:
        tg_mass = model.tg_mass(ScenarioGroup.C2C)
        effective_mass = vut_mass * tg_mass / (vut_mass + tg_mass)
        same_axis = None if config.scenario.tg_crossing else config.tg_speed
    return (0.5 * effective_mass, same_axis, model.geometry_factor(config.overlap))


def impact_power(terms: PowerTerms, impact_speed: float) -> float:
    """Impact-power proxy (J) at ``impact_speed`` km/h: half the effective mass
    times the squared closing speed, scaled by the geometry factor. A same-axis
    target pulls away: no energy transfer at or below its speed.
    """
    if impact_speed < 0:
        raise ImpactModelError(f"impact speed must be >= 0, got {impact_speed}")
    half_mass, tg_speed, geometry = terms
    if tg_speed is not None:
        impact_speed = max(0.0, impact_speed - tg_speed)
    v_ms = impact_speed * KMH_TO_MS
    return half_mass * v_ms * v_ms * geometry


def config_powers(model: ImpactPowerModel, configs: Sequence[TestConfig], vut_mass: float) -> tuple:
    """Each config's power terms and passive power: the impact power of a
    vehicle that never brakes, so hits at the test speed."""
    terms = tuple(power_terms(model, c, vut_mass) for c in configs)
    return terms, tuple(impact_power(t, c.vut_speed) for t, c in zip(terms, configs))


def scenario_passive_power(
    configs: Sequence[TestConfig], passive: Sequence[float], vut_mass: float
) -> float:
    """Mean of ``passive``, the passive powers of a scenario's ``configs`` at
    ``vut_mass`` (see ``config_powers``), summed in order. ``vut_mass`` only
    labels the call for ``benchmarks/tracing.py``."""
    if not configs:
        raise ImpactModelError("no configurations to average over")
    total = 0.0  # summed in order: sum() compensates its rounding from Python 3.12 on
    for power in passive:
        total += power
    return total / len(configs)


def passive_powers(model: ImpactPowerModel, protocol: ProtocolDefinition) -> tuple:
    """``(terms, by_config, by_instance)`` under ``model``'s geometry rule at the
    default masses, built anew on each call: a mass scales a scenario group's
    powers by one factor, and weight tables keep each group to its own scenarios.
    ``terms[i]`` and ``by_config[i]`` belong to ``protocol.configs[i]`` (see
    ``config_powers``); ``by_instance`` maps (scenario, light) to its mean."""
    default_masses = ImpactPowerModel(geometry_rule=model.geometry_rule)
    terms, by_config = config_powers(default_masses, protocol.configs, DEFAULT_VUT_MASS)
    by_instance = {
        pair: scenario_passive_power(p.configs, by_config[p.start:p.stop], DEFAULT_VUT_MASS)
        for pair, p in protocol.instances.items()
    }
    return terms, by_config, by_instance
