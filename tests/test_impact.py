import random

import pytest

from aebscore.impact import (
    DEFAULT_VUT_MASS,
    KMH_TO_MS,
    ImpactModelError,
    ImpactPowerModel,
    config_powers,
    impact_power,
    load_impact_config,
    passive_powers,
    power_terms,
    scenario_passive_power,
)
from aebscore.protocol import ScenarioGroup, enumerate_configs
from reference import C2C_TG_MASS, energy


def _config(protocol, code, light="day", **filters):
    configs = enumerate_configs(protocol, scenario=code, light=light)
    for config in configs:
        if all(getattr(config, k) == v for k, v in filters.items()):
            return config
    raise AssertionError(f"no config matching {filters}")


def _power(model, config, mass, speed):
    return impact_power(power_terms(model, config, mass), speed)


def _passive(model, config, mass):
    return config_powers(model, (config,), mass)[1][0]


def test_c2c_reduced_mass_energy(protocol, model):
    config = _config(protocol, "CCRs", overlap=100, vut_speed=55)
    # equal 1500 kg masses, 36 km/h = 10 m/s head-on closing speed
    assert _power(model, config, 1500.0, 36.0) == pytest.approx(37500.0, abs=1e-9)


def test_geometry_factor_linear(protocol, model):
    full = _config(protocol, "CCRs", overlap=100, vut_speed=55)
    half = _config(protocol, "CCRs", overlap=50, vut_speed=55, light="day")
    assert _power(model, half, 1500.0, 36.0) == pytest.approx(
        0.5 * _power(model, full, 1500.0, 36.0)
    )
    assert _power(model, half, 1500.0, 36.0) == pytest.approx(18750.0)


def test_zero_speed_zero_energy(protocol, model):
    for code in ("CCRs", "CCRm", "CPLA", "Pallets"):
        config = enumerate_configs(protocol, scenario=code)[0]
        assert _power(model, config, 1500.0, 0.0) == 0.0


def test_moving_target_closing_speed(protocol, model):
    config = _config(protocol, "CCRm", overlap=100, vut_speed=55)
    # passive closing speed is 55 - 20 = 35 km/h
    expected = 0.5 * 750.0 * (35.0 / 3.6) ** 2
    assert _passive(model, config, 1500.0) == pytest.approx(expected)
    # impacts at or below the target speed transfer nothing
    assert _power(model, config, 1500.0, 20.0) == 0.0
    assert _power(model, config, 1500.0, 12.0) == 0.0


def test_crossing_target_ignores_tg_speed(protocol, model):
    config = _config(protocol, "CCFtap", vut_speed=15, tg_speed=45)
    expected = 0.5 * 750.0 * (15.0 / 3.6) ** 2 * 0.5
    assert _passive(model, config, 1500.0) == pytest.approx(expected)


def test_object_energy_is_vut_kinetic_energy(protocol, model):
    config = _config(protocol, "Pallets", vut_speed=55)
    # overlap 50 halves the full kinetic energy at 55 km/h
    full = 0.5 * 1500.0 * (55.0 / 3.6) ** 2
    assert abs(full - 175057.87) < 0.5
    assert _passive(model, config, 1500.0) == pytest.approx(0.5 * full)


def test_monotone_and_bounded_by_passive(protocol, model):
    rng = random.Random(4)
    configs = enumerate_configs(protocol)
    for _ in range(300):
        config = rng.choice(configs)
        v = rng.uniform(0, config.vut_speed)
        lower = _power(model, config, 1500.0, v)
        higher = _power(model, config, 1500.0, min(config.vut_speed, v + 3))
        assert 0 <= lower <= higher <= _passive(model, config, 1500.0) + 1e-9


def test_invalid_inputs(protocol, model):
    config = enumerate_configs(protocol)[0]
    with pytest.raises(ImpactModelError):
        _power(model, config, 1500.0, -1.0)
    with pytest.raises(ImpactModelError):
        _power(model, config, 0.0, 10.0)
    with pytest.raises(ImpactModelError):
        ImpactPowerModel(geometry_rule="cubic").geometry_factor(50)


@pytest.mark.parametrize("mass", [900.0, 1500.0, 2400.0])
def test_power_terms_match_the_reference_energy_and_config_powers(protocol, model, mass):
    # At the default mass, whatever ``mass`` is.
    default_terms, by_config, _ = passive_powers(model, protocol)
    for i, config in enumerate(protocol.configs):
        terms = power_terms(model, config, mass)
        assert default_terms[i] == power_terms(model, config, DEFAULT_VUT_MASS)
        assert by_config[i] == _passive(model, config, DEFAULT_VUT_MASS)
        for speed in (0.0, 0.3 * config.vut_speed, 0.7 * config.vut_speed, config.vut_speed):
            power = impact_power(terms, speed)
            assert power == pytest.approx(energy(config, mass, speed), rel=1e-12, abs=1e-12)
            # The formula as one product, multiplied in the order it always was.
            if config.scenario.group is ScenarioGroup.C2C:
                effective = mass * C2C_TG_MASS / (mass + C2C_TG_MASS)
            else:
                effective = mass
            closing = speed
            if config.scenario.group is ScenarioGroup.C2C and not config.scenario.tg_crossing:
                closing = max(0.0, speed - (config.tg_speed or 0.0))
            v = closing * KMH_TO_MS
            assert power == 0.5 * effective * v * v * (config.overlap / 100.0)


def test_impact_power_rejects_a_negative_speed(protocol, model):
    terms = power_terms(model, enumerate_configs(protocol)[0], 1500.0)
    with pytest.raises(ImpactModelError, match="impact speed must be >= 0"):
        impact_power(terms, -1e-9)


def test_scenario_passive_power_average(protocol, model):
    configs = enumerate_configs(protocol, scenario="Pallets", light="day")
    powers = [_passive(model, c, 1500.0) for c in configs]
    assert scenario_passive_power(configs, powers, 1500.0) == pytest.approx(
        sum(powers) / len(powers)
    )


def test_instance_passive_power_is_the_in_order_mean_of_its_configs(protocol, model):
    # One set per model, at the default mass. At another mass every instance
    # of a scenario group scales by one factor, so no group score moves.
    by_instance = passive_powers(model, protocol)[2]
    assert passive_powers(ImpactPowerModel(), protocol)[2] == by_instance
    for mass in (900.0, 1500.0):
        factors = {}  # scenario group -> the factor of its first instance
        for pair, part in protocol.instances.items():
            total = 0.0
            for config in part.configs:
                total += _passive(model, config, mass)
            mean, power = total / len(part.configs), by_instance[pair]
            if mass == DEFAULT_VUT_MASS:
                assert power == mean
            factor = factors.setdefault(protocol.scenario(pair[0]).group, mean / power)
            assert mean == pytest.approx(factor * power, rel=1e-12)


def test_impact_config_defaults_and_fields():
    # VUT masses are checked and kept nowhere: the model is all a config gives.
    assert load_impact_config({}) == ImpactPowerModel()
    assert load_impact_config({"vut_masses": {"1A": 1620}, "default_vut_mass": 900}) == (
        ImpactPowerModel()
    )
    model = load_impact_config(
        {"tg_masses": {"C2C": 1400}, "vut_masses": {"1A": 1620}, "default_vut_mass": 10**3}
    )
    assert model == ImpactPowerModel(tg_masses={ScenarioGroup.C2C: 1400.0})
    assert isinstance(model.tg_masses[ScenarioGroup.C2C], float)
    with pytest.raises(ImpactModelError, match="default_vut_mass: expected a finite number"):
        load_impact_config({"default_vut_mass": "1500"})
    with pytest.raises(ImpactModelError, match=r"vut_masses\['1A'\]: must be > 0"):
        load_impact_config({"vut_masses": {"1A": 0}})
    with pytest.raises(ImpactModelError, match=r"^impact model: unknown field\(s\) \['tg_mass'\]$"):
        load_impact_config({"tg_mass": {"C2C": 1400}})
