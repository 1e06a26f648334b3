import gc
import json

import pytest

from aebscore.protocol import (
    ProtocolError,
    ScenarioGroup,
    ScenarioSpec,
    bundled_protocol_path,
    enumerate_configs,
    load_protocol,
)
from reference import protocol_to_dict


def test_bundled_protocol_totals(protocol):
    assert protocol.config_count() == 224
    assert len(enumerate_configs(protocol, scenario="CCRm", light="day")) == 32
    assert len(enumerate_configs(protocol, scenario="CCRm", light="night")) == 8
    assert len(enumerate_configs(protocol, scenario="CCRs", light="day")) == 32


def test_empty_protocol_is_rejected():
    # a protocol that licenses no test would simulate, validate and score nothing
    with pytest.raises(ProtocolError, match=r"^scenarios: the protocol needs at least one scenario$"):
        load_protocol({"scenarios": []})


def test_lattice_violation_rejected():
    doc = {
        "scenarios": [
            {
                "code": "CCRm",
                "group": "C2C",
                "vut_speed_ranges": [[55, 124]],
                "tg_speeds": [20],
                "speed_step": 10,
                "overlaps": [100],
                "lights": ["day"],
            }
        ]
    }
    with pytest.raises(ProtocolError, match="not divisible"):
        load_protocol(doc)


def test_schema_violations_name_the_field():
    with pytest.raises(ProtocolError, match="scenarios"):
        load_protocol({"nope": 1})
    with pytest.raises(ProtocolError, match=r"scenarios\[0\].*group"):
        load_protocol({"scenarios": [{"code": "X", "group": "C2X"}]})
    with pytest.raises(ProtocolError, match="duplicate scenario code"):
        base = {
            "code": "X",
            "group": "C2O",
            "vut_speed_ranges": [[10, 10]],
            "tg_speeds": None,
            "speed_step": 10,
            "overlaps": [100],
            "lights": ["day"],
        }
        load_protocol({"scenarios": [base, dict(base)]})


def test_declared_count_checked():
    doc = {
        "expected_config_count": 3,
        "scenarios": [
            {
                "code": "X",
                "group": "C2O",
                "vut_speed_ranges": [[10, 20]],
                "tg_speeds": None,
                "speed_step": 10,
                "overlaps": [100],
                "lights": ["day"],
            }
        ],
    }
    with pytest.raises(ProtocolError, match="declares 3"):
        load_protocol(doc)


def _speeds(spec: ScenarioSpec, light: str = "day") -> list[float]:
    """Ascending, de-duplicated VUT speeds across the series of ``light``."""
    return sorted({s for v in spec.settings(light).variants for s in v.speeds})


def test_speed_lattice_basic(protocol):
    ccrs = protocol.scenario("CCRs")
    assert _speeds(ccrs) == [55, 65, 75, 85, 95, 105, 115, 125]


def test_speed_lattice_degenerate():
    protocol = load_protocol(
        {
            "scenarios": [
                {
                    "code": "X",
                    "group": "C2O",
                    "vut_speed_ranges": [[15, 15]],
                    "tg_speeds": None,
                    "speed_step": 10,
                    "overlaps": [100],
                    "lights": ["day"],
                }
            ]
        }
    )
    assert _speeds(protocol.scenario("X")) == [15]


def test_speed_lattice_dual_range_union(protocol):
    spec = protocol.scenario("CCscp left")
    assert _speeds(spec) == [35, 45, 55, 65, 75, 85, 95]


def test_speed_lattice_under_a_light_reads_the_light_settings(protocol):
    pallets = protocol.scenario("Pallets")  # night overrides the speed ranges
    assert _speeds(pallets, "day") == [55, 65, 75, 85, 95, 105]
    assert _speeds(pallets, "night") == [45, 55, 65, 75, 85, 95, 105]


def test_speed_lattice_of_an_unknown_light_is_rejected(protocol):
    with pytest.raises(ProtocolError, match="not licensed for 'dusk'"):
        protocol.scenario("CCRs").settings("dusk")


def test_speed_lattice_of_an_unlicensed_light_is_rejected(protocol):
    spec = protocol.scenario("CBNA")
    assert spec.lights == ("day",)
    with pytest.raises(ProtocolError, match="not licensed for 'night'"):
        spec.settings("night")


def test_paired_tg_enumeration(protocol):
    configs = enumerate_configs(protocol, scenario="CCscp left", light="day")
    assert len(configs) == 11
    pairs = {(c.vut_speed, c.tg_speed) for c in configs}
    assert (95, 15) in pairs and (65, 35) in pairs
    assert (95, 35) not in pairs  # the short range never runs with the far TG speed


def test_enumeration_order_is_deterministic(protocol):
    configs = enumerate_configs(protocol, scenario="CCRs")
    keys = [(c.light, c.overlap, c.vut_speed) for c in configs]
    day = [k for k in keys if k[0] == "day"]
    night = [k for k in keys if k[0] == "night"]
    assert keys == day + night
    assert day == sorted(day, key=lambda k: (k[1], k[2]))


def test_filters(protocol):
    c2o = enumerate_configs(protocol, group=ScenarioGroup.C2O)
    assert len(c2o) == 26
    assert {c.code for c in c2o} == {"Pallets", "Tire"}
    night = enumerate_configs(protocol, scenario="Pallets", light="night")
    assert [c.vut_speed for c in night] == [45, 55, 65, 75, 85, 95, 105]


def test_unknown_filter_rejected(protocol):
    with pytest.raises(ProtocolError, match="unknown scenario code"):
        enumerate_configs(protocol, scenario="XXXX")
    with pytest.raises(ProtocolError, match="unknown light"):
        enumerate_configs(protocol, light="dawn")
    with pytest.raises(ProtocolError, match="unknown scenario group"):
        enumerate_configs(protocol, group="C2X")


def test_partition_into_filtered_enumerations(protocol):
    whole = enumerate_configs(protocol)
    parts = []
    for code, light in protocol.licensed_pairs():
        parts.extend(enumerate_configs(protocol, scenario=code, light=light))
    assert len(whole) == len(parts)
    assert set(c.key() for c in whole) == set(c.key() for c in parts)


def test_every_config_on_lattice_and_licensed(protocol):
    for config in enumerate_configs(protocol):
        spec = config.scenario
        settings = spec.settings(config.light)
        assert config.overlap in settings.overlaps
        variant = next(v for v in settings.variants if v.tg_speed == config.tg_speed)
        assert config.vut_speed in variant.speeds


def test_round_trip_stability(protocol, tmp_path):
    path = tmp_path / "roundtrip.json"
    path.write_text(json.dumps(protocol_to_dict(protocol)), encoding="utf-8")
    reloaded = load_protocol(path)
    original = [c.key() for c in enumerate_configs(protocol)]
    again = [c.key() for c in enumerate_configs(reloaded)]
    assert original == again


def test_night_override_cannot_appear_without_night_license():
    doc = {
        "scenarios": [
            {
                "code": "X",
                "group": "C2O",
                "vut_speed_ranges": [[10, 20]],
                "tg_speeds": None,
                "speed_step": 10,
                "overlaps": [100],
                "lights": ["day"],
                "night": {"overlaps": [50]},
            }
        ]
    }
    with pytest.raises(ProtocolError, match="night"):
        load_protocol(doc)


def test_overlap_range_enforced():
    doc = {
        "scenarios": [
            {
                "code": "X",
                "group": "C2O",
                "vut_speed_ranges": [[10, 20]],
                "tg_speeds": None,
                "speed_step": 10,
                "overlaps": [0],
                "lights": ["day"],
            }
        ]
    }
    with pytest.raises(ProtocolError, match="outside"):
        load_protocol(doc)


def _one_scenario(**fields):
    entry = {
        "code": "X",
        "group": "C2O",
        "vut_speed_ranges": [[10, 20]],
        "tg_speeds": None,
        "speed_step": 10,
        "overlaps": [100],
        "lights": ["day"],
    }
    entry.update(fields)
    return {"scenarios": [entry]}


def test_an_overlap_given_twice_is_rejected_with_location():
    # Each repeat would enumerate its configs again: a simulated log of such a
    # protocol holds duplicate records, which its own validation rejects.
    with pytest.raises(ProtocolError) as raised:
        load_protocol(_one_scenario(overlaps=[10, 50, 50.0, 75, 100]))
    assert str(raised.value) == "scenarios[0] (X).overlaps: overlap 50 given twice"
    assert load_protocol(_one_scenario(overlaps=[10, 50, 75, 100])).config_count() == 8


def test_a_night_overlap_given_twice_is_rejected_with_location():
    doc = _one_scenario(lights=["day", "night"], night={"overlaps": [50, 12.5, 12.5]})
    with pytest.raises(ProtocolError) as raised:
        load_protocol(doc)
    assert str(raised.value) == "scenarios[0] (X).night.overlaps: overlap 12.5 given twice"
    doc["scenarios"][0]["night"]["overlaps"].pop()
    assert load_protocol(doc).config_count() == 6


@pytest.mark.parametrize(
    "bad", [float("inf"), float("-inf"), float("nan"), 10**400], ids=["inf", "-inf", "nan", "10e400"]
)
def test_non_finite_numbers_rejected_with_location(bad):
    with pytest.raises(ProtocolError, match=r"scenarios\[0\] \(X\)\.vut_speed_ranges\[0\]: .*finite"):
        load_protocol(_one_scenario(vut_speed_ranges=[[10, bad]]))
    with pytest.raises(ProtocolError, match=r"scenarios\[0\] \(X\)\.speed_step: .*finite"):
        load_protocol(_one_scenario(speed_step=bad))
    with pytest.raises(ProtocolError, match=r"scenarios\[0\] \(X\)\.tg_speeds: .*finite"):
        load_protocol(_one_scenario(tg_speeds=[bad]))


def test_non_finite_json_literals_rejected(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_one_scenario()).replace("[[10, 20]]", "[[10, Infinity]]"))
    with pytest.raises(ProtocolError, match=r"vut_speed_ranges\[0\]: expected a finite number"):
        load_protocol(path)


def test_range_too_wide_for_step_rejected():
    with pytest.raises(ProtocolError, match="too wide"):
        load_protocol(_one_scenario(vut_speed_ranges=[[-1e308, 1e308]]))


def test_lattice_size_capped_before_building(monkeypatch):
    from aebscore import protocol as protocol_module

    def no_lattice(self, step):
        raise AssertionError("a lattice was built before the size check")

    monkeypatch.setattr(protocol_module.SpeedRange, "lattice", no_lattice)
    # MAX_CONFIGS + 1 lattice points
    top = protocol_module.MAX_CONFIGS
    with pytest.raises(ProtocolError, match=r"scenarios\[0\] \(X\).*limit is"):
        load_protocol(_one_scenario(vut_speed_ranges=[[0, top]], speed_step=1))
    with pytest.raises(ProtocolError, match="limit is"):
        load_protocol(_one_scenario(vut_speed_ranges=[[0, 1e12]], speed_step=0.5))


def test_config_bound_covers_the_enumeration(protocol):
    assert sum(s.config_bound() for s in protocol.scenarios) >= protocol.config_count()
    small = load_protocol(_one_scenario(tg_speeds=[5, 10], overlaps=[50, 100]))
    assert small.scenarios[0].config_bound() == small.config_count() == 8


def test_declared_count_must_be_a_number():
    doc = _one_scenario()
    doc["expected_config_count"] = "2"
    with pytest.raises(ProtocolError, match="expected_config_count"):
        load_protocol(doc)


def test_config_hash_follows_key(protocol):
    again = load_protocol(bundled_protocol_path())
    for a, b in zip(protocol.configs, again.configs):
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(a.key())
    assert {c: i for i, c in enumerate(protocol.configs)}[again.configs[7]] == 7


def test_compiled_table_matches_enumeration(protocol):
    assert list(protocol.configs) == enumerate_configs(protocol)
    assert protocol.index == {c.key(): i for i, c in enumerate(protocol.configs)}
    for (code, light), part in protocol.instances.items():
        configs = enumerate_configs(protocol, scenario=code, light=light)
        assert list(part.configs) == configs
        assert all(a is b for a, b in zip(part.configs, configs))
        keys = [(c.overlap, c.tg_speed) for c in configs]
        assert sorted(set(part.series)) == list(range(len(set(keys))))
        for i, j in ((i, j) for i in range(len(keys)) for j in range(len(keys))):
            assert (part.series[i] == part.series[j]) == (keys[i] == keys[j])


def test_light_settings_are_built_once_per_light_and_spec(protocol):
    spec = protocol.scenario("CCRm")
    assert spec.settings("day") is spec.settings("day")
    assert spec.settings("night") is spec.settings("night")
    assert "_settings" not in repr(spec)
    copy = ScenarioSpec(
        spec.code, spec.group, spec.vut_speed_ranges, spec.tg_speeds, spec.speed_step,
        spec.overlaps, spec.lights, spec.description, spec.tg_paired, spec.tg_crossing,
        spec.requires_pretest, spec.night,
    )
    assert copy == spec and hash(copy) == hash(spec)
    assert copy.settings("day") == spec.settings("day")
    day_only = protocol.scenario("CBNA")
    for _ in range(2):  # a refusal is not remembered as settings
        with pytest.raises(ProtocolError, match="not licensed for 'night'"):
            day_only.settings("night")


def test_each_protocol_gets_its_own_lattice():
    # Settings are kept on the spec itself, so a spec built after another one
    # was collected (and may reuse its memory) never sees the old lattice.
    for hi in (20, 40, 30):
        spec = load_protocol(_one_scenario(vut_speed_ranges=[[10, hi]])).scenarios[0]
        assert spec.settings("day").variants[0].speeds == tuple(range(10, hi + 1, 10))
        del spec
        gc.collect()


def test_load_protocol_reads_a_path_that_starts_with_a_brace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "{p}.json").write_bytes(bundled_protocol_path().read_bytes())
    assert load_protocol("{p}.json").config_count() == 224
