import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from aebscore import inputs, simulate
from aebscore.campaign import (
    OutcomeKind,
    TestOutcome,
    completion_stats,
    expand_night_judgements,
    validate_log,
)
from aebscore.cli import main
from aebscore.protocol import bundled_protocol_path, enumerate_configs, load_protocol
from aebscore.inputs import SimulationSpecError, load_simulation_spec
from aebscore.simulate import build_oracle, simulate_campaign
from reference import night_must_be_judged, record_to_row

DATA_DIR = Path(__file__).parent / "data"
FIXTURE_SIM = DATA_DIR / "fixture_sim.json"
GOLDEN_DIR = DATA_DIR / "golden"


def _spec(seed=42, oracle=None):
    return load_simulation_spec(
        {
            "seed": seed,
            "vehicles": [
                {"id": "V1", "mass": 1600, "oracle": oracle or {"type": "random"}},
            ],
        }
    )


def test_always_avoid_full_completion(protocol):
    spec = _spec(oracle={"type": "always_avoid"})
    log = simulate_campaign(protocol, spec)
    stats = completion_stats(log)["V1"]
    assert stats.executed == 224
    assert stats.judged == 0
    assert stats.completion_percent == 100
    assert all(r.outcome.kind is OutcomeKind.AVOIDED for r in log.records)


def test_never_respond_day_failures_judge_nights(protocol):
    spec = _spec(oracle={"type": "never_respond"})
    log = simulate_campaign(protocol, spec)
    night = [r for r in log.records if r.config.light == "night"]
    # every night series whose day counterpart exists is judged without execution
    executed_nights = [r for r in night if r.outcome.kind is not OutcomeKind.JUDGED_FAILED]
    # only night settings with no day counterpart run (extended object ranges
    # at 45 km/h and scenarios that are night-only), and those still fail
    assert all(r.config.vut_speed == 45 or r.config.code == "CPLAs" for r in executed_nights)
    assert validate_log(log) == []


def test_threshold_oracle_counts(protocol):
    oracle = {
        "type": "threshold",
        "fail_at": None,
        "rules": [{"scenario": "CCRs", "fail_at": 85}],
        "impact_fraction": 0.5,
    }
    log = simulate_campaign(protocol, _spec(oracle=oracle))
    ccrs_day_100 = [
        r
        for r in log.records
        if r.config.code == "CCRs" and r.config.light == "day" and r.config.overlap == 100
    ]
    kinds = {r.config.vut_speed: r.outcome.kind for r in ccrs_day_100}
    assert kinds[75] is OutcomeKind.AVOIDED
    assert kinds[85] is OutcomeKind.IMPACTED
    assert kinds[95] is OutcomeKind.JUDGED_FAILED
    # night series at the failing settings is judged from the day failure
    ccrs_night = [r for r in log.records if r.config.code == "CCRs" and r.config.light == "night"]
    night_kinds = {r.config.vut_speed: r.outcome.kind for r in ccrs_night}
    assert night_kinds[75] is OutcomeKind.AVOIDED
    assert night_kinds[85] is OutcomeKind.JUDGED_FAILED


def test_simulated_logs_validate_clean_and_expand_to_fixpoint(protocol):
    for seed in (1, 2, 3):
        log = simulate_campaign(protocol, _spec(seed=seed))
        assert validate_log(log) == []
        assert expand_night_judgements(log) is log  # nights already resolved


def test_same_seed_same_log_different_seed_differs(protocol):
    rows_a = [record_to_row(r) for r in simulate_campaign(protocol, _spec(seed=9)).records]
    rows_b = [record_to_row(r) for r in simulate_campaign(protocol, _spec(seed=9)).records]
    rows_c = [record_to_row(r) for r in simulate_campaign(protocol, _spec(seed=10)).records]
    assert rows_a == rows_b
    assert rows_a != rows_c


def test_pretest_failure_judges_whole_scenario(protocol):
    oracle = {"type": "random", "pretest_fail_prob": 1.0}
    log = simulate_campaign(protocol, _spec(oracle=oracle))
    pretested = [r for r in log.records if r.config.scenario.requires_pretest]
    assert pretested
    assert all(r.outcome.kind is OutcomeKind.JUDGED_FAILED for r in pretested)
    assert all(r.pre_test == "failed" for r in pretested)


def test_spec_validation_errors():
    with pytest.raises(SimulationSpecError, match="vehicles"):
        load_simulation_spec({"seed": 1})
    with pytest.raises(SimulationSpecError, match="oracle"):
        load_simulation_spec({"seed": 1, "vehicles": [{"id": "V", "mass": 1500}]})
    with pytest.raises(SimulationSpecError, match="duplicate"):
        load_simulation_spec(
            {
                "seed": 1,
                "default_oracle": {"type": "always_avoid"},
                "vehicles": [{"id": "V"}, {"id": "V"}],
            }
        )
    with pytest.raises(SimulationSpecError, match="sensors"):
        load_simulation_spec(
            {
                "seed": 1,
                "default_oracle": {"type": "always_avoid"},
                "vehicles": [{"id": "V", "sensors": ["sonar"]}],
            }
        )
    with pytest.raises(SimulationSpecError, match="type"):
        load_simulation_spec(
            {"seed": 1, "vehicles": [{"id": "V", "oracle": {"type": "psychic"}}]}
        )


def test_spec_rejects_unknown_fields_with_location():
    # A misspelled "fail_at" would leave a threshold oracle avoiding every test.
    oracle = {"type": "threshold", "fail_at": 40, "rules": [{"scenario": "CCRs", "fail_at": 30}]}
    vehicle = {"id": "V", "mass": 1500, "sensors": [], "model_year": None, "is_prototype": False}
    spec = {"seed": 1, "vehicles": [{**vehicle, "oracle": oracle}]}
    load_simulation_spec(spec)
    cases = [
        ({**spec, "Seed": 2}, "simulation spec: unknown field(s) ['Seed']"),
        ({**spec, "vehicles": [{**vehicle, "oracle": oracle, "weight": 1}]},
         "vehicles[0]: unknown field(s) ['weight']"),
        ({**spec, "vehicles": [{**vehicle, "oracle": {**oracle, "fail_At": 40}}]},
         "vehicles[0].oracle: unknown field(s) ['fail_At']"),
        ({**spec, "vehicles": [{**vehicle, "oracle": {**oracle, "kind": "random"}}]},
         "vehicles[0].oracle: unknown field(s) ['kind']"),
        ({"vehicles": [vehicle], "default_oracle": {**oracle, "rules": [{"failat": 30}]}},
         "default_oracle.rules[0]: unknown field(s) ['failat']"),
    ]
    for doc, message in cases:
        with pytest.raises(SimulationSpecError) as raised:
            load_simulation_spec(doc)
        assert str(raised.value) == message


@pytest.mark.parametrize("kind", ["random", "always_avoid", "never_respond"])
def test_rules_on_an_oracle_that_never_reads_them_are_rejected(kind):
    # Only a threshold oracle reads its rules: a random one with rules
    # simulated the same records as one without.
    oracle = {"type": kind, "rules": [{"scenario": "CCRs", "fail_at": 10}]}
    with pytest.raises(SimulationSpecError) as raised:
        load_simulation_spec({"seed": 1, "vehicles": [{"id": "V", "oracle": oracle}]})
    assert str(raised.value) == "vehicles[0].oracle: 'rules' apply only to a 'threshold' oracle"


def test_simulate_with_a_protocol_of_no_scenarios_exits_2_and_writes_no_log(tmp_path, capsys):
    protocol, spec, out = tmp_path / "protocol.json", tmp_path / "spec.json", tmp_path / "log.jsonl"
    protocol.write_text('{"scenarios": []}')
    spec.write_text(json.dumps({"seed": 1, "vehicles": [{"id": "V", "oracle": {"type": "random"}}]}))
    args = ["simulate", "--protocol", str(protocol), "--oracle", str(spec), "--out", str(out)]
    assert main(args) == 2
    assert "scenarios: the protocol needs at least one scenario" in capsys.readouterr().err
    assert not out.exists()


def test_default_oracle_is_parsed_once_and_shared(monkeypatch):
    parse = inputs._parse_oracle
    calls = []
    monkeypatch.setattr(inputs, "_parse_oracle", lambda *a: calls.append(a[1]) or parse(*a))
    default = {"type": "threshold", "fail_at": 40, "rules": [{"scenario": "CCRs", "fail_at": 30}]}
    vehicles = [{"id": f"V{i}"} for i in range(400)]
    spec = load_simulation_spec({"vehicles": vehicles, "default_oracle": default})
    assert calls == ["default_oracle"]
    shared = spec.vehicles[0][1]
    assert shared == parse(default, "default_oracle")
    assert all(oracle is shared for _, oracle in spec.vehicles)
    # A vehicle's own oracle is its own, and the default is parsed on first use.
    calls.clear()
    own = {"id": "own", "oracle": {"type": "always_avoid"}}
    spec = load_simulation_spec({"vehicles": [own, *vehicles[:3]], "default_oracle": default})
    assert calls == ["vehicles[0].oracle", "default_oracle"]
    assert spec.vehicles[1][1] is spec.vehicles[3][1] is not spec.vehicles[0][1]


def test_a_bad_default_oracle_is_located_where_used_and_loads_where_unused():
    bad = {"type": "threshold", "fail_at": "fast"}
    vehicles = [{"id": "A", "oracle": {"type": "always_avoid"}}, {"id": "B"}]
    with pytest.raises(SimulationSpecError) as raised:
        load_simulation_spec({"vehicles": vehicles, "default_oracle": bad})
    assert str(raised.value) == "default_oracle: 'fail_at' must be a finite number, got 'fast'"
    spec = load_simulation_spec({"vehicles": vehicles[:1], "default_oracle": bad})
    assert [vehicle for vehicle, _ in spec.vehicles] == ["A"]


def _matches_a_config(protocol, rule):
    """Whether some configuration of the table meets the rule, as build_oracle compares."""
    return any(
        rule.get("scenario") in (None, c.code)
        and rule.get("light") in (None, c.light)
        and rule.get("overlap") in (None, c.overlap)
        and rule.get("tg_speed", "any") in ("any", c.tg_speed)
        for c in protocol.configs
    )


OMIT = object()  # the field is left out of the rule
RULE_CONDITIONS = {
    "scenario": [OMIT, None, "CCRs", "CCFtap", "CPLAs", "CCRX", ["CCRs"]],
    "light": [OMIT, "day", "night", "dusk"],
    "overlap": [OMIT, 10, 50.0, 100, "50", 25],
    "tg_speed": [OMIT, "any", None, 20, 45.0, 5, 3],
}


def test_the_rule_check_agrees_with_a_scan_of_the_config_table(protocol):
    outcomes = set()
    for values in itertools.product(*RULE_CONDITIONS.values()):
        rule = {k: v for k, v in zip(RULE_CONDITIONS, values) if v is not OMIT}
        oracle = {"type": "threshold", "rules": [{**rule, "fail_at": 30}]}
        spec = load_simulation_spec({"vehicles": [{"id": "V", "oracle": oracle}]})
        try:
            simulate._check_rules(protocol, spec)
            accepted = True
        except SimulationSpecError:
            accepted = False
        assert accepted is _matches_a_config(protocol, rule), rule
        outcomes.add(accepted)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "rule, given",
    [
        ({"scenario": "CCRX", "fail_at": 30}, "scenario 'CCRX'"),
        ({"scenario": "CCRs", "light": "dusk", "overlap": "50", "fail_at": 30},
         "scenario 'CCRs', light 'dusk', overlap '50'"),
        ({"overlap": "50", "fail_at": 30}, "overlap '50'"),
        ({"scenario": "CCRs", "light": "night", "overlap": 50},
         "scenario 'CCRs', light 'night', overlap 50"),
        ({"scenario": "CPLAs", "light": "day"}, "scenario 'CPLAs', light 'day'"),
        ({"scenario": "CCRm", "tg_speed": None, "fail_at": 30}, "scenario 'CCRm', tg_speed None"),
    ],
    ids=["unknown-scenario", "dusk", "overlap-string", "night-overlap", "day-of-night-only",
         "tg-speed"],
)
def test_simulation_rejects_a_rule_that_matches_no_configuration(protocol, tmp_path, rule, given):
    # A rule matching nothing would be ignored, and the vehicle tested by its fall-back.
    fixture = json.loads(FIXTURE_SIM.read_text(encoding="utf-8"))
    fixture["vehicles"][2]["oracle"]["rules"].insert(1, rule)
    message = "vehicles[2] ('6'): oracle rules[1] matches no configuration of the protocol"
    message += f" ({given})"
    with pytest.raises(SimulationSpecError) as raised:
        simulate_campaign(protocol, load_simulation_spec(fixture))
    assert str(raised.value) == message
    path, out = tmp_path / "spec.json", tmp_path / "campaign.jsonl"
    path.write_text(json.dumps(fixture), encoding="utf-8")
    args = ["simulate", "--protocol", str(bundled_protocol_path()), "--oracle", str(path)]
    assert main([*args, "--out", str(out)]) == 2
    assert not out.exists()


def test_a_default_oracle_rule_is_checked_for_the_vehicle_that_uses_it(protocol):
    rules = [{"scenario": "CCRs", "fail_at": 30}, {"light": "dusk"}]
    default = {"type": "threshold", "rules": rules}
    vehicles = [{"id": "A", "oracle": {"type": "always_avoid"}}, {"id": "B"}, {"id": "C"}]
    spec = load_simulation_spec({"vehicles": vehicles, "default_oracle": default})
    with pytest.raises(SimulationSpecError, match=r"^vehicles\[1\] \('B'\): oracle rules\[1\] "):
        simulate_campaign(protocol, spec)


def test_simulate_of_the_fixture_spec_matches_the_golden_log(tmp_path):
    out = tmp_path / "campaign.jsonl"
    args = ["simulate", "--protocol", str(bundled_protocol_path()), "--oracle", str(FIXTURE_SIM)]
    assert main([*args, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / "fixture_campaign.jsonl").read_bytes()


# sha256 of `simulate --continue-past-impact` on the fixture spec.
FIXTURE_CONTINUE_SHA256 = "670ad0eb9ca6459427e433311d406de46d4b92c410b3f9d39a324d96eedd6c83"


def test_simulate_continue_past_impact_of_the_fixture_spec_is_pinned_and_validates(tmp_path):
    out = tmp_path / "campaign.jsonl"
    common = ["--protocol", str(bundled_protocol_path())]
    args = ["simulate", *common, "--oracle", str(FIXTURE_SIM), "--continue-past-impact"]
    assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIXTURE_CONTINUE_SHA256
    assert main(["validate", *common, "--log", str(out)]) == 0


# Night lattices off the day one: night 55-95 between day speeds 50-80, and
# night 20-80 reaching above day speeds 20-50.
NIGHT_LATTICES = {
    "scenarios": [
        {
            "code": "OFFGRID",
            "group": "C2O",
            "vut_speed_ranges": [[50, 80]],
            "tg_speeds": None,
            "speed_step": 10,
            "overlaps": [100],
            "lights": ["day", "night"],
            "night": {"vut_speed_ranges": [[55, 95]]},
        },
        {
            "code": "ABOVE",
            "group": "C2C",
            "vut_speed_ranges": [[20, 50]],
            "tg_speeds": [10, 20],
            "speed_step": 10,
            "overlaps": [50, 100],
            "lights": ["day", "night"],
            "requires_pretest": True,
            "night": {"vut_speed_ranges": [[20, 80]]},
        },
    ]
}


def _kinds(log, code, light):
    return {
        r.config.vut_speed: r.outcome.kind
        for r in log.records
        if r.config.code == code and r.config.light == light
    }


def test_a_night_test_without_a_daylight_counterpart_is_driven():
    protocol = load_protocol(NIGHT_LATTICES)
    log = simulate_campaign(protocol, _spec(oracle={"type": "never_respond"}))
    impacted, judged = OutcomeKind.IMPACTED, OutcomeKind.JUDGED_FAILED
    assert _kinds(log, "OFFGRID", "day") == {50: impacted, 60: judged, 70: judged, 80: judged}
    # Night 55 lies above the day failure at 50 but has no counterpart.
    assert _kinds(log, "OFFGRID", "night") == {
        55: impacted, 65: judged, 75: judged, 85: judged, 95: judged
    }
    assert validate_log(log) == []
    assert expand_night_judgements(log) is log


NIGHT_RULE_ORACLES = [
    {"type": "never_respond"},
    {"type": "always_avoid"},
    {"type": "threshold", "fail_at": 60, "impact_fraction": 0.5},
    {"type": "threshold", "fail_at": 40, "respond": False},
    {"type": "threshold", "fail_at": None, "rules": [{"light": "day", "fail_at": 30}]},
    {"type": "threshold", "fail_at": 75, "rules": [{"light": "day", "overlap": 50, "fail_at": 20}]},
]


@pytest.mark.parametrize("stop_on_impact", [True, False], ids=["stop", "continue"])
@pytest.mark.parametrize("lattices", ["bundled", "night-off-day"])
def test_every_simulated_night_outcome_follows_the_reference_night_rule(
    protocol, lattices, stop_on_impact
):
    if lattices != "bundled":
        protocol = load_protocol(NIGHT_LATTICES)
    oracles = NIGHT_RULE_ORACLES + RANDOM_ORACLES
    vehicles = [{"id": f"V{i}", "oracle": oracle} for i, oracle in enumerate(oracles)]
    for seed in (3, 4):
        spec = load_simulation_spec({"seed": seed, "vehicles": vehicles})
        log = simulate_campaign(protocol, spec, stop_on_impact=stop_on_impact)
        judged = {
            (r.vehicle, r.config.key()): r.outcome.kind is OutcomeKind.JUDGED_FAILED
            for r in log.records
            if r.config.light == "night"
        }
        assert judged == night_must_be_judged(log.records, stop_on_impact)
        assert any(judged.values()) and not all(judged.values())
        assert validate_log(log) == []
        assert expand_night_judgements(log) is log


def _reference_random_oracle(spec, seed, vehicle):
    """The random oracle drawing afresh, from newly seeded generators, per call."""

    def stable_rng(*parts):
        digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def oracle(config):
        pretest_rng = stable_rng(seed, vehicle, "pretest", config.code, config.light)
        if pretest_rng.random() < spec.pretest_fail_prob:
            return TestOutcome.impacted(config.vut_speed, intervention=False)
        rng = stable_rng(seed, vehicle, config.code, config.light, config.overlap, config.tg_speed)
        variants = config.scenario.settings(config.light).variants
        lattice = next(v.speeds for v in variants if v.tg_speed == config.tg_speed)
        fail_index = len(lattice) if rng.random() < spec.never_prob else rng.randrange(len(lattice))
        fraction = rng.uniform(*spec.impact_fraction_range)
        respond = rng.random() < spec.respond_prob
        if fail_index == len(lattice) or config.vut_speed < lattice[fail_index]:
            return TestOutcome.avoided()
        return TestOutcome.impacted(max(fraction * config.vut_speed, 1e-3), intervention=respond)

    return oracle


RANDOM_ORACLES = [
    {"type": "random", "never_prob": 0.0},
    {"type": "random", "never_prob": 1.0},
    {"type": "random", "pretest_fail_prob": 0.5, "never_prob": 0.3, "respond_prob": 0.5},
    {"type": "random", "pretest_fail_prob": 1.0},
    {"type": "random", "never_prob": 0.0, "impact_fraction_range": [0.0, 1.0], "respond_prob": 0.0},
]


@pytest.mark.parametrize("oracle", RANDOM_ORACLES)
def test_random_oracle_matches_a_per_config_reference_in_any_order(protocol, oracle):
    spec = load_simulation_spec({"seed": 11, "vehicles": [{"id": "V", "oracle": oracle}]})
    oracle_spec = spec.vehicles[0][1]
    configs = enumerate_configs(protocol) + [
        protocol.scenario(code).settings(light).pretest
        for code, light in protocol.licensed_pairs()
        if protocol.scenario(code).requires_pretest
    ]
    random.Random(3).shuffle(configs)
    for vehicle in ("V1", "V2", "a,b"):
        got = build_oracle(oracle_spec, spec.seed, vehicle)
        expected = _reference_random_oracle(oracle_spec, spec.seed, vehicle)
        for config in configs:
            assert got(config) == expected(config), (vehicle, config.key())


def test_simulated_campaign_matches_one_driven_by_the_reference_oracle(protocol, monkeypatch):
    vehicles = [{"id": f"V{i}", "oracle": o} for i, o in enumerate(RANDOM_ORACLES * 2)]
    spec = load_simulation_spec({"seed": 5, "vehicles": vehicles})
    log = simulate_campaign(protocol, spec)
    monkeypatch.setattr(simulate, "build_oracle", _reference_random_oracle)
    expected = simulate_campaign(protocol, spec)
    assert len(log.records) == len(expected.records) > 0
    assert log.records == expected.records
    kinds = {r.outcome.kind for r in log.records}
    assert {OutcomeKind.AVOIDED, OutcomeKind.IMPACTED, OutcomeKind.JUDGED_FAILED} <= kinds


def test_pretest_probe_is_one_object_per_light_for_every_vehicle(protocol, monkeypatch):
    probes = {}  # (vehicle, scenario, light) -> probe config the oracle was asked
    lattice = set(map(id, protocol.configs))
    build = simulate.build_oracle

    def recording(spec, seed, vehicle):
        oracle = build(spec, seed, vehicle)

        def ask(config):
            if id(config) not in lattice:
                probes[(vehicle, config.code, config.light)] = config
            return oracle(config)

        return ask

    monkeypatch.setattr(simulate, "build_oracle", recording)
    vehicles = [{"id": v, "oracle": {"type": "random"}} for v in ("V1", "V2")]
    simulate_campaign(protocol, load_simulation_spec({"seed": 2, "vehicles": vehicles}))
    pairs = [p for p in protocol.licensed_pairs() if protocol.scenario(p[0]).requires_pretest]
    assert pairs
    for code, light in pairs:
        probe = probes[("V1", code, light)]
        assert probes[("V2", code, light)] is probe
        assert protocol.scenario(code).settings(light).pretest is probe
        assert probe.vut_speed == protocol.scenario(code).pretest_speed()


def test_avoided_and_judged_rows_at_one_position_share_one_entry():
    protocol = load_protocol(bundled_protocol_path())
    spec = load_simulation_spec(
        {
            "seed": 3,
            "vehicles": [
                {"id": vehicle, "oracle": {"type": oracle}}
                for vehicle, oracle in (
                    ("A1", "always_avoid"), ("A2", "always_avoid"),
                    ("N1", "never_respond"), ("N2", "never_respond"),
                )
            ],
        }
    )
    log = simulate_campaign(protocol, spec)
    for first, second, kind in (("A1", "A2", "avoided"), ("N1", "N2", "judged_failed")):
        shared = 0
        for a, b in zip(log.vehicles[first], log.vehicles[second]):
            assert a == b
            if a[2].kind.value == kind:
                assert a is b
                shared += 1
            else:  # an impact is its own outcome, so its row keeps its own entry
                assert a[2].kind is OutcomeKind.IMPACTED and a is not b
        assert shared > 0
