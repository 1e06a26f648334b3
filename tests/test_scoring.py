import math
import random

import pytest

from aebscore import scoring
from aebscore.campaign import (
    CampaignLog,
    OutcomeKind,
    TestOutcome,
    TestRecord,
)
from aebscore.impact import ImpactModelError, ImpactPowerModel, passive_powers
from aebscore.logio import read_log, write_log
from aebscore.protocol import (
    ScenarioGroup,
    TestConfig,
    bundled_protocol_path,
    enumerate_configs,
    load_protocol,
)
from aebscore.scoring import (
    ScoreValue,
    ScoringError,
    frequency_score,
    mitigation_power_score,
    score_campaign,
)

from reference import frequency_triple, mitigation_triple


def by_series(configs):
    series = {}
    for c in configs:
        series.setdefault((c.overlap, c.tg_speed), []).append(c)
    return {k: sorted(v, key=lambda c: c.vut_speed) for k, v in series.items()}


def escalation_outcomes(configs, fail_index, boundary="impacted", fraction=0.5):
    """Procedure-shaped outcomes: avoided below the boundary, judged above."""
    outcomes = {}
    for chain in by_series(configs).values():
        for i, config in enumerate(chain):
            if fail_index is None or i < fail_index:
                outcomes[config] = TestOutcome.avoided()
            elif i == fail_index and boundary == "impacted":
                outcomes[config] = TestOutcome.impacted(fraction * config.vut_speed)
            else:
                outcomes[config] = TestOutcome.judged()
    return outcomes


def random_escalation_outcomes(configs, rng):
    """Random well-formed outcomes covering stop-on-impact and continue shapes."""
    outcomes = {}
    for chain in by_series(configs).values():
        stopped = False
        judged_from = rng.randint(0, len(chain))
        for i, config in enumerate(chain):
            if stopped or i >= judged_from and rng.random() < 0.7:
                outcomes[config] = TestOutcome.judged()
                stopped = True
                continue
            roll = rng.random()
            if roll < 0.55:
                outcomes[config] = TestOutcome.avoided()
            else:
                respond = rng.random() < 0.7
                speed = max(rng.uniform(0.05, 1.0) * config.vut_speed, 1e-6)
                outcomes[config] = TestOutcome.impacted(speed, intervention=respond)
                if not respond or rng.random() < 0.8:
                    stopped = True
    return outcomes


def test_all_avoided(protocol, model):
    configs = enumerate_configs(protocol, scenario="CCRs", light="day")
    outcomes = escalation_outcomes(configs, None)
    fs = frequency_score(configs, outcomes)
    mps = mitigation_power_score(configs, outcomes, model, 1500.0)
    assert (fs.lower, fs.nominal, fs.upper) == (1.0, 1.0, 1.0)
    assert fs.std == 0.0
    assert (mps.lower, mps.nominal, mps.upper) == (1.0, 1.0, 1.0)


def test_all_judged_is_zero_with_no_spread(protocol, model):
    configs = enumerate_configs(protocol, scenario="CCRs", light="day")
    outcomes = {c: TestOutcome.judged() for c in configs}
    fs = frequency_score(configs, outcomes)
    mps = mitigation_power_score(configs, outcomes, model, 1500.0)
    assert (fs.lower, fs.nominal, fs.upper) == (0.0, 0.0, 0.0)
    assert (mps.lower, mps.nominal, mps.upper) == (0.0, 0.0, 0.0)
    assert fs.std == 0.0 and mps.std == 0.0


def test_half_avoided_with_measured_boundary(protocol):
    configs = enumerate_configs(protocol, scenario="CCRs", light="night")
    assert len(configs) == 8
    outcomes = escalation_outcomes(configs, 4)
    fs = frequency_score(configs, outcomes)
    # step 10 > 5: the downward shift flips nothing, the upward shift frees
    # the measured boundary config
    assert fs.nominal == 0.5
    assert fs.lower == 0.5
    assert fs.upper == 0.625
    assert fs.mean == pytest.approx((0.5 + 0.5 + 0.625) / 3)
    assert fs.std == pytest.approx(
        math.sqrt(((0.5 - fs.mean) ** 2 * 2 + (0.625 - fs.mean) ** 2) / 3)
    )


def test_judged_boundary_shifts_when_capability_was_shown(protocol):
    # judged from the fifth speed with avoided tests below: the boundary is
    # real, so the envelope moves exactly like a measured impact's
    configs = enumerate_configs(protocol, scenario="CCRs", light="night")
    outcomes = escalation_outcomes(configs, 4, boundary="judged")
    fs = frequency_score(configs, outcomes)
    assert (fs.lower, fs.nominal, fs.upper) == (0.5, 0.5, 0.625)


def test_failed_outright_series_has_no_spread(protocol):
    # executed full-speed impact with no response at the first speed, judged
    # above: no capability boundary inside the range, nothing to perturb
    configs = enumerate_configs(protocol, scenario="CCRs", light="night")
    outcomes = escalation_outcomes(configs, 0)
    fs = frequency_score(configs, outcomes)
    assert (fs.lower, fs.nominal, fs.upper) == (0.0, 0.0, 0.0)
    assert fs.std == 0.0


def test_no_braking_scores_zero(protocol, model):
    configs = enumerate_configs(protocol, scenario="CPLA", light="day")
    outcomes = {c: TestOutcome.impacted(c.vut_speed, intervention=False) for c in configs}
    mps = mitigation_power_score(configs, outcomes, model, 1500.0)
    assert (mps.lower, mps.nominal, mps.upper) == (0.0, 0.0, 0.0)
    fs = frequency_score(configs, outcomes)
    assert (fs.lower, fs.nominal, fs.upper) == (0.0, 0.0, 0.0)
    assert fs.std == 0.0 and mps.std == 0.0


def test_half_speed_impact_single_config():
    protocol = load_protocol(
        {
            "scenarios": [
                {
                    "code": "X",
                    "group": "C2VRU",
                    "vut_speed_ranges": [[50, 50]],
                    "tg_speeds": [5],
                    "speed_step": 10,
                    "overlaps": [50],
                    "lights": ["day"],
                }
            ]
        }
    )
    configs = enumerate_configs(protocol)
    outcomes = {configs[0]: TestOutcome.impacted(25.0)}
    mps = mitigation_power_score(configs, outcomes, ImpactPowerModel(), 1500.0)
    assert mps.nominal == 0.75


def test_judged_contributes_full_passive_power(protocol, model):
    configs = enumerate_configs(protocol, scenario="Pallets", light="day")
    outcomes = escalation_outcomes(configs, 2, boundary="judged")
    mps = mitigation_power_score(configs, outcomes, model, 1500.0)
    passive = [0.5 * 1500.0 * (c.vut_speed / 3.6) ** 2 * 0.5 for c in configs]
    assert mps.nominal == pytest.approx(1.0 - sum(passive[2:]) / sum(passive), rel=1e-12)
    # lattice step 10 > 5: the downward shift flips nothing, the upward one
    # frees the judged boundary config
    assert mps.lower == mps.nominal
    assert mps.upper == pytest.approx(1.0 - sum(passive[3:]) / sum(passive), rel=1e-12)


def test_mps_equals_fs_when_passive_power_is_flat():
    protocol = load_protocol(
        {
            "scenarios": [
                {
                    "code": "X",
                    "group": "C2VRU",
                    "vut_speed_ranges": [[60, 60]],
                    "tg_speeds": [5, 10, 15],
                    "speed_step": 10,
                    "overlaps": [50],
                    "lights": ["day"],
                }
            ]
        }
    )
    configs = enumerate_configs(protocol)
    assert len(configs) == 3
    outcomes = {
        configs[0]: TestOutcome.avoided(),
        configs[1]: TestOutcome.impacted(60.0, intervention=False),
        configs[2]: TestOutcome.judged(),
    }
    model = ImpactPowerModel()
    fs = frequency_score(configs, outcomes)
    mps = mitigation_power_score(configs, outcomes, model, 1500.0)
    assert mps.nominal == pytest.approx(fs.nominal, rel=1e-12)


def test_fs_monotone_in_flips(protocol):
    rng = random.Random(11)
    configs = enumerate_configs(protocol, scenario="CCRm", light="day")
    for _ in range(50):
        outcomes = random_escalation_outcomes(configs, rng)
        base = frequency_score(configs, outcomes).nominal
        failed = [c for c in configs if outcomes[c].kind is not OutcomeKind.AVOIDED]
        if not failed:
            continue
        flipped = dict(outcomes)
        flipped[rng.choice(failed)] = TestOutcome.avoided()
        assert frequency_score(configs, flipped).nominal >= base


def test_triples_match_reference(protocol, model):
    rng = random.Random(20240811)
    pairs = protocol.licensed_pairs()
    for _ in range(200):
        code, light = rng.choice(pairs)
        configs = enumerate_configs(protocol, scenario=code, light=light)
        outcomes = random_escalation_outcomes(configs, rng)
        weights = None
        if rng.random() < 0.5:
            weights = {c: rng.uniform(0.1, 3.0) for c in configs}
        fs = frequency_score(configs, outcomes, weights)
        ref_lower, ref_nominal, ref_upper = frequency_triple(configs, outcomes, weights)
        assert math.isclose(fs.lower, ref_lower, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(fs.nominal, ref_nominal, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(fs.upper, ref_upper, rel_tol=1e-12, abs_tol=1e-15)
        mass = rng.uniform(900, 2500)
        mps = mitigation_power_score(configs, outcomes, model, mass, weights)
        ref_lower, ref_nominal, ref_upper = mitigation_triple(configs, outcomes, mass, weights)
        assert math.isclose(mps.lower, ref_lower, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(mps.nominal, ref_nominal, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(mps.upper, ref_upper, rel_tol=1e-12, abs_tol=1e-15)


def test_envelope_brackets_nominal(protocol, model):
    rng = random.Random(5)
    pairs = protocol.licensed_pairs()
    for _ in range(100):
        code, light = rng.choice(pairs)
        configs = enumerate_configs(protocol, scenario=code, light=light)
        outcomes = random_escalation_outcomes(configs, rng)
        for score in (
            frequency_score(configs, outcomes),
            mitigation_power_score(configs, outcomes, model, 1500.0),
        ):
            triple = (score.lower, score.nominal, score.upper)
            assert min(triple) <= score.nominal <= max(triple)
            assert 0.0 <= score.nominal <= 1.0


def test_mass_rescaling_invariance(protocol):
    rng = random.Random(17)
    configs = enumerate_configs(protocol, scenario="CCRm", light="day")
    outcomes = random_escalation_outcomes(configs, rng)
    base_model = ImpactPowerModel()
    doubled_model = ImpactPowerModel(tg_masses={list(base_model.tg_masses)[0]: 3000.0})
    a = mitigation_power_score(configs, outcomes, base_model, 1500.0)
    b = mitigation_power_score(configs, outcomes, doubled_model, 3000.0)
    assert math.isclose(a.nominal, b.nominal, rel_tol=1e-12)
    assert math.isclose(a.lower, b.lower, rel_tol=1e-12)
    assert math.isclose(a.upper, b.upper, rel_tol=1e-12)


def test_missing_outcome_rejected(protocol, model):
    configs = enumerate_configs(protocol, scenario="CCRs", light="night")
    outcomes = escalation_outcomes(configs, None)
    del outcomes[configs[0]]
    with pytest.raises(ScoringError, match="missing outcome"):
        frequency_score(configs, outcomes)
    with pytest.raises(ScoringError, match="missing outcome"):
        mitigation_power_score(configs, outcomes, model, 1500.0)


def test_nonpositive_weight_rejected(protocol):
    configs = enumerate_configs(protocol, scenario="CCRs", light="night")
    outcomes = escalation_outcomes(configs, None)
    with pytest.raises(ScoringError, match="weight"):
        frequency_score(configs, outcomes, {configs[0]: 0.0})


def test_impacted_without_speed_rejected(protocol, model):
    configs = enumerate_configs(protocol, scenario="CCRs", light="night")
    outcomes = escalation_outcomes(configs, None)
    outcomes[configs[-1]] = TestOutcome(OutcomeKind.IMPACTED, intervention=True)
    with pytest.raises(ScoringError, match="impact_speed"):
        mitigation_power_score(configs, outcomes, model, 1500.0)


def test_negative_unshifted_impact_speed_raises_impact_model_error(protocol, model):
    # Every test of the instance failed, so no boundary shifts (and clamps) the speed.
    configs = enumerate_configs(protocol, scenario="CPLA", light="day")
    bad = TestOutcome(OutcomeKind.IMPACTED, impact_speed=-1.0, intervention=True)
    log = CampaignLog(protocol=protocol, records=tuple(TestRecord("V1", c, bad) for c in configs))
    with pytest.raises(ImpactModelError, match="impact speed must be >= 0"):
        score_campaign(log, model, validate=False)
    with pytest.raises(ImpactModelError, match="impact speed must be >= 0"):
        mitigation_power_score(configs, dict.fromkeys(configs, bad), model, 1500.0)


def test_zero_passive_denominator_rejected(model):
    protocol = load_protocol(
        {
            "scenarios": [
                {
                    "code": "X",
                    "group": "C2O",
                    "vut_speed_ranges": [[0, 0]],
                    "tg_speeds": None,
                    "speed_step": 10,
                    "overlaps": [100],
                    "lights": ["day"],
                }
            ]
        }
    )
    configs = enumerate_configs(protocol)
    outcomes = {configs[0]: TestOutcome.judged()}
    with pytest.raises(ScoringError, match="passive impact power"):
        mitigation_power_score(configs, outcomes, model, 1500.0)


def test_score_campaign_structure(protocol, model):
    configs = enumerate_configs(protocol, scenario="CPLA", light="day")
    records = tuple(
        TestRecord("V1", c, o) for c, o in escalation_outcomes(configs, None).items()
    )
    log = CampaignLog(protocol=protocol, records=records)
    scores = score_campaign(log, model)
    by_key = {(s.scenario, s.light): s for s in scores if s.vehicle == "V1"}
    assert len(by_key) == len(protocol.scenarios) * 2

    # night-only scenario shows as not applicable by day
    assert by_key[("CPLAs", "day")].not_applicable
    assert by_key[("CPLAs", "day")].fs is None
    assert not by_key[("CPLAs", "night")].not_applicable

    # the scored scenario carries its configuration count
    cpla_day = by_key[("CPLA", "day")]
    assert cpla_day.fs.nominal == 1.0 and cpla_day.configs_used == 5

    # untouched scenarios score zero with zero spread
    ccrs_day = by_key[("CCRs", "day")]
    assert ccrs_day.fs == ScoreValue.zero() and ccrs_day.mps == ScoreValue.zero()
    assert ccrs_day.configs_used == 0


def test_score_campaign_rejects_partial_instance(protocol, model):
    configs = enumerate_configs(protocol, scenario="CPLA", light="day")
    records = (TestRecord("V1", configs[0], TestOutcome.avoided()),)
    log = CampaignLog(protocol=protocol, records=records)
    with pytest.raises(ScoringError, match="missing outcome"):
        score_campaign(log, model)


def test_score_campaign_rejects_invalid_log(protocol, model):
    configs = enumerate_configs(protocol, scenario="CPLA", light="day")
    records = (
        TestRecord("V1", configs[0], TestOutcome.avoided()),
        TestRecord("V1", configs[0], TestOutcome.avoided()),
    )
    with pytest.raises(ScoringError, match="validation finding"):
        score_campaign(CampaignLog(protocol=protocol, records=records), model)


def _assert_triple(score, triple):
    for value, ref in zip((score.lower, score.nominal, score.upper), triple):
        assert math.isclose(value, ref, rel_tol=1e-12, abs_tol=1e-15)


def _campaign_with_noise(protocol, rng):
    """A one-vehicle log with a replaced duplicate and an off-lattice record per instance."""
    expected = {}
    records = []
    for code, light in protocol.licensed_pairs():
        configs = enumerate_configs(protocol, scenario=code, light=light)
        outcomes = random_escalation_outcomes(configs, rng)
        stale = rng.choice(configs)
        records.append(TestRecord("V", stale, TestOutcome.judged()))
        records += [TestRecord("V", c, o) for c, o in outcomes.items()]
        records.append(TestRecord("V", stale, outcomes[stale]))  # the last record wins
        rogue = TestConfig(
            scenario=stale.scenario,
            vut_speed=stale.vut_speed + 2.5,
            tg_speed=stale.tg_speed,
            overlap=stale.overlap,
            light=light,
        )
        records.append(TestRecord("V", rogue, TestOutcome.avoided()))
        expected[(code, light)] = (configs, outcomes)
    return CampaignLog(protocol=protocol, records=tuple(records)), expected


def test_score_campaign_unvalidated_matches_reference(protocol, model):
    # The reference weighs the vehicle 1720 kg; score_campaign takes no mass.
    rng = random.Random(404)
    log, expected = _campaign_with_noise(protocol, rng)
    scores = score_campaign(log, model, validate=False)
    assert len(scores) == 2 * len(protocol.scenarios)
    for s in scores:
        if s.not_applicable:
            assert (s.scenario, s.light) not in expected
            continue
        configs, outcomes = expected[(s.scenario, s.light)]
        assert s.configs_used == len(configs)
        _assert_triple(s.fs, frequency_triple(configs, outcomes))
        _assert_triple(s.mps, mitigation_triple(configs, outcomes, 1720.0))


@pytest.mark.parametrize("mass", [600.0, 900.0, 1500.0, 3500.0])
@pytest.mark.parametrize("tg_mass", [800.0, 3000.0])
def test_score_campaign_matches_the_reference_at_any_vut_or_target_mass(
    protocol, monkeypatch, mass, tg_mass
):
    # The masses cancel out of every score: the reference, at a ``mass`` kg
    # vehicle and a 1500 kg target, agrees with score_campaign under a
    # ``tg_mass`` kg target, which scores at the default masses.
    seen = []

    def recording(model, protocol):
        seen.append(model)
        return passive_powers(model, protocol)

    monkeypatch.setattr(scoring, "passive_powers", recording)
    model = ImpactPowerModel(tg_masses={ScenarioGroup.C2C: tg_mass})
    log, expected = _campaign_with_noise(protocol, random.Random(406))
    for s in score_campaign(log, model, validate=False):
        if not s.not_applicable:
            configs, outcomes = expected[(s.scenario, s.light)]
            _assert_triple(s.mps, mitigation_triple(configs, outcomes, mass))
    assert seen == [model]


def test_models_differing_only_in_target_mass_share_one_set_of_passive_powers():
    protocol = load_protocol(bundled_protocol_path())
    log, _ = _campaign_with_noise(protocol, random.Random(406))
    light = ImpactPowerModel(tg_masses={ScenarioGroup.C2C: 800.0})
    heavy = ImpactPowerModel(name="heavy", tg_masses={ScenarioGroup.C2C: 3000.0})
    assert score_campaign(log, light, validate=False) == score_campaign(
        log, heavy, validate=False
    )
    default = passive_powers(ImpactPowerModel(), protocol)
    assert passive_powers(light, protocol) == passive_powers(heavy, protocol) == default
    unit = passive_powers(ImpactPowerModel(geometry_rule="unit"), protocol)
    assert unit != default
    assert unit == passive_powers(heavy._replace(geometry_rule="unit"), protocol)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_config_scores_reject_nonpositive_weight(protocol, model, bad):
    configs = enumerate_configs(protocol, scenario="CPLA", light="day")
    outcomes = escalation_outcomes(configs, None)
    with pytest.raises(ScoringError, match="config weight must be > 0"):
        frequency_score(configs, outcomes, {configs[2]: bad})
    with pytest.raises(ScoringError, match="config weight must be > 0"):
        mitigation_power_score(configs, outcomes, model, 1500.0, {configs[-1]: bad})


def test_off_lattice_record_alone_still_covers_its_instance(protocol, model):
    config = enumerate_configs(protocol, scenario="CPLA", light="day")[0]
    rogue = TestConfig(
        scenario=config.scenario,
        vut_speed=config.vut_speed + 2.5,
        tg_speed=config.tg_speed,
        overlap=config.overlap,
        light="day",
    )
    log = CampaignLog(protocol=protocol, records=(TestRecord("V1", rogue, TestOutcome.avoided()),))
    with pytest.raises(ScoringError, match="missing outcome"):
        score_campaign(log, model, validate=False)


# ---------------------------------------------------------------------------
# One kernel run per distinct (instance, outcome identities) within a call


def _fleet(protocol, rng, vehicles, variants):
    """Per vehicle and licensed instance, one of ``variants`` random outcome
    sets: vehicles that draw the same set hold the same outcome objects."""
    drawn = {
        (code, light): [
            random_escalation_outcomes(
                enumerate_configs(protocol, scenario=code, light=light), rng
            )
            for _ in range(variants)
        ]
        for code, light in protocol.licensed_pairs()
    }
    return {v: {pair: rng.choice(sets) for pair, sets in drawn.items()} for v in vehicles}


def _log_of(protocol, fleet):
    return CampaignLog(
        protocol,
        (
            TestRecord(vehicle, config, outcome)
            for vehicle, instances in fleet.items()
            for outcomes in instances.values()
            for config, outcome in outcomes.items()
        ),
    )


def _spy_kernel(monkeypatch):
    """The outcomes the kernel is called with, one entry per call."""
    calls = []
    kernel = scoring._kernel

    def spied(*args):
        calls.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(scoring, "_kernel", spied)
    return calls


def _distinct_inputs(log):
    """How many distinct (instance, identities of its outcomes) a log holds."""
    keys = set()
    for entries in log.vehicles.values():
        outcomes = {config: outcome for _, config, outcome, _ in entries}
        for code, light in log.protocol.licensed_pairs():
            configs = enumerate_configs(log.protocol, scenario=code, light=light)
            keys.add((code, light, *(id(outcomes[c]) for c in configs)))
    return len(keys)


def _assert_fleet_matches_reference(scores, fleet):
    for s in scores:
        if s.not_applicable:
            continue
        outcomes = fleet[s.vehicle][(s.scenario, s.light)]
        configs = list(outcomes)
        _assert_triple(s.fs, frequency_triple(configs, outcomes))
        _assert_triple(s.mps, mitigation_triple(configs, outcomes, 1500.0))


def _read_back(log, path):
    write_log(log, path)
    return read_log(path, log.protocol)


def test_vehicles_repeating_instances_share_kernel_runs(protocol, model, monkeypatch, tmp_path):
    fleet = _fleet(protocol, random.Random(2020), [f"V{i}" for i in range(6)], 2)
    log = _read_back(_log_of(protocol, fleet), tmp_path / "fleet.jsonl")
    calls = _spy_kernel(monkeypatch)
    scores = score_campaign(log, model)
    _assert_fleet_matches_reference(scores, fleet)
    distinct = _distinct_inputs(log)
    assert len(calls) == distinct <= 2 * len(protocol.licensed_pairs())
    assert score_campaign(log, model) == scores  # a second call runs the kernel again
    assert len(calls) == 2 * distinct


def test_vehicles_differing_in_one_impact_speed_share_the_other_instances(
    protocol, model, monkeypatch, tmp_path
):
    fleet = _fleet(protocol, random.Random(2021), ["V1"], 1)
    instances = dict(fleet["V1"])
    pair, outcomes = next(
        (pair, outcomes)
        for pair, outcomes in instances.items()
        if any(o.kind is OutcomeKind.IMPACTED for o in outcomes.values())
    )
    config, hit = next((c, o) for c, o in outcomes.items() if o.kind is OutcomeKind.IMPACTED)
    instances[pair] = {**outcomes, config: hit._replace(impact_speed=hit.impact_speed / 2)}
    fleet["V2"] = instances
    log = _read_back(_log_of(protocol, fleet), tmp_path / "fleet.jsonl")
    calls = _spy_kernel(monkeypatch)
    scores = score_campaign(log, model)
    _assert_fleet_matches_reference(scores, fleet)
    assert len(calls) == _distinct_inputs(log) == len(protocol.licensed_pairs()) + 1


def test_kernel_runs_follow_outcome_identities_not_values(protocol, model, monkeypatch):
    fleet = _fleet(protocol, random.Random(2022), ["V1"], 1)
    # V2 holds V1's values in other objects; V3 and V4 differ from V1 in one
    # instance, impacted at +0.0 and at -0.0, which compare equal.
    fleet["V2"] = {
        pair: {c: TestOutcome(*o) for c, o in outcomes.items()}
        for pair, outcomes in fleet["V1"].items()
    }
    configs = enumerate_configs(protocol, scenario="CCRm", light="day")
    fleet["V3"] = dict(fleet["V1"])
    fleet["V4"] = dict(fleet["V1"])
    fleet["V3"][("CCRm", "day")] = {c: TestOutcome.impacted(0.0) for c in configs}
    fleet["V4"][("CCRm", "day")] = {c: TestOutcome.impacted(-0.0) for c in configs}
    log = _log_of(protocol, fleet)
    calls = _spy_kernel(monkeypatch)
    scores = score_campaign(log, model, validate=False)
    _assert_fleet_matches_reference(scores, fleet)
    pairs = len(protocol.licensed_pairs())
    assert len(calls) == _distinct_inputs(log) == 2 * pairs + 2
