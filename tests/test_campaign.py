import random

import pytest

from aebscore.campaign import (
    CampaignLog,
    OracleError,
    OutcomeKind,
    TestOutcome,
    TestRecord,
    completion_stats,
    expand_night_judgements,
    run_scenario,
    validate_log,
    vehicle_sort_key,
)
from aebscore.protocol import TestConfig, enumerate_configs

from reference import natural_key, scan_series


def threshold_oracle(fail_at, impact_fraction=0.5, respond=True):
    def oracle(config):
        if fail_at is None or config.vut_speed < fail_at:
            return TestOutcome.avoided()
        return TestOutcome.impacted(impact_fraction * config.vut_speed, intervention=respond)

    return oracle


def no_response_oracle(config):
    return TestOutcome.impacted(config.vut_speed, intervention=False)


def test_escalation_stops_at_first_impact(protocol):
    spec = protocol.scenario("CCRs")
    records = run_scenario(threshold_oracle(85), spec, overlap=100, light="day")
    by_speed = {r.config.vut_speed: r.outcome.kind for r in records}
    assert [by_speed[v] for v in (55, 65, 75)] == [OutcomeKind.AVOIDED] * 3
    assert by_speed[85] is OutcomeKind.IMPACTED
    assert [by_speed[v] for v in (95, 105, 115, 125)] == [OutcomeKind.JUDGED_FAILED] * 4


def test_all_avoided_series(protocol):
    spec = protocol.scenario("CCRs")
    records = run_scenario(threshold_oracle(None), spec, overlap=100, light="day")
    assert len(records) == 8
    assert all(r.outcome.kind is OutcomeKind.AVOIDED for r in records)


def test_failed_pretest_judges_everything(protocol):
    spec = protocol.scenario("Pallets")
    records = run_scenario(no_response_oracle, spec, overlap=50, light="day", requires_pretest=True)
    assert len(records) == 6
    assert all(r.outcome.kind is OutcomeKind.JUDGED_FAILED for r in records)
    assert all(r.pre_test == "failed" for r in records)


def test_passed_pretest_recorded(protocol):
    spec = protocol.scenario("Pallets")
    records = run_scenario(threshold_oracle(None), spec, overlap=50, light="day", requires_pretest=True)
    assert all(r.pre_test == "passed" for r in records)
    assert all(r.outcome.kind is OutcomeKind.AVOIDED for r in records)


def test_multi_tg_slice_runs_each_series_independently(protocol):
    spec = protocol.scenario("CCFtap")

    def oracle(config):
        # fail only the fastest target variant
        if config.tg_speed == 55:
            return TestOutcome.impacted(config.vut_speed, intervention=False)
        return TestOutcome.avoided()

    records = run_scenario(oracle, spec, overlap=50, light="day")
    assert len(records) == 6
    failed = [r for r in records if r.outcome.kind is not OutcomeKind.AVOIDED]
    assert {r.config.tg_speed for r in failed} == {55}
    # first speed executed (impacted), higher one judged
    kinds = {r.config.vut_speed: r.outcome.kind for r in failed}
    assert kinds[15] is OutcomeKind.IMPACTED
    assert kinds[25] is OutcomeKind.JUDGED_FAILED


def test_continue_past_impact_with_response(protocol):
    spec = protocol.scenario("CCRs")

    def oracle(config):
        if config.vut_speed == 75:
            return TestOutcome.impacted(40.0, intervention=True)
        if config.vut_speed >= 115:
            return TestOutcome.impacted(config.vut_speed, intervention=False)
        return TestOutcome.avoided()

    records = run_scenario(oracle, spec, overlap=100, light="day", stop_on_impact=False)
    kinds = {r.config.vut_speed: r.outcome.kind for r in records}
    assert kinds[75] is OutcomeKind.IMPACTED
    assert kinds[85] is OutcomeKind.AVOIDED  # escalation continued
    assert kinds[115] is OutcomeKind.IMPACTED  # no response stops the series
    assert kinds[125] is OutcomeKind.JUDGED_FAILED
    assert validate_log(CampaignLog(protocol=protocol, records=tuple(records))) == []


def test_oracle_returning_judged_rejected(protocol):
    spec = protocol.scenario("CCRs")
    with pytest.raises(OracleError, match="judged_failed"):
        run_scenario(lambda c: TestOutcome.judged(), spec, overlap=100, light="day")


def test_oracle_invariant_violation_rejected(protocol):
    spec = protocol.scenario("CCRs")
    with pytest.raises(OracleError, match="impact_speed"):
        run_scenario(
            lambda c: TestOutcome.impacted(c.vut_speed + 10), spec, overlap=100, light="day"
        )


def test_run_scenario_matches_scan_reference(protocol):
    rng = random.Random(20240811)
    specs = [protocol.scenario(code) for code in ("CCRs", "CCFtap", "CCscp left", "CPLA")]
    for _ in range(300):
        spec = rng.choice(specs)
        light = rng.choice(spec.lights)
        settings = spec.settings(light)
        overlap = rng.choice(settings.overlaps)
        stop_on_impact = rng.random() < 0.5
        answers = {}
        for variant in settings.variants:
            for speed in variant.speeds:
                roll = rng.random()
                if roll < 0.55:
                    answers[(variant.tg_speed, speed)] = ("avoided", True)
                else:
                    answers[(variant.tg_speed, speed)] = ("impacted", rng.random() < 0.6)

        def oracle(config):
            kind, respond = answers[(config.tg_speed, config.vut_speed)]
            if kind == "avoided":
                return TestOutcome.avoided()
            return TestOutcome.impacted(0.5 * config.vut_speed, intervention=respond)

        records = run_scenario(oracle, spec, overlap, light, stop_on_impact=stop_on_impact)
        # reference: evaluate every lattice speed independently, then scan
        for variant in settings.variants:
            expected = scan_series(
                {
                    speed: (
                        OutcomeKind.AVOIDED
                        if answers[(variant.tg_speed, speed)][0] == "avoided"
                        else OutcomeKind.IMPACTED,
                        answers[(variant.tg_speed, speed)][1],
                    )
                    for speed in variant.speeds
                },
                variant.speeds,
                stop_on_impact=stop_on_impact,
            )
            got = {
                r.config.vut_speed: r.outcome.kind
                for r in records
                if r.config.tg_speed == variant.tg_speed
            }
            assert got == expected
            assert len(got) == len(variant.speeds)  # executed + judged partition the lattice


def _day_log(protocol, code, oracle, vehicle="V"):
    spec = protocol.scenario(code)
    records = []
    for overlap in spec.settings("day").overlaps:
        records.extend(run_scenario(oracle, spec, overlap, "day", vehicle=vehicle))
    return CampaignLog(protocol=protocol, records=tuple(records))


def test_expand_night_judgements_after_day_failures(protocol):
    log = _day_log(protocol, "CCRs", no_response_oracle)
    expanded = expand_night_judgements(log)
    added = [r for r in expanded.records if r.config.light == "night"]
    # day failed at the lowest speed in the 100% overlap series, so the whole
    # matching night series is judged
    assert {r.config.vut_speed for r in added} == {55, 65, 75, 85, 95, 105, 115, 125}
    assert all(r.outcome.kind is OutcomeKind.JUDGED_FAILED for r in added)


def test_expand_only_matching_settings(protocol):
    # failure at overlap 10 has no night counterpart (night runs 100% only)
    spec = protocol.scenario("CCRs")

    def oracle(config):
        if config.overlap == 10:
            return TestOutcome.impacted(config.vut_speed, intervention=False)
        return TestOutcome.avoided()

    log = _day_log(protocol, "CCRs", oracle)
    expanded = expand_night_judgements(log)
    assert expanded is log  # nothing matched, log unchanged


def test_expand_is_idempotent_and_preserves_existing(protocol):
    spec = protocol.scenario("CCRs")
    day = _day_log(protocol, "CCRs", no_response_oracle)
    night_config = enumerate_configs(protocol, scenario="CCRs", light="night")[0]
    existing = TestRecord("V", night_config, TestOutcome.avoided())
    log = CampaignLog(protocol, day.records + (existing,))
    once = expand_night_judgements(log)
    twice = expand_night_judgements(once)
    assert once.records == twice.records
    kept = [r for r in once.records if r.config == night_config]
    assert kept == [existing]


def test_expand_all_avoided_changes_nothing(protocol):
    log = _day_log(protocol, "CCRs", threshold_oracle(None))
    assert expand_night_judgements(log) is log


def test_validate_empty_log(protocol):
    assert validate_log(CampaignLog(protocol=protocol)) == []


def test_validate_flags_executed_above_failure(protocol):
    configs = enumerate_configs(protocol, scenario="CCRs", light="day")
    series = [c for c in configs if c.overlap == 100]
    records = (
        TestRecord("V", series[2], TestOutcome.impacted(30.0, intervention=False)),
        TestRecord("V", series[4], TestOutcome.avoided()),
    )
    diagnostics = validate_log(CampaignLog(protocol=protocol, records=records))
    assert len(diagnostics) == 1
    assert diagnostics[0].code == "executed-above-failure"
    assert "vut=95" in diagnostics[0].locator


def test_validate_flags_duplicates_and_bad_outcomes(protocol):
    config = enumerate_configs(protocol, scenario="CCRs", light="day")[0]
    records = (
        TestRecord("V", config, TestOutcome.avoided()),
        TestRecord("V", config, TestOutcome.avoided()),
        TestRecord(
            "W", config, TestOutcome(OutcomeKind.IMPACTED)
        ),  # missing impact speed
        TestRecord(
            "X", config, TestOutcome(OutcomeKind.JUDGED_FAILED, impact_speed=10.0)
        ),  # judged with a measurement
    )
    codes = sorted(d.code for d in validate_log(CampaignLog(protocol=protocol, records=records)))
    assert codes == ["duplicate-record", "invalid-outcome", "invalid-outcome"]


def test_validate_flags_unlicensed_config(protocol):
    spec = protocol.scenario("CCRs")
    rogue = TestConfig(scenario=spec, vut_speed=60, tg_speed=None, overlap=100, light="day")
    diagnostics = validate_log(
        CampaignLog(protocol=protocol, records=(TestRecord("V", rogue, TestOutcome.avoided()),))
    )
    assert [d.code for d in diagnostics] == ["unlicensed-config"]


def test_validate_clean_on_procedure_output(protocol):
    rng = random.Random(7)
    records = []
    for code in ("CCRs", "CCRm", "CCFtap"):
        spec = protocol.scenario(code)
        fail_at = rng.choice([None, 65, 85, 105])
        oracle = threshold_oracle(fail_at)
        for light in spec.lights:
            for overlap in spec.settings(light).overlaps:
                records.extend(run_scenario(oracle, spec, overlap, light))
    log = expand_night_judgements(CampaignLog(protocol=protocol, records=tuple(records)))
    assert validate_log(log) == []


def test_sparse_avoided_only_log_is_clean(protocol):
    # a campaign that stopped early leaves configs unrecorded: still valid
    configs = enumerate_configs(protocol)
    records = tuple(TestRecord("6", c, TestOutcome.avoided()) for c in configs[:161])
    log = CampaignLog(protocol=protocol, records=records)
    assert validate_log(log) == []
    assert completion_stats(log)["6"].completion_percent == 72


def test_completion_stats_counts(protocol):
    configs = enumerate_configs(protocol)
    records = [TestRecord("V", c, TestOutcome.avoided()) for c in configs[:100]]
    records += [TestRecord("V", c, TestOutcome.judged()) for c in configs[100:110]]
    records += [TestRecord("V", c, TestOutcome(OutcomeKind.NOT_EXECUTED)) for c in configs[110:120]]
    stats = completion_stats(CampaignLog(protocol=protocol, records=tuple(records)))
    s = stats["V"]
    assert (s.expected, s.executed, s.judged) == (224, 100, 10)
    assert s.completion_percent == round(110 / 224 * 100)


def test_vehicle_sort_key_natural_order():
    ids = ["10", "2", "1B", "7A", "1A", "7B", "6"]
    assert sorted(ids, key=vehicle_sort_key) == ["1A", "1B", "2", "6", "7A", "7B", "10"]


def test_vehicle_sort_key_breaks_ties_on_the_id_text():
    ids = ["7", "07", "007", "1A", "01A", "0", "00", "x", "\u0663", "3", "\u0661\u0660"]
    keys = {vehicle_sort_key(v) for v in ids}
    assert len(keys) == len(ids)
    assert sorted(ids, key=vehicle_sort_key) == [
        "0", "00", "01A", "1A", "3", "\u0663", "007", "07", "7", "\u0661\u0660", "x"
    ]
    assert sorted(ids, key=vehicle_sort_key) == sorted(ids, key=natural_key)


def test_vehicle_sort_key_orders_as_the_reference_and_as_int_did():
    rng = random.Random(8)
    ids = list({"".join(rng.choices("0079A", k=rng.randint(1, 5))) for _ in range(400)})
    rng.shuffle(ids)
    assert sorted(ids, key=vehicle_sort_key) == sorted(ids, key=natural_key)
    for a in ids[:60]:
        for b in ids[:60]:
            old_a, old_b = natural_key(a)[:3], natural_key(b)[:3]  # the order before ties broke
            if old_a < old_b:
                assert vehicle_sort_key(a) < vehicle_sort_key(b)
    huge = "1" + "0" * 5000
    ids = [huge, "9" * 4999, "0" + huge]
    assert sorted(ids, key=vehicle_sort_key) == ["9" * 4999, "0" + huge, huge]


def test_completion_stats_matches_brute_force_on_interleaved_log(protocol):
    rng = random.Random(3)
    configs = enumerate_configs(protocol)
    kinds = [TestOutcome.avoided(), TestOutcome.impacted(10.0), TestOutcome.judged(),
             TestOutcome(OutcomeKind.NOT_EXECUTED)]
    vehicles = ["10", "2", "1B", "X"]
    records = [
        TestRecord(rng.choice(vehicles), rng.choice(configs), rng.choice(kinds))
        for _ in range(600)
    ]
    stats = completion_stats(CampaignLog(protocol=protocol, records=tuple(records)))
    assert list(stats) == sorted(vehicles, key=vehicle_sort_key)
    for vehicle, s in stats.items():
        mine = [r for r in records if r.vehicle == vehicle]
        executed = sum(r.outcome.kind in (OutcomeKind.AVOIDED, OutcomeKind.IMPACTED) for r in mine)
        judged = sum(r.outcome.kind is OutcomeKind.JUDGED_FAILED for r in mine)
        assert (s.expected, s.executed, s.judged) == (224, executed, judged)
        assert s.completion_percent == round(100.0 * (executed + judged) / 224)


def test_avoided_and_judged_outcomes_are_shared(protocol):
    assert TestOutcome.avoided() is TestOutcome.avoided()
    assert TestOutcome.avoided() == TestOutcome(OutcomeKind.AVOIDED, intervention=True)
    assert TestOutcome.judged() is TestOutcome.judged()
    assert TestOutcome.judged() == TestOutcome(OutcomeKind.JUDGED_FAILED)
    records = run_scenario(threshold_oracle(85), protocol.scenario("CCRs"), 100, "day")
    judged = [r.outcome for r in records if r.outcome.kind is OutcomeKind.JUDGED_FAILED]
    assert len(judged) == 4
    assert all(o is TestOutcome.judged() for o in judged)


def test_run_scenario_records_use_the_protocols_configs(protocol):
    canonical = set(map(id, protocol.configs))
    for code, light in protocol.licensed_pairs():
        spec = protocol.scenario(code)
        for overlap in spec.settings(light).overlaps:
            records = run_scenario(threshold_oracle(None), spec, overlap, light)
            assert records and all(id(r.config) in canonical for r in records)
