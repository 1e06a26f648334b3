import pytest

from aebscore.campaign import CampaignLog, TestOutcome, TestRecord, VehicleProfile
from aebscore.logio import LogFormatError, read_log, write_log
from aebscore.protocol import enumerate_configs


def _sample_log(protocol):
    configs = enumerate_configs(protocol, scenario="CCRs", light="day")
    records = (
        TestRecord("1A", configs[0], TestOutcome.avoided(), pre_test="passed"),
        TestRecord("1A", configs[1], TestOutcome.impacted(42.5, projected=True)),
        TestRecord("1A", configs[2], TestOutcome.judged()),
    )
    return CampaignLog(
        protocol=protocol, vehicles=(VehicleProfile("1A", mass=1600.0),), records=records
    )


def _keys(log):
    return [
        (r.vehicle, r.config.key(), r.outcome.kind, r.outcome.impact_speed, r.pre_test)
        for r in log.records
    ]


def test_jsonl_round_trip(protocol, tmp_path):
    log = _sample_log(protocol)
    path = tmp_path / "campaign.jsonl"
    write_log(log, path)
    again = read_log(path, protocol)
    assert _keys(again) == _keys(log)
    assert again.records[1].outcome.projected is True


def test_csv_round_trip(protocol, tmp_path):
    log = _sample_log(protocol)
    path = tmp_path / "campaign.csv"
    write_log(log, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == (
        "vehicle,scenario,light,vut_speed,tg_speed,overlap,outcome,"
        "impact_speed,intervention,projected,pre_test"
    )
    again = read_log(path, protocol)
    assert _keys(again) == _keys(log)
    assert again.records[1].outcome.projected is True
    assert again.records[2].outcome.intervention is None


def test_unknown_scenario_rejected(protocol, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"vehicle":"V","scenario":"ZZZ","light":"day","vut_speed":55,"overlap":100,"outcome":"avoided"}\n'
    )
    with pytest.raises(LogFormatError, match="unknown scenario"):
        read_log(path, protocol)


def test_malformed_json_rejected(protocol, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{nope\n")
    with pytest.raises(LogFormatError, match="line 1"):
        read_log(path, protocol)


def test_bad_outcome_and_light_rejected(protocol, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"vehicle":"V","scenario":"CCRs","light":"dusk","vut_speed":55,"overlap":100,"outcome":"avoided"}\n'
    )
    with pytest.raises(LogFormatError, match="unknown light"):
        read_log(path, protocol)
    path.write_text(
        '{"vehicle":"V","scenario":"CCRs","light":"day","vut_speed":55,"overlap":100,"outcome":"meh"}\n'
    )
    with pytest.raises(LogFormatError, match="unknown outcome"):
        read_log(path, protocol)


def test_unknown_csv_column_rejected(protocol, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("vehicle,scenario,light,vut_speed,overlap,outcome,bogus\n")
    with pytest.raises(LogFormatError, match="bogus"):
        read_log(path, protocol)


def test_unlicensed_settings_parse_but_flag_in_validation(protocol, tmp_path):
    from aebscore.campaign import validate_log

    path = tmp_path / "odd.jsonl"
    path.write_text(
        '{"vehicle":"V","scenario":"CCRs","light":"day","vut_speed":60,"overlap":100,"outcome":"avoided"}\n'
    )
    log = read_log(path, protocol)
    assert len(log.records) == 1
    assert [d.code for d in validate_log(log)] == ["unlicensed-config"]


def test_vehicle_profiles_merge(protocol, tmp_path):
    log = _sample_log(protocol)
    path = tmp_path / "campaign.jsonl"
    write_log(log, path)
    again = read_log(path, protocol, vehicles=[VehicleProfile("1A", mass=1777.0)])
    assert {v.id: v.mass for v in again.vehicles} == {"1A": 1777.0}


def test_licensed_rows_resolve_to_canonical_configs(protocol, tmp_path):
    log = _sample_log(protocol)
    path = tmp_path / "campaign.csv"
    write_log(log, path)
    canonical = set(map(id, protocol.compiled.configs))
    assert all(id(r.config) in canonical for r in read_log(path, protocol).records)
    # a second read shares the same objects
    first, second = read_log(path, protocol), read_log(path, protocol)
    assert all(a.config is b.config for a, b in zip(first.records, second.records))


def test_off_lattice_row_gets_a_fresh_config(protocol, tmp_path):
    path = tmp_path / "odd.jsonl"
    path.write_text(
        '{"vehicle":"V","scenario":"CCRs","light":"day","vut_speed":60,"overlap":100,"outcome":"avoided"}\n'
    )
    config = read_log(path, protocol).records[0].config
    assert protocol.compiled.canonical(config.key()) is None
    assert all(config is not c for c in protocol.compiled.configs)
    assert config.scenario is protocol.scenario("CCRs")


@pytest.mark.parametrize("field", ["vut_speed", "overlap", "tg_speed", "impact_speed"])
@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_non_finite_numbers_rejected_with_location(protocol, tmp_path, field, value):
    row = {
        "vehicle": "V",
        "scenario": "CCRm",
        "light": "day",
        "vut_speed": "55",
        "tg_speed": "20",
        "overlap": "100",
        "outcome": "impacted",
        "impact_speed": "30",
    }
    row[field] = value
    path = tmp_path / "bad.csv"
    path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
    with pytest.raises(LogFormatError, match=rf"line 2: {field} must be a finite number"):
        read_log(path, protocol)


def test_non_finite_json_literal_rejected(protocol, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"vehicle":"V","scenario":"CCRs","light":"day","vut_speed":NaN,"overlap":100,"outcome":"avoided"}\n'
    )
    with pytest.raises(LogFormatError, match="line 1: vut_speed must be a finite number"):
        read_log(path, protocol)
