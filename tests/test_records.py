"""Value records are ``typing.NamedTuple``s: immutable, equal by their fields.

Each case is a record built the way the package builds it. Setting a field
raises, a record rebuilt from its fields is equal (and, where every field is
hashable, hashes equal), and ``_replace`` keeps the type. A config hashes
as its key.
"""

from pathlib import Path

import pytest

from aebscore.aggregate import GroupScore, build_matrix
from aebscore.campaign import CompletionStats, Diagnostic, TestOutcome, TestRecord
from aebscore.impact import ImpactPowerModel
from aebscore.protocol import (
    LightOverride,
    ScenarioGroup,
    SpeedRange,
    TestConfig,
    bundled_protocol_path,
    load_protocol,
)
from aebscore.report import completion_table
from aebscore.scoring import ScenarioScore, ScoreValue
from aebscore.inputs import load_simulation_spec, load_weight_table

DATA = bundled_protocol_path().parent
FIXTURE_SIM = Path(__file__).parent / "data" / "fixture_sim.json"


def _records():
    """(record, hashable) per converted class."""
    protocol = load_protocol(bundled_protocol_path())
    settings = protocol.scenario("CCRm").settings("night")
    config = settings.pretest
    score = ScoreValue(0.5, 0.25, 0.75)
    group = GroupScore("1A", ScenarioGroup.C2C, "EU", score, score)
    spec = load_simulation_spec(FIXTURE_SIM)
    return [
        (SpeedRange(10.0, 60.0), True),
        (LightOverride(overlaps=(100.0,)), True),
        (settings.variants[0], True),
        (settings, False),  # configs is a dict
        (config, True),
        (TestOutcome.impacted(12.5, intervention=False), True),
        (TestRecord("1A", config, TestOutcome.avoided(), "passed"), True),
        (Diagnostic("duplicate-record", "1A/CCRm", "duplicate record"), True),
        (CompletionStats(224, 180, 44, 100), True),
        (ImpactPowerModel(tg_masses={ScenarioGroup.C2C: 1400.0}), True),
        (score, True),
        (ScenarioScore("1A", "CCRm", "day", score, score, 32), True),
        (load_weight_table(DATA / "weights_eu_example.json"), False),  # weights is a dict
        (group, True),
        (build_matrix([group, group._replace(vehicle="2")], "freq"), False),  # scores is a dict
        (spec.vehicles[0][1], False),  # rules holds the spec's objects
        (spec, False),
        (completion_table({"1A": CompletionStats(224, 180, 44, 100)}), True),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record, hashable", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_is_an_immutable_value(record, hashable):
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    rebuilt = type(record)(*record)
    assert rebuilt == record and rebuilt is not record
    if hashable:
        assert hash(rebuilt) == hash(record)
    replaced = record._replace(**{first: getattr(record, first)})
    assert type(replaced) is type(record) and replaced == record
    if isinstance(record, TestConfig):
        assert hash(record) == hash(record.key())


def test_default_target_masses_are_shared_and_read_only():
    a, b = ImpactPowerModel(), ImpactPowerModel()
    assert a.tg_masses is b.tg_masses and a == b and hash(a) == hash(b)
    with pytest.raises(TypeError):
        a.tg_masses[ScenarioGroup.C2O] = 1.0
    assert ImpactPowerModel(tg_masses={ScenarioGroup.C2C: 1500.0}) == a
