"""The indexed campaign log against record-walking references.

``validate_log``, ``completion_stats``, ``expand_night_judgements``,
``score_campaign`` and ``write_log`` read a ``CampaignLog``'s entries: per
vehicle, its entries in row order, with the vehicle column kept as runs of
rows. The references below walk the records one at a time, with tuple-keyed
dicts, as those stages did before the log was indexed; they are the oracles. Each seeded log
mixes shuffled rows, interleaved vehicles, duplicates, off-lattice rows,
invalid outcomes, executed-above-failure rows, existing night rows and
partial instances, and is checked as built from records and as read back
from JSONL and CSV.
"""

import csv
import io
import json
import math
import random

import pytest

from aebscore.campaign import (
    EXECUTED_KINDS,
    CampaignLog,
    Diagnostic,
    OutcomeKind,
    TestOutcome,
    TestRecord,
    completion_stats,
    expand_night_judgements,
    outcome_problems,
    series_key,
    validate_log,
    vehicle_sort_key,
)
from aebscore.cli import main
from aebscore.impact import ImpactPowerModel, config_powers
from aebscore.logio import LOG_COLUMNS, read_log, write_log
from aebscore.protocol import (
    DAY,
    LIGHTS,
    NIGHT,
    TestConfig,
    bundled_protocol_path,
    enumerate_configs,
)
from aebscore.scoring import ScenarioScore, ScoreValue, ScoringError, _kernel, score_campaign
from aebscore.simulate import load_simulation_spec, simulate_campaign
from reference import record_to_row

DATA_DIR = bundled_protocol_path().parent


# ---------------------------------------------------------------------------
# References: the record-walking stages.


def _vehicle_ids(records):
    return sorted({r.vehicle for r in records}, key=vehicle_sort_key)


def _locator(record):
    c = record.config
    tg = "-" if c.tg_speed is None else f"{c.tg_speed:g}"
    return (
        f"{record.vehicle}/{c.code}/{c.light}/overlap={c.overlap:g}"
        f"/tg={tg}/vut={c.vut_speed:g}"
    )


def reference_validate(log, records):
    diagnostics = []
    licensed = {c.key() for c in enumerate_configs(log.protocol)}
    seen = set()
    series = {}
    for record in records:
        key = record.config.key()
        if key not in licensed:
            diagnostics.append(
                Diagnostic(
                    "unlicensed-config", _locator(record), "configuration is not in the protocol"
                )
            )
        dup_key = (record.vehicle, key)
        if dup_key in seen:
            diagnostics.append(
                Diagnostic(
                    "duplicate-record", _locator(record), "duplicate record for this configuration"
                )
            )
        seen.add(dup_key)
        for problem in outcome_problems(record.outcome, record.config):
            diagnostics.append(Diagnostic("invalid-outcome", _locator(record), problem))
        series.setdefault((record.vehicle,) + series_key(record.config), []).append(record)
    for members in series.values():
        hard_failures = [
            r.config.vut_speed
            for r in members
            if r.outcome.kind is OutcomeKind.JUDGED_FAILED
            or (r.outcome.kind is OutcomeKind.IMPACTED and r.outcome.intervention is False)
        ]
        if not hard_failures:
            continue
        stop_speed = min(hard_failures)
        for r in members:
            if r.outcome.kind in EXECUTED_KINDS and r.config.vut_speed > stop_speed:
                diagnostics.append(
                    Diagnostic(
                        "executed-above-failure",
                        _locator(r),
                        f"executed above a failure at {stop_speed:g} km/h in the same series",
                    )
                )
    return diagnostics


def reference_stats(log, records):
    expected = len(enumerate_configs(log.protocol))
    counts = {vehicle: [0, 0] for vehicle in _vehicle_ids(records)}
    for record in records:
        kind = record.outcome.kind
        if kind is OutcomeKind.JUDGED_FAILED:
            counts[record.vehicle][1] += 1
        elif kind in EXECUTED_KINDS:
            counts[record.vehicle][0] += 1
    return {
        vehicle: (expected, executed, judged, round(100.0 * (executed + judged) / expected))
        for vehicle, (executed, judged) in counts.items()
    }


def reference_expand(log, records):
    day_records = {}
    boundaries = {}  # (vehicle, day series) -> lowest impacted or judged speed
    existing = set()
    for record in records:
        existing.add((record.vehicle, record.config.key()))
        if record.config.light == DAY:
            day_records[(record.vehicle, record.config.key())] = record
            if record.outcome.kind in (OutcomeKind.IMPACTED, OutcomeKind.JUDGED_FAILED):
                key = (record.vehicle,) + series_key(record.config)
                speed = record.config.vut_speed
                boundaries[key] = min(speed, boundaries.get(key, speed))
    added = []
    for vehicle in _vehicle_ids(records):
        for config in enumerate_configs(log.protocol, light=NIGHT):
            if (vehicle, config.key()) in existing:
                continue
            day_key = (config.code, DAY, config.overlap, config.vut_speed, config.tg_speed)
            day_record = day_records.get((vehicle, day_key))
            if day_record is None:
                continue
            kind = day_record.outcome.kind
            if kind is OutcomeKind.JUDGED_FAILED:
                triggered = True
            elif kind is OutcomeKind.IMPACTED:
                boundary = boundaries[(vehicle,) + series_key(day_record.config)]
                triggered = day_record.config.vut_speed == boundary
            else:
                triggered = False
            if triggered:
                added.append(TestRecord(vehicle, config, TestOutcome.judged()))
    return tuple(records) + tuple(added)


def reference_score(log, records, model, masses):
    """Each vehicle scored at its mass in ``masses`` or 1500 kg, from powers built per instance."""
    index = {c.key(): i for i, c in enumerate(enumerate_configs(log.protocol))}
    outcomes_of = {}
    off_lattice = set()
    for record in records:
        outcomes = outcomes_of.setdefault(record.vehicle, [None] * len(index))
        i = index.get(record.config.key())
        if i is None:
            off_lattice.add((record.vehicle, record.config.code, record.config.light))
        else:
            outcomes[i] = record.outcome
    scores = []
    for vehicle in _vehicle_ids(records):
        mass = masses.get(vehicle, 1500.0)
        outcomes = outcomes_of.get(vehicle, ())
        for spec in log.protocol.scenarios:
            for light in LIGHTS:
                part = log.protocol.instances.get((spec.code, light))
                if part is None:
                    scores.append(ScenarioScore(vehicle, spec.code, light, None, None, 0, True))
                    continue
                instance_outcomes = outcomes[part.start:part.stop]
                if (vehicle, spec.code, light) not in off_lattice and all(
                    o is None for o in instance_outcomes
                ):
                    scores.append(
                        ScenarioScore(
                            vehicle, spec.code, light, ScoreValue.zero(), ScoreValue.zero(), 0
                        )
                    )
                    continue
                terms, passive = config_powers(model, part.configs, mass)
                fs, mps = _kernel(
                    part.configs, part.series, instance_outcomes, None, passive, terms
                )
                scores.append(ScenarioScore(vehicle, spec.code, light, fs, mps, len(part.configs)))
    return scores


def reference_write(records, csv_format):
    """Every record encoded in full, one row at a time."""

    def cell(value):
        if value is None:
            return ""
        return ("true" if value else "false") if isinstance(value, bool) else str(value)

    if csv_format:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=LOG_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for record in records:
            row = record_to_row(record)
            writer.writerow({k: cell(row.get(k)) for k in LOG_COLUMNS})
        return buffer.getvalue().encode("utf-8")
    return "".join(json.dumps(record_to_row(r), sort_keys=True) + "\n" for r in records).encode()


# ---------------------------------------------------------------------------
# Seeded messy logs.

ORACLE = {"type": "random", "pretest_fail_prob": 0.2, "never_prob": 0.3, "respond_prob": 0.6}


def messy_records(protocol, seed, shape, complete):
    """A simulated campaign, damaged in seeded ways.

    ``complete`` keeps every instance either whole or absent, so that the
    scores are defined; otherwise single records go missing too.
    """
    rng = random.Random(seed)
    spec = load_simulation_spec(
        {"seed": seed, "vehicles": [{"id": f"V{i}", "oracle": ORACLE} for i in range(1, 6)]}
    )
    records = list(simulate_campaign(protocol, spec).records)

    # Existing night rows: some night scenarios stay whole, the others go.
    pairs = sorted({(r.vehicle, r.config.code) for r in records if r.config.light == NIGHT})
    dropped = {pair for pair in pairs if rng.random() < 0.6}
    records = [
        r for r in records if r.config.light == DAY or (r.vehicle, r.config.code) not in dropped
    ]
    if not complete:  # partial instances
        records = [r for r in records if rng.random() > 0.03]

    def pick(predicate=lambda r: True):
        return rng.choice([i for i, r in enumerate(records) if predicate(r)])

    # Invalid outcomes.
    for outcome in (
        TestOutcome(OutcomeKind.JUDGED_FAILED, intervention=True),
        TestOutcome(OutcomeKind.AVOIDED, impact_speed=3.0),
        TestOutcome(OutcomeKind.NOT_EXECUTED, projected=False),
    ):
        i = pick()
        records[i] = records[i]._replace(outcome=outcome)
    i = pick()
    too_fast = TestOutcome.impacted(records[i].config.vut_speed + 10.0, intervention=True)
    records[i] = records[i]._replace(outcome=too_fast)

    # Executed above a failure: a judged record turns into an avoided one.
    for _ in range(3):
        i = pick(lambda r: r.outcome.kind is OutcomeKind.JUDGED_FAILED)
        records[i] = records[i]._replace(outcome=TestOutcome.avoided())

    # Rows off the lattice: shifted speeds, and day rows at the daylight
    # counterparts of night configs that the day lattice lacks.
    for _ in range(4):
        r = records[pick(lambda r: r.config.light == DAY)]
        shifted = r.config._replace(vut_speed=r.config.vut_speed + 2.5)
        records.insert(rng.randrange(len(records) + 1), r._replace(config=shifted))
    orphans = [key for _, key in protocol.night_pairs if not isinstance(key, int)]
    for vehicle in ("V1", "V2", "V3"):
        for key in rng.sample(orphans, 3):
            code, light, overlap, speed, tg = key
            config = TestConfig(protocol.scenario(code), speed, tg, overlap, light)
            outcome = rng.choice(
                [TestOutcome.judged(), TestOutcome.impacted(speed / 2), TestOutcome.avoided()]
            )
            records.insert(rng.randrange(len(records) + 1), TestRecord(vehicle, config, outcome))

    # Duplicates, some with another outcome, later in the log.
    for _ in range(12):
        i = pick()
        copy = records[i]
        if rng.random() < 0.5:
            copy = copy._replace(outcome=TestOutcome.judged())
        records.insert(rng.randrange(i + 1, len(records) + 1), copy)

    if shape == "shuffled":
        rng.shuffle(records)
    elif shape == "interleaved":
        by_vehicle = {}
        for r in records:
            by_vehicle.setdefault(r.vehicle, []).append(r)
        queues = list(by_vehicle.values())
        records = []
        while queues:
            queue = queues.pop(0)
            records.append(queue.pop(0))
            if queue:
                queues.append(queue)
    return records


CASES = [(seed, shape) for seed in (1, 2) for shape in ("grouped", "shuffled", "interleaved")]


def _forms(protocol, records, tmp_path):
    """The log built from records, then read back from JSONL and from CSV."""
    log = CampaignLog(protocol=protocol, records=tuple(records))
    forms = [("records", log)]
    for suffix in (".jsonl", ".csv"):
        path = tmp_path / f"log{suffix}"
        write_log(log, path)
        assert path.read_bytes() == reference_write(records, suffix == ".csv")
        read = read_log(path, protocol)
        assert read.records == tuple(records)
        forms.append((suffix, read))
    return forms


@pytest.mark.parametrize("seed, shape", CASES)
def test_stages_match_the_record_walking_references(protocol, tmp_path, seed, shape):
    records = messy_records(protocol, seed, shape, complete=False)
    for name, log in _forms(protocol, records, tmp_path):
        diagnostics = validate_log(log)
        expected = reference_validate(log, records)
        assert [str(d) for d in diagnostics] == [str(d) for d in expected], name
        assert diagnostics == expected
        codes = {d.code for d in diagnostics}
        assert codes == {
            "unlicensed-config", "duplicate-record", "invalid-outcome", "executed-above-failure"
        }

        stats = completion_stats(log)
        got = {
            v: (s.expected, s.executed, s.judged, s.completion_percent)
            for v, s in stats.items()
        }
        assert got == reference_stats(log, records)
        assert list(got) == list(reference_stats(log, records))

        expanded = expand_night_judgements(log)
        expected_records = reference_expand(log, records)
        assert len(expected_records) > len(records)
        assert len(expanded.records) == len(expected_records)
        assert expanded.records == expected_records
        assert expand_night_judgements(expanded) is expanded
        for suffix in (".jsonl", ".csv"):
            path = tmp_path / f"expanded{suffix}"
            write_log(expanded, path)
            assert path.read_bytes() == reference_write(expected_records, suffix == ".csv")


def _assert_scores_agree(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.vehicle, a.scenario, a.light, a.configs_used, a.not_applicable) == (
            b.vehicle, b.scenario, b.light, b.configs_used, b.not_applicable
        )
        for x, y in ((a.fs, b.fs), (a.mps, b.mps)):
            assert (x is None) == (y is None)
            if x is not None:
                for field in ("nominal", "lower", "upper"):
                    assert math.isclose(
                        getattr(x, field), getattr(y, field), rel_tol=0, abs_tol=1e-12
                    )


# The reference weighs V1 1100 kg, V3 2300 kg and the others 1500 kg; score_campaign
# takes no mass.
MASSES = {"V1": 1100.0, "V3": 2300.0}


@pytest.mark.parametrize("seed, shape", CASES)
def test_scores_match_the_record_walking_reference(protocol, tmp_path, seed, shape):
    model = ImpactPowerModel()
    records = messy_records(protocol, seed, shape, complete=True)
    for _, log in _forms(protocol, records, tmp_path):
        expected = reference_score(log, records, model, MASSES)
        _assert_scores_agree(score_campaign(log, model, validate=False), expected)


def test_partial_instances_fail_scoring_as_in_the_reference(protocol, tmp_path):
    model = ImpactPowerModel()
    records = messy_records(protocol, 1, "shuffled", complete=False)
    log = CampaignLog(protocol=protocol, records=tuple(records))
    with pytest.raises(ScoringError) as expected:
        reference_score(log, records, model, MASSES)
    with pytest.raises(ScoringError) as got:
        score_campaign(log, model, validate=False)
    assert str(got.value) == str(expected.value)


def test_stages_of_a_read_log_build_no_records(protocol, tmp_path, monkeypatch):
    records = messy_records(protocol, 3, "grouped", complete=True)
    vehicles = [{"id": f"V{i}", "oracle": ORACLE} for i in range(3)]
    clean = simulate_campaign(protocol, load_simulation_spec({"seed": 4, "vehicles": vehicles}))
    calls = []
    original = TestRecord.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    for suffix in (".jsonl", ".csv"):
        messy = tmp_path / f"messy{suffix}"
        write_log(CampaignLog(protocol=protocol, records=tuple(records)), messy)
        path = tmp_path / f"clean{suffix}"
        write_log(clean, path)
        monkeypatch.setattr(TestRecord, "__init__", counting)
        common = ["--protocol", str(bundled_protocol_path())]
        weights = ["--weights", str(DATA_DIR / "weights_eu_example.json")]
        assert main(["validate", *common, "--log", str(messy)]) == 1
        assert main(["validate", *common, "--log", str(path)]) == 0
        assert main(["stats", *common, "--log", str(messy)]) == 0
        out = tmp_path / f"out{suffix}"
        assert main(["score", *common, "--log", str(path), *weights, "--out", str(out)]) == 0
        assert main(["compare", *common, "--log", str(path), *weights, "--out", str(out)]) == 0
        log = read_log(messy, protocol)
        assert log.size == len(records)
        validate_log(log)
        completion_stats(log)
        expanded = expand_night_judgements(log)
        assert expanded.size > log.size
        assert calls == []
        monkeypatch.setattr(TestRecord, "__init__", original)
        assert log.records == tuple(records)  # built on each read
        assert log.records is not log.records
        assert calls == []


@pytest.mark.parametrize("shape", ["grouped", "interleaved"])
def test_runs_hold_the_logs_own_vehicle_strings_and_rebuild_the_row_order(
    protocol, tmp_path, shape
):
    records = messy_records(protocol, 4, shape, complete=False)
    for _, log in _forms(protocol, records, tmp_path):
        keys = {vehicle: vehicle for vehicle in log.vehicles}
        assert all(keys[vehicle] is vehicle for vehicle in log.run_vehicles)
        assert sum(log.run_lengths) == log.size == len(records)
        rows = [(v, e[1], e[2], e[3]) for v, entries in log.runs() for e in entries]
        assert rows == [tuple(r) for r in records]
        expanded = expand_night_judgements(log)
        assert expanded.run_vehicles[: len(log.run_vehicles)] == log.run_vehicles
        assert list(expanded.runs())[: len(log.run_lengths)] == list(log.runs())
