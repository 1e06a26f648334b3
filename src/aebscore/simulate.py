"""Seeded campaign simulation against configurable braking oracles.

A simulation spec, loaded by ``inputs``, names the vehicle pool and gives
each vehicle a braking oracle: a deterministic rule mapping a test
configuration to avoided or impacted. Before a run, each oracle rule is
checked against the protocol: one that meets no configuration is refused.
The driver replays the full incremental procedure - pre-tests, speed
escalation, judged expansion above failures, and night tests judged where
the daylight counterpart failed. Randomized oracles derive all draws from
the seed and the configuration identity, so a seed fixes the log byte for
byte regardless of execution order: one draw per escalation series and one
per pre-tested (scenario, light), each made on first use and kept for
that vehicle.
"""

from __future__ import annotations

import random

from .campaign import CampaignLog, TestOutcome, judged_nights, run_scenario, series_key
from .inputs import _RULE_CONDITIONS, OracleSpec, SimulationSpec, SimulationSpecError
from .inputs import load_simulation_spec  # re-exported: the benchmark tracer wraps it here
from .protocol import LIGHTS, NIGHT, ProtocolDefinition, TestConfig


def _stable_rng(*parts) -> random.Random:
    # Imported here, not at the top: only a random oracle hashes, and hashlib
    # loads OpenSSL, which importing the CLI would then load for every command.
    # A repeated import statement costs about 0.1 us.
    import hashlib

    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def build_oracle(spec: OracleSpec, seed: int, vehicle: str):
    """Deterministic braking oracle for one vehicle."""

    def threshold_for(config: TestConfig) -> float | None:
        for rule in spec.rules:
            if rule.get("scenario") not in (None, config.code):
                continue
            if rule.get("light") not in (None, config.light):
                continue
            if rule.get("overlap") not in (None, config.overlap):
                continue
            if rule.get("tg_speed", "any") not in ("any", config.tg_speed):
                continue
            return rule.get("fail_at")
        return spec.fail_at

    pretest_failed: dict[tuple, bool] = {}  # (scenario, light) -> pre-test draw failed
    series_draws: dict[tuple, tuple] = {}  # series key -> (fail speed, fraction, respond)

    kind = spec.kind

    def oracle(config: TestConfig) -> TestOutcome:
        if kind == "always_avoid":
            return TestOutcome.avoided()
        if kind == "never_respond":
            return TestOutcome.impacted(config.vut_speed, intervention=False)
        if kind == "threshold":
            fail_at = threshold_for(config)
            if fail_at is None or config.vut_speed < fail_at:
                return TestOutcome.avoided()
            impact = max(min(spec.impact_fraction, 1.0), 1e-3) * config.vut_speed
            return TestOutcome.impacted(impact, intervention=spec.respond)
        # Random oracle: every draw is keyed by the series identity, or by
        # (scenario, light) for the pre-test, so it is made once per key and
        # the answer for a configuration never depends on visit order.
        pair = (config.code, config.light)
        failed = pretest_failed.get(pair)
        if failed is None:
            rng = _stable_rng(seed, vehicle, "pretest", *pair)
            failed = pretest_failed[pair] = rng.random() < spec.pretest_fail_prob
        if failed:
            return TestOutcome.impacted(config.vut_speed, intervention=False)
        series = series_key(config)
        draw = series_draws.get(series)
        if draw is None:
            rng = _stable_rng(seed, vehicle, *series)
            lattice = _series_speeds(config)
            fail_index = len(lattice) if rng.random() < spec.never_prob else rng.randrange(len(lattice))
            fraction = rng.uniform(*spec.impact_fraction_range)
            respond = rng.random() < spec.respond_prob
            fail_speed = lattice[fail_index] if fail_index < len(lattice) else None
            draw = series_draws[series] = (fail_speed, fraction, respond)
        fail_speed, fraction, respond = draw
        if fail_speed is None or config.vut_speed < fail_speed:
            return TestOutcome.avoided()
        return TestOutcome.impacted(
            max(fraction * config.vut_speed, 1e-3), intervention=respond
        )

    return oracle


def _series_speeds(config: TestConfig) -> tuple[float, ...]:
    settings = config.scenario.settings(config.light)
    for variant in settings.variants:
        if variant.tg_speed == config.tg_speed:
            return variant.speeds
    return (config.vut_speed,)


def _check_rules(protocol: ProtocolDefinition, spec: SimulationSpec) -> None:
    """Raise for an oracle rule that no configuration of ``protocol`` meets.

    A rule is compared as ``build_oracle`` compares it, with each licensed
    (scenario, light) and the overlaps and TG speeds of its settings; every
    lattice cell of those is a configuration. Each rule object is checked once.
    """
    matched = set()  # ids of the rules some configuration meets
    for i, (vehicle, oracle_spec) in enumerate(spec.vehicles):
        for j, rule in enumerate(oracle_spec.rules):
            if id(rule) in matched:
                continue
            code, light = rule.get("scenario"), rule.get("light")
            overlap, tg = rule.get("overlap"), rule.get("tg_speed", "any")
            for c, lt in protocol.instances:
                if code in (None, c) and light in (None, lt):
                    settings = protocol.scenario(c).settings(lt)
                    if overlap in (None, *settings.overlaps) and tg in (
                        "any", *(v.tg_speed for v in settings.variants)
                    ):
                        matched.add(id(rule))
                        break
            else:
                given = ", ".join(f"{k} {rule[k]!r}" for k in _RULE_CONDITIONS if k in rule)
                raise SimulationSpecError(
                    f"vehicles[{i}] ({vehicle!r}): oracle rules[{j}] matches no configuration"
                    f" of the protocol ({given or 'no condition'})"
                )


def simulate_campaign(
    protocol: ProtocolDefinition,
    spec: SimulationSpec,
    stop_on_impact: bool = True,
) -> CampaignLog:
    """Replay the incremental procedure for every vehicle in the spec."""
    _check_rules(protocol, spec)
    index, configs = protocol.index, protocol.configs
    night_pairs: dict[str, list[tuple]] = {}  # scenario -> its (night, day counterpart) pairs
    for pair in protocol.night_pairs:
        night_pairs.setdefault(configs[pair[0]].code, []).append(pair)
    entries = []  # (vehicle, (position, config, outcome, pre_test)) in row order
    avoided, judged_failed = TestOutcome.avoided(), TestOutcome.judged()  # one object each
    shared: dict[tuple, tuple] = {}  # (position, avoided?, pre_test) -> their rows' entry
    for vehicle, oracle_spec in spec.vehicles:
        oracle = build_oracle(oracle_spec, spec.seed, vehicle)
        for scenario in protocol.scenarios:
            day = []  # the scenario's day entries
            judged = ()
            for light in LIGHTS:
                if light not in scenario.lights:
                    continue
                if light == NIGHT:
                    pairs = night_pairs.get(scenario.code, ())
                    judged = {configs[night] for night in judged_nights(protocol, day, pairs)}
                for overlap in scenario.settings(light).overlaps:
                    for _, config, outcome, pre_test in run_scenario(
                        oracle,
                        scenario,
                        overlap,
                        light,
                        requires_pretest=scenario.requires_pretest,
                        vehicle=vehicle,
                        stop_on_impact=stop_on_impact,
                        judged=judged,
                    ):
                        pos = index[config.key()]
                        entry = (pos, config, outcome, pre_test)
                        if outcome is avoided or outcome is judged_failed:
                            entry = shared.setdefault((pos, outcome is avoided, pre_test), entry)
                        entries.append((vehicle, entry))
                        if light != NIGHT:
                            day.append(entry)
    return CampaignLog._of_entries(protocol, entries)
