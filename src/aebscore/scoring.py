"""Scenario-level scores: collision frequency and impact-power mitigation.

Both scores compare the vehicle against a hypothetical passive one that
collides at full test speed in every configuration. The frequency score is
the weighted fraction of configurations avoided; the mitigation power score
is one minus the ratio of realized to passive impact power. Judged failures
count as collisions at full passive power.

Each score carries an uncertainty envelope: the speed at which the vehicle
stopped avoiding is assumed 5 km/h lower or higher than measured, and the
score is re-evaluated under both assumptions. The envelope only moves for
series that demonstrated a capability boundary (at least one avoided test
below the failure); a series failed outright has no boundary inside the
tested range and stays fixed. Measured impact speeds shift with the assumed
failure speed, clamped to the physical range. The reported mean and standard
deviation summarize the three evaluations.

One kernel computes both scores and the envelope: it takes an instance's
configs with their series ids, outcomes, passive powers and power terms as
parallel sequences and makes one pass over them per shift. ``score_campaign``
feeds it slices of each vehicle's outcomes laid out like the protocol's
config table, and of the terms and powers ``impact.passive_powers`` builds
once per call; ``frequency_score`` and ``mitigation_power_score`` feed it
any config sequence with its outcome mapping and per-config weights. Within
one ``score_campaign`` call the kernel runs once per distinct input:
vehicles whose outcomes in an instance are the same objects (``read_log``
shares them between rows that read alike) share its result. The key is the instance and the identities of
its outcomes, not their values, which in a log built in code may be ``-0.0``
or ``nan``. Nothing is cached between calls.

A VUT or target mass scales a scenario's realized and passive powers alike,
so it cancels out of every score, and ``score_campaign`` uses the defaults.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .aggregate import ScoreValue
from .campaign import (
    CampaignLog,
    OutcomeKind,
    TestOutcome,
    series_key,
    validate_log,
)
from .impact import ImpactPowerModel, PowerTerms, config_powers, impact_power, passive_powers
from .protocol import LIGHTS, TestConfig

UNCERTAINTY_SHIFT_KMH = 5.0
_SHIFTS = (-UNCERTAINTY_SHIFT_KMH, 0.0, UNCERTAINTY_SHIFT_KMH)
# The kernel compares kinds with these: an Enum member lookup costs about 0.2 us.
_AVOIDED, _IMPACTED = OutcomeKind.AVOIDED, OutcomeKind.IMPACTED


class ScoringError(ValueError):
    """Raised when score inputs violate their preconditions."""


class ScenarioScore(NamedTuple):
    """FS and MPS of one vehicle in one (scenario, light) instance."""

    vehicle: str
    scenario: str
    light: str
    fs: ScoreValue | None
    mps: ScoreValue | None
    configs_used: int
    not_applicable: bool = False


def _kernel(
    configs: Sequence[TestConfig],
    series: Sequence[int],
    outcomes: Sequence[TestOutcome | None],
    config_weights: Mapping[TestConfig, float] | None,
    passive: Sequence[float] | None = None,
    terms: Sequence[PowerTerms] | None = None,
) -> tuple[ScoreValue, ScoreValue | None]:
    """FS and, given passive powers, MPS of one config sequence with their envelopes.

    ``series[i]`` numbers the escalation series of ``configs[i]`` from 0,
    ``outcomes[i]`` is its outcome (None when missing), ``passive[i]`` its
    passive impact power and ``terms[i]`` its ``impact.power_terms``. Each
    shift is one pass over the configs in order, accumulating exactly as the
    definitions read, so the results do not depend on how the configs were
    gathered. With no demonstrated boundary all shifts read alike: one runs.
    """
    if not configs:
        raise ScoringError("no configurations to score")
    weights = []
    for config, outcome in zip(configs, outcomes):
        if outcome is None:
            raise ScoringError(f"missing outcome for configuration {config.key()}")
        w = 1.0 if config_weights is None else float(config_weights.get(config, 1.0))
        if not w > 0:
            raise ScoringError(f"config weight must be > 0, got {w} for {config.key()}")
        weights.append(w)

    # Per series: the lowest non-avoided speed, and whether the series avoided
    # any test. Only such a demonstrated boundary moves with the shift.
    n_series = max(series) + 1
    failure: list[float | None] = [None] * n_series
    capable = [False] * n_series
    speeds = [c.vut_speed for c in configs]
    avoided = [o.kind is _AVOIDED for o in outcomes]
    for s, v, a in zip(series, speeds, avoided):
        if a:
            capable[s] = True
        elif failure[s] is None or v < failure[s]:
            failure[s] = v
    edges = [failure[s] if capable[s] else None for s in series]
    shifts = _SHIFTS if edges.count(None) < len(edges) else (0.0,)

    den = 0.0
    for w in weights:
        den += w
    if passive is not None:
        # Summed as ``realized`` is below, not with sum(): since Python 3.12
        # sum() compensates rounding, and a vehicle that never brakes must
        # get exactly realized == denominator, hence an MPS of 0, not -2e-16.
        denominator = 0.0
        for w, p in zip(weights, passive):
            denominator += w * p
        if denominator <= 0.0:
            raise ScoringError("passive impact power is zero across all configurations")

    fs_values, mps_values = [], []
    for shift in shifts:
        num = realized = 0.0
        for i, edge in enumerate(edges):
            v = speeds[i]
            hit = not avoided[i]
            if shift and edge is not None and (v < edge) != (v < edge + shift):
                hit = not hit
            if not hit:
                num += weights[i]
                continue
            if passive is None:
                continue
            outcome = outcomes[i]
            if outcome.kind is _IMPACTED:
                speed = outcome.impact_speed
                if speed is None:
                    raise ScoringError(
                        f"impacted record without impact_speed at {configs[i].key()}"
                    )
                if edge is not None:
                    speed = min(max(speed - shift, 0.0), v)
                realized += weights[i] * impact_power(terms[i], speed)
            else:
                realized += weights[i] * passive[i]
        fs_values.append(num / den)
        if passive is not None:
            mps_values.append(1.0 - realized / denominator)
    mid = len(shifts) // 2
    fs = ScoreValue(nominal=fs_values[mid], lower=fs_values[0], upper=fs_values[-1])
    if passive is None:
        return fs, None
    return fs, ScoreValue(nominal=mps_values[mid], lower=mps_values[0], upper=mps_values[-1])


def _sequence(
    configs: Sequence[TestConfig], outcomes: Mapping[TestConfig, TestOutcome]
) -> tuple[list[int], list[TestOutcome | None]]:
    """Series ids and outcomes of an arbitrary config sequence, for the kernel."""
    ids: dict[tuple, int] = {}
    series = [ids.setdefault(series_key(c), len(ids)) for c in configs]
    return series, [outcomes.get(c) for c in configs]


def frequency_score(
    configs: Sequence[TestConfig],
    outcomes: Mapping[TestConfig, TestOutcome],
    config_weights: Mapping[TestConfig, float] | None = None,
) -> ScoreValue:
    """Weighted fraction of configurations avoided, with its envelope."""
    series, ordered = _sequence(configs, outcomes)
    return _kernel(configs, series, ordered, config_weights)[0]


def mitigation_power_score(
    configs: Sequence[TestConfig],
    outcomes: Mapping[TestConfig, TestOutcome],
    model: ImpactPowerModel,
    vut_mass: float,
    config_weights: Mapping[TestConfig, float] | None = None,
) -> ScoreValue:
    """One minus the ratio of realized to passive impact power, with envelope.

    Avoided configurations contribute zero power; judged failures contribute
    the full passive power (no braking assumed); impacts contribute the power
    at the measured impact speed, shifted with the assumed failure speed and
    clamped to [0, test speed].
    """
    series, ordered = _sequence(configs, outcomes)
    terms, passive = config_powers(model, configs, vut_mass)
    return _kernel(configs, series, ordered, config_weights, passive, terms)[1]


def score_campaign(
    log: CampaignLog,
    model: ImpactPowerModel,
    validate: bool = True,
) -> list[ScenarioScore]:
    """Score every vehicle on every (scenario, light) instance of the protocol,
    in ``vehicle_sort_key`` order.

    Instances the protocol does not license come back marked not applicable.
    A licensed instance with no records at all means the vehicle never got
    past the scenario's entry bar and scores zero. Partial coverage of a
    licensed instance is an error: score either everything or nothing.
    Without validation, a later duplicate record replaces an earlier one and
    records off the protocol's lattice are not scored, though they still
    count as coverage of their instance.
    """
    if validate:
        diagnostics = validate_log(log)
        if diagnostics:
            raise ScoringError(
                f"log has {len(diagnostics)} validation finding(s); first: {diagnostics[0]}"
            )
    protocol = log.protocol
    size = len(protocol.configs)
    scores: list[ScenarioScore] = []
    terms = None
    # (instance start, identities of its outcomes) -> (fs, mps). The log holds
    # every outcome for the call, so an identity names one object throughout.
    scored: dict[tuple, tuple] = {}
    for vehicle in log.vehicle_ids():
        outcomes: list[TestOutcome | None] = [None] * size
        off_lattice = set()
        for pos, config, outcome, _ in log.vehicles[vehicle]:
            if pos is None:
                off_lattice.add((config.code, config.light))
            else:  # a later duplicate replaces an earlier record
                outcomes[pos] = outcome
        for spec in protocol.scenarios:
            for light in LIGHTS:
                part = protocol.instances.get((spec.code, light))
                if part is None:
                    scores.append(
                        ScenarioScore(vehicle, spec.code, light, None, None, 0, True)
                    )
                    continue
                instance_outcomes = outcomes[part.start:part.stop]
                untested = instance_outcomes.count(None) == len(instance_outcomes)
                if untested and (spec.code, light) not in off_lattice:
                    scores.append(
                        ScenarioScore(
                            vehicle, spec.code, light, ScoreValue.zero(), ScoreValue.zero(), 0
                        )
                    )
                    continue
                key = (part.start, *map(id, instance_outcomes))
                result = scored.get(key)
                if result is None:
                    if terms is None:
                        terms, by_config, _ = passive_powers(model, protocol)
                    result = scored[key] = _kernel(
                        part.configs, part.series, instance_outcomes, None,
                        by_config[part.start:part.stop], terms[part.start:part.stop],
                    )
                fs, mps = result
                scores.append(
                    ScenarioScore(vehicle, spec.code, light, fs, mps, len(part.configs))
                )
    return scores
