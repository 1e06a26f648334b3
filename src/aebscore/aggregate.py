"""Scenario-group aggregation under statistical weights and relative scores.

Scenario-level scores roll up to scenario-group scores through a weight
table that encodes how relevant each (scenario, light) instance is in a
region's accident statistics. Frequency scores aggregate as a weighted
average; mitigation scores additionally weight each instance by its passive
impact power, so scenarios with more energy at stake count for more. The
table is loaded by ``inputs``; it is checked against the protocol here.

Both read a vehicle's scores by (scenario, light), indexed once per vehicle,
and give a ``ScoreValue``. That class lives here, where the weighted mean
builds it, and ``scoring`` imports it from here.

Relative scores compare two vehicles: their score ratio minus one. Ranked
pairwise matrices of these relativities are the campaign's primary output,
each row one ``relativity_row`` call.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .campaign import vehicle_sort_key
from .inputs import Instance, WeightTable
from .inputs import load_weight_table  # re-exported: the benchmark tracer wraps it here
from .protocol import ProtocolDefinition, ScenarioGroup

if TYPE_CHECKING:  # scoring imports this module, for ScoreValue
    from .scoring import ScenarioScore

METRIC_FREQ = "freq"
METRIC_MP = "MP"
METRICS = (METRIC_FREQ, METRIC_MP)


class AggregationError(ValueError):
    """Raised when aggregation preconditions fail."""


def check_weight_table(table: WeightTable, protocol: ProtocolDefinition) -> list[str]:
    """Instances referenced by the table that the protocol does not license, and
    group instances whose scenario the protocol puts in another group."""
    licensed = set(protocol.licensed_pairs())
    problems = [
        f"weighted instance {i} is not licensed by the protocol"
        for i in table.weights if i not in licensed
    ]
    for group, instances in table.groups.items():
        for instance in instances:
            if instance not in licensed:
                problems.append(
                    f"group {group.value} instance {instance} is not licensed by the protocol"
                )
            elif (own := protocol.scenario(instance[0]).group) is not group:
                problems.append(f"group {group.value} instance {instance} belongs to {own.value}")
            if instance not in table.weights:
                problems.append(f"group {group.value} instance {instance} has no weight")
    return problems


class ScoreValue(NamedTuple):
    """A score with its evaluations at the shifted failure speeds.

    ``lower``/``upper`` are the re-evaluations with the failure speed moved
    5 km/h down/up; they bracket the nominal value. ``mean`` and ``std`` are
    the average and population standard deviation of the three evaluations.
    """

    nominal: float
    lower: float
    upper: float

    @property
    def mean(self) -> float:
        return (self.lower + self.nominal + self.upper) / 3.0

    @property
    def std(self) -> float:
        if self.lower == self.nominal == self.upper:
            return 0.0
        m = self.mean
        return math.sqrt(
            ((self.lower - m) ** 2 + (self.nominal - m) ** 2 + (self.upper - m) ** 2) / 3.0
        )

    @staticmethod
    def zero() -> "ScoreValue":
        return ScoreValue(0.0, 0.0, 0.0)

    @staticmethod
    def constant(value: float) -> "ScoreValue":
        return ScoreValue(value, value, value)


class GroupScore(NamedTuple):
    """One vehicle's aggregated scores for a scenario group under one region."""

    vehicle: str
    group: ScenarioGroup
    region: str
    fs: ScoreValue
    mps: ScoreValue


def _applicable(
    scores: Mapping[Instance, ScenarioScore], table: WeightTable, group: ScenarioGroup
) -> Iterator[tuple[Instance, ScenarioScore]]:
    """The group's instances with their scores, not-applicable ones left out."""
    for instance in table.groups.get(group, ()):
        score = scores.get(instance)
        if score is None:
            raise AggregationError(f"no scenario score for instance {instance}")
        if not score.not_applicable:
            yield instance, score


def aggregate_fs(
    scores: Mapping[Instance, ScenarioScore], table: WeightTable, group: ScenarioGroup
) -> ScoreValue:
    """Weighted average of one vehicle's scenario frequency scores over a group.

    ``scores`` maps (scenario, light) to the vehicle's score, as ``cli.cmd_compare`` indexes it.

    Not-applicable instances drop out and their weight leaves the
    normalization, so the result stays a convex combination of what was
    actually testable.
    """
    terms = [(table.weight(i), s.fs) for i, s in _applicable(scores, table, group)]
    return _weighted_mean(terms, "applicable", group, table)


def aggregate_mps(
    scores: Mapping[Instance, ScenarioScore], table: WeightTable, group: ScenarioGroup,
    passive_powers: Mapping[Instance, float],
) -> ScoreValue:
    """Passive-power-weighted average of one vehicle's scenario mitigation scores,
    indexed as ``aggregate_fs`` reads them.

    Each instance's statistical weight is multiplied by its passive impact
    power, so mitigation in high-energy scenarios dominates the group score.
    """
    terms: list[tuple[float, ScoreValue]] = []
    for instance, score in _applicable(scores, table, group):
        power = passive_powers.get(instance)
        if power is None or power <= 0:
            raise AggregationError(f"passive power must be > 0 for instance {instance}")
        terms.append((table.weight(instance) * power, score.mps))
    return _weighted_mean(terms, "power", group, table)


def _weighted_mean(
    terms: list[tuple[float, ScoreValue]], kind: str, group: ScenarioGroup, table: WeightTable
) -> ScoreValue:
    """Weighted mean of each ScoreValue field over (weight, value) terms.

    Summed left to right, not with sum(): since Python 3.12 sum() compensates
    rounding, which moves last bits and, at a rounding boundary, a printed
    percentage, so reports would differ between Python versions.
    """
    total = nominal = lower = upper = 0.0
    for w, s in terms:
        total += w
        nominal += w * s.nominal
        lower += w * s.lower
        upper += w * s.upper
    if total <= 0:
        raise AggregationError(
            f"group {group.value} has zero total {kind} weight in region {table.region!r}"
        )
    return ScoreValue(nominal=nominal / total, lower=lower / total, upper=upper / total)


_NEGATIVE = "relativity requires non-negative scores"


def relativity_row(score_x: float, scores: Iterable[float]) -> tuple[float, ...]:
    """Relative performance of x against each y in ``scores``: score ratio minus one.

    Both zero compares equal (0); a positive score against a zero one is
    infinitely better (inf); a zero score against a positive one is a full
    shortfall (-1, rendered as -100%). Every score must be non-negative; the
    callers check. x against itself is 0.
    """
    if score_x == 0:
        return tuple([0.0 if y == 0 else -1.0 for y in scores])
    return tuple([score_x / y - 1.0 if y else math.inf for y in scores])


class RelativityMatrix(NamedTuple):
    """Ranked pairwise relative-score matrix for one metric, group, region."""

    metric: str
    group: ScenarioGroup
    region: str
    order: tuple[str, ...]  # vehicles, best performer first
    scores: Mapping[str, float]
    rows: tuple[tuple[float, ...], ...]  # rows[i][j]: order[i] relative to order[j]

    @property
    def cells(self) -> Mapping[tuple[str, str], float]:
        """Read-only (x, y) -> relativity map, built from ``rows`` on each read."""
        order = self.order
        return MappingProxyType(
            {(x, y): value for x, row in zip(order, self.rows) for y, value in zip(order, row)}
        )

    def cell(self, x: str, y: str) -> float:
        if x not in self.scores or y not in self.scores:
            raise KeyError((x, y))
        return self.rows[self.order.index(x)][self.order.index(y)]


def build_matrix(group_scores: Sequence[GroupScore], metric: str) -> RelativityMatrix:
    """Rank vehicles by nominal score and compute one row of relativities per vehicle."""
    if metric not in METRICS:
        raise AggregationError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if not group_scores:
        raise AggregationError("no group scores to compare")
    groups = {gs.group for gs in group_scores}
    regions = {gs.region for gs in group_scores}
    if len(groups) != 1 or len(regions) != 1:
        raise AggregationError("group scores must share one group and one region")
    field = "fs" if metric == METRIC_FREQ else "mps"
    nominal = {gs.vehicle: getattr(gs, field).nominal for gs in group_scores}
    order = tuple(sorted(nominal, key=lambda v: (-nominal[v], vehicle_sort_key(v))))
    values = [nominal[v] for v in order]
    if len(values) > 1 and min(values) < 0:  # a lone vehicle has only its diagonal
        raise AggregationError(_NEGATIVE)
    rows = tuple([relativity_row(x, values) for x in values])
    return RelativityMatrix(metric, groups.pop(), regions.pop(), order, nominal, rows)
