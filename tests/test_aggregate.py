import json
import math
import random

import pytest

from aebscore.aggregate import (
    AggregationError,
    GroupScore,
    aggregate_fs,
    aggregate_mps,
    build_matrix,
    check_weight_table,
    relativity_row,
)
from aebscore.inputs import MAX_REGION_BYTES, WeightTableError, load_weight_table
from aebscore.protocol import ScenarioGroup
from aebscore.scoring import ScenarioScore, ScoreValue


def _score(code, light, fs, mps=None, na=False):
    if na:
        return ScenarioScore("V", code, light, None, None, 0, True)
    return ScenarioScore(
        "V", code, light, ScoreValue.constant(fs), ScoreValue.constant(mps if mps is not None else fs), 1
    )


def _index(scores):
    """A vehicle's scores by (scenario, light) instance, as compare builds them."""
    return {(s.scenario, s.light): s for s in scores}


def _table(weights, group=ScenarioGroup.C2VRU, region="EU"):
    return load_weight_table(
        {
            "region": region,
            "weights": [
                {"scenario": code, "light": light, "w": w} for (code, light), w in weights.items()
            ],
            "groups": {
                group.value: [
                    {"scenario": code, "light": light} for (code, light) in weights
                ]
            },
        }
    )


def test_aggregate_fs_mean_of_two():
    table = _table({("A", "day"): 0.5, ("B", "day"): 0.5})
    scores = [_score("A", "day", 0.8), _score("B", "day", 0.6)]
    assert aggregate_fs(_index(scores), table, ScenarioGroup.C2VRU).nominal == pytest.approx(0.7)


def test_aggregate_fs_single_scenario_identity():
    table = _table({("A", "day"): 2.0})
    scores = [_score("A", "day", 0.37)]
    assert aggregate_fs(_index(scores), table, ScenarioGroup.C2VRU).nominal == pytest.approx(0.37)


def test_aggregate_fs_unnormalized_weights():
    table = _table({("A", "day"): 2.0, ("B", "day"): 1.0, ("C", "day"): 1.0})
    scores = [_score("A", "day", 1.0), _score("B", "day", 0.0), _score("C", "day", 0.0)]
    assert aggregate_fs(_index(scores), table, ScenarioGroup.C2VRU).nominal == pytest.approx(0.5)


def test_aggregate_excludes_na_and_renormalizes():
    table = _table({("A", "day"): 0.5, ("B", "day"): 0.5})
    scores = [_score("A", "day", 0.8), _score("B", "day", 0, na=True)]
    assert aggregate_fs(_index(scores), table, ScenarioGroup.C2VRU).nominal == pytest.approx(0.8)


def test_aggregate_zero_applicable_weight_rejected():
    table = _table({("A", "day"): 1.0, ("B", "day"): 0.0})
    scores = [_score("A", "day", 0, na=True), _score("B", "day", 0.5)]
    with pytest.raises(AggregationError, match="zero total applicable weight"):
        aggregate_fs(_index(scores), table, ScenarioGroup.C2VRU)


def test_aggregate_missing_instance_rejected():
    table = _table({("A", "day"): 1.0})
    with pytest.raises(AggregationError, match="no scenario score"):
        aggregate_fs({}, table, ScenarioGroup.C2VRU)


def test_aggregate_fs_convex_combination_bounds():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 6)
        weights = {(f"S{i}", "day"): rng.uniform(0.1, 5.0) for i in range(n)}
        table = _table(weights)
        values = [rng.random() for _ in range(n)]
        scores = [_score(f"S{i}", "day", values[i]) for i in range(n)]
        got = aggregate_fs(_index(scores), table, ScenarioGroup.C2VRU).nominal
        assert min(values) - 1e-12 <= got <= max(values) + 1e-12


def test_aggregate_mps_power_weighting():
    table = _table({("A", "day"): 1.0, ("B", "day"): 1.0})
    scores = [_score("A", "day", 0, mps=1.0), _score("B", "day", 0, mps=0.0)]
    powers = {("A", "day"): 3.0, ("B", "day"): 1.0}
    assert aggregate_mps(_index(scores), table, ScenarioGroup.C2VRU, powers).nominal == pytest.approx(0.75)


def test_aggregate_mps_equal_powers_is_plain_mean():
    table = _table({("A", "day"): 1.0, ("B", "day"): 1.0})
    scores = [_score("A", "day", 0, mps=0.9), _score("B", "day", 0, mps=0.1)]
    powers = {("A", "day"): 7.0, ("B", "day"): 7.0}
    assert aggregate_mps(_index(scores), table, ScenarioGroup.C2VRU, powers).nominal == pytest.approx(0.5)


def test_aggregate_mps_constant_scores():
    table = _table({("A", "day"): 1.0, ("B", "day"): 2.0})
    scores = [_score("A", "day", 0, mps=0.42), _score("B", "day", 0, mps=0.42)]
    powers = {("A", "day"): 5.0, ("B", "day"): 1.0}
    assert aggregate_mps(_index(scores), table, ScenarioGroup.C2VRU, powers).nominal == pytest.approx(0.42)


def test_aggregate_mps_requires_positive_power():
    table = _table({("A", "day"): 1.0})
    scores = [_score("A", "day", 0, mps=0.5)]
    with pytest.raises(AggregationError, match="passive power"):
        aggregate_mps(_index(scores), table, ScenarioGroup.C2VRU, {("A", "day"): 0.0})


def test_relativity_values():
    assert relativity_row(0.37, (0.37,)) == (0.0,)
    assert relativity_row(0.5, (0.4,)) == pytest.approx((0.25,))
    assert relativity_row(0.0, (0.0, 0.3)) == (0.0, -1.0)
    assert relativity_row(0.3, (0.0,)) == (math.inf,)
    with pytest.raises(AggregationError, match="^relativity requires non-negative scores$"):
        build_matrix(_group_scores({"1": -0.1, "2": 0.5}), "freq")


def _group_scores(values, region="EU", group=ScenarioGroup.C2C):
    return [
        GroupScore(v, group, region, ScoreValue.constant(s), ScoreValue.constant(s))
        for v, s in values.items()
    ]


def test_build_matrix_ranking_and_cells():
    matrix = build_matrix(_group_scores({"1A": 0.4, "7B": 0.5, "3": 0.0}), "freq")
    assert matrix.order == ("7B", "1A", "3")
    assert matrix.cell("7B", "1A") == pytest.approx(0.25)
    assert matrix.cell("1A", "7B") == pytest.approx(-0.2)
    assert matrix.cell("3", "7B") == -1.0
    assert matrix.cell("7B", "3") == math.inf
    assert matrix.cell("3", "3") == 0.0


def test_build_matrix_tie_break_by_natural_id():
    matrix = build_matrix(_group_scores({"10": 0.5, "2": 0.5, "1B": 0.5}), "freq")
    assert matrix.order == ("1B", "2", "10")
    assert all(matrix.cell(x, y) == 0.0 for x in matrix.order for y in matrix.order)


def test_build_matrix_reciprocity_and_rank_consistency():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 8)
        values = {f"{i}": rng.choice([0.0, rng.random()]) for i in range(1, n + 1)}
        matrix = build_matrix(_group_scores(values), "MP")
        for i, x in enumerate(matrix.order):
            for j, y in enumerate(matrix.order):
                cell = matrix.cell(x, y)
                if x == y:
                    assert cell == 0.0
                    continue
                if math.isfinite(cell) and math.isfinite(matrix.cell(y, x)):
                    assert abs((1.0 + cell) * (1.0 + matrix.cell(y, x)) - 1.0) < 1e-9
                if cell > 0:
                    assert i < j  # better performer comes first


def test_build_matrix_scale_invariance():
    values = {"a": 0.1, "b": 0.25, "c": 0.4}
    base = build_matrix(_group_scores(values), "freq")
    scaled = build_matrix(_group_scores({k: 7.3 * v for k, v in values.items()}), "freq")
    assert base.order == scaled.order
    for x in base.order:
        for y in base.order:
            assert math.isclose(
                base.cell(x, y), scaled.cell(x, y), rel_tol=1e-12, abs_tol=1e-12
            )


def test_build_matrix_rejects_mixed_inputs():
    a = _group_scores({"x": 0.5}, region="EU")
    b = _group_scores({"y": 0.5}, region="US")
    with pytest.raises(AggregationError, match="one group and one region"):
        build_matrix(a + b, "freq")
    with pytest.raises(AggregationError, match="unknown metric"):
        build_matrix(a, "frequency")


def test_weight_table_validation_errors():
    with pytest.raises(WeightTableError, match="region"):
        load_weight_table({"weights": [], "groups": {}})
    with pytest.raises(WeightTableError, match="'w'"):
        load_weight_table(
            {
                "region": "EU",
                "weights": [{"scenario": "A", "light": "day", "w": -1}],
                "groups": {"C2C": [{"scenario": "A", "light": "day"}]},
            }
        )
    with pytest.raises(WeightTableError, match="sum to zero"):
        load_weight_table(
            {
                "region": "EU",
                "weights": [{"scenario": "A", "light": "day", "w": 0}],
                "groups": {"C2C": [{"scenario": "A", "light": "day"}]},
            }
        )


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_weight_table_rejects_non_finite_weight(bad):
    with pytest.raises(WeightTableError, match=r"weights\[1\]: 'w' must be a finite number"):
        load_weight_table(
            {
                "region": "EU",
                "weights": [
                    {"scenario": "A", "light": "day", "w": 1},
                    {"scenario": "B", "light": "day", "w": bad},
                ],
                "groups": {"C2C": [{"scenario": "A", "light": "day"}]},
            }
        )


def test_bundled_weight_tables_cover_protocol(protocol):
    from aebscore.protocol import bundled_protocol_path

    data_dir = bundled_protocol_path().parent
    for name in ("weights_eu_example.json", "weights_us_example.json"):
        table = load_weight_table(data_dir / name)
        assert check_weight_table(table, protocol) == []
        covered = {i for members in table.groups.values() for i in members}
        assert covered == set(protocol.licensed_pairs())


def test_check_weight_table_reports_unlicensed(protocol):
    table = _table({("CPLAs", "day"): 1.0})
    problems = check_weight_table(table, protocol)
    assert any("not licensed" in p for p in problems)


def test_check_weight_table_reports_an_instance_of_another_group(protocol):
    # A C2VRU scenario weighed into C2C would let the VUT mass change the group score.
    table = _table({("CCRs", "day"): 1.0, ("CPNAO", "day"): 1.0}, group=ScenarioGroup.C2C)
    assert check_weight_table(table, protocol) == [
        "group C2C instance ('CPNAO', 'day') belongs to C2VRU"
    ]


def test_weight_table_errors_of_a_file_name_it(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"weights": [], "groups": {}}', encoding="utf-8")
    with pytest.raises(WeightTableError) as raised:
        load_weight_table(path)
    assert str(raised.value) == f"weight table {path}: 'region' must be a non-empty string"
    with pytest.raises(WeightTableError) as raised:  # a mapping has no file to name
        load_weight_table({"weights": [], "groups": {}})
    assert str(raised.value) == "'region' must be a non-empty string"


def test_weight_table_rejects_a_group_member_given_twice(tmp_path):
    # Counted twice, the member would weigh double in the group's weighted mean.
    doc = {
        "region": "EU",
        "weights": [{"scenario": s, "light": "day", "w": 1} for s in ("CCRs", "CCRm")],
        "groups": {
            "C2C": [
                {"scenario": "CCRs", "light": "day"},
                {"scenario": "CCRm", "light": "day"},
                {"scenario": "CCRs", "light": "day"},
            ]
        },
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(WeightTableError) as raised:
        load_weight_table(path)
    assert str(raised.value) == (
        f"weight table {path}: groups.C2C[2]: duplicate instance ('CCRs', 'day')"
    )
    doc["groups"]["C2C"].pop()
    assert load_weight_table(doc).groups[ScenarioGroup.C2C] == (("CCRs", "day"), ("CCRm", "day"))


def test_the_region_limit_leaves_every_report_file_name_within_255_bytes():
    from aebscore.aggregate import METRICS, RelativityMatrix
    from aebscore.protocol import LIGHTS
    from aebscore.report import EXTENSIONS, matrix_table, score_title

    region = "R" * MAX_REGION_BYTES
    titles = [score_title(m, light, region) for m in METRICS for light in LIGHTS]
    titles += [
        matrix_table(RelativityMatrix(m, g, region, ("V",), {"V": 1.0}, ((0.0,),))).title
        for m in METRICS for g in ScenarioGroup
    ]
    names = [f"{t.lower()}.{ext}".encode() for t in titles for ext in EXTENSIONS.values()]
    assert max(len(name) for name in names) == 255


@pytest.mark.parametrize(
    "region, size",
    [("R" * 228, None), ("R" * 229, 229), ("ß" * 114, None), ("ß" * 115, 230), ("é" * 115, 230)],
)
def test_a_region_longer_than_a_report_file_name_allows_is_rejected(region, size):
    # File names spell the region region.upper().lower(): "ß" becomes "ss".
    doc = {
        "region": region,
        "weights": [{"scenario": "CPLA", "light": "day", "w": 1}],
        "groups": {"C2VRU": [{"scenario": "CPLA", "light": "day"}]},
    }
    if size is None:
        assert load_weight_table(doc).region == region
    else:
        with pytest.raises(WeightTableError) as raised:
            load_weight_table(doc)
        assert str(raised.value) == (
            f"region is {size} bytes in a report file name, more than 228"
        )


def test_aggregate_sums_left_to_right_on_every_python():
    # Left to right, 1 + 1e16 - 1e16 is 0: 1e16 + 1 rounds back to 1e16.
    # Since Python 3.12, sum() compensates rounding and gives 1, so a report
    # would print differently depending on the interpreter.
    weights = {("A", "day"): 1.0, ("B", "day"): 1.0, ("C", "day"): 1.0}
    scores = [_score("A", "day", 1.0), _score("B", "day", 1e16), _score("C", "day", -1e16)]
    for aggregate in (aggregate_fs, aggregate_mps):
        args = (_index(scores), _table(weights), ScenarioGroup.C2VRU)
        if aggregate is aggregate_mps:
            args += (dict.fromkeys(weights, 1.0),)
        assert aggregate(*args).nominal == 0.0
