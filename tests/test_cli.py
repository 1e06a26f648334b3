import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aebscore
from aebscore import cli
from aebscore.cli import main
from aebscore.protocol import bundled_protocol_path
from aebscore.inputs import load_simulation_spec

DATA_DIR = bundled_protocol_path().parent
FIXTURE_SIM = Path(__file__).parent / "data" / "fixture_sim.json"


@pytest.fixture(scope="module")
def fixture_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim") / "campaign.jsonl"
    code = main(
        [
            "simulate",
            "--protocol",
            str(bundled_protocol_path()),
            "--oracle",
            str(FIXTURE_SIM),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


def _protocol_args():
    return ["--protocol", str(bundled_protocol_path())]


def test_simulate_is_seed_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        assert (
            main(
                [
                    "simulate",
                    *_protocol_args(),
                    "--oracle",
                    str(FIXTURE_SIM),
                    "--seed",
                    "99",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_validate_clean_log(fixture_log, capsys):
    assert main(["validate", *_protocol_args(), "--log", str(fixture_log)]) == 0
    assert capsys.readouterr().out == ""


def test_validate_reports_findings(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    lines = [
        {"vehicle": "V", "scenario": "CCRs", "light": "day", "vut_speed": 75,
         "tg_speed": None, "overlap": 100, "outcome": "impacted",
         "impact_speed": 70, "intervention": False},
        {"vehicle": "V", "scenario": "CCRs", "light": "day", "vut_speed": 95,
         "tg_speed": None, "overlap": 100, "outcome": "avoided"},
    ]
    bad.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    assert main(["validate", *_protocol_args(), "--log", str(bad)]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert "executed-above-failure" in out[0]
    assert "vut=95" in out[0]


def test_validate_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", *_protocol_args(), "--log", str(tmp_path / "nope.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_stats_output(fixture_log, capsys):
    assert main(["stats", *_protocol_args(), "--log", str(fixture_log)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "vehicle,expected,executed,judged,completion_percent"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["1A", "2", "6", "7B"]
    assert all(r[1] == "224" for r in rows)
    assert all(r[4] == "100%" for r in rows)  # replayed logs always complete


def test_score_writes_eight_tables_per_two_regions(fixture_log, tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(
        [
            "score",
            *_protocol_args(),
            "--log",
            str(fixture_log),
            "--weights",
            str(DATA_DIR / "weights_eu_example.json"),
            "--weights",
            str(DATA_DIR / "weights_us_example.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert files == [
        "freq_score_mean_day_eu.csv",
        "freq_score_mean_day_us.csv",
        "freq_score_mean_night_eu.csv",
        "freq_score_mean_night_us.csv",
        "mit_pow_day_eu.csv",
        "mit_pow_day_us.csv",
        "mit_pow_night_eu.csv",
        "mit_pow_night_us.csv",
    ]
    day_eu = (out / "freq_score_mean_day_eu.csv").read_text()
    assert "CPLAs,NA,NA,NA,NA" in day_eu
    night_eu = (out / "freq_score_mean_night_eu.csv").read_text()
    assert "CBNA,NA,NA,NA,NA" in night_eu


def test_score_builds_each_grid_once_and_titles_it_per_region(
    fixture_log, tmp_path, monkeypatch
):
    calls = []
    build = cli.score_table
    monkeypatch.setattr(cli, "score_table", lambda *a: calls.append(a[2:4]) or build(*a))
    out = tmp_path / "reports"
    args = ["score", *_protocol_args(), "--log", str(fixture_log), "--out", str(out)]
    for region in ("eu", "us"):
        args += ["--weights", str(DATA_DIR / f"weights_{region}_example.json")]
    assert main([*args, "--format", "csv,markdown,html"]) == 0
    assert sorted(calls) == [("MP", "day"), ("MP", "night"), ("freq", "day"), ("freq", "night")]
    assert len(list(out.iterdir())) == 24
    for eu in out.glob("*_eu.*"):
        us = eu.with_name(eu.name.replace("_eu.", "_us."))
        title = eu.stem.upper()
        assert title in eu.read_text()
        assert us.read_text() == eu.read_text().replace(title, us.stem.upper())


@pytest.mark.parametrize("command", ["score", "compare"])
def test_a_format_given_twice_is_written_once(tmp_path, capsys, monkeypatch, command):
    rendered = []
    render = cli.render
    monkeypatch.setattr(cli, "render", lambda t, fmt: rendered.append(fmt) or render(t, fmt))
    args = [command, *_protocol_args(), "--log", str(GOLDEN_LOG)]
    args += ["--weights", str(DATA_DIR / "weights_eu_example.json")]
    runs = {}  # formats -> (formats rendered, file names printed, tree written)
    for formats in ("csv", "csv,csv", "markdown,csv, markdown"):
        out = tmp_path / str(len(runs))
        rendered.clear()
        assert main([*args, "--format", formats, "--out", str(out)]) == 0
        printed = [Path(line).name for line in capsys.readouterr().out.splitlines()]
        tree = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(set(printed)) == len(printed) == len(rendered) == len(tree)
        runs[formats] = (rendered[:], printed, tree)
    assert runs["csv,csv"] == runs["csv"]
    formats, _, tree = runs["markdown,csv, markdown"]
    assert formats == ["markdown", "csv"] * len(runs["csv"][0])  # in the order first given
    assert {name: data for name, data in tree.items() if name.endswith(".csv")} == runs["csv"][2]


def test_compare_writes_matrices(fixture_log, tmp_path):
    out = tmp_path / "matrices"
    code = main(
        [
            "compare",
            *_protocol_args(),
            "--log",
            str(fixture_log),
            "--weights",
            str(DATA_DIR / "weights_eu_example.json"),
            "--out",
            str(out),
            "--format",
            "csv,markdown,html",
        ]
    )
    assert code == 0
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert csvs == [
        "rel_freq_c2c_eu.csv",
        "rel_freq_c2o_eu.csv",
        "rel_freq_c2vru_eu.csv",
        "rel_mp_c2c_eu.csv",
        "rel_mp_c2o_eu.csv",
        "rel_mp_c2vru_eu.csv",
    ]
    assert len(list(out.glob("*.md"))) == 6
    assert len(list(out.glob("*.html"))) == 6
    c2c = (out / "rel_freq_c2c_eu.csv").read_text()
    # the never-responding vehicle scores zero: only -100% in its row
    row_2 = next(line for line in c2c.splitlines() if line.startswith("2,"))
    cells = row_2.split(",")[1:]
    assert set(cells) == {"-100.00%", "0.00%"}


def test_compare_two_groups_two_regions_gives_eight_matrices(fixture_log, tmp_path):
    # weight tables restricted to two groups: 2 metrics x 2 groups x 2 regions
    out = tmp_path / "matrices"
    table_paths = []
    for region in ("EU", "US"):
        source = json.loads((DATA_DIR / f"weights_{region.lower()}_example.json").read_text())
        source["groups"].pop("C2O")
        source["weights"] = [
            w for w in source["weights"] if w["scenario"] not in ("Pallets", "Tire")
        ]
        path = tmp_path / f"w_{region}.json"
        path.write_text(json.dumps(source))
        table_paths += ["--weights", str(path)]
    code = main(
        ["compare", *_protocol_args(), "--log", str(fixture_log), *table_paths, "--out", str(out)]
    )
    assert code == 0
    assert len(list(out.glob("*.csv"))) == 8


def test_compare_single_vehicle_single_cell(tmp_path):
    spec = {
        "seed": 3,
        "vehicles": [{"id": "solo", "mass": 1500, "oracle": {"type": "always_avoid"}}],
    }
    oracle = tmp_path / "solo.json"
    oracle.write_text(json.dumps(spec))
    log = tmp_path / "solo.jsonl"
    assert main(["simulate", *_protocol_args(), "--oracle", str(oracle), "--out", str(log)]) == 0
    out = tmp_path / "m"
    assert (
        main(
            [
                "compare",
                *_protocol_args(),
                "--log",
                str(log),
                "--weights",
                str(DATA_DIR / "weights_eu_example.json"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    text = (out / "rel_freq_c2c_eu.csv").read_text()
    assert text.splitlines()[2] == "solo,0.00%"


def test_score_exits_1_on_validation_findings(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        json.dumps(
            {
                "vehicle": "V",
                "scenario": "CCRs",
                "light": "day",
                "vut_speed": 55,
                "overlap": 100,
                "outcome": "judged_failed",
                "impact_speed": 10,
            }
        )
        + "\n"
    )
    code = main(
        [
            "score",
            *_protocol_args(),
            "--log",
            str(bad),
            "--weights",
            str(DATA_DIR / "weights_eu_example.json"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 1
    assert "invalid-outcome" in capsys.readouterr().err


def test_score_requires_weights(fixture_log, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["score", *_protocol_args(), "--log", str(fixture_log), "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_unknown_format_exits_2(fixture_log, tmp_path, capsys):
    code = main(
        [
            "score",
            *_protocol_args(),
            "--log",
            str(fixture_log),
            "--weights",
            str(DATA_DIR / "weights_eu_example.json"),
            "--out",
            str(tmp_path),
            "--format",
            "pdf",
        ]
    )
    assert code == 2
    assert "unknown format" in capsys.readouterr().err


def test_mismatched_weight_table_exits_2(fixture_log, tmp_path, capsys):
    table = {
        "region": "XX",
        "weights": [{"scenario": "Ghost", "light": "day", "w": 1.0}],
        "groups": {"C2C": [{"scenario": "Ghost", "light": "day"}]},
    }
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps(table))
    code = main(
        [
            "score",
            *_protocol_args(),
            "--log",
            str(fixture_log),
            "--weights",
            str(weights),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2
    assert "not licensed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "stats"])
def test_validate_and_stats_take_no_impact_model(fixture_log, capsys, command):
    # Neither command reads an impact model, so the option is not offered.
    args = [command, *_protocol_args(), "--log", str(fixture_log)]
    with pytest.raises(SystemExit) as exited:
        main(args + ["--impact-model", "/nonexistent.json"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --impact-model" in capsys.readouterr().err
    assert main(args) == 0


@pytest.mark.parametrize("command", ["score", "compare"])
@pytest.mark.parametrize("same_file", [True, False])
def test_two_weight_tables_of_one_region_exit_2_before_any_report(
    fixture_log, tmp_path, capsys, command, same_file
):
    first = DATA_DIR / "weights_eu_example.json"
    second = first
    if not same_file:  # another EU table, with other weights
        doc = json.loads(first.read_text(encoding="utf-8"))
        for entry in doc["weights"]:
            entry["w"] *= 2
        second = tmp_path / "other_eu.json"
        second.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "reports"
    us = DATA_DIR / "weights_us_example.json"
    weights = ["--weights", str(first), "--weights", str(us), "--weights", str(second)]
    args = [command, *_protocol_args(), "--log", str(fixture_log), *weights, "--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: weight tables {first} and {second} both have region 'EU'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["score", "compare"])
def test_two_regions_differing_only_in_case_exit_2_before_any_report(
    fixture_log, tmp_path, capsys, command
):
    # Report file names spell a region in lower case, so 'eu' and 'EU' would share them.
    first = DATA_DIR / "weights_eu_example.json"
    doc = json.loads(first.read_text(encoding="utf-8"))
    second = tmp_path / "eu_lower.json"
    second.write_text(json.dumps({**doc, "region": "eu"}), encoding="utf-8")
    out = tmp_path / "reports"
    weights = ["--weights", str(first), "--weights", str(second)]
    args = [command, *_protocol_args(), "--log", str(fixture_log), *weights, "--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: weight tables {first} and {second} have regions 'EU' and 'eu',"
        " whose reports share file names\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("region", ["eu/x", "eu\\x", "eu\x00x"])
def test_a_region_that_cannot_be_part_of_a_file_name_exits_2_before_any_report(
    fixture_log, tmp_path, capsys, region
):
    doc = json.loads((DATA_DIR / "weights_eu_example.json").read_text(encoding="utf-8"))
    bad = tmp_path / "bad_region.json"
    bad.write_text(json.dumps({**doc, "region": region}), encoding="utf-8")
    out = tmp_path / "reports"
    weights = ["--weights", str(DATA_DIR / "weights_us_example.json"), "--weights", str(bad)]
    args = ["--log", str(fixture_log), *weights, "--out", str(out)]
    for command in ("score", "compare"):
        assert main([command, *_protocol_args(), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: weight table {bad}: region {region!r} cannot be in a file name\n"
        )
        assert not out.exists()


def _without_region(doc):
    del doc["region"]


def _cpnao_in_c2c(doc):
    doc["groups"]["C2C"].append({"scenario": "CPNAO", "light": "day"})


@pytest.mark.parametrize("command", ["score", "compare"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (_without_region, "'region' must be a non-empty string"),
        (
            lambda doc: doc.update(region="R" * 300),
            "region is 300 bytes in a report file name, more than 228",
        ),
        (_cpnao_in_c2c, "group C2C instance ('CPNAO', 'day') belongs to C2VRU"),
    ],
    ids=["no-region", "region-300-characters", "cpnao-in-c2c"],
)
def test_a_bad_second_weight_table_exits_2_naming_its_file_before_any_report(
    fixture_log, tmp_path, capsys, command, edit, message
):
    doc = json.loads((DATA_DIR / "weights_eu_example.json").read_text(encoding="utf-8"))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "reports"
    weights = ["--weights", str(DATA_DIR / "weights_us_example.json"), "--weights", str(bad)]
    args = [command, *_protocol_args(), "--log", str(fixture_log), *weights, "--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: weight table {bad}: {message}\n")
    assert not out.exists()


def test_impact_model_config(fixture_log, tmp_path):
    config = tmp_path / "impact.json"
    config.write_text(
        json.dumps(
            {
                "tg_masses": {"C2C": 1400},
                "geometry_rule": "unit",
                "vut_masses": {"1A": 1620, "2": 1480, "6": 1850, "7B": 1705},
                "default_vut_mass": 1500,
            }
        )
    )
    out = tmp_path / "reports"
    code = main(
        [
            "score",
            *_protocol_args(),
            "--log",
            str(fixture_log),
            "--impact-model",
            str(config),
            "--weights",
            str(DATA_DIR / "weights_eu_example.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "mit_pow_day_eu.csv").exists()


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "aebscore", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "validate" in result.stdout and "compare" in result.stdout


def test_non_finite_protocol_bound_exits_2_with_location(fixture_log, tmp_path, capsys):
    doc = json.loads(bundled_protocol_path().read_text(encoding="utf-8"))
    doc["scenarios"][1]["vut_speed_ranges"][0][1] = float("inf")
    protocol = tmp_path / "p.json"
    protocol.write_text(json.dumps(doc))  # writes the literal Infinity
    code = main(["validate", "--protocol", str(protocol), "--log", str(fixture_log)])
    assert code == 2
    err = capsys.readouterr().err
    assert "scenarios[1] (CCRm).vut_speed_ranges[0]: expected a finite number" in err
    assert "Traceback" not in err


def test_nan_weight_exits_2_and_writes_no_matrix(fixture_log, tmp_path, capsys):
    doc = json.loads((DATA_DIR / "weights_eu_example.json").read_text(encoding="utf-8"))
    doc["weights"][0]["w"] = float("nan")
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps(doc))  # writes the literal NaN
    out = tmp_path / "o"
    code = main(
        ["compare", *_protocol_args(), "--log", str(fixture_log), "--weights", str(weights),
         "--out", str(out)]
    )
    assert code == 2
    assert "weights[0]: 'w' must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "row, message",
    [
        ("V2,CCRs,day,55,100", "line 3: missing field 'outcome'"),
        ("V2,CCRs,day,55,100,avoided,x", "line 3: unknown field"),
        (",CCRs,day,55,100,avoided", "line 3: missing field 'vehicle'"),
    ],
)
def test_csv_row_of_wrong_shape_exits_2(tmp_path, capsys, row, message):
    log = tmp_path / "log.csv"
    log.write_text(
        "vehicle,scenario,light,vut_speed,overlap,outcome\n"
        "V1,CCRs,day,55,100,avoided\n" + row + "\n"
    )
    assert main(["validate", *_protocol_args(), "--log", str(log)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, where",
    [
        ('{"vut_masses": {"1A": NaN}}', "vut_masses['1A']"),
        ('{"vut_masses": {"2": -Infinity}}', "vut_masses['2']"),
        ('{"default_vut_mass": Infinity}', "default_vut_mass"),
        ('{"tg_masses": {"C2C": NaN}}', "tg_masses['C2C']"),
    ],
)
def test_non_finite_impact_masses_exit_2(fixture_log, tmp_path, capsys, doc, where):
    config = tmp_path / "impact.json"
    config.write_text(doc)
    out = tmp_path / "reports"
    code = main(
        [
            "score",
            *_protocol_args(),
            "--log",
            str(fixture_log),
            "--impact-model",
            str(config),
            "--weights",
            str(DATA_DIR / "weights_eu_example.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 2
    assert f"impact model {where}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, where, value",
    [
        ({"tg_masses": {"C2C": 0}}, "tg_masses['C2C']", "0"),
        ({"tg_masses": {"C2O": -1}}, "tg_masses['C2O']", "-1"),
    ],
    ids=["c2c-zero", "c2o-negative"],
)
def test_target_mass_not_above_zero_exits_2_at_load(tmp_path, capsys, doc, where, value):
    config = tmp_path / "impact.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "reports"
    args = ["score", *_protocol_args(), "--log", str(GOLDEN_LOG), "--impact-model", str(config)]
    args += ["--weights", str(DATA_DIR / "weights_eu_example.json"), "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error: impact model {where}: must be > 0, got {value}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "oracle, message",
    [
        ({"type": "threshold", "fail_at": "abc"}, ": 'fail_at' must be a finite number"),
        (
            {"type": "threshold", "rules": [{"scenario": "CCRs", "fail_at": "abc"}]},
            ".rules[0]: 'fail_at' must be a finite number",
        ),
        ({"type": "random", "impact_fraction_range": [0.9]}, ": 'impact_fraction_range' must be"),
        ({"type": "random", "never_prob": 7}, ": 'never_prob' must be a finite number in [0, 1]"),
        (
            {"type": "random", "pretest_fail_prob": None},
            ": 'pretest_fail_prob' must be a finite number in [0, 1], got None",
        ),
    ],
)
def test_bad_simulation_spec_exits_2_with_location(tmp_path, capsys, oracle, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 1, "vehicles": [{"id": "V", "oracle": oracle}]}))
    out = tmp_path / "log.jsonl"
    args = ["simulate", *_protocol_args(), "--oracle", str(spec), "--out", str(out)]
    assert main(args) == 2
    assert f"vehicles[0].oracle{message}" in capsys.readouterr().err
    assert not out.exists()


def test_csv_cell_beyond_the_field_limit_exits_2_without_traceback(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(
        "vehicle,scenario,light,vut_speed,overlap,outcome\n"
        "V1,CCRs,day,55,100," + "x" * 200_000 + "\n"
    )
    src = str(Path(aebscore.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-m", "aebscore", "validate", *_protocol_args(), "--log", str(log)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 2
    assert "line 2: field larger than field limit" in result.stderr
    assert "Traceback" not in result.stderr


def test_geometry_rule_of_another_type_exits_2(fixture_log, tmp_path, capsys):
    config = tmp_path / "impact.json"
    config.write_text('{"geometry_rule": []}')
    out = tmp_path / "reports"
    args = ["score", *_protocol_args(), "--log", str(fixture_log), "--impact-model", str(config)]
    weights = ["--weights", str(DATA_DIR / "weights_eu_example.json")]
    assert main([*args, *weights, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown geometry rule []" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["protocol", "log", "weight table", "impact model", "simulation spec"])
def test_input_that_is_not_utf8_exits_2_naming_the_file(fixture_log, tmp_path, capsys, kind):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"x": "\xff"}')
    inputs = {
        "protocol": str(bundled_protocol_path()),
        "log": str(fixture_log),
        "weight table": str(DATA_DIR / "weights_eu_example.json"),
        "impact model": None,
        "simulation spec": str(FIXTURE_SIM),
    }
    inputs[kind] = str(bad)
    out = tmp_path / "out"
    if kind == "simulation spec":
        args = ["simulate", "--protocol", inputs["protocol"], "--oracle", inputs[kind]]
        args += ["--out", str(out)]
    else:
        args = ["score", "--protocol", inputs["protocol"], "--log", inputs["log"]]
        args += ["--weights", inputs["weight table"], "--out", str(out)]
        if inputs["impact model"] is not None:
            args += ["--impact-model", inputs["impact model"]]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error: {kind} {bad}: not UTF-8 text" in err
    assert "Traceback" not in err
    assert not out.exists()


GOLDEN_LOG = Path(__file__).parent / "data" / "golden" / "fixture_campaign.jsonl"


@pytest.mark.parametrize(
    "weight, impact, message",
    [
        (10**400, None, "weights[0]: 'w' must be a finite number in [0, 1e+100], got 1000"),
        (1e308, None, "weights[0]: 'w' must be a finite number in [0, 1e+100], got 1e+308"),
        (
            None,
            '{"default_vut_mass": 1e308}',
            "impact model default_vut_mass: expected a finite number up to 1e+100, got 1e+308",
        ),
    ],
    ids=["400-digit-weight", "weight-1e308", "vut-mass-1e308"],
)
def test_weight_or_mass_too_large_for_the_products_exits_2(
    tmp_path, capsys, weight, impact, message
):
    doc = json.loads((DATA_DIR / "weights_eu_example.json").read_text(encoding="utf-8"))
    if weight is not None:
        doc["weights"][0]["w"] = weight
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps(doc))
    out = tmp_path / "o"
    args = ["compare", *_protocol_args(), "--log", str(GOLDEN_LOG), "--weights", str(weights)]
    if impact is not None:
        config = tmp_path / "impact.json"
        config.write_text(impact)
        args += ["--impact-model", str(config)]
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, field, value, message",
    [
        ("score", "name", {"a": 1}, "impact model name: expected a string, got {'a': 1}"),
        ("simulate", "model_year", {"x": [1]}, "'model_year' must be an integer or null"),
        ("simulate", "model_year", 2024.5, "'model_year' must be an integer or null"),
        ("simulate", "model_year", True, "'model_year' must be an integer or null"),
        ("simulate", "is_prototype", "no", "'is_prototype' must be a boolean"),
        ("simulate", "is_prototype", 0, "'is_prototype' must be a boolean"),
    ],
    ids=[
        "impact-name-object",
        "spec-model-year-object",
        "spec-model-year-float",
        "spec-model-year-bool",
        "spec-is-prototype-string",
        "spec-is-prototype-int",
    ],
)
def test_input_once_accepted_silently_exits_2_with_location(
    tmp_path, capsys, command, field, value, message
):
    out = tmp_path / "out"
    doc = tmp_path / "input.json"
    if command == "score":
        doc.write_text(json.dumps({field: value}))
        args = ["score", *_protocol_args(), "--log", str(GOLDEN_LOG), "--impact-model", str(doc)]
        args += ["--weights", str(DATA_DIR / "weights_eu_example.json")]
        where = ""
    else:
        vehicle = {"id": "V", "oracle": {"type": "always_avoid"}, field: value}
        doc.write_text(json.dumps({"seed": 1, "vehicles": [vehicle]}))
        args = ["simulate", *_protocol_args(), "--oracle", str(doc)]
        where = "vehicles[0]: "
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {where}{message}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_spec_model_year_and_is_prototype_accept_their_types():
    for extra in ({"model_year": 2024, "is_prototype": True}, {"model_year": None}, {}):
        vehicle = {"id": "V", "oracle": {"type": "always_avoid"}, **extra}
        spec = load_simulation_spec({"vehicles": [vehicle]})
        assert [vehicle for vehicle, _ in spec.vehicles] == ["V"]


@pytest.mark.parametrize(
    "doc, where, value",
    [
        ({"default_vut_mass": True}, "default_vut_mass", "True"),
        ({"tg_masses": {"C2C": "2000"}}, "tg_masses['C2C']", "'2000'"),
        ({"vut_masses": {"1A": "1e3"}}, "vut_masses['1A']", "'1e3'"),
        ({"tg_masses": {"C2C": True}}, "tg_masses['C2C']", "True"),
    ],
    ids=["default-mass-bool", "tg-mass-string", "vut-mass-string", "tg-mass-bool"],
)
def test_impact_mass_that_is_not_a_json_number_exits_2(tmp_path, capsys, doc, where, value):
    config = tmp_path / "impact.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = ["score", *_protocol_args(), "--log", str(GOLDEN_LOG), "--impact-model", str(config)]
    args += ["--weights", str(DATA_DIR / "weights_eu_example.json"), "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error: impact model {where}: expected a finite number up to 1e+100, got {value}" in err
    assert "Traceback" not in err
    assert not out.exists()


def _score_or_simulate_args(kind, path, out):
    """CLI arguments that read ``path`` as the input ``kind``, the others valid."""
    if kind == "simulation spec":
        return ["simulate", *_protocol_args(), "--oracle", str(path), "--out", str(out)]
    inputs = {
        "protocol": str(bundled_protocol_path()),
        "log": str(GOLDEN_LOG),
        "weight table": str(DATA_DIR / "weights_eu_example.json"),
    }
    inputs[kind] = str(path)
    args = ["score", "--protocol", inputs["protocol"], "--log", inputs["log"]]
    args += ["--weights", inputs["weight table"], "--out", str(out)]
    return args + (["--impact-model", str(path)] if kind == "impact model" else [])


@pytest.mark.parametrize("kind", ["protocol", "log", "weight table", "impact model", "simulation spec"])
def test_input_nested_beyond_the_recursion_limit_exits_2_naming_the_file(tmp_path, capsys, kind):
    deep = tmp_path / ("deep.jsonl" if kind == "log" else "deep.json")
    deep.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    out = tmp_path / "out"
    assert main(_score_or_simulate_args(kind, deep, out)) == 2
    err = capsys.readouterr().err
    if kind == "log":  # log errors also name the line
        assert f"error: log {deep}: line 1: invalid JSON: maximum recursion depth exceeded" in err
    else:
        assert f"error: {kind} {deep}: not valid JSON (maximum recursion depth exceeded" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_impact_config_that_is_not_json_exits_2_naming_the_file(tmp_path, capsys):
    config = tmp_path / "impact.json"
    config.write_text('{"default_vut_mass": 1500 "name": "x"}')
    out = tmp_path / "out"
    assert main(_score_or_simulate_args("impact model", config, out)) == 2
    err = capsys.readouterr().err
    assert f"error: impact model {config}: not valid JSON (Expecting ',' delimiter" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_report_csv_cell_holding_a_carriage_return_survives_a_csv_reader(tmp_path, capsys):
    rows = [json.loads(line) for line in GOLDEN_LOG.read_text(encoding="utf-8").splitlines()]
    for row in rows:
        if row["vehicle"] == "1A":
            row["vehicle"] = "1\rA"
    log = tmp_path / "cr.jsonl"
    log.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    args = [*_protocol_args(), "--log", str(log)]
    weights = ["--weights", str(DATA_DIR / "weights_eu_example.json")]
    stats = tmp_path / "stats.csv"
    assert main(["stats", *args, "--out", str(stats)]) == 0
    assert main(["score", *args, *weights, "--out", str(tmp_path / "score")]) == 0
    assert main(["compare", *args, *weights, "--out", str(tmp_path / "compare")]) == 0
    capsys.readouterr()
    paths = [stats, tmp_path / "score" / "mit_pow_day_eu.csv"]
    paths.append(tmp_path / "compare" / "rel_mp_c2c_eu.csv")
    for path in paths:
        with open(path, encoding="utf-8", newline="") as file:
            table = list(csv.reader(file))
        assert len({len(row) for row in table}) == 1, path
        assert "1\rA" in [cell for row in table for cell in row], path


def _relabelled_golden_log(path, relabel):
    """The golden log with each vehicle's rows copied under the ids ``relabel`` maps it to."""
    rows = [json.loads(line) for line in GOLDEN_LOG.read_text(encoding="utf-8").splitlines()]
    lines = [
        json.dumps({**row, "vehicle": new}) + "\n"
        for old, ids in relabel.items()
        for new in ids
        for row in rows
        if row["vehicle"] == old
    ]
    path.write_text("".join(lines), encoding="utf-8")
    return path


_REPORTS = """
import sys
from aebscore.cli import main
protocol, log, eu, us, out = sys.argv[1:]
common = ["--protocol", protocol, "--log", log]
weights = ["--weights", eu, "--weights", us]
codes = [main(["stats", *common, "--out", out + "/stats.csv"])]
codes += [main([c, *common, *weights, "--out", out + "/" + c]) for c in ("score", "compare")]
sys.exit(max(codes))
"""


def test_reports_of_ids_equal_in_value_do_not_depend_on_the_hash_seed(tmp_path):
    # Copies of one vehicle tie on every score, so only the ids order them.
    log = _relabelled_golden_log(
        tmp_path / "log.jsonl", {"1A": ["7", "07", "007", "1A", "01A"], "2": ["2"]}
    )
    src = str(Path(aebscore.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    weights = [str(DATA_DIR / f"weights_{region}_example.json") for region in ("eu", "us")]
    trees = []
    for seed in range(4):
        out = tmp_path / str(seed)
        out.mkdir()
        subprocess.run(
            [sys.executable, "-c", _REPORTS, str(bundled_protocol_path()), str(log), *weights, out],
            check=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed)),
        )
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert len(trees[0]) == 1 + 8 + 12  # stats, 4 score and 6 matrix tables per region
    assert all(tree == trees[0] for tree in trees)
    stats = trees[0][Path("stats.csv")].decode().splitlines()
    assert [row.split(",")[0] for row in stats[2:]] == ["01A", "1A", "2", "007", "07", "7"]
    matrix = trees[0][Path("compare/rel_mp_c2c_eu.csv")].decode().splitlines()
    assert matrix[1].split(",")[1:] == ["01A", "1A", "007", "07", "7", "2"]


def test_stats_orders_an_id_of_5000_digits_without_int(tmp_path, capsys):
    huge = "9" * 5000
    log = _relabelled_golden_log(tmp_path / "log.jsonl", {"1A": [huge + "A", "10"]})
    assert main(["stats", *_protocol_args(), "--log", str(log)]) == 0
    out, err = capsys.readouterr()
    assert [row.split(",")[0] for row in out.splitlines()[2:]] == ["10", huge + "A"]
    assert not err


def test_no_vut_or_target_mass_changes_a_score_or_compare_byte(tmp_path, capsys, monkeypatch):
    # A vehicle's or target's mass scales a scenario group's powers by one
    # factor, so it cancels; the powers are built at the default masses under
    # the model's geometry rule, so even a target whose powers would round to
    # zero gives the default reports.
    from aebscore import scoring
    from aebscore.impact import ImpactPowerModel, passive_powers

    built = []  # per call: (geometry rule, the powers are the default model's)

    def recording(model, protocol):
        powers = passive_powers(model, protocol)
        built.append((model.geometry_rule, powers == passive_powers(ImpactPowerModel(), protocol)))
        return powers

    monkeypatch.setattr(scoring, "passive_powers", recording)
    monkeypatch.setattr(cli, "passive_powers", recording)
    configs = [
        {"vut_masses": {"1A": 900, "6": 2400}, "default_vut_mass": 1700},
        {"tg_masses": {"C2C": 3000}},
        {"tg_masses": {"C2C": 5e-324}},
    ]
    impacts = [[]]
    for i, doc in enumerate(configs):
        config = tmp_path / f"impact{i}.json"
        config.write_text(json.dumps(doc))
        impacts.append(["--impact-model", str(config)])
    trees = []
    for impact in impacts:
        out = tmp_path / f"reports{len(trees)}"
        for command in ("score", "compare"):
            args = ["--log", str(GOLDEN_LOG), *impact, "--out", str(out / command)]
            args += ["--weights", str(DATA_DIR / "weights_eu_example.json")]
            args += ["--weights", str(DATA_DIR / "weights_us_example.json")]
            args += ["--format", "csv,markdown,html"]
            assert main([command, *_protocol_args(), *args]) == 0
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    capsys.readouterr()
    assert len(trees[0]) == 3 * (8 + 12)  # 4 score and 6 matrix tables per region
    assert trees[1:] == trees[:1] * 3
    # Per model: one call from score's score_campaign, two from compare (its score_campaign and
    # cmd_compare itself).
    assert built == [("linear", True)] * (len(impacts) * 3)


_LONE = "A\\ud800"  # a JSON escape that decodes to a lone surrogate


@pytest.mark.parametrize("first", [None, "B"])  # "B": the escaped row hits the read memo
def test_log_vehicle_holding_a_lone_surrogate_exits_2_naming_the_file(tmp_path, capsys, first):
    row = GOLDEN_LOG.read_text(encoding="utf-8").splitlines()[0]
    lines = [row.replace('"1A"', f'"{first}"')] if first else []
    log = tmp_path / "log.jsonl"
    log.write_text("\n".join([*lines, row.replace('"1A"', f'"{_LONE}"')]) + "\n")
    stats = tmp_path / "stats.csv"
    assert main(["stats", *_protocol_args(), "--log", str(log), "--out", str(stats)]) == 2
    err = capsys.readouterr().err
    assert f"error: log {log}: vehicle 'A\\ud800' holds a lone surrogate" in err
    assert not stats.exists()


def test_spec_id_holding_a_lone_surrogate_exits_2_before_the_log_is_written(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"vehicles": [{"id": "%s", "oracle": {"type": "always_avoid"}}]}' % _LONE)
    out = tmp_path / "x.csv"
    assert main(["simulate", *_protocol_args(), "--oracle", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: simulation spec {spec}: string 'A\\ud800' holds a lone surrogate" in err
    assert not out.exists()


def test_weight_region_holding_a_lone_surrogate_exits_2_before_any_report(tmp_path, capsys):
    doc = json.loads((DATA_DIR / "weights_eu_example.json").read_text(encoding="utf-8"))
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({**doc, "region": "E\ud800"}))  # json.dumps escapes it
    out = tmp_path / "out"
    args = ["--log", str(GOLDEN_LOG), "--weights", str(weights), "--out", str(out)]
    assert main(["score", *_protocol_args(), *args]) == 2
    err = capsys.readouterr().err
    assert f"error: weight table {weights}: string 'E\\ud800' holds a lone surrogate" in err
    assert not out.exists()


def test_escaped_surrogate_pairs_and_backslashes_are_characters(tmp_path, capsys):
    # "😀" is one character, and "\\ud800" is a backslash and five letters.
    ids = ["\\ud83d\\ude00", "\\\\ud800"]
    vehicles = ", ".join('{"id": "%s"}' % vid for vid in ids)
    spec = tmp_path / "spec.json"
    spec.write_text('{"default_oracle": {"type": "always_avoid"}, "vehicles": [%s]}' % vehicles)
    log = tmp_path / "log.jsonl"
    assert main(["simulate", *_protocol_args(), "--oracle", str(spec), "--out", str(log)]) == 0
    assert main(["stats", *_protocol_args(), "--log", str(log)]) == 0
    out = capsys.readouterr().out
    assert "\U0001f600" in out and "\\ud800" in out
