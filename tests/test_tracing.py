"""The benchmark's layer tracer against the package it traces.

``benchmarks/tracing.py`` patches the functions named in its ``TARGETS`` and
reads results and arguments in its counter hooks. A rename or a changed
signature there fails only a traced benchmark run; this test runs the
tracer, unchanged, around a small in-process pipeline instead.
"""

import importlib
import importlib.util
from pathlib import Path

import aebscore
from aebscore.cli import main
from aebscore.impact import DEFAULT_VUT_MASS
from aebscore.protocol import bundled_protocol_path

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = bundled_protocol_path().parent
FIXTURE_SIM = ROOT / "tests" / "data" / "fixture_sim.json"
GOLDEN_LOG = ROOT / "tests" / "data" / "golden" / "fixture_campaign.jsonl"


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", ROOT / "benchmarks" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_every_counter_hook_runs(tmp_path, monkeypatch, capsys):
    tracing = _tracing()
    originals = {}
    for module, function, _, _ in tracing.TARGETS:
        originals[module, function] = getattr(
            importlib.import_module(f"aebscore.{module}"), function
        )
    hooks = {count.__name__ for _, _, count, _ in tracing.TARGETS if count is not None}
    ran = set()

    def spy(count):
        def run(*args):
            count(*args)
            ran.add(count.__name__)

        return run

    monkeypatch.setattr(
        tracing,
        "TARGETS",
        tuple((m, f, c and spy(c), n) for m, f, c, n in tracing.TARGETS),
    )
    common = ["--protocol", str(bundled_protocol_path())]
    weights = ["--weights", str(DATA_DIR / "weights_eu_example.json")]
    reports = ["--log", str(GOLDEN_LOG), *weights, "--format", "csv,html"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sim = ["--oracle", str(FIXTURE_SIM), "--out", str(tmp_path / "sim.jsonl")]
        assert main(["simulate", *common, *sim]) == 0
        assert main(["validate", *common, "--log", str(GOLDEN_LOG)]) == 0
        assert main(["stats", *common, "--log", str(GOLDEN_LOG)]) == 0
        assert main(["score", *common, *reports, "--out", str(tmp_path / "scores")]) == 0
        assert main(["compare", *common, *reports, "--out", str(tmp_path / "matrices")]) == 0
        protocol = aebscore.protocol.load_protocol(bundled_protocol_path())
        log = aebscore.logio.read_log(GOLDEN_LOG, protocol)
        aebscore.campaign.expand_night_judgements(log)
    finally:
        tracer.remove()
    capsys.readouterr()

    assert ran == hooks
    for (module, function), original in originals.items():
        assert getattr(importlib.import_module(f"aebscore.{module}"), function) is original
    names = {span[0] for span in tracer.spans}
    assert {"cli.cmd_simulate", "cli.cmd_compare", "campaign.run_scenario"} <= names
    c = tracer.counts
    assert c["logio.read_log.records"] == 5 * log.size
    assert c["campaign.validate_log.records"] == 3 * log.size
    assert c["simulate.executed_records"] > 0
    assert c["aggregate.build_matrix.cells"] > 0
    assert c["report.matrix_table.cells"] == c["aggregate.build_matrix.cells"]
    assert c.pairs and {pair[0] for pair in c.pairs} == {DEFAULT_VUT_MASS}
    metrics = tracing.layer_metrics(tracer, len(protocol.licensed_pairs()))
    assert metrics["report.shading_used_ratio"] == 1.0
    assert metrics["logio.read_log.parses_per_log"] == 5.0
