"""Package start-up: what importing ``aebscore`` and a run's set-up load.

``import aebscore`` imports no submodule; its names are looked up in their
modules on access. Loading the inputs of a run (protocol, weight tables,
simulation spec) loads ``aebscore.protocol`` and ``aebscore.inputs`` and no
other module of the package, and neither ``dataclasses`` nor ``hashlib``; so
does importing ``aebscore.inputs`` alone. The first simulation loads
``campaign`` and ``hashlib``. ``aggregate`` imports ``campaign``, whose
natural vehicle order ranks a matrix. The CLI module does not load
``dataclasses`` either. Each module imports first in a fresh interpreter, so
no import cycle hides behind another module imported before it. Untimed:
these are checks of what is imported, in a fresh interpreter.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aebscore
from aebscore import aggregate, inputs, protocol, simulate

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "aebscore" / "data"

# Every name the package exports, by a module that holds it: exactly
# ``aebscore.__all__``, so an export added or dropped shows here. Names no
# command reaches are not exported (see ``REMOVED``).
EXPORTS = {
    "aggregate": "GroupScore RelativityMatrix aggregate_fs aggregate_mps build_matrix",
    "campaign": (
        "CampaignLog CompletionStats OutcomeKind TestOutcome TestRecord completion_stats"
        " expand_night_judgements run_scenario validate_log"
    ),
    "impact": "ImpactPowerModel",
    "inputs": "WeightTable load_simulation_spec load_weight_table",
    "logio": "read_log write_log",
    "protocol": (
        "ProtocolDefinition ScenarioGroup ScenarioSpec TestConfig bundled_protocol_path"
        " enumerate_configs load_protocol"
    ),
    "scoring": "ScenarioScore ScoreValue frequency_score mitigation_power_score score_campaign",
    "simulate": "simulate_campaign",
}
# Exported once, gone now: no command reached them.
REMOVED = (
    "InterventionSample", "mu_pow", "passive_mu_pow", "project_impact_speed", "speed_lattice",
    "relativity",
)

SETUP = """
import json, sys
import aebscore
protocol = aebscore.load_protocol(sys.argv[1])
aebscore.load_weight_table(sys.argv[2])
aebscore.load_weight_table(sys.argv[3])
spec = aebscore.load_simulation_spec(sys.argv[4])
package = sorted(m for m in sys.modules if m.split(".")[0] == "aebscore")
after_setup = [m for m in sys.argv[5:] if m in sys.modules]
records = len(aebscore.simulate_campaign(protocol, spec).records)
after_simulation = [m for m in sys.argv[5:] if m in sys.modules]
import aebscore.cli
print(json.dumps({
    "package": package, "after_setup": after_setup, "records": records,
    "after_simulation": after_simulation, "cli_dataclasses": "dataclasses" in sys.modules,
}))
"""
# Modules a run's set-up does not call, so it must not load them.
NOT_AT_SETUP = (
    "dataclasses", "hashlib", "aebscore.aggregate", "aebscore.simulate", "aebscore.campaign",
    "aebscore.logio", "aebscore.scoring", "aebscore.impact", "aebscore.report", "aebscore.cli",
)
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def test_setup_and_cli_import_load_neither_dataclasses_nor_the_log_reader():
    documents = (
        DATA / "protocol_swissre.json", DATA / "weights_eu_example.json",
        DATA / "weights_us_example.json", ROOT / "tests" / "data" / "fixture_sim.json",
    )
    args = [sys.executable, "-c", SETUP, *map(str, documents), *NOT_AT_SETUP]
    done = subprocess.run(args, env=ENV, capture_output=True, text=True, timeout=60, check=True)
    simulated = aebscore.simulate_campaign(
        aebscore.load_protocol(documents[0]), aebscore.load_simulation_spec(documents[3])
    )
    assert json.loads(done.stdout) == {
        "package": ["aebscore", "aebscore.inputs", "aebscore.protocol"],
        "after_setup": [],
        "records": len(simulated.records),
        # hashlib by the first draw, simulate and the procedure it runs by the simulation
        "after_simulation": ["hashlib", "aebscore.simulate", "aebscore.campaign"],
        "cli_dataclasses": False,
    }


def test_the_input_loaders_load_no_engine():
    # Set-up is these loaders, so an engine imported here would load at every set-up.
    code = "import sys, aebscore.inputs; print(*sorted(m for m in sys.modules if 'aebscore' in m))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.split() == ["aebscore", "aebscore.inputs", "aebscore.protocol"]


RANK = """
import json, sys
from aebscore.aggregate import GroupScore, ScoreValue, build_matrix
from aebscore.protocol import ScenarioGroup
before = "aebscore.campaign" in sys.modules
scores = [
    GroupScore(v, ScenarioGroup.C2C, "EU", ScoreValue.constant(s), ScoreValue.constant(s))
    for v, s in json.loads(sys.argv[1])
]
matrix = build_matrix(scores, "freq")
after = "aebscore.campaign" in sys.modules
print(json.dumps({"campaign": [before, after], "order": matrix.order, "rows": matrix.rows}))
"""


def test_a_matrix_built_after_importing_only_aggregate_is_ranked_as_in_process():
    # Equal scores rank by the natural vehicle order, which campaign holds.
    scores = [("10", 0.5), ("9B", 0.5), ("07", 0.5), ("7", 0.5), ("x", 0.8), ("2", 0.25)]
    done = subprocess.run(
        [sys.executable, "-c", RANK, json.dumps(scores)],
        env=ENV, capture_output=True, text=True, timeout=60, check=True,
    )
    constant = aebscore.ScoreValue.constant
    group_scores = [
        aebscore.GroupScore(v, protocol.ScenarioGroup.C2C, "EU", constant(s), constant(s))
        for v, s in scores
    ]
    matrix = aebscore.build_matrix(group_scores, "freq")
    assert matrix.order == ("x", "07", "7", "9B", "10", "2")
    assert json.loads(done.stdout) == {
        "campaign": [True, True],  # imported by aggregate, whose matrices rank with it
        "order": list(matrix.order),
        "rows": [list(row) for row in matrix.rows],
    }


@pytest.mark.parametrize(
    "module",
    ["scoring", "aggregate", "report", "impact", "simulate", "cli", "campaign", "logio",
     "protocol", "inputs"],
)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # In one process the first test to import a module hides a cycle that
    # only breaks when another module of the cycle is imported first.
    code = f"import aebscore.{module} as m; print(m.__name__)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, f"aebscore.{module}\n", "")


def test_every_export_resolves_to_its_module_object():
    assert aebscore.__version__ == "0.1.0"
    assert sorted(name for names in EXPORTS.values() for name in names.split()) == aebscore.__all__
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"aebscore.{module}")
        for name in names.split():
            namespace: dict = {}
            exec(f"from aebscore import {name}", namespace)
            assert namespace[name] is vars(source)[name], name
            assert getattr(aebscore, name) is vars(source)[name], name
    # Kept under their old homes too, where a tracer wraps them by name.
    assert vars(aggregate)["load_weight_table"] is inputs.load_weight_table
    assert vars(simulate)["load_simulation_spec"] is inputs.load_simulation_spec


@pytest.mark.parametrize("name", ["nope", *REMOVED])
def test_submodules_import_by_name_and_unknown_names_raise(name):
    namespace: dict = {}
    exec("from aebscore import campaign, cli, logio", namespace)
    assert namespace["logio"] is importlib.import_module("aebscore.logio")
    with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
        getattr(aebscore, name)


def test_an_export_follows_its_module_and_is_not_kept(monkeypatch):
    # Wrapping a module's function and restoring it, as a tracer does, reaches
    # callers that look it up through the package.
    original = protocol.load_protocol
    monkeypatch.setattr(protocol, "load_protocol", len)
    assert aebscore.load_protocol is len
    monkeypatch.undo()
    assert aebscore.load_protocol is original
    assert "load_protocol" not in vars(aebscore)
