"""Smoke tests of the benchmark itself, at the small input size.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

# The per-command metrics each workload prints, besides the gated ones.
COMMANDS = {
    "fleet": ("simulate_s", "validate_s", "stats_s", "score_s", "compare_s"),
    "desk": ("simulate_s", "validate_s", "stats_s", "score_s", "compare_s"),
    "import": ("validate_s", "stats_s", "import_s"),
}


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--size", "small", "--seconds", "1", *map(str, args)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def printed_units(stdout: str) -> dict[str, str]:
    units = {}
    for line in stdout.splitlines()[:-1]:
        fields = line.split()
        if len(fields) >= 3 and not line.startswith("#"):
            units[fields[0]] = fields[2]
    return units


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done = bench("--workload", workload, "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    units = printed_units(done.stdout)
    for name in (*run.END_TO_END, *COMMANDS[workload]):
        assert units.get(name) == run.END_TO_END.get(name, "s"), name
    for name, unit in run.WALL.items():
        assert units.get(name) == unit, name
    assert units["error_rate"] == "ratio"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    done = bench("--workload", workload, "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER_METRICS
    assert {k: u for k, u in printed_units(done.stdout).items() if k in LAYER_METRICS} == LAYER_METRICS
    assert result["metrics"]["cli.main.calls"]["value"] > 0
    assert result["metrics"]["trace.spans"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_changes_inputs_and_checks_pass(workload, tmp_path):
    trees = []
    for seed in (run.DEFAULT_SEED, 2):
        dest = tmp_path / str(seed)
        dest.mkdir()
        workloads.GENERATE[workload](random.Random(f"{workload}:{seed}"), "small", dest)
        trees.append({p.name: p.read_bytes() for p in dest.iterdir()})
    assert trees[0].keys() == trees[1].keys()
    assert trees[0] != trees[1]
    done = bench("--workload", workload, "--seed", "2", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"]


def test_reference_seconds_scale_wall_seconds_by_the_kernel_speed():
    with workloads.Stopwatch() as watch:
        workloads.reference_s()
    assert watch.wall_s > 0 and watch.ref_s > 0
    # The span runs the kernel REFERENCE_REPEATS times at the speed measured
    # around it, so it lasts about that many times REFERENCE_S.
    expected = workloads.REFERENCE_REPEATS * workloads.REFERENCE_S
    assert expected / 3 < watch.ref_s < expected * 3


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "fleet", cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
