"""Format of the benchmark records kept at the repository root.

Each ``BENCH_*.json`` records one change's benchmark runs against its
parent: the environment, both commits, the ``src/`` line counts and, per
workload, the seeds, the pair count and each side's quartiles of the gated
end-to-end metrics.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
GATED = ("setup_s", "records_per_s", "peak_rss_mb")


def test_bench_files_exist():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_bench_file_carries_the_required_fields(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    env = doc["environment"]
    assert isinstance(env["python"], str) and env["python"]
    assert isinstance(env["nproc"], int) and env["nproc"] > 0
    for side in ("parent", "change"):
        assert isinstance(doc["commits"][side], str) and doc["commits"][side]
        assert isinstance(doc["src_lines"][side], int) and doc["src_lines"][side] > 0
    assert doc["workloads"]
    for name, workload in doc["workloads"].items():
        assert workload["pairs"] >= 1, name
        assert workload["seeds"] and all(isinstance(s, int) for s in workload["seeds"]), name
        for metric in GATED:
            entry = workload["metrics"][metric]
            assert isinstance(entry["unit"], str), (name, metric)
            for side in ("parent", "change"):
                q1, median, q3 = (entry[side][k] for k in ("q1", "median", "q3"))
                assert all(isinstance(v, (int, float)) for v in (q1, median, q3)), (name, metric)
                assert q1 <= median <= q3, (name, metric, side)
