"""aebscore benchmark: one command for every workload, metric and output check.

Usage, from the repository root::

    python3 benchmarks/run.py --workload fleet --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass and the tracing overhead. The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric with its unit and sample
count, and the environment. The exit code is 0 only when every output check
passed. Times are in reference seconds: wall seconds rescaled by the speed
of a fixed kernel timed in the same process around and during each
operation (see ``workloads.Stopwatch``), which takes out most of the shared
host's drift. ``wall_setup_s`` and ``wall_records_per_s`` give the
wall-clock figures. Inputs are generated from ``--seed`` under
``.bench_work/`` (removed afterwards); results, environment and spans go to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REQUIRED = (SRC / "aebscore" / "__init__.py", ROOT / "tests" / "data" / "fixture_sim.json")

DEFAULT_SEED = 1
RUN_LIMIT_S = 170.0

# Gated end-to-end metrics, printed on every workload: name -> unit.
END_TO_END = {"setup_s": "s", "records_per_s": "1/s", "peak_rss_mb": "MB"}
# Per-command times, printed where the workload runs the command.
COMMANDS = ("simulate_s", "validate_s", "stats_s", "score_s", "compare_s", "import_s")
# Times are in reference seconds (see workloads.Stopwatch); these give
# setup_s and records_per_s on the wall clock, for reading only.
WALL = {"wall_setup_s": "s", "wall_records_per_s": "1/s"}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:<48} {value:>16.6g} {unit:<6} {note}".rstrip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("fleet", "desk", "import"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "small"), default="full", help="small is for the smoke tests"
    )
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: run from a full source checkout; missing {missing}", file=sys.stderr)
        return 2
    began = perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    from tracing import LAYER_METRICS

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = ROOT / ".bench_results"
    inputs = work / "in"
    try:
        inputs.mkdir(parents=True)
        rng = random.Random(f"{args.workload}:{args.seed}")
        info = workloads.GENERATE[args.workload](rng, args.size, inputs)
        if args.seed == DEFAULT_SEED:
            digests = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
            info["expected_digest"] = digests.get(f"{args.workload}/{args.size}")
        (inputs / "info.json").write_text(json.dumps(info), encoding="utf-8")
        try:
            worker = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                 "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.DEVNULL,
                timeout=max(10.0, RUN_LIMIT_S - (perf_counter() - began)),
            )
        except subprocess.TimeoutExpired:
            print("error: the workload did not finish in time", file=sys.stderr)
            return 1
        if worker.returncode != 0 or not (work / "result.json").is_file():
            print(f"error: the worker exited {worker.returncode}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        results.mkdir(exist_ok=True)
        if (work / "spans.jsonl").is_file():
            shutil.move(work / "spans.jsonl", results / f"{args.workload}-{args.size}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    lines = [f"# {name}: {value}" for name, value in env.items()]
    lines.append(f"# workload {args.workload} ({args.size}), seed {args.seed}, "
                 f"{result['passes']} untraced pass(es), output tree {result['digest']}")

    times = result["times"]
    records_per_s = [info["records"] / s for s in result["pass_s"]]
    wall_records_per_s = [info["records"] / s for s in result["wall_pass_s"]]
    n = f"(median of {result['passes']})"
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
        lines.append(f"# traced passes: {result['traced_passes']}; overhead "
                     f"{result['layers']['trace.overhead_records_per_s']:.6g} records/s")
        lines += [_line(name, m["value"], m["unit"]) for name, m in metrics.items()]
    else:
        measured = {
            "setup_s": statistics.median(result["setup_s"]),
            "records_per_s": statistics.median(records_per_s),
            "peak_rss_mb": result["peak_rss_mb"],
            **{name: statistics.median(times[name]) for name in COMMANDS if name in times},
            "wall_setup_s": statistics.median(result["wall_setup_s"]),
            "wall_records_per_s": statistics.median(wall_records_per_s),
        }
        setups = f"(median of {len(result['setup_s'])} fresh interpreters"
        notes = {"setup_s": f"{setups})", "wall_setup_s": f"{setups}, wall clock)",
                 "wall_records_per_s": f"{n}, wall clock", "peak_rss_mb": "(worker)"}
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END.items()}
        for name, value in measured.items():
            unit = END_TO_END.get(name) or WALL.get(name, "s")
            lines.append(_line(name, value, unit, notes.get(name, n)))
    lines.append(_line("error_rate", result["failed"] / result["attempted"], "ratio",
                       f"({result['failed']} of {result['attempted']} operations)"))
    lines += [f"# FAILED: {message}" for message in result["failures"]]
    (results / f"{args.workload}-{args.size}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "seed": args.seed, "info": info, "result": result,
                    "metrics": metrics}, indent=1),
        encoding="utf-8",
    )
    correct = result["failed"] == 0
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
