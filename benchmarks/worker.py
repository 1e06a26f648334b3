"""One workload in one fresh, single-threaded process: timed passes and checks.

Started by ``run.py`` with the directory of already generated inputs; writes
its result as JSON to ``<work>/result.json`` and prints nothing on stdout.
With ``--trace 0`` it repeats untraced passes, each followed by a few
fresh-interpreter set-up samples, until ``--seconds`` would be exceeded by
one more. With ``--trace 1`` it alternates untraced and traced
passes, at least one of each, and reports the per-layer metrics of the
traced ones together with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from aebscore import load_protocol  # noqa: E402

# Fresh-interpreter set-up: import the package, load protocol, weights, spec.
# Then, outside the timed part, the interpreter times the reference kernel,
# so that the set-up can be given in reference seconds of its own process.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import aebscore
aebscore.load_protocol(sys.argv[2])
aebscore.load_weight_table(sys.argv[3])
aebscore.load_weight_table(sys.argv[4])
aebscore.load_simulation_spec(sys.argv[5])
wall = time.perf_counter() - start
sys.path.insert(0, sys.argv[6])
import workloads
speed = sorted(workloads.reference_s() for _ in range(5))[2]
print(wall, wall * workloads.REFERENCE_S / speed)
"""
# Set-up samples after each untraced pass, so that they spread over the run
# as the passes do.
SETUP_SAMPLES_PER_PASS = 3


def sample_setup(inputs: Path, spec: str) -> list[tuple[float, float]]:
    """(wall seconds, reference seconds) of fresh-interpreter set-ups."""
    argv = [
        sys.executable, "-c", SETUP_CODE, str(BENCH.parent / "src"), str(inputs / "protocol.json"),
        *(str(inputs / name) for name in workloads.WEIGHTS), str(inputs / spec), str(BENCH),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES_PER_PASS):
        done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=30)
        wall, ref = done.stdout.split()
        samples.append((float(wall), float(ref)))
    return samples


class Run:
    """All passes of one worker: the operation count, failures, timings."""

    def __init__(self, workload: str, work: Path, info: dict):
        self.workload = workload
        self.work = work
        self.info = info
        self.ops = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []

    def _absorb(self, p: workloads.Pass) -> None:
        self.ops += p.ops
        self.failed += len(p.failed_ops)
        self.failures.extend(p.failures)

    def prepare(self) -> None:
        prepare = workloads.PREPARE.get(self.workload)
        if prepare is not None:
            p = workloads.Pass(self.work / "prepare")
            prepare(p, self.info)
            self._absorb(p)

    def one_pass(self, tracer: tracing.Tracer | None = None) -> workloads.Pass:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        p = workloads.Pass(out)
        if tracer is not None:
            tracer.install()
        try:
            workloads.PASS[self.workload](p, self.info, first=not self.digests)
        finally:
            if tracer is not None:
                tracer.remove()
        digest = workloads.tree_digest(out)
        if self.digests:
            p.check(digest == self.digests[0], "output tree differs from the first pass")
        elif "expected_digest" in self.info:  # the default seed
            expected = self.info["expected_digest"]
            p.check(digest == expected, f"output tree {digest} != recorded {expected}")
        self.digests.append(digest)
        self._absorb(p)
        return p


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    inputs = args.work / "in"
    info = json.loads((inputs / "info.json").read_text(encoding="utf-8"))
    info["dir"] = str(inputs)
    info["protocol"] = load_protocol(inputs / "protocol.json")
    run = Run(args.workload, args.work, info)
    run.prepare()

    untraced: list[workloads.Pass] = []
    traced: list[tuple[workloads.Pass, tracing.Tracer]] = []
    setup: list[tuple[float, float]] = []
    start = perf_counter()
    while True:
        lap = perf_counter()
        untraced.append(run.one_pass())
        if args.trace:  # traced runs report per-layer metrics only
            tracer = tracing.Tracer()
            traced.append((run.one_pass(tracer), tracer))
        else:
            setup += sample_setup(inputs, info["spec"])
        # Stop before a further round would overrun the measuring time.
        if perf_counter() - start + (perf_counter() - lap) > args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "attempted": run.ops,
        "failed": run.failed,
        "failures": run.failures[:20],
        "digest": run.digests[0],
        "passes": len(untraced),
        "pass_s": [p.seconds for p in untraced],
        "wall_pass_s": [p.wall_seconds for p in untraced],
        "times": {
            metric: [p.times.get(metric, 0.0) for p in untraced]
            for metric in sorted({m for p in untraced for m in p.times})
        },
        "peak_rss_mb": rss_mb,
        "setup_s": [ref for _, ref in setup],
        "wall_setup_s": [wall for wall, _ in setup],
    }
    if traced:
        per_pass = [tracing.layer_metrics(t, info["instances"]) for _, t in traced]
        layers = {name: statistics.fmean(m[name] for m in per_pass) for name in per_pass[0]}
        untraced_s = statistics.median(p.seconds for p in untraced)
        traced_s = statistics.median(p.seconds for p, _ in traced)
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.overhead_records_per_s"] = info["records"] / traced_s - info["records"] / untraced_s
        result["layers"] = layers
        result["traced_passes"] = len(traced)
        with open(args.work / "spans.jsonl", "w", encoding="utf-8") as out:
            for index, (_, tracer) in enumerate(traced):
                for name, parent, s, e, op in tracer.spans:
                    out.write(json.dumps([index, name, parent, s, e, op]) + "\n")
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
