"""Workload definitions: seeded input generation, the timed pass, output checks.

Each workload has three parts:

* ``generate_<name>(rng, size, dest)`` writes the workload's inputs into
  ``dest`` and returns a JSON-serialisable description of them. All inputs
  follow from the seed; the program only ever receives these files.
* ``prepare_<name>(run, info)`` runs once per worker before the timed passes
  (checks that need no repetition).
* ``pass_<name>(run, info, first)`` is one full pass: the CLI commands and
  library calls a user would make, each timed, each followed by its output
  checks.

Workloads (see RATIONALE.md for why each exists):

``fleet``  one large random-oracle campaign through simulate, validate,
           stats, score and compare (CSV only).
``desk``   many 6-vehicle campaigns with oracle shapes drawn from the test
           fixture, through the same five commands in all three formats.
``import`` a day-only CSV export with seeded defects: validate (exit 1),
           read_log -> expand_night_judgements -> write_log, stats.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import random
import re
import shutil
import signal
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Layer functions are called through their modules so that the tracer's
# patches reach the library calls made here too.
from aebscore import campaign, cli, logio, load_protocol, load_simulation_spec, simulate_campaign
from aebscore.protocol import DAY, bundled_protocol_path, enumerate_configs

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_SIM = ROOT / "tests" / "data" / "fixture_sim.json"
GOLDEN = ROOT / "tests" / "data" / "golden"

WORKLOADS = ("fleet", "desk", "import")
SIZES = {
    # workload -> size -> vehicles (desk: campaigns of DESK_VEHICLES each)
    "fleet": {"full": 100, "small": 8},
    "desk": {"full": 20, "small": 2},
    "import": {"full": 400, "small": 24},
}
DESK_VEHICLES = 6
WEIGHTS = ("weights_eu_example.json", "weights_us_example.json")
DESK_FORMATS = "csv,markdown,html"

# Column order of the track export; differs from the program's own order.
EXPORT_COLUMNS = (
    "vehicle",
    "scenario",
    "light",
    "overlap",
    "tg_speed",
    "vut_speed",
    "outcome",
    "intervention",
    "impact_speed",
    "projected",
    "pre_test",
)
OFF_LATTICE_KMH = 2.5

_NAN = re.compile(rb"(?i)(?<![a-z])nan(?![a-z])")
_FINDING = re.compile(r"\[([a-z-]+)\]$")


# ---------------------------------------------------------------------------
# Reference speed
#
# The host is shared, and its speed drifts by 20-60 % over seconds to
# minutes: a fixed pure-Python loop takes 13 ms in one half-minute and 21 ms
# in the next. Wall times alone therefore spread too much between runs to
# compare two versions of the program. Each operation is also timed in
# reference seconds. A fixed kernel is timed when the operation starts, every
# SAMPLE_EVERY_S while it runs (from a SIGALRM handler, in the same process
# and thread) and when it ends; each stretch of wall time between two samples
# is scaled by REFERENCE_S over the kernel's mean time at its two ends. The
# kernel's own time is left out. The kernel is benchmark code and never
# changes with the program, so a change to the program moves reference
# seconds as it moves wall seconds, while a change of host speed moves both
# the operation and the kernel.

_REFERENCE_DOC = [
    {"vehicle": str(i), "speed": i * 0.5, "ok": i % 3 == 0, "tags": ["day", "night"]}
    for i in range(300)
]


class _Row:
    __slots__ = ("vehicle", "speed")

    def __init__(self, vehicle: str, speed: float):
        self.vehicle = vehicle
        self.speed = speed


# A scan over a shuffled list larger than the caches a core has to itself
# makes the kernel feel some of the memory contention that the program's
# record scans feel.
_VEHICLES = [str(v) for v in range(400)]
_REFERENCE_ROWS = [_Row(_VEHICLES[i % 400], i * 0.5) for i in range(80_000)]
random.Random(0).shuffle(_REFERENCE_ROWS)
_SCAN = 4_000
_scan_at = 0

# About the kernel's time on a 2-core x86_64 guest under Python 3.11.7 when
# the host runs at full speed; a fixed scale, so that reference seconds read
# as seconds.
REFERENCE_S = 0.0007
REFERENCE_REPEATS = 3
SAMPLE_EVERY_S = 0.5


def _reference_kernel() -> int:
    """A json round trip and a scan of record-like objects."""
    global _scan_at
    rows = _REFERENCE_ROWS[_scan_at:_scan_at + _SCAN]
    _scan_at = (_scan_at + _SCAN) % len(_REFERENCE_ROWS)
    matches = sum(1 for row in rows if row.vehicle == "7")
    return matches + len(json.loads(json.dumps(_REFERENCE_DOC)))


def reference_s() -> float:
    """Median time of the reference kernel now, with the collector off."""
    samples = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REFERENCE_REPEATS):
            start = perf_counter()
            _reference_kernel()
            samples.append(perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    samples.sort()
    return samples[len(samples) // 2]


class Stopwatch:
    """Times one span of work in wall seconds and in reference seconds."""

    running: "Stopwatch | None" = None

    def __enter__(self) -> "Stopwatch":
        if Stopwatch.running is not None:
            raise RuntimeError("stopwatches do not nest")
        if signal.getsignal(signal.SIGALRM) is not _on_alarm:
            signal.signal(signal.SIGALRM, _on_alarm)
        self.wall_s = self.ref_s = 0.0
        self._sampling = False
        self._speed = reference_s()
        self._mark = perf_counter()
        Stopwatch.running = self
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _stretch(self, end: float) -> None:
        self._sampling = True
        speed = reference_s()
        wall = end - self._mark
        self.wall_s += wall
        self.ref_s += wall * REFERENCE_S * 2 / (self._speed + speed)
        self._speed = speed
        self._mark = perf_counter()
        self._sampling = False

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        Stopwatch.running = None
        self._stretch(perf_counter())


def _on_alarm(signum, frame) -> None:
    # Left installed between stopwatches, so that an alarm that was already
    # due when the timer stopped is ignored instead of ending the process.
    # An alarm during a sample (the host stalled for SAMPLE_EVERY_S) is
    # ignored too.
    watch = Stopwatch.running
    if watch is not None and not watch._sampling:
        watch._stretch(perf_counter())


# ---------------------------------------------------------------------------
# Operations and checks


@dataclass
class Pass:
    """Timings and failures of one pass; every CLI or library call is an operation.

    ``times`` holds reference seconds per metric.
    """

    out: Path
    times: dict = field(default_factory=lambda: defaultdict(float))
    wall_seconds: float = 0.0
    ops: int = 0
    failed_ops: set = field(default_factory=set)
    failures: list = field(default_factory=list)

    def _add(self, metric: str, watch: Stopwatch) -> None:
        self.times[metric] += watch.ref_s
        self.wall_seconds += watch.wall_s

    def cli(self, metric: str, *argv, expect: int = 0) -> str:
        """Run ``aebscore`` in-process, time it under ``metric``, return its stdout."""
        self.ops += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()  # start each command from a clean heap, as a new process would
        with Stopwatch() as watch:
            try:
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = cli.main([str(a) for a in argv])
            except Exception as exc:  # an operation failure, not a benchmark crash
                code = f"{type(exc).__name__}: {exc}"
        self._add(metric, watch)
        self.check(
            code == expect,
            f"{argv[0]} exited {code}, expected {expect}: {stderr.getvalue()[-300:]}",
        )
        return stdout.getvalue()

    def call(self, metric: str, fn, *args):
        """Time one library call under ``metric``; an exception fails the operation."""
        self.ops += 1
        gc.collect()
        with Stopwatch() as watch:
            try:
                result = fn(*args)
            except Exception as exc:
                result = None
                self.check(False, f"{fn.__name__} raised {type(exc).__name__}: {exc}")
        self._add(metric, watch)
        return result

    def check(self, ok: bool, message: str) -> bool:
        """A failed check fails the most recent operation."""
        if not ok:
            self.failed_ops.add(self.ops)
            self.failures.append(message)
        return ok

    def check_no_nan(self, *paths: Path) -> None:
        for path in paths:
            for file in sorted(path.rglob("*")) if path.is_dir() else [path]:
                if file.is_file() and _NAN.search(file.read_bytes()):
                    self.check(False, f"{file.name} contains nan")

    @property
    def seconds(self) -> float:
        """Reference seconds of the pass's operations."""
        return sum(self.times.values())


def tree_digest(root: Path) -> str:
    """sha256 over the relative path and bytes of every file under ``root``."""
    digest = hashlib.sha256()
    for file in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(file.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(file.read_bytes()).digest())
    return digest.hexdigest()


def _csv_rows(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))


# ---------------------------------------------------------------------------
# Generation helpers


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _copy_program_data(dest: Path) -> None:
    data = bundled_protocol_path().parent
    shutil.copyfile(bundled_protocol_path(), dest / "protocol.json")
    for name in WEIGHTS:
        shutil.copyfile(data / name, dest / name)


def _vehicle_id(rng: random.Random, index: int) -> str:
    # Numeric prefixes with occasional suffixes exercise the natural sort.
    return f"{index + 1}{rng.choice(['', '', '', 'A', 'B'])}"


def _random_oracle(rng: random.Random) -> dict:
    lo = round(rng.uniform(0.2, 0.5), 3)
    return {
        "type": "random",
        "never_prob": round(rng.uniform(0.1, 0.4), 3),
        "pretest_fail_prob": round(rng.uniform(0.0, 0.2), 3),
        "impact_fraction_range": [lo, round(rng.uniform(lo + 0.1, 0.95), 3)],
        "respond_prob": round(rng.uniform(0.7, 0.95), 3),
    }


def _random_spec(rng: random.Random, vehicles: int) -> dict:
    return {
        "seed": rng.randrange(1, 2**31),
        "vehicles": [
            {
                "id": _vehicle_id(rng, i),
                "mass": rng.randrange(1100, 2400, 5),
                "oracle": _random_oracle(rng),
            }
            for i in range(vehicles)
        ],
    }


def _describe(protocol, vehicles: int, records: int, spec: str, **extra) -> dict:
    return {
        "vehicles": vehicles,
        "records": records,
        # (vehicle, scenario, light) instances the workload's logs hold
        "instances": vehicles * len(protocol.licensed_pairs()),
        "spec": spec,
        "config_count": protocol.config_count(),
        **extra,
    }


def _common_args(info_dir: Path) -> list:
    return ["--protocol", info_dir / "protocol.json"]


def _weight_args(info_dir: Path) -> list:
    return [arg for name in WEIGHTS for arg in ("--weights", info_dir / name)]


# ---------------------------------------------------------------------------
# fleet


def generate_fleet(rng: random.Random, size: str, dest: Path) -> dict:
    _copy_program_data(dest)
    protocol = load_protocol(dest / "protocol.json")
    vehicles = SIZES["fleet"][size]
    _write_json(dest / "fleet_spec.json", _random_spec(rng, vehicles))
    return _describe(
        protocol, vehicles, vehicles * protocol.config_count(), "fleet_spec.json"
    )


def _campaign(p: Pass, inputs: Path, spec: Path, out: Path, formats: str, info: dict,
              vehicles: int) -> None:
    """simulate -> validate -> stats -> score -> compare on one campaign."""
    out.mkdir(parents=True)
    log = out / "campaign.jsonl"
    common = _common_args(inputs)
    said = p.cli("simulate_s", "simulate", *common, "--oracle", spec, "--out", log)
    p.check(
        said.strip().endswith(f"{info['config_count'] * vehicles} records for {vehicles} vehicles"),
        f"simulate reported {said.strip()!r}",
    )
    p.check_no_nan(log)

    findings = p.cli("validate_s", "validate", *common, "--log", log)
    p.check(findings == "", f"simulated log has findings: {findings[:200]!r}")

    stats = out / "stats.csv"
    p.cli("stats_s", "stats", *common, "--log", log, "--out", stats)
    if p.check(stats.is_file(), "stats wrote no file"):
        rows = _csv_rows(stats)[2:]
        p.check(len(rows) == vehicles, f"stats has {len(rows)} rows for {vehicles} vehicles")
        p.check(
            all(row[-1] == "100%" for row in rows), "simulated log is not 100% complete"
        )

    weights = _weight_args(inputs)
    n_formats = len(formats.split(","))
    for metric, command, tables in (("score_s", "score", 8), ("compare_s", "compare", 12)):
        target = out / command
        p.cli(metric, command, *common, "--log", log, *weights, "--out", target,
              "--format", formats)
        written = sorted(target.glob("*")) if target.is_dir() else []
        p.check(
            len(written) == tables * n_formats,
            f"{command} wrote {len(written)} files, expected {tables * n_formats}",
        )
        p.check_no_nan(target)
    for matrix in sorted((out / "compare").glob("*.csv")):
        rows = _csv_rows(matrix)
        p.check(
            len(rows) == vehicles + 2 and all(r[i + 1] == "0.00%" for i, r in enumerate(rows[2:])),
            f"{matrix.name} is not a {vehicles}x{vehicles} matrix with a zero diagonal",
        )


def pass_fleet(p: Pass, info: dict, first: bool) -> None:
    inputs = Path(info["dir"])
    _campaign(p, inputs, inputs / info["spec"], p.out / "fleet", "csv", info, info["vehicles"])


# ---------------------------------------------------------------------------
# desk


def _perturb_oracle(rng: random.Random, shape: dict) -> dict:
    oracle = json.loads(json.dumps(shape))
    kind = oracle["type"]

    def shift(speed):
        return None if speed is None else max(15, speed + rng.choice([-20, -10, 0, 10, 20]))

    if kind == "threshold":
        oracle["fail_at"] = shift(oracle.get("fail_at"))
        oracle["impact_fraction"] = round(rng.uniform(0.2, 0.9), 2)
        for rule in oracle.get("rules", []):
            rule["fail_at"] = shift(rule.get("fail_at"))
    elif kind == "random":
        oracle.update(_random_oracle(rng))
    return oracle


def generate_desk(rng: random.Random, size: str, dest: Path) -> dict:
    _copy_program_data(dest)
    protocol = load_protocol(dest / "protocol.json")
    fixture = json.loads(FIXTURE_SIM.read_text(encoding="utf-8"))["vehicles"]
    campaigns = SIZES["desk"][size]
    for c in range(campaigns):
        vehicles = []
        for i in range(DESK_VEHICLES):
            template = rng.choice(fixture)
            vehicle = {k: v for k, v in template.items() if k not in ("id", "oracle")}
            vehicle["id"] = _vehicle_id(rng, i)
            vehicle["mass"] = template.get("mass", 1500) + rng.randrange(-150, 155, 5)
            vehicle["oracle"] = _perturb_oracle(rng, template["oracle"])
            vehicles.append(vehicle)
        _write_json(dest / f"desk_{c:02d}.json", {"seed": rng.randrange(1, 2**31), "vehicles": vehicles})
    total = campaigns * DESK_VEHICLES
    return _describe(
        protocol, total, total * protocol.config_count(), "desk_00.json", campaigns=campaigns
    )


def prepare_desk(p: Pass, info: dict) -> None:
    """Score the golden fixture log and byte-match the committed score tables."""
    out = p.out / "golden"
    p.cli(
        "golden_s",
        "score",
        "--protocol",
        bundled_protocol_path(),
        "--log",
        GOLDEN / "fixture_campaign.jsonl",
        *[arg for name in WEIGHTS for arg in ("--weights", bundled_protocol_path().parent / name)],
        "--out",
        out,
    )
    golden = sorted((GOLDEN / "scores").glob("*.csv"))
    p.check(len(golden) == 8, f"expected 8 golden score tables, found {len(golden)}")
    for table in golden:
        produced = out / table.name
        p.check(
            produced.is_file() and produced.read_bytes() == table.read_bytes(),
            f"{table.name} does not byte-match the golden table",
        )


def pass_desk(p: Pass, info: dict, first: bool) -> None:
    inputs = Path(info["dir"])
    for c in range(info["campaigns"]):
        _campaign(p, inputs, inputs / f"desk_{c:02d}.json", p.out / f"desk_{c:02d}",
                  DESK_FORMATS, info, DESK_VEHICLES)


# ---------------------------------------------------------------------------
# import


def _plain(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _export_row(record) -> dict:
    c, o = record.config, record.outcome
    flag = {None: "", True: "true", False: "false"}
    return {
        "vehicle": record.vehicle,
        "scenario": c.code,
        "light": c.light,
        "overlap": _plain(c.overlap),
        "tg_speed": "" if c.tg_speed is None else _plain(c.tg_speed),
        "vut_speed": _plain(c.vut_speed),
        "outcome": o.kind.value,
        "intervention": flag[o.intervention],
        "impact_speed": "" if o.impact_speed is None else _plain(o.impact_speed),
        "projected": flag[o.projected],
        "pre_test": record.pre_test or "",
    }


def _write_export(path: Path, rows: list[dict]) -> None:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=EXPORT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8")


def _day_only(document: dict) -> dict:
    """The protocol document restricted to its daylight tests."""
    doc = json.loads(json.dumps(document))
    doc.pop("expected_config_count", None)
    scenarios = []
    for scenario in doc["scenarios"]:
        if DAY in scenario["lights"]:
            scenario["lights"] = [DAY]
            scenario.pop("night", None)
            scenarios.append(scenario)
    doc["scenarios"] = scenarios
    return doc


def _inject(rng: random.Random, rows: list[dict], licensed: set) -> tuple[list[dict], dict]:
    """Seed defects, each on its own vehicle so that each causes exactly one finding.

    * duplicate-record: an avoided row appears twice.
    * executed-above-failure: the highest judged row of a series with at least
      two judged rows becomes an avoided (executed) row.
    * unlicensed-config: an avoided row's speed moves off the lattice, below
      its original speed, so it stays under any failure of its series.
    """
    by_vehicle: dict[str, list[int]] = defaultdict(list)
    for i, row in enumerate(rows):
        by_vehicle[row["vehicle"]].append(i)
    vehicles = sorted(by_vehicle)
    rng.shuffle(vehicles)
    counts = {code: rng.randint(2, 5) for code in
              ("duplicate-record", "executed-above-failure", "unlicensed-config")}

    defective = [dict(r) for r in rows]
    duplicates: list[int] = []
    for code, wanted in counts.items():
        done = 0
        while done < wanted:
            indices = by_vehicle[vehicles.pop()]
            if code == "executed-above-failure":
                series: dict[tuple, list[int]] = defaultdict(list)
                for i in indices:
                    r = rows[i]
                    if r["outcome"] == "judged_failed":
                        series[(r["scenario"], r["overlap"], r["tg_speed"])].append(i)
                candidates = sorted(k for k, v in series.items() if len(v) >= 2)
                if not candidates:
                    continue
                top = max(series[rng.choice(candidates)], key=lambda i: float(rows[i]["vut_speed"]))
                defective[top].update(outcome="avoided", intervention="true")
            else:
                avoided = [i for i in indices if rows[i]["outcome"] == "avoided"]
                if not avoided:
                    continue
                i = rng.choice(avoided)
                if code == "duplicate-record":
                    duplicates.append(i)
                else:
                    r = defective[i]
                    speed = float(r["vut_speed"]) - OFF_LATTICE_KMH
                    key = (r["scenario"], r["light"], float(r["overlap"]), speed,
                           None if r["tg_speed"] == "" else float(r["tg_speed"]))
                    if speed <= 0 or key in licensed:
                        continue
                    r["vut_speed"] = _plain(speed)
            done += 1
    out = []
    for i, row in enumerate(defective):
        out.append(row)
        if i in duplicates:
            out.append(dict(row))
    return out, counts


def generate_import(rng: random.Random, size: str, dest: Path) -> dict:
    _copy_program_data(dest)
    document = json.loads((dest / "protocol.json").read_text(encoding="utf-8"))
    protocol = load_protocol(document)
    vehicles = SIZES["import"][size]
    spec = _random_spec(rng, vehicles)
    _write_json(dest / "track_spec.json", spec)
    log = simulate_campaign(load_protocol(_day_only(document)), load_simulation_spec(spec))
    rows = [_export_row(r) for r in log.records]
    del log
    licensed = {c.key() for c in enumerate_configs(protocol)}
    defective, injected = _inject(rng, rows, licensed)
    _write_export(dest / "track_day.csv", rows)
    _write_export(dest / "track_day_defects.csv", defective)
    executed = Counter(r["vehicle"] for r in rows if r["outcome"] in ("avoided", "impacted"))
    judged = sum(1 for r in rows if r["outcome"] == "judged_failed")
    return _describe(
        protocol,
        vehicles,
        len(rows) + len(defective),
        "track_spec.json",
        clean_records=len(rows),
        injected=injected,
        executed=dict(executed),
        day_judged=judged,
    )


def pass_import(p: Pass, info: dict, first: bool) -> None:
    inputs = Path(info["dir"])
    common = _common_args(inputs)
    p.out.mkdir(parents=True)

    findings = p.cli("validate_s", "validate", *common, "--log", inputs / "track_day_defects.csv",
                     expect=1)
    found = Counter(
        m.group(1) for m in map(_FINDING.search, findings.splitlines()) if m is not None
    )
    p.check(found == Counter(info["injected"]), f"findings {dict(found)} != injected {info['injected']}")

    protocol = info["protocol"]
    restored = p.out / "track_restored.csv"
    log = p.call("import_s", logio.read_log, inputs / "track_day.csv", protocol)
    expanded = log and p.call("import_s", campaign.expand_night_judgements, log)
    if expanded is not None:
        p.call("import_s", logio.write_log, expanded, restored)
        if first:
            problems = campaign.validate_log(expanded)
            p.check(not problems, f"expanded log has {len(problems)} findings")
            again = campaign.expand_night_judgements(expanded)
            p.check(again.records == expanded.records, "night expansion is not a fixpoint")
    p.check_no_nan(restored)

    stats = p.out / "stats.csv"
    p.cli("stats_s", "stats", *common, "--log", restored, "--out", stats)
    if p.check(stats.is_file(), "stats wrote no file"):
        rows = {r[0]: r[1:] for r in _csv_rows(stats)[2:]}
        p.check(
            {v: int(r[1]) for v, r in rows.items()} == info["executed"],
            "stats executed counts differ from the export",
        )
        judged = sum(int(r[2]) for r in rows.values())
        added = (len(_csv_rows(restored)) - 1) - info["clean_records"]
        p.check(judged == info["day_judged"] + added, "stats judged count is inconsistent")


GENERATE = {"fleet": generate_fleet, "desk": generate_desk, "import": generate_import}
# Checks that run once per worker, before the timed passes.
PREPARE = {"desk": prepare_desk}
PASS = {"fleet": pass_fleet, "desk": pass_desk, "import": pass_import}
