"""Command-line interface: validate, stats, score, compare, simulate.

Exit codes: 0 clean, 1 validation findings, 2 unreadable or ill-formed
inputs. All paths are taken as given relative to the working directory;
no environment variables are consulted. Report files are written with
deterministic bytes for fixed inputs, so output trees can be diffed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .aggregate import (
    METRICS,
    GroupScore,
    WeightTableError,
    aggregate_fs,
    aggregate_mps,
    build_matrix,
    check_weight_table,
    load_weight_table,
)
from .campaign import completion_stats, validate_log
from .impact import load_impact_config, passive_powers
from .logio import read_log, write_log
from .protocol import LIGHTS, load_protocol
from .report import (
    EXTENSIONS, FORMATS, completion_table, matrix_table, render, score_table, score_title
)
from .scoring import score_campaign
from .simulate import load_simulation_spec, simulate_campaign

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aebscore",
        description="Score and compare AEB track-test campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="check a campaign log against the procedure")
    _common(validate, log=True)
    validate.set_defaults(func=cmd_validate)

    stats = sub.add_parser("stats", help="per-vehicle completion statistics")
    _common(stats, log=True)
    stats.add_argument("--out", type=Path, help="write CSV here instead of stdout")
    stats.set_defaults(func=cmd_stats)

    score = sub.add_parser("score", help="scenario-level score tables per region and light")
    _common(score, log=True, weights=True, out=True, formats=True)
    score.set_defaults(func=cmd_score)

    compare = sub.add_parser("compare", help="ranked relativity matrices per metric/group/region")
    _common(compare, log=True, weights=True, out=True, formats=True)
    compare.set_defaults(func=cmd_compare)

    simulate = sub.add_parser("simulate", help="generate a campaign log from braking oracles")
    _common(simulate)
    simulate.add_argument("--oracle", type=Path, required=True, help="simulation spec JSON")
    simulate.add_argument("--seed", type=int, help="override the spec's seed")
    simulate.add_argument("--out", type=Path, required=True, help="log file to write (.jsonl/.csv)")
    simulate.add_argument(
        "--continue-past-impact",
        action="store_true",
        help="keep escalating after impacts with a braking response",
    )
    simulate.set_defaults(func=cmd_simulate)
    return parser


def _common(parser, log=False, weights=False, out=False, formats=False) -> None:
    parser.add_argument("--protocol", type=Path, required=True, help="protocol JSON file")
    if log:
        parser.add_argument("--log", type=Path, required=True, help="campaign log (.jsonl/.csv)")
    if weights:
        parser.add_argument("--impact-model", type=Path, help="impact model config JSON")
        parser.add_argument(
            "--weights",
            type=Path,
            action="append",
            required=True,
            help="regional weight table JSON (repeatable)",
        )
    if out:
        parser.add_argument("--out", type=Path, required=True, help="output directory")
    if formats:
        parser.add_argument(
            "--format",
            default="csv",
            help=f"comma-separated subset of {','.join(FORMATS)} (default csv)",
        )


def _formats(args) -> list[str]:
    """The requested formats, each once, in the order first given."""
    formats = list(dict.fromkeys(f.strip() for f in args.format.split(",") if f.strip()))
    if not formats:
        raise ValueError("at least one output format is required")
    for fmt in formats:
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}; expected a subset of {','.join(FORMATS)}")
    return formats


def _write_tables(tables, out_dir: Path, formats: Sequence[str], stem_of) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for table_obj, stem in ((t, stem_of(t)) for t in tables):
        for fmt in formats:
            path = out_dir / f"{stem}.{EXTENSIONS[fmt]}"
            path.write_text(render(table_obj, fmt), encoding="utf-8")
            written.append(path)
    for path in written:
        print(path)
    return written


def cmd_validate(args) -> int:
    protocol = load_protocol(args.protocol)
    log = read_log(args.log, protocol)
    diagnostics = validate_log(log)
    for diagnostic in diagnostics:
        print(diagnostic)
    return EXIT_FINDINGS if diagnostics else EXIT_OK


def cmd_stats(args) -> int:
    protocol = load_protocol(args.protocol)
    log = read_log(args.log, protocol)
    table = completion_table(completion_stats(log))
    text = render(table, "csv")
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
        print(args.out)
    else:
        print(text, end="")
    return EXIT_OK


def _read_inputs(args):
    """Score's and compare's inputs; None on log findings."""
    protocol = load_protocol(args.protocol)
    model = load_impact_config(args.impact_model or {})
    log = read_log(args.log, protocol)
    diagnostics = validate_log(log)
    if diagnostics:
        for diagnostic in diagnostics:
            print(diagnostic, file=sys.stderr)
        return None
    tables = [load_weight_table(p) for p in args.weights]
    seen = {}  # region as report file names spell it -> (weight table file, region)
    for path, table in zip(args.weights, tables):
        problems = check_weight_table(table, protocol)
        if problems:
            raise WeightTableError(f"weight table {path}: " + "; ".join(problems[:3]))
        key = table.region.upper().lower()
        if key in seen:  # its reports would overwrite the other table's
            other, region = seen[key]
            clash = f"both have region {region!r}" if region == table.region else (
                f"have regions {region!r} and {table.region!r}, whose reports share file names")
            raise WeightTableError(f"weight tables {other} and {path} {clash}")
        seen[key] = (path, table.region)
    return protocol, log, model, tables


def cmd_score(args) -> int:
    formats = _formats(args)
    inputs = _read_inputs(args)
    if inputs is None:
        return EXIT_FINDINGS
    protocol, log, model, weight_tables = inputs
    scores = score_campaign(log, model, validate=False)
    # The grids of all regions are the same; each is built once and titled per region.
    first = weight_tables[0].region
    grids = {(li, m): score_table(scores, protocol, m, li, first) for li in LIGHTS for m in METRICS}
    tables = (
        grids[light, metric]._replace(title=score_title(metric, light, table.region))
        for table in weight_tables
        for light in LIGHTS
        for metric in METRICS
    )
    _write_tables(tables, args.out, formats, lambda t: t.title.lower())
    return EXIT_OK


def cmd_compare(args) -> int:
    formats = _formats(args)
    inputs = _read_inputs(args)
    if inputs is None:
        return EXIT_FINDINGS
    protocol, log, model, weight_tables = inputs
    scores = score_campaign(log, model, validate=False)
    by_vehicle: dict[str, dict] = {}  # vehicle -> (scenario, light) -> its score
    for s in scores:
        by_vehicle.setdefault(s.vehicle, {})[s.scenario, s.light] = s
    by_instance = passive_powers(model, protocol)[2]
    group_scores = [
        [
            GroupScore(
                vehicle=vehicle,
                group=group,
                region=table.region,
                fs=aggregate_fs(by_vehicle[vehicle], table, group),
                mps=aggregate_mps(by_vehicle[vehicle], table, group, by_instance),
            )
            for vehicle in by_vehicle
        ]
        for table in weight_tables
        for group in table.groups
    ]
    # One matrix at a time: each is built, rendered, written and released in turn.
    matrices = (matrix_table(build_matrix(gs, m)) for gs in group_scores for m in METRICS)
    _write_tables(matrices, args.out, formats, lambda t: t.title.lower())
    return EXIT_OK


def cmd_simulate(args) -> int:
    protocol = load_protocol(args.protocol)
    spec = load_simulation_spec(args.oracle)
    if args.seed is not None:
        spec = spec._replace(seed=args.seed)
    log = simulate_campaign(protocol, spec, stop_on_impact=not args.continue_past_impact)
    write_log(log, args.out)
    print(f"{args.out}: {log.size} records for {len(spec.vehicles)} vehicles")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # every input error class is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
