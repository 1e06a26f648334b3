"""Outside-in layer tracing: wrap aebscore's public functions from the benchmark.

``Tracer.install()`` replaces each traced function with a timing wrapper in
every loaded ``aebscore`` module that holds it, so callers that imported a
function by name (``aebscore.cli.score_campaign``) call the wrapper too.
``Tracer.remove()`` puts the originals back. Spans stay in memory as
``(name, parent, start, end, op)`` tuples until the run writes them out,
where ``op`` numbers the top-level call (operation) the span belongs to;
counters are gathered at the same boundaries. ``layer_metrics`` turns one
traced pass into the per-layer metrics named in ``LAYER_METRICS``.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# name -> unit; the order is the order of the report.
LAYER_METRICS = {
    "protocol.load_protocol.s": "s",
    "protocol.enumerate_configs.calls": "count",
    "protocol.enumerate_configs.s": "s",
    "protocol.enumerate_configs.calls_per_instance": "ratio",
    "simulate.load_simulation_spec.s": "s",
    "simulate.simulate_campaign.s": "s",
    "campaign.run_scenario.calls": "count",
    "campaign.run_scenario.s": "s",
    "simulate.executed_records": "count",
    "simulate.judged_records": "count",
    "logio.read_log.calls": "count",
    "logio.read_log.s": "s",
    "logio.read_log.records": "count",
    "logio.read_log.bytes": "bytes",
    "logio.read_log.parses_per_log": "ratio",
    "logio.write_log.s": "s",
    "logio.write_log.bytes": "bytes",
    "campaign.validate_log.s": "s",
    "campaign.validate_log.records": "count",
    "campaign.validate_log.diagnostics": "count",
    "campaign.completion_stats.s": "s",
    "campaign.completion_stats.us_per_record": "us",
    "campaign.expand_night_judgements.s": "s",
    "campaign.expand_night_judgements.added": "count",
    "scoring.score_campaign.s": "s",
    "scoring.score_campaign.self_s": "s",
    "scoring.score_campaign.instances": "count",
    "scoring.frequency_score.calls": "count",
    "scoring.frequency_score.s": "s",
    "scoring.mitigation_power_score.calls": "count",
    "scoring.mitigation_power_score.s": "s",
    "impact.scenario_passive_power.calls": "count",
    "impact.scenario_passive_power.s": "s",
    "impact.scenario_passive_power.distinct_ratio": "ratio",
    "aggregate.load_weight_table.s": "s",
    "aggregate.check_weight_table.s": "s",
    "aggregate.aggregate_fs.calls": "count",
    "aggregate.aggregate_fs.s": "s",
    "aggregate.aggregate_mps.calls": "count",
    "aggregate.aggregate_mps.s": "s",
    "aggregate.build_matrix.s": "s",
    "aggregate.build_matrix.cells": "count",
    "report.score_table.s": "s",
    "report.matrix_table.s": "s",
    "report.matrix_table.cells": "count",
    "report.matrix_table.us_per_cell": "us",
    "report.render.csv.s": "s",
    "report.render.csv.bytes": "bytes",
    "report.render.markdown.s": "s",
    "report.render.markdown.bytes": "bytes",
    "report.render.html.s": "s",
    "report.render.html.bytes": "bytes",
    "report.shading_used_ratio": "ratio",
    "cli.main.calls": "count",
    "cli.cmd_validate.self_s": "s",
    "cli.cmd_stats.self_s": "s",
    "cli.cmd_score.self_s": "s",
    "cli.cmd_compare.self_s": "s",
    "cli.cmd_simulate.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_records_per_s": "1/s",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(path) -> int:
    return Path(path).stat().st_size


# Counters gathered after each call: (tracer counts, args, kwargs, result).
def _count_read_log(c, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    c["logio.read_log.records"] += len(result.records)
    c["logio.read_log.bytes"] += _size(path)
    c.logs.add(str(path))


def _count_write_log(c, args, kwargs, result):
    c["logio.write_log.bytes"] += _size(_arg(args, kwargs, 1, "path"))


def _count_validate(c, args, kwargs, result):
    c["campaign.validate_log.records"] += len(_arg(args, kwargs, 0, "log").records)
    c["campaign.validate_log.diagnostics"] += len(result)


def _count_completion(c, args, kwargs, result):
    c["campaign.completion_stats.records"] += len(_arg(args, kwargs, 0, "log").records)


def _count_expand(c, args, kwargs, result):
    c["campaign.expand_night_judgements.added"] += len(result.records) - len(
        _arg(args, kwargs, 0, "log").records
    )


def _count_simulate(c, args, kwargs, result):
    for record in result.records:
        judged = record.outcome.kind.value == "judged_failed"
        c["simulate.judged_records" if judged else "simulate.executed_records"] += 1


def _count_passive(c, args, kwargs, result):
    configs = _arg(args, kwargs, 0, "configs")
    if configs:
        c.pairs.add((_arg(args, kwargs, 2, "vut_mass"), configs[0].code, configs[0].light))


def _count_scores(c, args, kwargs, result):
    c["scoring.score_campaign.instances"] += len(result)


def _count_matrix(c, args, kwargs, result):
    c["aggregate.build_matrix.cells"] += len(result.cells)


def _count_matrix_table(c, args, kwargs, result):
    c["report.matrix_table.cells"] += len(result.columns) * len(result.rows)


def _count_render(c, args, kwargs, result):
    table = _arg(args, kwargs, 0, "table")
    fmt = _arg(args, kwargs, 1, "fmt")
    c[f"report.render.{fmt}.bytes"] += len(result.encode("utf-8"))
    if fmt == "html" and table.shading is not None:
        c["report.html_matrix_cells"] += len(table.columns) * len(table.rows)


def _render_name(args, kwargs):
    return f"report.render.{_arg(args, kwargs, 1, 'fmt')}"


# (module, function, counter hook, span-name function)
TARGETS = (
    ("protocol", "load_protocol", None, None),
    ("protocol", "enumerate_configs", None, None),
    ("simulate", "load_simulation_spec", None, None),
    ("simulate", "simulate_campaign", _count_simulate, None),
    ("campaign", "run_scenario", None, None),
    ("campaign", "validate_log", _count_validate, None),
    ("campaign", "completion_stats", _count_completion, None),
    ("campaign", "expand_night_judgements", _count_expand, None),
    ("logio", "read_log", _count_read_log, None),
    ("logio", "write_log", _count_write_log, None),
    ("scoring", "score_campaign", _count_scores, None),
    ("scoring", "frequency_score", None, None),
    ("scoring", "mitigation_power_score", None, None),
    ("impact", "scenario_passive_power", _count_passive, None),
    ("aggregate", "load_weight_table", None, None),
    ("aggregate", "check_weight_table", None, None),
    ("aggregate", "aggregate_fs", None, None),
    ("aggregate", "aggregate_mps", None, None),
    ("aggregate", "build_matrix", _count_matrix, None),
    ("report", "score_table", None, None),
    ("report", "matrix_table", _count_matrix_table, None),
    ("report", "render", _count_render, _render_name),
    ("cli", "main", None, None),
    ("cli", "cmd_validate", None, None),
    ("cli", "cmd_stats", None, None),
    ("cli", "cmd_score", None, None),
    ("cli", "cmd_compare", None, None),
    ("cli", "cmd_simulate", None, None),
)


class Counts(defaultdict):
    """Named counters plus the sets that distinct-ratios need."""

    def __init__(self):
        super().__init__(float)
        self.logs: set[str] = set()
        self.pairs: set[tuple] = set()


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, parent index or -1, start, end, op)
        self.counts = Counts()
        self.op = 0
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, count, name_of):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            if not open_:  # a top-level call is one operation
                self.op += 1
            span = len(spans)
            spans.append(None)
            open_.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                label = name if name_of is None else name_of(args, kwargs)
                spans[span] = (label, open_[-1] if open_ else -1, start, end, self.op)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "aebscore"]
        for module_name, function, count, name_of in TARGETS:
            original = getattr(importlib.import_module(f"aebscore.{module_name}"), function)
            wrapper = self._wrap(f"{module_name}.{function}", original, count, name_of)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Per span name: call count, busy seconds and self seconds.

    Busy time counts only spans with no ancestor of the same name, so a
    function nested in itself is not counted twice. Self time is a span's
    duration minus the durations of its direct traced children.
    """
    calls: dict = defaultdict(int)
    busy: dict = defaultdict(float)
    child: dict = defaultdict(float)
    for name, parent, start, end, _ in spans:
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            busy[name] += end - start
    self_time: dict = defaultdict(float)
    for index, (name, _, start, end, _) in enumerate(spans):
        self_time[name] += (end - start) - child.get(index, 0.0)
    return calls, busy, self_time


def layer_metrics(tracer: Tracer, instances: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without the trace.* overhead rows)."""
    calls, busy, self_time = span_totals(tracer.spans)
    c = tracer.counts
    m: dict[str, float] = {}
    for name in LAYER_METRICS:
        base, _, quantity = name.rpartition(".")
        if quantity == "calls":
            m[name] = calls.get(base, 0)
        elif quantity == "s":
            m[name] = busy.get(base, 0.0)
        elif quantity == "self_s":
            m[name] = self_time.get(base, 0.0)
        elif name in c:
            m[name] = c[name]
    m["protocol.enumerate_configs.calls_per_instance"] = _ratio(
        calls.get("protocol.enumerate_configs", 0), instances
    )
    m["logio.read_log.parses_per_log"] = _ratio(calls.get("logio.read_log", 0), len(c.logs))
    m["campaign.completion_stats.us_per_record"] = 1e6 * _ratio(
        busy.get("campaign.completion_stats", 0.0), c["campaign.completion_stats.records"]
    )
    m["report.matrix_table.us_per_cell"] = 1e6 * _ratio(
        busy.get("report.matrix_table", 0.0), c["report.matrix_table.cells"]
    )
    m["impact.scenario_passive_power.distinct_ratio"] = _ratio(
        len(c.pairs), calls.get("impact.scenario_passive_power", 0)
    )
    m["report.shading_used_ratio"] = _ratio(
        c["report.html_matrix_cells"], c["report.matrix_table.cells"]
    )
    m["trace.spans"] = len(tracer.spans)
    return {
        name: float(m.get(name, 0.0))
        for name in LAYER_METRICS
        if not name.startswith("trace.overhead")
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
