"""Independent brute-force references for the procedure engine and the scores.

Everything here is written the slow, obvious way on purpose: plain dict
scans, no shared helpers with the package internals, energies spelled out
inline. These are the oracles the fast implementations are checked against.
"""

from __future__ import annotations

import csv
import io

from aebscore.campaign import OutcomeKind
from aebscore.protocol import ScenarioGroup
from aebscore.report import Table

SHIFT = 5.0
C2C_TG_MASS = 1500.0


def series_of(config, configs):
    """All configs sharing the escalation series of ``config``, by speed."""
    return sorted(
        (
            c
            for c in configs
            if c.code == config.code
            and c.light == config.light
            and c.overlap == config.overlap
            and c.tg_speed == config.tg_speed
        ),
        key=lambda c: c.vut_speed,
    )


def scan_series(outcomes_by_speed, speeds, stop_on_impact=True):
    """Reference stop-rule scan: outcome kind for every lattice speed.

    ``outcomes_by_speed`` maps speed -> (kind, intervention) as the oracle
    would answer if that speed were driven. Returns speed -> kind actually
    recorded by the escalation procedure.
    """
    recorded = {}
    stopped = False
    for speed in sorted(speeds):
        if stopped:
            recorded[speed] = OutcomeKind.JUDGED_FAILED
            continue
        kind, intervention = outcomes_by_speed[speed]
        recorded[speed] = kind
        if kind is OutcomeKind.IMPACTED and (stop_on_impact or not intervention):
            stopped = True
    return recorded


def night_must_be_judged(records, stop_on_impact=True):
    """Reference night rule: (vehicle, night config key) -> judged or not.

    A simulated night test is judged failed exactly when its slice's
    pre-test failed, when its daylight counterpart (same scenario, overlap,
    VUT and TG speed) was judged or was an impact at the lowest impacted or
    judged speed of its day series, or when a lower night speed of the same
    series was judged or ended the series: any impact, or with
    ``stop_on_impact`` off an impact without braking response.
    """
    by_key = {}
    by_vehicle = {}
    for r in records:
        by_key[(r.vehicle, r.config.key())] = r
        by_vehicle.setdefault(r.vehicle, []).append(r)
    failed = (OutcomeKind.IMPACTED, OutcomeKind.JUDGED_FAILED)
    expected = {}
    for r in records:
        c = r.config
        if c.light != "night":
            continue
        day = by_key.get((r.vehicle, (c.code, "day", c.overlap, c.vut_speed, c.tg_speed)))
        counterpart_failed = False
        if day is not None and day.outcome.kind is OutcomeKind.JUDGED_FAILED:
            counterpart_failed = True
        elif day is not None and day.outcome.kind is OutcomeKind.IMPACTED:
            day_failures = [
                o.config.vut_speed
                for o in by_vehicle[r.vehicle]
                if o.config.code == c.code
                and o.config.light == "day"
                and o.config.overlap == c.overlap
                and o.config.tg_speed == c.tg_speed
                and o.outcome.kind in failed
            ]
            counterpart_failed = c.vut_speed == min(day_failures)
        lower_stopped = False
        for o in by_vehicle[r.vehicle]:
            if (
                o.config.code == c.code
                and o.config.light == "night"
                and o.config.overlap == c.overlap
                and o.config.tg_speed == c.tg_speed
                and o.config.vut_speed < c.vut_speed
            ):
                kind = o.outcome.kind
                if kind is OutcomeKind.JUDGED_FAILED:
                    lower_stopped = True
                if kind is OutcomeKind.IMPACTED and (stop_on_impact or not o.outcome.intervention):
                    lower_stopped = True
        judged = r.pre_test == "failed" or counterpart_failed or lower_stopped
        expected[(r.vehicle, c.key())] = judged
    return expected


def boundary_of(config, configs, outcomes):
    """(speed, shiftable) of the first non-avoided config in the series.

    The boundary is shiftable only if the series avoided at least one test,
    i.e. the vehicle demonstrated a capability edge inside the tested range.
    """
    failures = []
    any_avoided = False
    for c in series_of(config, configs):
        kind = outcomes[c].kind
        if kind is OutcomeKind.AVOIDED:
            any_avoided = True
        else:
            failures.append(c.vut_speed)
    if not failures:
        return None
    return (min(failures), any_avoided)


def is_avoided(config, configs, outcomes, delta):
    avoided = outcomes[config].kind is OutcomeKind.AVOIDED
    bound = boundary_of(config, configs, outcomes)
    if delta == 0.0 or bound is None or not bound[1]:
        return avoided
    f = bound[0]
    v = config.vut_speed
    if (v < f) != (v < f + delta):
        return not avoided
    return avoided


def energy(config, vut_mass, speed):
    """Inline kinetic-energy proxy, kept separate from the package's version."""
    factor = config.overlap / 100.0
    if config.scenario.group is ScenarioGroup.C2C:
        m = vut_mass * C2C_TG_MASS / (vut_mass + C2C_TG_MASS)
        if config.scenario.tg_crossing or config.tg_speed is None:
            closing = speed
        else:
            closing = speed - config.tg_speed
            if closing < 0:
                closing = 0.0
    else:
        m = vut_mass
        closing = speed
    ms = closing / 3.6
    return 0.5 * m * ms * ms * factor


def frequency_triple(configs, outcomes, weights=None):
    values = []
    for delta in (-SHIFT, 0.0, SHIFT):
        num = 0.0
        den = 0.0
        for c in configs:
            w = 1.0 if weights is None else weights.get(c, 1.0)
            den += w
            if is_avoided(c, configs, outcomes, delta):
                num += w
        values.append(num / den)
    return tuple(values)  # (lower, nominal, upper)


def mitigation_triple(configs, outcomes, vut_mass, weights=None):
    den = 0.0
    for c in configs:
        w = 1.0 if weights is None else weights.get(c, 1.0)
        den += w * energy(c, vut_mass, c.vut_speed)
    values = []
    for delta in (-SHIFT, 0.0, SHIFT):
        num = 0.0
        for c in configs:
            w = 1.0 if weights is None else weights.get(c, 1.0)
            if is_avoided(c, configs, outcomes, delta):
                continue
            outcome = outcomes[c]
            if outcome.kind is OutcomeKind.IMPACTED:
                speed = outcome.impact_speed
                bound = boundary_of(c, configs, outcomes)
                if bound is not None and bound[1]:
                    speed = speed - delta
                    if speed < 0:
                        speed = 0.0
                    if speed > c.vut_speed:
                        speed = c.vut_speed
                num += w * energy(c, vut_mass, speed)
            else:
                num += w * energy(c, vut_mass, c.vut_speed)
        values.append(1.0 - num / den)
    return tuple(values)


def natural_key(vehicle):
    """Vehicles with a numeric prefix first, by number then suffix, then by the
    whole id ('07' before '7'); others by name."""
    digits = ""
    for ch in vehicle:
        if not ch.isdecimal():
            break
        digits += ch
    if digits:
        return (0, int(digits), vehicle[len(digits):], vehicle)
    return (1, 0, vehicle, vehicle)


def relativity_cell(score_x, score_y):
    """Relative score of x against y: ratio minus one, with the zero rules."""
    if score_x < 0 or score_y < 0:
        raise ValueError("negative score")
    if score_x == 0 and score_y == 0:
        return 0.0
    if score_y == 0:
        return float("inf")
    if score_x == 0:
        return -1.0
    return score_x / score_y - 1.0


def percent_text(value):
    """A relativity as printed: two decimals of a percent, or a literal inf."""
    if value == float("inf"):
        return "inf"
    return "%.2f%%" % (value * 100.0)


def shade_color(value):
    """HTML shade of a relativity: white at 0, green at +100% or more, red at -100%."""
    t = 1.0 if value == float("inf") else max(-1.0, min(1.0, value))
    if t >= 0:
        red, green, blue = int(255 - 155 * t), 255, int(255 - 155 * t)
    else:
        red, green, blue = 255, int(255 + 155 * t), int(255 + 155 * t)
    return "#%02x%02x%02x" % (red, green, blue)


def matrix_reference(nominal):
    """Ranked order and, per (x, y), the (value, text, colour) of each matrix cell.

    ``nominal`` maps vehicle -> nominal score. Each cell is worked out on
    its own; the diagonal is 0 without a ratio, so one vehicle with any
    score is a one-cell matrix.
    """
    order = sorted(nominal, key=lambda v: (-nominal[v], natural_key(v)))
    cells = {}
    for x in order:
        for y in order:
            value = 0.0 if x == y else relativity_cell(nominal[x], nominal[y])
            cells[(x, y)] = (value, percent_text(value), shade_color(value))
    return order, cells


def _plain(x):
    return int(x) if float(x).is_integer() else float(x)


def record_to_row(record):
    """One log row of a record as a dict: ``tg_speed`` always, other optional
    fields only when set."""
    c, o = record.config, record.outcome
    row = {
        "vehicle": record.vehicle,
        "scenario": c.scenario.code,
        "light": c.light,
        "vut_speed": _plain(c.vut_speed),
        "tg_speed": None if c.tg_speed is None else _plain(c.tg_speed),
        "overlap": _plain(c.overlap),
        "outcome": o.kind.value,
    }
    if o.impact_speed is not None:
        row["impact_speed"] = _plain(o.impact_speed)
    if o.intervention is not None:
        row["intervention"] = o.intervention
    if o.projected is not None:
        row["projected"] = o.projected
    if record.pre_test is not None:
        row["pre_test"] = record.pre_test
    return row


def protocol_to_dict(protocol):
    """A loaded protocol written back as the document it loads from."""
    out = {
        "provenance": protocol.provenance,
        "notes": protocol.notes,
        "expected_config_count": protocol.config_count(),
        "scenarios": [],
    }
    for s in protocol.scenarios:
        entry = {
            "code": s.code,
            "group": s.group.value,
            "vut_speed_ranges": [[_plain(r.lo), _plain(r.hi)] for r in s.vut_speed_ranges],
            "tg_speeds": None if s.tg_speeds is None else [_plain(v) for v in s.tg_speeds],
            "speed_step": _plain(s.speed_step),
            "overlaps": [_plain(v) for v in s.overlaps],
            "lights": list(s.lights),
            "description": s.description,
        }
        for flag in ("tg_paired", "tg_crossing", "requires_pretest"):
            if getattr(s, flag):
                entry[flag] = True
        if s.night is not None:
            override = {}
            if s.night.vut_speed_ranges is not None:
                override["vut_speed_ranges"] = [
                    [_plain(r.lo), _plain(r.hi)] for r in s.night.vut_speed_ranges
                ]
            if s.night.tg_speeds is not None:
                override["tg_speeds"] = [_plain(v) for v in s.night.tg_speeds]
            if s.night.overlaps is not None:
                override["overlaps"] = [_plain(v) for v in s.night.overlaps]
            entry["night"] = override
        out["scenarios"].append(entry)
    return out


def parse_csv(text):
    """A report's CSV text read back into its table: title row, header row, body."""
    rows = list(csv.reader(io.StringIO(text)))
    corner, *columns = rows[1]
    body = tuple((r[0], tuple(r[1:])) for r in rows[2:])
    return Table(title=rows[0][0], corner=corner, columns=tuple(columns), rows=body)


def parse_score_cell(cell):
    """``(mean, std)`` of a score cell ``mean±std``, or None for ``NA``."""
    if cell == "NA":
        return None
    mean_text, std_text = cell.split("±")
    return float(mean_text), float(std_text)


def parse_percent_cell(cell):
    """A matrix cell as a fraction: ``12.5%`` is 0.125 and ``inf`` is infinity."""
    if cell == "inf":
        return float("inf")
    if not cell.endswith("%"):
        raise ValueError(f"not a percent cell: {cell!r}")
    return float(cell[:-1]) / 100.0
