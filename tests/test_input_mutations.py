"""Seeded leaf mutations of the four JSON input documents, run through the CLI.

Each case replaces one leaf of a valid document (the bundled protocol, the EU
weight table, the fixture simulation spec or a full impact config) with one
of ``VALUES``. It then runs ``compare`` on the golden log, or ``simulate`` for
the spec, in-process. Whatever the input, ``main`` must return 0, 1 or 2
without raising, and no file it writes may hold a NaN. A seeded sample of at
most ``SAMPLE`` mutations per document runs; the ``PINNED`` cases, inputs
that once gave a traceback, a NaN, a silent exit 0 or a report that
depended on a vehicle's mass, always run and must exit 2 before writing any
file. Stdlib only.
"""

import json
import random
import re
from pathlib import Path

import pytest

from aebscore.cli import main
from aebscore.protocol import bundled_protocol_path

PROTOCOL = bundled_protocol_path()
WEIGHTS = PROTOCOL.parent / "weights_eu_example.json"
SPEC = Path(__file__).parent / "data" / "fixture_sim.json"
GOLDEN_LOG = Path(__file__).parent / "data" / "golden" / "fixture_campaign.jsonl"
IMPACT = {
    "name": "kinetic-energy-proxy",
    "geometry_rule": "linear",
    "tg_masses": {"C2C": 1400, "C2VRU": 80},
    "vut_masses": {"1A": 1620, "2": 1480, "6": 1850, "7B": 1705},
    "default_vut_mass": 1500,
}
DOCUMENTS = {
    "protocol": json.loads(PROTOCOL.read_text(encoding="utf-8")),
    "weights": json.loads(WEIGHTS.read_text(encoding="utf-8")),
    "spec": json.loads(SPEC.read_text(encoding="utf-8")),
    "impact": IMPACT,
}
VALUES = {
    "null": None,
    "[]": [],
    "{}": {},
    '""': "",
    '"x"': "x",
    "true": True,
    "-1": -1,
    "0": 0,
    "1e308": 1e308,
    "400-digit": 10**400,
    "[1]": [1],
    '{"a": 1}': {"a": 1},
}
SAMPLE = 50
SEED = 9
NAN = re.compile(r"\bnan\b", re.IGNORECASE)

# (document, leaf path, value, id)
PINNED = [
    ("impact", ("geometry_rule",), [], "impact-geometry-rule-list"),
    ("weights", ("weights", 0, "w"), 1e308, "weights-w-1e308"),
    ("weights", ("weights", 0, "w"), 10**400, "weights-w-400-digit"),
    ("impact", ("default_vut_mass",), 1e308, "impact-default-vut-mass-1e308"),
    ("spec", ("vehicles", 3, "oracle", "pretest_fail_prob"), None, "spec-pretest-fail-prob-null"),
    ("impact", ("name",), {"a": 1}, "impact-name-object"),
    ("spec", ("vehicles", 0, "model_year"), {"x": [1]}, "spec-model-year-object"),
    ("spec", ("vehicles", 2, "is_prototype"), "no", "spec-is-prototype-string"),
    ("impact", ("default_vut_mass",), True, "impact-default-vut-mass-bool"),
    ("impact", ("tg_masses", "C2C"), "2000", "impact-tg-mass-string"),
    ("impact", ("vut_masses", "1A"), "1e3", "impact-vut-mass-string"),
    ("impact", ("tg_masses", "C2C"), True, "impact-tg-mass-bool"),
    ("spec", ("vehicles", 0, "mass"), 10**400, "spec-mass-400-digit"),
    ("protocol", ("scenarios", 1, "tg_crossing"), "no", "protocol-tg-crossing-string"),
    ("protocol", ("scenarios", 3, "tg_paired"), "no", "protocol-tg-paired-string"),
    ("protocol", ("scenarios", 5, "requires_pretest"), "no", "protocol-requires-pretest-string"),
    ("impact", ("tg_masses", "C2C"), 0, "impact-tg-mass-zero"),
    ("impact", ("tg_masses", "C2O"), -1, "impact-tg-mass-c2o-negative"),
    ("weights", ("groups", "C2C", 0, "scenario"), "CPNAO", "weights-c2c-group-names-cpnao"),
    ("weights", ("region",), "R" * 300, "weights-region-300-characters"),
    ("protocol", ("scenarios",), [], "protocol-no-scenarios"),
    ("spec", ("vehicles", 3, "oracle", "rules"), [{"scenario": "CCRs", "fail_at": 10}],
     "spec-random-oracle-rules"),
]


def _leaves(node, path=()):
    """Paths of the scalars and empty containers under ``node``."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaves(value, (*path, i))
    else:
        yield path


def _sample():
    rng = random.Random(SEED)
    cases = []
    for name, doc in DOCUMENTS.items():
        every = [(path, label) for path in _leaves(doc) for label in VALUES]
        for path, label in rng.sample(every, min(SAMPLE, len(every))):
            where = "".join(f"[{key!r}]" for key in path)
            cases.append(pytest.param(name, path, VALUES[label], id=f"{name}{where}={label}"))
    return cases


def _run(tmp_path, name, path, value) -> int:
    mutated = json.loads(json.dumps(DOCUMENTS[name]))  # a deep copy
    *parents, last = path
    node = mutated
    for key in parents:
        node = node[key]
    node[last] = value
    inputs = {}
    for kind, doc in {"impact": IMPACT, name: mutated}.items():
        inputs[kind] = tmp_path / f"{kind}.json"
        inputs[kind].write_text(json.dumps(doc), encoding="utf-8")
    protocol = inputs.get("protocol", PROTOCOL)
    out = tmp_path / "out"
    out.mkdir()
    if name == "spec":
        args = ["simulate", "--protocol", str(protocol), "--oracle", str(inputs["spec"])]
        args += ["--out", str(out / "log.jsonl")]
    else:
        args = ["compare", "--protocol", str(protocol), "--log", str(GOLDEN_LOG)]
        args += ["--weights", str(inputs.get("weights", WEIGHTS))]
        args += ["--impact-model", str(inputs["impact"]), "--out", str(out)]
    code = main(args)
    assert code in (0, 1, 2)
    for written in out.iterdir():
        assert not NAN.search(written.read_text(encoding="utf-8")), written
    return code


@pytest.mark.parametrize("name, path, value", _sample())
def test_mutated_input_exits_0_1_or_2_and_writes_no_nan(tmp_path, capsys, name, path, value):
    _run(tmp_path, name, path, value)


@pytest.mark.parametrize("name, path, value", [pytest.param(*c[:3], id=c[3]) for c in PINNED])
def test_pinned_mutation_exits_2(tmp_path, capsys, name, path, value):
    assert _run(tmp_path, name, path, value) == 2
    assert not any((tmp_path / "out").iterdir())
