"""Scenario-based AEB track-test campaign scoring and comparison toolkit.

The names below are looked up in their modules on each access (PEP 562), so
``import aebscore`` imports no submodule, and ``aebscore.<name>`` is always
what the module holds at that moment: nothing is kept here.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "aggregate": "GroupScore RelativityMatrix ScoreValue aggregate_fs aggregate_mps build_matrix",
    "campaign": "CampaignLog CompletionStats OutcomeKind TestOutcome TestRecord completion_stats"
    " expand_night_judgements run_scenario validate_log",
    "impact": "ImpactPowerModel",
    "inputs": "WeightTable load_simulation_spec load_weight_table",
    "logio": "read_log write_log",
    "protocol": "ProtocolDefinition ScenarioGroup ScenarioSpec TestConfig bundled_protocol_path"
    " enumerate_configs load_protocol",
    "scoring": "ScenarioScore frequency_score mitigation_power_score score_campaign",
    "simulate": "simulate_campaign",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:  # also a submodule not imported yet: ``from aebscore import`` then loads it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
