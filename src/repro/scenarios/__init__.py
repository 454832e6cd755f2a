"""Declarative scenarios: named synthetic worlds.

One frozen :class:`ScenarioConfig` names a world (population, catalogs,
demographic mix, bias intensities, seed); :data:`PRESETS` registers the
five named regimes; :func:`build_scenario` is the single generation funnel
shared by the CLI, the in-process registry, and ``POST /v1/datasets``.
"""

from __future__ import annotations

from .build import (
    build_scenario,
    build_scenario_site,
    decode_overrides,
    encode_overrides,
    scenario_spec,
)
from .config import SITES, ScenarioConfig
from .presets import PRESETS, describe_scenarios, get_scenario, scenario_names
from .scaled import PAGE_SLOTS, ScaledMarketplaceSite

__all__ = [
    "ScenarioConfig",
    "SITES",
    "PRESETS",
    "get_scenario",
    "scenario_names",
    "describe_scenarios",
    "build_scenario",
    "build_scenario_site",
    "scenario_spec",
    "encode_overrides",
    "decode_overrides",
    "ScaledMarketplaceSite",
    "PAGE_SLOTS",
]
