"""Continuous-time hangar scheduling and layout toolkit.

Modules: core (domain types, geometry, cost), instgen (seeded instance
generator), validator (semantic feasibility checks), ach (constructive
heuristic), milp (model builder / LP export / satisfaction checks), exact
(desk-scale optimal oracle), report (SVG/HTML emission), cli (entry point).
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    AircraftSpec,
    Assignment,
    CostBreakdown,
    HangarConfig,
    Instance,
    Kind,
    Provenance,
    Solution,
    evaluate_cost,
)
