"""Declarative scenarios: a whole evaluation as serializable data.

Every evaluation in the paper is a *scenario* — a BHSS configuration, an
attacker, a channel, and an operating-point grid.  This package makes that
a first-class, JSON-serializable object so every layer consumes the same
description:

``Scenario``
    The spec itself: config + jammer spec + channel/impairment specs +
    (SNR x SJR) grid + packet/seed budget.  ``load``/``save`` round-trip
    JSON files with validation errors that name the bad field;
    ``build()`` returns a ready :class:`~repro.core.link.LinkSimulator`
    and :class:`~repro.jamming.base.Jammer`.
``run_scenario``
    Evaluates the grid into a tidy
    :class:`~repro.analysis.sweep.SweepResult`, fanning points out over
    the ``REPRO_WORKERS`` pool through ``ParallelExecutor.map_spec`` —
    workers rebuild the link and jammer from the spec.

New jammers, channels, or operating points become a data change, not a
code change: drop a JSON file and ``repro-bhss run --scenario file.json``.
"""

from repro.scenario.spec import Scenario, ScenarioError
from repro.scenario.runner import SCENARIO_COLUMNS, evaluate_scenario_point, run_scenario

__all__ = [
    "Scenario",
    "ScenarioError",
    "run_scenario",
    "evaluate_scenario_point",
    "SCENARIO_COLUMNS",
]
