"""Evaluation harness reproducing the paper's Sections 5 and 6.

- :mod:`~repro.experiments.scenarios` -- Table-2 parameterized
  experiment configurations;
- :mod:`~repro.experiments.runner` -- builds simulator instances from a
  scenario and implements the localizer's replay-service interface;
- :mod:`~repro.experiments.wild` -- the five-ISP in-the-wild models of
  Section 5 (per-client throttling, incl. ISP5's delayed trigger);
- :mod:`~repro.experiments.metrics` -- FN/FP accounting.
"""

from repro.experiments.runner import NetsimReplayService, run_detection_experiment
from repro.experiments.scenarios import ScenarioConfig

__all__ = [
    "ScenarioConfig",
    "NetsimReplayService",
    "run_detection_experiment",
]
