"""Claim: the shaper fingerprinter classifies held-out probes, end to end.

- **train**: :data:`GRID_SHAPERS` x :data:`GRID_APPS` x train seeds of
  seeded probe replays, fitted into a
  :class:`~repro.stats.fingerprint.NearestCentroidClassifier`;
- **test**: the same shapers and apps on held-out seeds, classified
  cell by cell; accuracy must reach :data:`MIN_ACCURACY`;
- **compose**: one WeHeY test on a dual-token-bucket scenario,
  localized with :class:`~repro.core.localizer.WeHeYLocalizer` and
  then fingerprinted with
  :func:`~repro.stats.fingerprint.fingerprint_bottleneck` -- the
  localizer must find the bottleneck and the classifier must classify
  it, the API contract this subsystem exists for.

The report embeds the fitted classifier (``to_dict``) so a regression
can be diagnosed from the report alone.
"""

import numpy as np

from repro.stats.fingerprint import (
    DEFAULT_SHAPERS,
    FEATURE_NAMES,
    NearestCentroidClassifier,
    fingerprint_bottleneck,
    labelled_grid,
    probe_config,
)

#: Pinned grid.  Both apps are TCP streamers at different rates -- TCP
#: probes see the queuing-delay dynamics that separate the AQM trio,
#: which UDP cannot observe (see repro.stats.fingerprint).
GRID_SHAPERS = DEFAULT_SHAPERS
GRID_APPS = ("netflix", "youtube")
TRAIN_SEEDS = (0, 1, 2, 3)
TEST_SEEDS = (4, 5)
QUICK_TRAIN_SEEDS = (0, 1)
QUICK_TEST_SEEDS = (2,)
GRID_DURATION = 10.0

#: The composition check's scenario.  The mechanism must come from the
#: token-bucket family: the loss-trend localizer keys on correlated
#: loss bursts across the two paths, which burst-dropping shapers
#: produce and randomized AQMs (RED/PIE) deliberately destroy (the
#: ``limits`` claim pins that a RED scenario never localizes).
#: Duration is longer than the grid's so the correlation detector has
#: enough windows.
COMPOSE_SHAPER = "dual_tbf"
COMPOSE_APP = "netflix"
COMPOSE_SEED = 0
COMPOSE_DURATION = 20.0

MIN_ACCURACY = 0.8


def localize_probe(config):
    """Localize one probe scenario; returns ``(report, service)``."""
    from repro.core.localizer import WeHeYLocalizer
    from repro.experiments.runner import NetsimReplayService
    from repro.experiments.wild import default_tdiff
    from repro.wehe.apps import make_trace
    from repro.wehe.traces import bit_invert

    service = NetsimReplayService(config)
    localizer = WeHeYLocalizer(np.random.default_rng(config.seed), default_tdiff())
    trace = make_trace(config.app, config.duration, service._trace_rng)
    return localizer.localize(service, trace, bit_invert(trace)), service


def measure_test(classifier, test_seeds):
    features, labels, groups = labelled_grid(
        shapers=GRID_SHAPERS, apps=GRID_APPS, seeds=test_seeds, duration=GRID_DURATION
    )
    predictions = classifier.predict_many(features, groups=groups)
    cells = []
    confusion = {}
    cell_keys = [
        (shaper, app, seed)
        for shaper in GRID_SHAPERS
        for app in GRID_APPS
        for seed in test_seeds
    ]
    for (shaper, app, seed), predicted, label in zip(cell_keys, predictions, labels):
        cells.append({
            "shaper": shaper,
            "app": app,
            "seed": seed,
            "predicted": predicted,
            "correct": bool(predicted == label),
        })
        confusion.setdefault(shaper, {})
        confusion[shaper][predicted] = confusion[shaper].get(predicted, 0) + 1
    correct = sum(cell["correct"] for cell in cells)
    return {
        "cells": cells,
        "confusion": confusion,
        "accuracy": correct / len(labels) if labels else 0.0,
        "n_cells": len(labels),
        "n_correct": correct,
        "seeds": list(test_seeds),
    }


def measure_compose(classifier):
    """End to end: localize a shaped scenario, then fingerprint it."""
    config = probe_config(
        COMPOSE_SHAPER, app=COMPOSE_APP, seed=COMPOSE_SEED, duration=COMPOSE_DURATION
    )
    report, service = localize_probe(config)
    fingerprint = fingerprint_bottleneck(report, service, classifier)
    return {
        "scenario": {
            "shaper": COMPOSE_SHAPER,
            "app": COMPOSE_APP,
            "seed": COMPOSE_SEED,
            "duration": COMPOSE_DURATION,
        },
        "localized": bool(report.localized),
        "outcome": report.outcome.value,
        "fingerprint_reason": fingerprint.reason,
        "fingerprint_shaper": fingerprint.shaper,
        "fingerprint_margin": fingerprint.margin(),
        "classified": fingerprint.classified,
    }


def measure(quick):
    train_seeds = QUICK_TRAIN_SEEDS if quick else TRAIN_SEEDS
    test_seeds = QUICK_TEST_SEEDS if quick else TEST_SEEDS
    features, labels, groups = labelled_grid(
        shapers=GRID_SHAPERS, apps=GRID_APPS, seeds=train_seeds, duration=GRID_DURATION
    )
    classifier = NearestCentroidClassifier().fit(features, labels, groups=groups)
    return {
        "grid": {
            "shapers": list(GRID_SHAPERS),
            "apps": list(GRID_APPS),
            "duration_s": GRID_DURATION,
        },
        "feature_names": list(FEATURE_NAMES),
        "train": {"cells": len(labels), "seeds": list(train_seeds)},
        "test": measure_test(classifier, test_seeds),
        "compose": measure_compose(classifier),
        "classifier": classifier.to_dict(),
    }


def failures(report):
    failures = []
    accuracy = report["test"]["accuracy"]
    if accuracy < MIN_ACCURACY:
        failures.append(f"fingerprint accuracy {accuracy:.3f} < {MIN_ACCURACY}")
    compose = report["compose"]
    if not compose["localized"]:
        failures.append(
            "composition check: localizer found no bottleneck "
            f"(outcome {compose['outcome']!r})"
        )
    elif not compose["classified"]:
        failures.append(
            "composition check: fingerprint_bottleneck returned "
            f"no classification (reason {compose['fingerprint_reason']!r})"
        )
    return failures
