"""Claim: Table 1 -- the throughput comparison localizes per-client throttling.

Paper: ISP1-4 localize at 89.8-98.2%; ISP5's delayed trigger defeats
the test (16.3%); sanity-check tests (a third concurrent replay) made
one false detection.  Here six tests per ISP (seeds 0-5, the app
alternating netflix/youtube by seed) and three ISP1 sanity checks
(seeds 100-102) run as wild sweeps.  ``quick`` keeps the first seed of
each list.
"""

from repro.api import SweepRequest, run_sweep

SEEDS = range(6)
#: The app of a test is ``APPS[seed % len(APPS)]``.
APPS = ("netflix", "youtube")
SANITY_SEEDS = range(100, 103)
PAPER = {"ISP1": 0.898, "ISP2": 0.8983, "ISP3": 0.94, "ISP4": 0.9818, "ISP5": 0.1628}

MIN_LOCALIZED = 0.5  # ISP1-4
MAX_ISP5_LOCALIZED = 0.5
MAX_SANITY_DETECTIONS = 1


def measure(quick):
    seeds = SEEDS[:1] if quick else SEEDS
    cells = []
    for offset, app in enumerate(APPS):
        app_seeds = seeds[offset :: len(APPS)]
        if app_seeds:
            cells += run_sweep(SweepRequest.wild(apps=(app,), seeds=app_seeds)).results
    sanity = run_sweep(
        SweepRequest.wild(
            ["ISP1"], seeds=SANITY_SEEDS[:1] if quick else SANITY_SEEDS, sanity_check=True
        )
    ).results
    isps = {name: {"localized": 0, "tests": 0, "paper": rate} for name, rate in PAPER.items()}
    for cell in cells:
        isps[cell["isp"]]["localized"] += cell["localized"]
        isps[cell["isp"]]["tests"] += 1
    detections = sum(cell["localized"] for cell in sanity)
    return {"isps": isps, "sanity": {"detections": detections, "tests": len(sanity)}}


def failures(report):
    failures = []
    for name, isp in sorted(report["isps"].items()):
        rate = isp["localized"] / isp["tests"]
        if name == "ISP5" and rate > MAX_ISP5_LOCALIZED:
            failures.append(f"ISP5 localized {rate:.2f} > {MAX_ISP5_LOCALIZED}")
        elif name != "ISP5" and rate < MIN_LOCALIZED:
            failures.append(f"{name} localized {rate:.2f} < {MIN_LOCALIZED}")
    detections = report["sanity"]["detections"]
    if detections > MAX_SANITY_DETECTIONS:
        failures.append(
            f"{detections} sanity-check false detections (max {MAX_SANITY_DETECTIONS})"
        )
    return failures
