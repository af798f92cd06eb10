"""The claim registry: every gate this reproduction asserts, in one run.

``python -m repro.claims [--quick] [--only NAME,...] [--out PATH]``
measures each claim, checks it against its bounds, writes one JSON
report and exits 1 if any claim fails.

A claim is one module of this package with two functions:

- ``measure(quick)`` runs the workload and returns a JSON-ready
  ``report`` dict (``quick`` shrinks grids for smoke runs);
- ``failures(report)`` is pure: it checks the report against the
  module's bound constants and returns a list of failure messages
  (empty when the claim holds).

The report file has one header -- ``schema``, ``code_fingerprint``,
``git_commit``, ``host``, ``quick`` -- and one ``{"report",
"failures", "wall_s"}`` entry per claim under ``claims``.  Timing is
reported as measured; the only timing bounds are ratios taken within
one run (the fidelity speedup floor and the columnar join speedup).
"""

import importlib
import os
import platform
import subprocess
import time

from repro.netsim.engine import events_processed_total
from repro.store import code_fingerprint

SCHEMA = "repro.claims/1"

#: Every claim, in run order; each names a module of this package.
CLAIMS = (
    "fidelity", "determinism", "topology", "fingerprint", "multipath", "limits", "service",
    # The paper's results, in the paper's order.
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table3", "table4", "table5",
    "ablations",
)


def timed(fn):
    """Run ``fn``; return ``(result, wall seconds, simulator events)``."""
    events_before = events_processed_total()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, events_processed_total() - events_before


def _git(*args):
    """``git args`` in this package's checkout: stripped stdout, or None."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_commit():
    """The checkout's git commit, None outside a repo or without git.

    ``-dirty`` is appended when tracked files differ from that commit,
    so a report made from uncommitted code never names its parent.
    """
    commit = _git("rev-parse", "HEAD")
    if not commit:
        return None
    if _git("status", "--porcelain", "--untracked-files=no"):
        commit += "-dirty"
    return commit


def select(only=None):
    """The claim names to run, in run order; rejects unknown names."""
    if not only:
        return CLAIMS
    unknown = sorted(set(only) - set(CLAIMS))
    if unknown:
        raise ValueError(f"unknown claim(s) {unknown}; expected from {list(CLAIMS)}")
    return tuple(name for name in CLAIMS if name in only)


def run(quick=False, only=None, log=None):
    """Measure and check the claims named in ``only`` (default: all).

    ``log(name, wall_s, failures)`` is called after each claim.
    """
    names = select(only)
    results = {
        "schema": SCHEMA,
        "code_fingerprint": code_fingerprint(),
        "git_commit": git_commit(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "quick": bool(quick),
        "claims": {},
    }
    for name in names:
        claim = importlib.import_module(f"repro.claims.{name}")
        report, wall, _ = timed(lambda: claim.measure(quick))
        failures = claim.failures(report)
        results["claims"][name] = {
            "report": report,
            "failures": failures,
            "wall_s": wall,
        }
        if log:
            log(name, wall, failures)
    return results
