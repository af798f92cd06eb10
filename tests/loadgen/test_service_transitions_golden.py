"""Golden service outcomes: each loadgen case's summary and state machines.

``test_decision_log_golden`` pins digests of the decision log and the
response stream.  This file pins, in readable JSON, what a run reports
about itself: ``summarize()`` (without the governor's free-text
transition reasons), the governor transitions as ``(t, from, to)``,
and the circuit breaker's trips and transitions.  A change that moves
a threshold, a recovery or a summary number fails here with a diff.

The cases, seed, duration and numpy pin are the decision-log golden's.
To re-pin after an intended behaviour change, run this file as a
script from the repository root (``PYTHONPATH=src python
tests/loadgen/test_service_transitions_golden.py``); it rewrites
``tests/golden/service_transitions.json``.
"""

import json
import re
from pathlib import Path

import pytest

from repro.loadgen.driver import summarize
from repro.store import keys
from test_decision_log_golden import CASES, pytestmark, run_case  # noqa: F401

GOLDEN = Path(__file__).parent.parent / "golden" / "service_transitions.json"


def outcome(case):
    """The plain-JSON outcome of one case, as pinned in ``GOLDEN``."""
    result, core = run_case(case)
    summary = summarize(result, core)
    summary["governor_transitions"] = [
        [t, old, new] for t, old, new, _why in summary["governor_transitions"]
    ]
    # Through JSON so tuples and lists compare alike.
    return json.loads(json.dumps({
        "summary": summary,
        "governor": [[t, old, new] for t, old, new, _why in core.governor.transitions],
        "breaker": {
            "trips": core.breaker.trips,
            "transitions": core.breaker.transitions,
        },
    }))


@pytest.mark.parametrize("case", sorted(CASES))
def test_outcome_matches_pinned(case, monkeypatch):
    monkeypatch.setattr(keys, "code_fingerprint", lambda: "golden")
    assert outcome(case) == json.loads(GOLDEN.read_text())[case]


def test_every_case_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    keys.code_fingerprint = lambda: "golden"
    pinned = {case: outcome(case) for case in sorted(CASES)}
    text = json.dumps(pinned, indent=1, sort_keys=True)
    # One line per innermost list: a transition reads as one row.
    text = re.sub(r"\[\s+([^][{}]+?)\s+\]",
                  lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]", text)
    GOLDEN.write_text(text + "\n")
    print(f"wrote {GOLDEN}")
