"""The scenario flags of ``repro localize`` and ``repro sweep``, pinned.

Each flag is compared field by field (option strings, dest, default,
type, choices, metavar, help) with ``tests/golden/scenario_parser.json``,
which was written from the parser before the flags were derived from
``ScenarioConfig``'s declarations.  Comparing the actions, not the
``--help`` text, keeps the check independent of argparse's help layout,
which differs between Python versions.

To rewrite the golden after an intended change::

    PYTHONPATH=src python tests/test_cli_scenario_parser.py > tests/golden/scenario_parser.json
"""

import json
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser

GOLDEN = Path(__file__).parent / "golden" / "scenario_parser.json"

#: The scenario flags: every option both subcommands build from the
#: scenario declarations.
SCENARIO_FLAGS = (
    "--app", "--limiter", "--factor", "--queue", "--duration", "--seed",
    "--fidelity", "--shaper", "--shaper-params", "--multipath", "--flowlet-gap",
)


def describe(action):
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": repr(action.default),
        "type": getattr(action.type, "__name__", None),
        "choices": None if action.choices is None else list(action.choices),
        "metavar": action.metavar,
        "help": action.help,
    }


def scenario_actions():
    subparsers = next(
        action for action in build_parser()._actions if action.dest == "command"
    )
    return {
        command: [
            describe(action)
            for action in subparsers.choices[command]._actions
            if action.option_strings and action.option_strings[0] in SCENARIO_FLAGS
        ]
        for command in ("localize", "sweep")
    }


@pytest.mark.parametrize("command", ["localize", "sweep"])
def test_scenario_flags_match_golden(command):
    golden = json.loads(GOLDEN.read_text())[command]
    assert scenario_actions()[command] == golden


if __name__ == "__main__":
    json.dump(scenario_actions(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
