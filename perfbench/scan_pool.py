"""Regenerate ``localize.POOLS``: scenario seeds whose verdicts pass the checks.

    python3 perfbench/scan_pool.py

Scans consecutive seeds from :data:`START` for every localize-hybrid
cell and prints, per cell, the first :data:`SIZE` seeds whose report is
valid and, behind a ``noncommon`` limiter, not localized -- the
conditions ``checks.localize_problems`` enforces.  Takes several minutes.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import localize  # noqa: E402
import run  # noqa: E402
from repro.experiments.wild import default_tdiff  # noqa: E402


#: Seeds kept per cell.
SIZE = 12
#: First seed scanned.
START = 1000


def main():
    tdiff = default_tdiff()
    for cell in localize.CELLS:
        kept = []
        seed = START
        while len(kept) < SIZE:
            report = localize.verdict(cell, seed, tdiff)
            name = localize.label(cell, seed)
            if checks.localize_problems([(name, cell[1])], [report]):
                print(f"# rejected {name}: {report.reason_code}", flush=True)
            else:
                kept.append(seed)
            seed += 1
        print(f"{cell!r}: {tuple(kept)!r},", flush=True)
    return 0


if __name__ == "__main__":
    run.pin_environment()
    sys.exit(main())
