"""Parallel sweep execution.

Every paper figure and table is a sweep of *independent* simulation
cells: each cell derives all of its randomness from
``np.random.SeedSequence([config.seed, entropy])``, so no cell's output
can depend on which worker ran it or in what order.  That makes the
sweeps embarrassingly parallel -- :class:`SweepExecutor` fans them out
over a process pool and returns results in input order, byte-identical
to a serial run.

Usage::

    from repro.api import SweepRequest, run_sweep

    records = run_sweep(SweepRequest.detection(configs, jobs=4)).results
    # or, for any picklable task:
    from repro.parallel import SweepExecutor

    results = SweepExecutor(jobs=4).map(task, items)
"""

from repro.parallel.executor import SweepExecutor, default_jobs
from repro.parallel.supervisor import (
    CellFailure,
    SweepCellError,
    SweepInterrupted,
)

__all__ = [
    "CellFailure",
    "SweepCellError",
    "SweepExecutor",
    "SweepInterrupted",
    "default_jobs",
]
