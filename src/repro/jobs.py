"""How many processes this run may use, and whether it can fork.

Shared by the sweep executor (:mod:`repro.parallel`) and the overlapped
verdict replays (:mod:`repro.experiments.runner`).  Standard library
only, so a verdict that asks never loads :mod:`multiprocessing`.
"""

import os


def default_jobs():
    """Default worker count: every core the scheduler *actually* gives us.

    ``os.cpu_count()`` reports the machine, not the container --
    in a cgroup-limited CI job or under ``taskset`` it overcounts, and
    oversubscribed workers thrash.  Preference order:

    1. ``REPRO_JOBS`` environment variable (explicit operator override;
       non-integer values are ignored);
    2. the CPU-affinity mask (:func:`os.sched_getaffinity`, which
       reflects cgroups/taskset on Linux);
    3. ``os.cpu_count()`` where affinity is unavailable (macOS);
    4. 1.
    """
    override = os.environ.get("REPRO_JOBS")
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass  # fall through to the detected value
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def fork_available():
    """True when the platform can ``fork`` (POSIX)."""
    return hasattr(os, "fork")
