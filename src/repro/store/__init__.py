"""Content-addressed experiment store with resumable sweeps.

Every sweep cell in this codebase is a pure function of its
configuration (the determinism contract of :mod:`repro.parallel`), so
its result can be cached under the SHA-256 of everything it depends on
-- config, runner knobs, fault profile, serialization schema, and a
fingerprint of the simulation source code.  The store turns the
fire-and-forget benchmark sweeps into durable, resumable, inspectable
artifacts:

- re-running a completed sweep performs **zero simulations** and
  returns records byte-identical to the cold run;
- a sweep killed mid-run resumes with only the missing cells (each
  completed cell is checkpointed the moment it finishes);
- a JSONL run ledger records every sweep's cells / hits / misses.

Usage::

    from repro.api import SweepRequest, run_sweep
    from repro.store import ExperimentStore

    store = ExperimentStore(".repro-store")
    cold = run_sweep(SweepRequest.detection(configs, jobs=4, store=store))
    warm = run_sweep(SweepRequest.detection(configs, jobs=4, store=store))
    assert warm.hits == warm.cells

Inspect from the shell: ``python -m repro.store ls|show|stats|gc``.
"""

from repro.store.keys import (
    code_fingerprint,
    detection_cache_key,
    fault_profile_id,
    wild_cache_key,
)
from repro.store.serialize import (
    STORE_SCHEMA_VERSION,
    canonical_json,
    config_from_dict,
    config_to_dict,
    record_from_dict,
    record_line,
    record_to_dict,
)
from repro.store.store import ExperimentStore

__all__ = [
    "ExperimentStore",
    "STORE_SCHEMA_VERSION",
    "canonical_json",
    "code_fingerprint",
    "config_from_dict",
    "config_to_dict",
    "detection_cache_key",
    "fault_profile_id",
    "record_from_dict",
    "record_line",
    "record_to_dict",
    "wild_cache_key",
]
