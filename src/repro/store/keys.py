"""Cache-key derivation: what makes two experiment cells "the same".

A key is the SHA-256 of the canonical JSON of everything the cell's
output depends on:

- the full :class:`ScenarioConfig` (any field change changes the key);
- the runner knobs (``detectors`` by name, ``modified``, ``entropy``,
  ``merge_flows``);
- the fault-profile identity (name + exact rule tuples -- a profile
  changes the record stream, so it must change the key);
- the store schema version (serialization shape);
- the code fingerprint -- a hash over the source of every package that
  feeds the simulation (netsim, wehe, core, experiments, stats,
  faults).  Editing any simulation code invalidates the whole cache,
  which is the conservative-but-always-correct rule.

Keys deliberately do NOT include wall-clock time, host, worker count or
sweep order: a cell's record is a pure function of its key inputs (the
determinism contract from ``repro.parallel``).
"""

import hashlib
import os
from functools import lru_cache
from pathlib import Path

from repro.faults import FaultProfile
from repro.store.serialize import (
    STORE_SCHEMA_VERSION,
    canonical_json,
    config_to_dict,
    fields_to_dict,
    plain,
    plain_json,
)

#: Packages whose source determines simulation output.  ``repro.store``
#: itself is excluded on purpose: changing how results are *cached*
#: does not change the results.
FINGERPRINT_PACKAGES = ("core", "experiments", "faults", "netsim", "stats", "wehe")


@lru_cache(maxsize=None)
def code_fingerprint():
    """Hex digest over the simulation-relevant source tree.

    ``REPRO_CODE_FINGERPRINT`` overrides the computed value (useful for
    pinning a cache across a refactor known to be behaviour-preserving,
    and for tests).
    """
    override = os.environ.get("REPRO_CODE_FINGERPRINT")
    if override:
        return override
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for package in FINGERPRINT_PACKAGES:
        for path in sorted((package_root / package).glob("**/*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()[:16]


def fault_profile_id(fault_profile):
    """A canonical string identity for a fault profile (or spec, or None).

    Two profiles with the same rules get the same id regardless of how
    they were constructed (spec string vs :class:`FaultProfile`); rule
    *order* within a profile is normalized by site name.
    """
    if fault_profile is None:
        return "none"
    if isinstance(fault_profile, str):
        fault_profile = FaultProfile.parse(fault_profile)
    rules = sorted(
        (fields_to_dict(rule) for rule in fault_profile.rules),
        key=lambda rule: rule["site"],
    )
    if not rules:
        return "none"
    return canonical_json(rules)


def _digest(payload):
    """SHA-256 of ``payload``'s canonical JSON.

    ``payload`` must already be plain: each key builder coerces every
    caller-supplied value (``plain``, ``int``, ``bool``,
    :func:`config_to_dict`) so no second :func:`plain` pass runs here.
    """
    return hashlib.sha256(plain_json(payload).encode()).hexdigest()


def detection_cache_key(
    config,
    detectors=("loss_trend",),
    modified=True,
    entropy=0,
    merge_flows=False,
    fault_profile=None,
    fingerprint=None,
    schema_version=STORE_SCHEMA_VERSION,
):
    """Key for one :func:`run_detection_experiment` cell.

    ``detectors`` is the detector *name* iterable (sorted into the
    key); detector identity is by name only -- a renamed or reconfigured
    detector must get a new name to invalidate its cached verdicts.
    """
    return _digest(
        {
            "kind": "detection",
            "config": config_to_dict(config),
            "detectors": plain(sorted(detectors)),
            "modified": bool(modified),
            "entropy": int(entropy),
            "merge_flows": bool(merge_flows),
            "fault_profile": fault_profile_id(fault_profile),
            "fingerprint": plain(fingerprint or code_fingerprint()),
            "schema_version": plain(schema_version),
        }
    )


def wild_cache_key(
    isp,
    app,
    seed,
    sanity_check=False,
    fidelity="packet",
    fingerprint=None,
    schema_version=STORE_SCHEMA_VERSION,
):
    """Key for one Section-5 wild-sweep cell."""
    return _digest(
        {
            "kind": "wild",
            "isp": plain(isp),
            "app": plain(app),
            "seed": int(seed),
            "sanity_check": bool(sanity_check),
            "fidelity": plain(fidelity),
            "fingerprint": plain(fingerprint or code_fingerprint()),
            "schema_version": plain(schema_version),
        }
    )
