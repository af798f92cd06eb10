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
    _PLAIN_SCALARS,
    STORE_SCHEMA_VERSION,
    canonical_json,
    config_json,
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
    caller-supplied value (``plain``, ``int``, ``bool``) so no second
    :func:`plain` pass runs here.
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

    The key is the SHA-256 of the canonical JSON of ``{"config": ...,
    "detectors": ..., ..., "schema_version": ...}``.  ``"config"`` sorts
    first, so that JSON is the config's encoding followed by a tail that
    depends on the coerced runner knobs alone.  Only the config is
    encoded per call, by :func:`~repro.store.serialize.config_json`; the
    tail is memoized on the knob values *and their types*: ``1``, ``1.0``
    and ``True`` compare and hash alike but encode as ``1``, ``1.0`` and
    ``true``, so an entry keyed on values alone would hand one the
    other's tail.  A knob of any other type than an
    exact JSON scalar (a ``str`` subclass, a list) skips the memo.
    """
    head = '{"config": ' + config_json(config)
    knobs = (
        fault_profile_id(fault_profile),
        plain(fingerprint or code_fingerprint()),
        plain(schema_version),
        bool(modified),
        int(entropy),
        bool(merge_flows),
        *plain(sorted(detectors)),
    )
    encode = _memo_tail if _PLAIN_SCALARS.issuperset(map(type, knobs)) else _encode_tail
    return hashlib.sha256((head + encode(*knobs)).encode()).hexdigest()


def _encode_tail(fault_id, fingerprint, schema_version, modified, entropy, merge_flows,
                 *detectors):
    """The canonical detection payload's JSON after its ``config`` value."""
    rest = plain_json(
        {
            "kind": "detection",
            "detectors": list(detectors),
            "modified": modified,
            "entropy": entropy,
            "merge_flows": merge_flows,
            "fault_profile": fault_id,
            "fingerprint": fingerprint,
            "schema_version": schema_version,
        }
    )
    # '{"detectors": ...}' continues '{"config": {...}' as ', "detectors": ...}'.
    return ", " + rest[1:]


_memo_tail = lru_cache(maxsize=64, typed=True)(_encode_tail)


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
