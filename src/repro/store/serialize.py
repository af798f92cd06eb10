"""Canonical serialization shared by the store, the CLI, and perf.

Every place that turns a :class:`DetectionExperimentRecord` into bytes
-- the store's JSONL shards, ``repro sweep --json``, and the perf
harness's serial-vs-parallel byte-equality check -- goes through this
module, so "byte-identical" means the same thing everywhere.

Canonical form: plain-JSON dicts (numpy scalars unwrapped, tuples
listified) dumped with ``sort_keys=True``.  JSON floats round-trip
exactly (``repr`` shortest-float encoding), which is what lets a cached
record compare byte-identical to a freshly computed one.
"""

import dataclasses
import json
from functools import lru_cache

from repro.experiments.runner import DetectionExperimentRecord
from repro.experiments.scenarios import ScenarioConfig

#: Bump when the serialized record shape changes; stored entries with a
#: different version are treated as cache misses (see keys/invalidation
#: rules in DESIGN.md).
STORE_SCHEMA_VERSION = 1


#: Exact types :func:`plain` returns untouched (subclasses such as
#: ``IntEnum`` members, ``np.float64`` or ``str`` subclasses are not in
#: here; they take the ``isinstance`` chain in :func:`_plain_other`).
_PLAIN_SCALARS = frozenset((str, int, float, bool, type(None)))

#: One shared encoder: ``json.dumps(obj, sort_keys=True)`` would build
#: an identical one per call.
_ENCODER = json.JSONEncoder(sort_keys=True)


def plain(obj):
    """Reduce ``obj`` to pure-JSON types (dict/list/str/int/float/bool).

    Numpy scalars are unwrapped via ``.item()`` so that a computed
    record (which may carry ``np.bool_`` verdicts or ``np.float64``
    rates) serializes identically to the same record loaded back from
    JSON.  Exact JSON types are dispatched on ``type()`` first; every
    other type gets the same result from :func:`_plain_other`.
    """
    cls = type(obj)
    if cls in _PLAIN_SCALARS:
        return obj
    if cls is dict:
        return {str(key): plain(value) for key, value in obj.items()}
    if cls is list or cls is tuple:
        return [plain(value) for value in obj]
    return _plain_other(obj)


def _plain_other(obj):
    # None and bool are already handled: both types are exact (final).
    if isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, dict):
        return {str(key): plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(value) for value in obj]
    if hasattr(obj, "item"):  # numpy scalar (incl. np.bool_, np.float32)
        return plain(obj.item())
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} for the store")


def canonical_json(obj):
    """The one true JSON encoding: plain types, sorted keys."""
    return _ENCODER.encode(plain(obj))


def plain_json(data):
    """:func:`canonical_json` of ``data`` that is already plain.

    For callers that built ``data`` from :func:`plain` results, so the
    second :func:`plain` pass would copy it for nothing.
    """
    return _ENCODER.encode(data)


@lru_cache(maxsize=None)
def _field_names(cls):
    return tuple(field.name for field in dataclasses.fields(cls))


def fields_to_dict(obj, skip=()):
    """A dataclass instance's declared fields as a plain-JSON dict.

    The dict ``plain(dataclasses.asdict(obj))`` gives, without
    ``asdict``'s deep copies.  A field holding a nested dataclass makes
    :func:`plain` raise ``TypeError``; leave it out via ``skip`` and
    encode it separately, as :func:`record_to_dict` does ``config``.
    """
    return {
        name: plain(getattr(obj, name))
        for name in _field_names(type(obj))
        if name not in skip
    }


def config_to_dict(config):
    """A :class:`ScenarioConfig` as a plain-JSON dict.

    The shaper knobs are omitted at their defaults (``shaper=None``):
    the mechanism axis was added after the store shipped, and omission
    keeps every pre-shaper record -- and, downstream, every cache key
    computed over this dict -- byte-identical for default (TBF)
    scenarios.  The multipath knobs follow the same rule (omitted when
    ``multipath`` is 0/absent): pre-multipath keys and record streams
    stay byte-identical.
    """
    data = fields_to_dict(config)
    if data.get("shaper") is None:
        data.pop("shaper", None)
        data.pop("shaper_params", None)
    if not data.get("multipath"):
        data.pop("multipath", None)
        data.pop("flowlet_gap_s", None)
        data.pop("multipath_shaped", None)
    return data


def config_from_dict(data):
    """Rebuild a :class:`ScenarioConfig` (inverse of :func:`config_to_dict`)."""
    kwargs = dict(data)
    modulation = kwargs.get("background_modulation")
    if modulation is not None:
        kwargs["background_modulation"] = tuple(
            tuple(part) if isinstance(part, list) else part for part in modulation
        )
    params = kwargs.get("shaper_params")
    if params is not None:
        kwargs["shaper_params"] = tuple(
            tuple(pair) if isinstance(pair, list) else pair for pair in params
        )
    return ScenarioConfig(**kwargs)


def record_to_dict(record):
    """A :class:`DetectionExperimentRecord` as a plain-JSON dict."""
    data = {"config": config_to_dict(record.config)}
    data.update(fields_to_dict(record, skip=("config",)))
    data["kind"] = "detection"
    return data


def record_from_dict(data):
    """Rebuild a frozen record (inverse of :func:`record_to_dict`)."""
    kwargs = dict(data)
    kwargs.pop("kind", None)
    kwargs["config"] = config_from_dict(kwargs["config"])
    return DetectionExperimentRecord(**kwargs)


def record_line(record):
    """The canonical one-line JSON form of one detection record.

    This is the line format of ``repro sweep --json`` and the byte
    string the perf harness and the equivalence tests compare; a record
    that has been through a store round-trip produces the same line as
    the record computed cold.
    """
    return plain_json(record_to_dict(record))
