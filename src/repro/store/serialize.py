"""Canonical serialization shared by the store, the CLI, and perf.

Every place that turns a :class:`DetectionExperimentRecord` into bytes
-- the store's JSONL shards, ``repro sweep --json``, and the perf
harness's serial-vs-parallel byte-equality check -- goes through this
module, so "byte-identical" means the same thing everywhere.

Canonical form: plain-JSON dicts (numpy scalars unwrapped, tuples
listified) dumped with ``sort_keys=True``.  JSON floats round-trip
exactly (``repr`` shortest-float encoding), which is what lets a cached
record compare byte-identical to a freshly computed one.

A :class:`ScenarioConfig`, which every cache key encodes, has its
encoding compiled once from ``dataclasses.fields``: the field names in
sorted order, each default's pre-encoded ``"name": value`` fragment, and
one table per on/off state of the optional field groups
(:data:`OPTIONAL_GROUPS`, which :func:`config_to_dict` reads too).
:func:`config_json` reuses a fragment only where the field's value *is*
the class default -- identity, never equality, since ``8`` and ``8.0``
are equal but encode differently -- and encodes every other value as
:func:`canonical_json` would.
"""

import dataclasses
import itertools
import json
import operator
from functools import lru_cache
from json import encoder as _json_encoder

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


def _make_encode():
    """``_ENCODER.encode`` without its per-call set-up.

    ``JSONEncoder.encode`` builds a new C encoder, with a fresh table
    for catching circular references, on every call.  Plain data is a
    tree, never circular, so one C encoder built without that table
    serves every call and gives the same bytes.
    """
    make = _json_encoder.c_make_encoder
    if make is None:  # no C accelerator: keep the pure-Python path
        return _ENCODER.encode
    chunks = make(
        None, _ENCODER.default, _json_encoder.encode_basestring_ascii, _ENCODER.indent,
        _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
        _ENCODER.skipkeys, _ENCODER.allow_nan,
    )
    return lambda data: "".join(chunks(data, 0))


_encode = _make_encode()


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
    return _encode(plain(obj))


def plain_json(data):
    """:func:`canonical_json` of ``data`` that is already plain.

    For callers that built ``data`` from :func:`plain` results, so the
    second :func:`plain` pass would copy it for nothing.
    """
    return _encode(data)


@lru_cache(maxsize=None)
def _field_names(cls):
    return tuple(field.name for field in dataclasses.fields(cls))


def fields_to_dict(obj, skip=()):
    """A dataclass instance's declared fields as a plain-JSON dict.

    The dict ``plain(dataclasses.asdict(obj))`` gives, without
    ``asdict``'s deep copies.  A field holding a nested dataclass makes
    :func:`plain` raise ``TypeError``; leave it out via ``skip`` and
    encode it separately, as :func:`record_to_dict` does ``config``.
    Exact JSON scalars, most fields of a config, are kept without a
    :func:`plain` call.
    """
    data = {}
    for name in _field_names(type(obj)):
        if name not in skip:
            value = getattr(obj, name)
            data[name] = value if type(value) in _PLAIN_SCALARS else plain(value)
    return data


_FIELDS = dataclasses.fields(ScenarioConfig)

#: Optional axes added to :class:`ScenarioConfig` after the store
#: shipped, as ``(fields, off)`` from the fields' declared groups (each
#: named after its first field, the switch): a group is left out of a
#: config's encoding while its switch equals ``off``, its default, after
#: :func:`plain`, so every record -- and every cache key over it -- made
#: before the axis existed keeps its bytes.
OPTIONAL_GROUPS = tuple(
    (tuple(f.name for f in _FIELDS if f.metadata["group"] == switch.name), switch.default)
    for switch in _FIELDS
    if switch.metadata["group"] == switch.name
)


def config_to_dict(config):
    """A :class:`ScenarioConfig` as a plain-JSON dict.

    The shaper knobs are omitted at their defaults (``shaper=None``) and
    the multipath knobs while ``multipath`` is 0/absent
    (:data:`OPTIONAL_GROUPS`): pre-shaper and pre-multipath records and
    keys stay byte-identical.
    """
    data = fields_to_dict(config)
    for group, off in OPTIONAL_GROUPS:
        if data.get(group[0]) == off:
            for name in group:
                data.pop(name, None)
    return data


def _compile_config_tables():
    """``{switches: fields}`` for :func:`config_json`.

    ``switches`` holds one bool per :data:`OPTIONAL_GROUPS` entry (True:
    the group is encoded); ``fields`` lists the encoded fields in sorted
    order as ``(name, default, default's fragment, prefix)``, where the
    prefix is the encoded ``"name": ``.
    """
    fields = sorted(_FIELDS, key=operator.attrgetter("name"))
    tables = {}
    for switches in itertools.product((False, True), repeat=len(OPTIONAL_GROUPS)):
        omitted = {
            name
            for (group, _off), on in zip(OPTIONAL_GROUPS, switches)
            if not on
            for name in group
        }
        table = []
        for field in fields:
            if field.name in omitted:
                continue
            prefix = _encode(field.name) + ": "
            fragment = prefix + _encode(plain(field.default))
            table.append((field.name, field.default, fragment, prefix))
        tables[switches] = tuple(table)
    return tables


_CONFIG_TABLES = _compile_config_tables()


def config_json(config):
    """``plain_json(config_to_dict(config))``, from the compiled tables.

    A field whose value is the class default object reuses the default's
    fragment; every other value is encoded.  Any type other than exactly
    :class:`ScenarioConfig` (a subclass may add fields) takes
    :func:`config_to_dict`.
    """
    if type(config) is not ScenarioConfig:
        return plain_json(config_to_dict(config))
    switches = tuple(
        plain(getattr(config, group[0])) != off for group, off in OPTIONAL_GROUPS
    )
    parts = []
    for name, default, fragment, prefix in _CONFIG_TABLES[switches]:
        value = getattr(config, name)
        parts.append(fragment if value is default else prefix + _encode(plain(value)))
    return "{" + ", ".join(parts) + "}"


def config_from_dict(data):
    """Rebuild a :class:`ScenarioConfig` (inverse of :func:`config_to_dict`)."""
    return ScenarioConfig(**data)


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
