"""Wire protocol of the WeHeY service: submissions in, responses out.

The service speaks newline-delimited JSON (one object per line) over a
plain TCP stream -- stdlib-only framing, no HTTP dependency.  A client
writes submission objects and reads response objects; requests and
responses are correlated by ``id`` (client-chosen, else assigned by the
server), so verdicts can stream back out of order while earlier cells
are still simulating.

A submission is a WeHe-style test request::

    {"tenant": "carrier-A", "client": "client-17", "app": "netflix",
     "deadline_s": 60, "knobs": {"limiter": "common", "seed": 4}}

``knobs`` maps onto :class:`~repro.experiments.scenarios.ScenarioConfig`
fields (whitelisted subset); everything else about the cell is pinned
by the service so that identical submissions are cache-equal.

Every request terminates in **exactly one** terminal response status:

- ``VERDICT`` -- the localization/detection verdict (fresh or cached);
- ``REJECTED_OVERLOAD`` -- admission control said no (structured
  ``reason``: ``queue_full``, ``tenant_rate``, ``shedding``,
  ``degraded``, ``draining``);
- ``DEADLINE_EXCEEDED`` -- the submission's budget expired before (or
  while) it could be served;
- ``FAILED`` -- the cell was attempted and could not produce a verdict
  (malformed submission, engine failure, quarantined cell), with a
  structured ``reason``.

Nothing is ever silently dropped: the accounting invariant
"one terminal response per submission" is enforced by the load
generator and the service test suite.
"""

import json
from dataclasses import dataclass, field

from repro.experiments.scenarios import ScenarioConfig
from repro.wehe.apps import APP_SPECS


class Status:
    """Terminal response statuses (string constants)."""

    VERDICT = "VERDICT"
    REJECTED_OVERLOAD = "REJECTED_OVERLOAD"
    DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
    FAILED = "FAILED"


TERMINAL_STATUSES = (
    Status.VERDICT,
    Status.REJECTED_OVERLOAD,
    Status.DEADLINE_EXCEEDED,
    Status.FAILED,
)

#: ScenarioConfig fields a submission may set.  Everything else
#: (background model, modulation, ...) is service-pinned so the cache
#: key space stays small and submissions cannot smuggle in arbitrary
#: work multipliers.
ALLOWED_KNOBS = frozenset(
    {
        "limiter",
        "input_rate_factor",
        "queue_factor",
        "background_share",
        "duration",
        "rtt_1",
        "rtt_2",
        "congestion_factor",
        "seed",
    }
)

#: Top-level fields a submission may carry.
SUBMISSION_FIELDS = frozenset(
    {"tenant", "client", "app", "carrier", "deadline_s", "id", "knobs"}
)

#: Hard ceiling on a submission's replay duration (seconds of simulated
#: time).  Deadlines bound *wall* time; this bounds per-cell *work*.
MAX_DURATION_S = 120.0


class MalformedSubmission(ValueError):
    """The submission cannot be parsed/validated; carries the reason."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


@dataclass(frozen=True)
class Submission:
    """One validated WeHe-style test submission."""

    tenant: str
    client: str
    app: str = "netflix"
    carrier: str = ""
    deadline_s: float = 120.0
    id: str = None
    knobs: dict = field(default_factory=dict)

    def to_scenario(self):
        """The ground-truth :class:`ScenarioConfig` this submission asks for.

        Built once: the config :func:`parse_submission` validates is the
        one the service keys, queues and resumes.
        """
        # Cached in the instance __dict__, outside the dataclass fields:
        # equality, repr and as_dict() never see it.  (Python 3.11's
        # cached_property takes a class-wide lock on every first read.)
        cache = self.__dict__
        scenario = cache.get("_scenario")
        if scenario is None:
            scenario = cache["_scenario"] = ScenarioConfig(app=self.app, **self.knobs)
        return scenario

    @property
    def duration(self):
        """Simulated replay seconds -- the DRR cost unit."""
        return float(self.knobs.get("duration", ScenarioConfig.duration))

    def as_dict(self):
        return {
            "tenant": self.tenant,
            "client": self.client,
            "app": self.app,
            "carrier": self.carrier,
            "deadline_s": self.deadline_s,
            "id": self.id,
            "knobs": dict(self.knobs),
        }


def parse_submission(raw):
    """Validate a raw dict into a :class:`Submission`.

    Raises :class:`MalformedSubmission` with a structured reason on any
    violation -- the caller turns that into a ``FAILED`` response, so a
    malformed submission still terminates in exactly one status.
    """
    if not isinstance(raw, dict):
        raise MalformedSubmission("submission must be a JSON object")
    unknown = raw.keys() - SUBMISSION_FIELDS
    if unknown:
        raise MalformedSubmission(f"unknown fields: {sorted(unknown)}")
    tenant = raw.get("tenant", "default")
    client = raw.get("client")
    if not isinstance(tenant, str) or not tenant:
        raise MalformedSubmission("tenant must be a non-empty string")
    if not isinstance(client, str) or not client:
        raise MalformedSubmission("client must be a non-empty string")
    app = raw.get("app", "netflix")
    if app not in APP_SPECS:
        raise MalformedSubmission(f"unknown app {app!r}")
    carrier = raw.get("carrier", "")
    if not isinstance(carrier, str):
        raise MalformedSubmission("carrier must be a string")
    deadline_s = raw.get("deadline_s", 120.0)
    if not isinstance(deadline_s, (int, float)) or isinstance(deadline_s, bool):
        raise MalformedSubmission("deadline_s must be a number")
    deadline_s = float(deadline_s)
    if not deadline_s > 0:
        raise MalformedSubmission("deadline_s must be positive")
    request_id = raw.get("id")
    if request_id is not None and not isinstance(request_id, str):
        raise MalformedSubmission("id must be a string")
    knobs = raw.get("knobs", {})
    if not isinstance(knobs, dict):
        raise MalformedSubmission("knobs must be an object")
    bad = knobs.keys() - ALLOWED_KNOBS
    if bad:
        raise MalformedSubmission(f"unknown knobs: {sorted(bad)}")
    knobs = dict(knobs)
    if "seed" in knobs:
        if not isinstance(knobs["seed"], int) or isinstance(knobs["seed"], bool):
            raise MalformedSubmission("seed must be an integer")
    submission = Submission(
        tenant=tenant,
        client=client,
        app=app,
        carrier=carrier,
        deadline_s=deadline_s,
        id=request_id,
        knobs=knobs,
    )
    try:
        scenario = submission.to_scenario()
    except (ValueError, TypeError) as exc:
        raise MalformedSubmission(f"invalid scenario knobs: {exc}") from None
    if scenario.duration > MAX_DURATION_S:
        raise MalformedSubmission(
            f"duration {scenario.duration:g}s exceeds the {MAX_DURATION_S:g}s cap"
        )
    return submission


@dataclass(frozen=True)
class Response:
    """One terminal response for one submission."""

    id: str
    status: str
    tenant: str = ""
    reason: str = ""
    state: str = ""  # service state at decision time
    verdict: dict = None  # present iff status == VERDICT
    cached: bool = False
    queued_s: float = 0.0
    service_s: float = 0.0

    def as_dict(self):
        data = {
            "id": self.id,
            "status": self.status,
            "tenant": self.tenant,
            "reason": self.reason,
            "state": self.state,
            "cached": self.cached,
            "queued_s": round(self.queued_s, 6),
            "service_s": round(self.service_s, 6),
        }
        if self.verdict is not None:
            data["verdict"] = self.verdict
        return data

    def line(self):
        """The one-line JSON wire form."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


def encode_line(obj):
    """One JSONL frame as bytes (used by both client and server)."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def decode_line(line):
    """Parse one JSONL frame; raises :class:`MalformedSubmission` on garbage."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedSubmission("frame is not valid UTF-8") from None
    try:
        obj = json.loads(line)
    except ValueError:
        raise MalformedSubmission("frame is not valid JSON") from None
    if not isinstance(obj, dict):
        raise MalformedSubmission("frame must be a JSON object")
    return obj
