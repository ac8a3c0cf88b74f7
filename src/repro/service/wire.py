"""Versioned JSON wire schema shared by the daemon and the client.

One schema, two transports: the envelope shapes defined here ride over
HTTP between :mod:`repro.service.daemon` and
:mod:`repro.service.client`, and every request body embeds the *same*
:class:`repro.harness.runner.SimRequest` wire form the in-process API
uses -- the HTTP surface is the Python surface, one layer apart.

Request envelopes (all POST bodies; ``schema`` may be omitted)::

    {"schema": 2, "request": {<SimRequest wire form>}}      # /simulate
    {"schema": 2, "requests": [{...}, {...}]}               # /sweep

Response envelopes::

    {"schema": 2, "status": "hit|miss", "key": "...",
     "kind": "workload|scaleout", "result": {...}}          # /simulate
    {"schema": 2, "results": [{...}], "stats": {...}}       # /sweep
    {"schema": 2, "error": "<actionable message>"}          # 4xx/5xx

``status`` provenance: ``hit`` -- served from the daemon's memo, an
in-flight computation another request started, or the shared store;
``miss`` -- this request triggered a cold simulation.
"""

from __future__ import annotations

import json

from repro.harness.cache import decode_tagged, encode_tagged
from repro.harness.runner import SimRequest, WireFormatError

# The envelope schema version (rides next to SimRequest's own
# WIRE_SCHEMA_VERSION); bump it on any incompatible envelope change.
ENVELOPE_SCHEMA = 2

# Maximum requests accepted in one /sweep envelope -- a backstop
# against unbounded memory, not a throughput limit (batch again).
MAX_SWEEP_REQUESTS = 4096

__all__ = [
    "ENVELOPE_SCHEMA",
    "MAX_SWEEP_REQUESTS",
    "WireFormatError",
    "decode_result",
    "encode_body",
    "encode_result",
    "error_body",
    "parse_body",
    "parse_simulate",
    "parse_sweep",
]


def parse_body(raw: bytes) -> dict:
    """Decode and envelope-check one HTTP request body.

    Args:
        raw: the request body bytes.

    Returns:
        The parsed JSON object.

    Raises:
        WireFormatError: when the body is not a JSON object or names an
            unsupported envelope schema.
    """
    try:
        payload = json.loads(raw.decode("utf-8") if raw else "null")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"request body is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise WireFormatError(
            "request body must be a JSON object envelope, got "
            f"{type(payload).__name__}"
        )
    schema = payload.get("schema", ENVELOPE_SCHEMA)
    if schema != ENVELOPE_SCHEMA:
        raise WireFormatError(
            f"unsupported envelope schema {schema!r}; this daemon speaks "
            f"schema {ENVELOPE_SCHEMA}"
        )
    return payload


def _reject_unknown_fields(payload: dict, field: str) -> None:
    """Refuse an envelope field other than ``schema`` and ``field``."""
    unknown = sorted(set(payload) - {"schema", field})
    if unknown:
        raise WireFormatError(
            f"unknown envelope field(s) {', '.join(map(repr, unknown))}; "
            f"this envelope carries only 'schema' and {field!r}"
        )


def parse_simulate(payload: dict) -> SimRequest:
    """Validate a ``/simulate`` envelope.

    Args:
        payload: parsed request body.

    Returns:
        The validated request.

    Raises:
        WireFormatError: on a missing/malformed ``request`` field or any
            other envelope field.
    """
    _reject_unknown_fields(payload, "request")
    if "request" not in payload:
        raise WireFormatError(
            "envelope must carry a 'request' object (the SimRequest "
            "wire form; see docs/SERVICE.md)"
        )
    return SimRequest.from_dict(payload["request"])


def parse_sweep(payload: dict) -> list[SimRequest]:
    """Validate a ``/sweep`` envelope.

    Args:
        payload: parsed request body.

    Returns:
        The requests in envelope order (duplicates allowed; the daemon
        dedups by canonical key).  An empty list is a valid (trivial)
        sweep: the daemon answers it with zero results and an all-zero
        tally rather than an error, mirroring ``repro.api.sweep([])``.

    Raises:
        WireFormatError: on a missing/malformed ``requests`` list, any
            other envelope field, an oversized sweep, or any invalid
            entry (the message carries the entry's index).
    """
    _reject_unknown_fields(payload, "requests")
    requests = payload.get("requests")
    if not isinstance(requests, list):
        raise WireFormatError(
            "envelope must carry a 'requests' list of SimRequest wire "
            "forms (an empty list is a valid empty sweep)"
        )
    if len(requests) > MAX_SWEEP_REQUESTS:
        raise WireFormatError(
            f"sweep of {len(requests)} requests exceeds the "
            f"{MAX_SWEEP_REQUESTS}-request envelope limit; batch again"
        )
    parsed = []
    for index, entry in enumerate(requests):
        try:
            parsed.append(SimRequest.from_dict(entry))
        except WireFormatError as exc:
            raise WireFormatError(f"requests[{index}]: {exc}")
    return parsed


def encode_result(result) -> dict:
    """Kind-tag and serialize one result for a response envelope.

    Delegates to :func:`repro.harness.cache.encode_tagged`, the kind
    table the result store persists with, so client-side decoding and
    store decoding share one contract.

    Args:
        result: a :class:`WorkloadResult` or ``ScaleOutResult``.

    Returns:
        ``{"kind": ..., "result": ...}``.

    Raises:
        TypeError: ``result`` is a type the store cannot hold either.
    """
    kind, data = encode_tagged(result)
    return {"kind": kind, "result": data}


def encode_body(payload) -> bytes:
    """``json.dumps(payload)`` as bytes, with ``bytes`` values spliced in.

    A ``bytes`` value anywhere in the dicts and lists of ``payload``
    must be the ``json.dumps`` text of the value it stands for; it is
    copied as it is, so the body equals ``json.dumps`` of the decoded
    payload.

    Args:
        payload: a JSON value whose dict keys are strings.

    Returns:
        The UTF-8 (ASCII) body.
    """
    if isinstance(payload, bytes):
        return payload
    if isinstance(payload, dict):
        return b"{" + b", ".join(
            json.dumps(name).encode() + b": " + encode_body(value)
            for name, value in payload.items()
        ) + b"}"
    if isinstance(payload, list):
        return b"[" + b", ".join(map(encode_body, payload)) + b"]"
    return json.dumps(payload).encode()


def decode_result(kind: str, data: dict):
    """Deserialize a response envelope's result by its kind tag.

    Args:
        kind: ``"workload"`` or ``"scaleout"`` (``"tables"`` decodes
            too, though the daemon never sends one).
        data: the ``result`` object of the envelope.

    Returns:
        The deserialized result object.

    Raises:
        WireFormatError: on an unknown kind tag or malformed payload.
    """
    try:
        return decode_tagged(kind, data)
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed {kind} result payload: {exc}")


def error_body(message: str) -> dict:
    """The error envelope for a 4xx or 5xx response."""
    return {"schema": ENVELOPE_SCHEMA, "error": message}
