"""Shared request validation and structured error reporting.

One request schema, two transports: the JSONL CLI (``python -m repro
size``) and the HTTP serving layer (``python -m repro serve``) both
parse :class:`~repro.service.SizingRequest` payloads through the helpers
here, so a malformed JSONL line and a malformed HTTP body produce the
*same* structured error payload — a :class:`~repro.service.SizingResponse`
with ``success=false`` and a ``"bad request line: ..."`` error message —
and consumers can parse either stream with one schema.

The HTTP transport additionally understands one serving-only key,
``deadline_ms``: a per-request latency budget honored by the
micro-batcher at dequeue time.  It is a *transport* concern (how long
the caller is willing to wait), not part of the sizing problem, so it is
stripped here before the shared :meth:`SizingRequest.from_json`
validation and never reaches the engine or the cache key.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any

from ..service.requests import SizingRequest, SizingResponse

__all__ = [
    "RequestError",
    "parse_request_payload",
    "parse_request_text",
    "invalid_request_response",
    "BAD_REQUEST_PREFIX",
    "DEADLINE_KEY",
]

#: Error-message prefix of a request that failed validation; shared by
#: the CLI's bad-line responses and the HTTP 400 payloads (pinned by
#: tests on both transports).
BAD_REQUEST_PREFIX = "bad request line"

#: Serving-only payload key: per-request deadline in milliseconds.
DEADLINE_KEY = "deadline_ms"


class RequestError(ValueError):
    """A request payload that failed validation (transport-agnostic)."""


def parse_request_payload(
    payload: Any, *, allow_deadline: bool = False
) -> tuple[SizingRequest, float | None]:
    """Validate one decoded JSON payload into ``(request, deadline_ms)``.

    ``allow_deadline`` enables the serving-only ``deadline_ms`` key (the
    JSONL CLI rejects it like any other unknown field: there is no queue
    to expire from in an offline stream).  Raises :class:`RequestError`
    with a transport-neutral message on any validation failure.
    """
    if not isinstance(payload, Mapping):
        raise RequestError("request payload must be a JSON object")
    deadline_ms: float | None = None
    if allow_deadline and DEADLINE_KEY in payload:
        payload = dict(payload)
        raw = payload.pop(DEADLINE_KEY)
        if raw is not None:
            try:
                deadline_ms = float(raw)
            except (TypeError, ValueError):
                raise RequestError(
                    f"{DEADLINE_KEY} must be a number of milliseconds"
                ) from None
            if not deadline_ms > 0:
                raise RequestError(f"{DEADLINE_KEY} must be positive")
    try:
        request = SizingRequest.from_json(payload)
    except (ValueError, KeyError, TypeError) as error:
        raise RequestError(str(error)) from error
    return request, deadline_ms


def parse_request_text(
    text: str, *, allow_deadline: bool = False
) -> tuple[SizingRequest, float | None]:
    """Parse one JSON document (a JSONL line or an HTTP body)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise RequestError(f"invalid JSON: {error}") from error
    return parse_request_payload(payload, allow_deadline=allow_deadline)


def invalid_request_response(message: str, request: SizingRequest | None = None) -> SizingResponse:
    """The structured payload for a request that failed validation.

    Identical for a malformed JSONL line and a malformed HTTP body —
    this is the single constructor both transports use.  It is addressed
    to ``request`` when the payload parsed and only a later check failed
    (a CLI override breaking a work bound).
    """
    return SizingResponse.failure(f"{BAD_REQUEST_PREFIX}: {message}", request)
