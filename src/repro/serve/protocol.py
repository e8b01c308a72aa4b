"""Wire protocol: newline-delimited JSON messages.

One request or response per line, UTF-8 JSON, ``\\n``-terminated.
Responses may arrive out of order — clients correlate on ``id`` — which
is what lets a single TCP connection carry thousands of in-flight
queries (the load generator drives 10k+ concurrent requests over a few
dozen connections this way).

Operations
----------
``point``
    Minimum-cost path ``source -> dest`` on a named graph: returns
    ``cost``, ``next`` (the successor of ``source``) and optionally the
    full ``path``.
``dest``
    The single-destination problem the paper solves: all costs/successors
    into ``dest`` (one column of the APSP matrices).
``apsp``
    Solve (and cache) the full all-pairs problem; returns summary
    statistics and a result digest rather than the O(n^2) matrices.
``put_graph``
    Register (or replace) a named weight matrix — or, with ``edges``
    instead of ``weights``, apply a **sparse edge delta** to the
    registered graph: ``edges`` is ``[[u, v, w], ...]`` (``w = null``
    removes the edge), optionally guarded by ``base_version`` (the
    update is rejected with a version-conflict error unless it applies
    to exactly that version). Deltas bump the graph version but keep
    every cached column the change provably cannot affect; the ones it
    can are re-solved cold on their next request
    (:mod:`repro.serve.delta`).
``stats`` / ``health``
    Server introspection: admission/breaker/ladder/cache state.

Statuses
--------
``ok``
    Verified answer. May carry ``degraded`` — the machine-readable
    downgrade record (rung, reasons) when the service answered below
    full capability. Column answers carry batching accounting in
    ``timing``: ``batched_with`` (how many distinct destinations shared
    the engine run — 1 means the request rode alone) and
    ``single_flight`` (the answer was joined to an identical in-flight
    computation).
``shed``
    Load-shedding refusal from admission control; carries
    ``retry_after_ms`` (the backpressure signal).
``deadline``
    The request's deadline expired before a verified answer existed.
``error``
    The request failed (bad input, unknown graph, or the full
    retry/degradation ladder was exhausted). Never a wrong answer:
    results that fail verification are retried or reported here,
    by design.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "STATUSES",
    "Request",
    "Response",
    "encode_message",
    "decode_line",
]

PROTOCOL_VERSION = "repro-serve-v1"

OPS = ("point", "dest", "apsp", "put_graph", "del_graph", "stats", "health",
       "ping")
STATUSES = ("ok", "shed", "deadline", "error")

#: Hard cap on one encoded line (16 MiB) — a malformed or hostile client
#: cannot balloon server memory through a single unbounded line.
MAX_LINE_BYTES = 16 * 1024 * 1024


@dataclass
class Request:
    """One decoded client request."""

    id: Any
    op: str
    graph: str | None = None
    source: int | None = None
    dest: int | None = None
    deadline_ms: float | None = None
    want_path: bool = False
    #: ``put_graph`` payload: nested-list weight matrix (``null`` = no
    #: edge) and word width.
    weights: list | None = None
    word_bits: int = 16
    #: ``put_graph`` sparse-delta payload: ``[[u, v, w], ...]`` edge
    #: updates (``w = null`` removes the edge). Mutually exclusive with
    #: ``weights``.
    edges: list | None = None
    #: optional optimistic-concurrency guard for delta updates: the
    #: delta only applies if the graph is at exactly this version.
    base_version: int | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "Request":
        if not isinstance(data, dict):
            raise ReproError("request must be a JSON object")
        op = data.get("op")
        if op not in OPS:
            raise ReproError(f"unknown op {op!r}; choose one of {OPS}")
        if "id" not in data:
            raise ReproError("request has no id")
        return cls(
            id=data["id"],
            op=op,
            graph=data.get("graph"),
            source=_opt_int(data, "source"),
            dest=_opt_int(data, "dest"),
            deadline_ms=_opt_float(data, "deadline_ms"),
            want_path=bool(data.get("want_path", False)),
            weights=data.get("weights"),
            word_bits=int(data.get("word_bits", 16)),
            edges=data.get("edges"),
            base_version=_opt_int(data, "base_version"),
        )

    def to_dict(self) -> dict:
        out: dict = {"id": self.id, "op": self.op}
        for key in ("graph", "source", "dest", "deadline_ms", "weights",
                    "edges", "base_version"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.want_path:
            out["want_path"] = True
        if self.word_bits != 16:
            out["word_bits"] = self.word_bits
        return out


@dataclass
class Response:
    """One server response (see module docstring for the status grammar)."""

    id: Any
    status: str
    op: str | None = None
    #: answer payload (op-specific): cost/next/path, sow/ptn lists, apsp
    #: summary, stats/health body...
    result: dict = field(default_factory=dict)
    error: str | None = None
    #: machine-readable downgrade record: ``{"rung": int, "label": str,
    #: "engine": str, "workers": int, "lane_div": int,
    #: "reasons": [str, ...]}`` — absent when served at full capability.
    degraded: dict | None = None
    #: backpressure signal on ``shed`` responses (milliseconds).
    retry_after_ms: float | None = None
    #: per-request accounting: queue wait, compute, verify, attempts.
    timing: dict = field(default_factory=dict)
    server: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {"id": self.id, "status": self.status}
        if self.op is not None:
            out["op"] = self.op
        if self.result:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.degraded is not None:
            out["degraded"] = self.degraded
        if self.retry_after_ms is not None:
            out["retry_after_ms"] = self.retry_after_ms
        if self.timing:
            out["timing"] = self.timing
        if self.server:
            out["server"] = self.server
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Response":
        if not isinstance(data, dict) or "id" not in data:
            raise ReproError("response must be a JSON object with an id")
        status = data.get("status")
        if status not in STATUSES:
            raise ReproError(f"unknown status {status!r}")
        return cls(
            id=data["id"],
            status=status,
            op=data.get("op"),
            result=dict(data.get("result", {})),
            error=data.get("error"),
            degraded=data.get("degraded"),
            retry_after_ms=data.get("retry_after_ms"),
            timing=dict(data.get("timing", {})),
            server=dict(data.get("server", {})),
        )


def _opt_int(data: dict, key: str) -> int | None:
    value = data.get(key)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ReproError(f"{key} must be an integer, got {value!r}") from exc


def _opt_float(data: dict, key: str) -> float | None:
    value = data.get(key)
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ReproError(f"{key} must be a number, got {value!r}") from exc


def encode_message(message: "Request | Response | dict") -> bytes:
    """Serialise one message to a newline-terminated JSON line."""
    if hasattr(message, "to_dict"):
        message = message.to_dict()
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one received line into a plain dict (validation happens in
    :meth:`Request.from_dict` / :meth:`Response.from_dict`)."""
    if len(line) > MAX_LINE_BYTES:
        raise ReproError(
            f"line of {len(line)} bytes exceeds the {MAX_LINE_BYTES}-byte "
            "protocol cap"
        )
    try:
        return json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReproError(f"malformed protocol line: {exc}") from exc
