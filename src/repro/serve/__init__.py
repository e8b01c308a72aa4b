"""``repro.serve`` — fault-tolerant async path-query service.

The serving front end over the execution engines (ROADMAP,
"MCP-as-a-service"): a stdlib-``asyncio`` JSON-lines server answering
point-to-point, single-destination and APSP minimum-cost-path queries
over persistent named graphs, built robustness-first:

* **admission control** (:mod:`repro.serve.admission`) — a bounded
  queue with load shedding and backpressure signals on every response;
* **deadlines + retries** (:mod:`repro.serve.service`,
  :class:`~repro.resilience.BackoffPolicy`) — per-request deadlines with
  cancellation, exponential-backoff-with-jitter retries for transient
  failures;
* **graceful degradation** (:mod:`repro.serve.degrade`) — a ladder that
  downgrades engine tier (compiled → fused → cycle), worker count and
  lane batch under pressure or after failures, stamping a
  machine-readable downgrade reason on every affected response;
* **circuit breaker** (:mod:`repro.serve.breaker`) — around the sharded
  APSP worker pool, composing with the pool's own crash detection,
  respawn and shared-memory reclamation
  (:mod:`repro.engine.shard`);
* **answer verification** (:mod:`repro.serve.oracle`) — every computed
  result is checked against the Bellman fixpoint before it is served,
  which is what makes the chaos campaign's "0 silent-wrong" claim a
  theorem rather than a sample;
* **chaos harness** (:mod:`repro.serve.chaos`) — deterministic, seeded
  service-level failure injection (worker kill, slow worker, queue
  overload, PR 3 bus-fault plans) with campaign-level invariants.

See docs/robustness.md ("Serving and failure handling") for the design
and EXPERIMENTS.md (P19) for the measured SLOs; ``repro serve`` /
``repro loadgen`` are the CLI entry points.
"""

from repro.serve.admission import AdmissionController, AdmissionStats
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.chaos import ChaosScenario, run_chaos_campaign
from repro.serve.client import ServeClient
from repro.serve.coalesce import ColumnCoalescer, CoalesceStats
from repro.serve.degrade import DegradationLadder, Rung, RUNGS
from repro.serve.delta import (
    apply_edge_delta,
    decode_edges,
    dirty_destinations,
)
from repro.serve.loadgen import LoadGenResult, run_loadgen
from repro.serve.oracle import (
    bellman_reference,
    verify_apsp,
    verify_mcp,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    Request,
    Response,
    decode_line,
    encode_message,
)
from repro.serve.service import PathQueryService, ServiceConfig

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "BreakerState",
    "ChaosScenario",
    "CircuitBreaker",
    "CoalesceStats",
    "ColumnCoalescer",
    "DegradationLadder",
    "LoadGenResult",
    "PathQueryService",
    "PROTOCOL_VERSION",
    "Request",
    "Response",
    "Rung",
    "RUNGS",
    "ServeClient",
    "ServiceConfig",
    "apply_edge_delta",
    "bellman_reference",
    "decode_edges",
    "decode_line",
    "dirty_destinations",
    "encode_message",
    "run_chaos_campaign",
    "run_loadgen",
    "verify_apsp",
    "verify_mcp",
]
