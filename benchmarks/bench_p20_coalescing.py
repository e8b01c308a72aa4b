"""P20 — request coalescing: throughput with bit-identical answers.

The serving tier's micro-batching artefact (docs/performance.md,
"Serving-tier request coalescing and cold re-solves after a delta").
Four measurements over the in-process service (``repro.serve``), all
seeded:

* **zipf storm, coalesce on vs off** — the same Zipf-skewed
  destination workload (hot keys, concurrent bursts) against two
  services whose only difference is the coalescer, with the column
  cache disabled so every answer is a real engine run. Coalescing must
  deliver >= 3x the completed-request throughput at an unchanged
  deadline-miss rate (both arms: zero), with every validated answer
  right in both arms;
* **update storm** — Zipf workload with periodic sparse edge deltas
  through the incremental ``put_graph`` path (caches on, the realistic
  shape): served versions and costs validate against a local reference
  at every graph version — a stale column counts as wrong and must
  never appear;
* **campaign** — the full 50-run chaos campaign over all six injection
  kinds (now including ``update-storm``): 0 silent-wrong, 0 leaked
  ``/dev/shm`` segments;
* **invariance** — the digest-guarded determinism slice run twice,
  coalescing on and off: both campaigns' oracle digests must be
  bit-identical (coalescing is a pure throughput optimisation, never
  an answer change). ``benchmarks/check_drift.py`` re-runs both in CI.

``BENCH_p20_coalescing.json`` records all four. Latency / throughput /
wall-clock fields are host-dependent and never drift-guarded; the
invariance digests, validation counts and the committed invariants
(``wrong == 0``, ``silent_wrong == 0``, ``leaked_shm == []``) are.
"""

import asyncio
import json
from pathlib import Path

from repro.serve.chaos import run_chaos_campaign
from repro.serve.loadgen import run_loadgen
from repro.serve.service import PathQueryService, ServiceConfig

SEED = 0
GRAPH_N = 32
DENSITY = 0.35
REQUESTS = 800
CONCURRENCY = 400
CONNECTIONS = 8
DEADLINE_MS = 30_000.0
ZIPF = 1.1
#: acceptance bar: coalescing on must complete >= this multiple of the
#: uncoalesced arm's requests per second on the same workload.
SPEEDUP_BAR = 3.0

UPDATE_REQUESTS = 600
UPDATE_EVERY = 100

CAMPAIGN_RUNS = 50
CAMPAIGN_N = 10
CAMPAIGN_REQUESTS = 12

#: The digest-guarded invariance slice runs only the kinds whose
#: ok-answer set is independent of host timing (``update-storm``
#: issues its deltas strictly sequentially, so it qualifies).
DETERMINISTIC_KINDS = ("healthy", "bus-fault", "update-storm")
INVARIANCE_RUNS = 9
INVARIANCE_SEED = 7
INVARIANCE_N = 8
INVARIANCE_REQUESTS = 8

_ARTIFACT = (Path(__file__).parent / "profiles"
             / "BENCH_p20_coalescing.json")


def _storm_config(coalesce: bool) -> ServiceConfig:
    """Compute-bound serving: the column/APSP caches are disabled so
    every request is an engine run and the two arms differ *only* in
    the coalescer."""
    return ServiceConfig(
        max_inflight=8,
        max_queue=4096,
        workers=1,
        default_deadline_ms=DEADLINE_MS,
        seed=SEED,
        coalesce=coalesce,
        column_cache=0,
        apsp_cache=0,
    )


async def _zipf_storm(coalesce: bool) -> dict:
    """One Zipf-skewed destination storm against a fresh service."""
    service = PathQueryService(_storm_config(coalesce))
    server = await service.start("127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        result = await run_loadgen(
            "127.0.0.1", port,
            requests=REQUESTS, concurrency=CONCURRENCY,
            connections=CONNECTIONS, graph="loadgen", n=GRAPH_N,
            density=DENSITY, deadline_ms=DEADLINE_MS, seed=SEED,
            zipf=ZIPF, apsp_every=0, dest_every=1,
        )
        stats = service.stats()
    finally:
        await service.stop()
    out = result.to_dict()
    out["concurrency"] = CONCURRENCY
    out["coalesce"] = coalesce
    out["coalescer"] = stats["coalescer"]
    out["admission"] = {k: stats["admission"][k]
                       for k in ("admitted", "admitted_weight")}
    return out


async def _update_storm() -> dict:
    """Zipf workload with periodic sparse edge deltas (caches on)."""
    service = PathQueryService(ServiceConfig(
        max_inflight=8, max_queue=4096, workers=1,
        default_deadline_ms=DEADLINE_MS, seed=SEED,
    ))
    server = await service.start("127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        result = await run_loadgen(
            "127.0.0.1", port,
            requests=UPDATE_REQUESTS, concurrency=CONCURRENCY,
            connections=CONNECTIONS, graph="loadgen", n=GRAPH_N,
            density=DENSITY, deadline_ms=DEADLINE_MS, seed=SEED,
            zipf=ZIPF, update_every=UPDATE_EVERY,
        )
    finally:
        await service.stop()
    out = result.to_dict()
    out["concurrency"] = CONCURRENCY
    return out


def _campaign_record(report: dict) -> dict:
    return {k: report[k] for k in (
        "seed", "runs", "kinds", "by_kind", "by_status", "silent_wrong",
        "validated", "updates", "degraded_responses",
        "verify_rejections", "breaker_trips", "ladder_downgrades",
        "leaked_shm", "latency_ms", "wall_s", "digest",
    )}


def _invariance_campaign(coalesce: bool) -> dict:
    return run_chaos_campaign(
        runs=INVARIANCE_RUNS, seed=INVARIANCE_SEED, n=INVARIANCE_N,
        requests_per_run=INVARIANCE_REQUESTS, kinds=DETERMINISTIC_KINDS,
        coalesce=coalesce,
    )


def test_p20_coalescing(benchmark, report):
    coalesced = benchmark.pedantic(
        lambda: asyncio.run(_zipf_storm(True)),
        rounds=1, iterations=1,
    )
    uncoalesced = asyncio.run(_zipf_storm(False))
    for arm in (coalesced, uncoalesced):
        assert arm["wrong"] == 0
        assert arm["by_status"].get("ok", 0) == REQUESTS
        # unchanged deadline-miss rate: zero on both arms
        assert arm["by_status"].get("deadline", 0) == 0
        assert arm["latency_ms"]["p99"] <= DEADLINE_MS
    speedup = (coalesced["throughput_rps"]
               / uncoalesced["throughput_rps"])
    assert speedup >= SPEEDUP_BAR, (
        f"coalescing speedup {speedup:.2f}x below the "
        f"{SPEEDUP_BAR:.0f}x bar"
    )
    # the batches were real: fewer engine dispatches than requests
    snap = coalesced["coalescer"]
    assert snap["batches"] + snap["single_flight_hits"] > 0
    assert coalesced["admission"]["admitted"] \
        < uncoalesced["admission"]["admitted"]

    updates = asyncio.run(_update_storm())
    assert updates["wrong"] == 0
    assert updates["updates"] == UPDATE_REQUESTS // UPDATE_EVERY - 1
    assert updates["by_status"].get("ok", 0) == UPDATE_REQUESTS

    campaign = run_chaos_campaign(
        runs=CAMPAIGN_RUNS, seed=SEED, n=CAMPAIGN_N,
        requests_per_run=CAMPAIGN_REQUESTS,
    )
    assert campaign["silent_wrong"] == 0
    assert campaign["leaked_shm"] == []
    assert set(campaign["by_kind"]) == {
        "healthy", "worker-kill", "worker-slow", "overload",
        "bus-fault", "update-storm",
    }
    assert campaign["updates"] > 0

    inv_on = _invariance_campaign(True)
    inv_off = _invariance_campaign(False)
    for inv in (inv_on, inv_off):
        assert inv["silent_wrong"] == 0
        assert inv["leaked_shm"] == []
    assert inv_on["digest"] == inv_off["digest"]
    assert inv_on["validated"] == inv_off["validated"]

    _ARTIFACT.parent.mkdir(exist_ok=True)
    _ARTIFACT.write_text(json.dumps({
        "schema": "repro-bench-p20-v1",
        "workload": {
            "graph_n": GRAPH_N, "density": DENSITY, "seed": SEED,
            "requests": REQUESTS, "concurrency": CONCURRENCY,
            "connections": CONNECTIONS, "deadline_ms": DEADLINE_MS,
            "zipf": ZIPF, "speedup_bar": SPEEDUP_BAR,
        },
        "coalesced": coalesced,
        "uncoalesced": uncoalesced,
        "speedup": round(speedup, 2),
        "update_storm": {
            "requests": UPDATE_REQUESTS, "update_every": UPDATE_EVERY,
            **updates,
        },
        "campaign": _campaign_record(campaign),
        "invariance": {
            "runs": INVARIANCE_RUNS, "seed": INVARIANCE_SEED,
            "n": INVARIANCE_N,
            "requests_per_run": INVARIANCE_REQUESTS,
            "kinds": list(DETERMINISTIC_KINDS),
            "digest": inv_on["digest"],
            "silent_wrong": inv_on["silent_wrong"],
            "validated": inv_on["validated"],
        },
    }, indent=2, sort_keys=True) + "\n")

    from repro.metrics import Table

    table = Table(
        "P20 - request coalescing: Zipf storm, coalesce on vs off",
        ["section", "requests", "ok", "wrong", "rps", "p99 ms",
         "engine runs"],
    )
    for label, r in (("coalesce on", coalesced),
                     ("coalesce off", uncoalesced)):
        table.add_row(
            label, r["requests"], r["by_status"].get("ok", 0),
            r["wrong"], f"{r['throughput_rps']:.0f}",
            f"{r['latency_ms']['p99']:.2f}",
            r["admission"]["admitted"],
        )
    table.add_row(
        f"update storm ({updates['updates']} deltas)",
        UPDATE_REQUESTS, updates["by_status"].get("ok", 0),
        updates["wrong"], f"{updates['throughput_rps']:.0f}",
        f"{updates['latency_ms']['p99']:.2f}", "-",
    )
    table.add_row(
        f"campaign ({CAMPAIGN_RUNS} runs)",
        sum(campaign["by_status"].values()),
        campaign["by_status"].get("ok", 0),
        campaign["silent_wrong"], "-",
        f"{campaign['latency_ms']['p99']:.2f}", "-",
    )
    table.note(
        f"speedup {speedup:.1f}x (bar {SPEEDUP_BAR:.0f}x) on the same "
        "seeded Zipf workload with the column cache disabled, so both "
        "arms compute every answer - the coalesced arm folds "
        "concurrent distinct-destination misses into lane-batched "
        "engine runs and dedups hot keys via single-flight; 'wrong' "
        "counts independently validated answers (stale versions "
        "included) and must be 0; the invariance digests (coalesce on "
        "== off, bit-identical) are the drift-guarded slice; latency "
        "and rps are host-dependent and not guarded"
    )
    report(table)
