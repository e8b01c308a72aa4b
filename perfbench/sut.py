"""The system-under-test process: one fresh interpreter per setup.

    python3 perfbench/sut.py --workload NAME --seed N --trace 0|1

Talks JSON lines with ``run.py``: commands on stdin, replies
on the original stdout. Anything else the process prints goes to stderr.

* APSP workloads: generate the graphs, warm up, reply ``ready``; then on
  ``{"cmd": "run", "seconds": S}`` solve in a closed loop for S seconds,
  check the answers (untimed) and reply with the samples.
* Serve workloads: start a default :class:`PathQueryService` on a local
  port and reply ``{"port": P}``; ``mark`` replies with this process's
  CPU seconds (and, traced, starts the layer window); ``stop`` shuts the
  service down and replies with CPU, peak RSS and the layer report.

With ``--trace 1`` the layer wrappers of :mod:`layers` are installed
before anything from ``repro`` runs.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.require_source()

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

#: Request spans a traced service keeps (the default keeps 256).
TRACED_SPANS = 1 << 19
#: APSP columns checked against the reference per distinct solve.
CHECK_COLUMNS = 8


def _life_snapshot(rec: layers.Recorder, setup: dict | None) -> dict:
    """Setup-phase layers (the cost probe) summed with the window's."""
    out = layers.Recorder()
    if setup is not None:
        out.merge(setup)
    out.merge(rec.snapshot())
    return out.snapshot()


def _cache_marks() -> dict:
    from repro.engine.costs import cost_cache_stats
    from repro.ppa.segments import plan_cache_stats

    plans = plan_cache_stats()
    return {"plan_hits": plans.hits, "plan_misses": plans.misses,
            "cost_misses": cost_cache_stats()["misses"]}


def layer_report(rec: layers.Recorder, setup: dict | None, before: dict,
                 spans: list | None = None) -> dict:
    """Per-layer metrics of the measured window, from this process."""
    window = rec.snapshot()
    life = _life_snapshot(rec, setup)
    after = _cache_marks()
    timed, counts, samples = window["timed"], window["counts"], \
        window["samples"]

    def ms(name, kind=layers._WALL, snap=timed):
        return snap.get(name, [0] * 5)[kind] * 1e3

    def per_call_us(name, kind):
        slot = timed.get(name)
        return slot[kind] / slot[layers._CALLS] * 1e6 if slot else 0.0

    lanes = counts.get("engine.lanes", 0)
    plan_total = (after["plan_hits"] - before["plan_hits"]
                  + after["plan_misses"] - before["plan_misses"])
    verify_cpu = ms("oracle.verify", layers._CPU)
    engine_cpu = ms("serve.engine", layers._CPU)
    replies = timed.get("wire.encode", [0])[layers._CALLS]
    kept, dirtied = counts.get("delta.kept", 0), counts.get("delta.dirtied",
                                                             0)

    def pct(name, q):
        data = samples.get(name)
        return common.percentile(data, q) * 1e3 if data else 0.0

    out = {
        "engine.relax_ms": ms("engine.relax"),
        "engine.relax_cpu_ms": ms("engine.relax", layers._CPU),
        "engine.relax_calls": timed.get("engine.relax", [0])[0],
        "engine.relax_bytes": counts.get("engine.relax_bytes", 0),
        "engine.loop_self_ms": ms("engine.loop", layers._SELF_WALL),
        "engine.loop_self_cpu_ms": ms("engine.loop", layers._SELF_CPU),
        "engine.rounds": counts.get("engine.rounds", 0),
        "engine.reconstruct_ms": ms("engine.reconstruct"),
        "engine.reconstruct_cpu_ms": ms("engine.reconstruct", layers._CPU),
        "engine.warm_frac": (counts.get("engine.warm_lanes", 0) / lanes
                             if lanes else 0.0),
        "costs.probe_ms": ms("costs.probe", snap=life["timed"]),
        "costs.probe_cpu_ms": ms("costs.probe", layers._CPU,
                                 snap=life["timed"]),
        "costs.misses": after["cost_misses"],
        "shard.fork_ms": ms("shard.fork"),
        "shard.fork_cpu_ms": ms("shard.fork", layers._CPU),
        "shard.shm_ms": ms("shard.shm"),
        "shard.shm_cpu_ms": ms("shard.shm", layers._CPU),
        "shard.wait_ms": ms("shard.wait"),
        "shard.wait_cpu_ms": ms("shard.wait", layers._CPU),
        "shard.failures": counts.get("shard.failures", 0),
        "cycle.bus_ms": ms("cycle.bus", layers._SELF_WALL),
        "cycle.bus_cpu_ms": ms("cycle.bus", layers._SELF_CPU),
        "cycle.plan_hit_frac": ((after["plan_hits"] - before["plan_hits"])
                                / plan_total if plan_total else 0.0),
        "machine.create_ms": ms("machine.create"),
        "machine.create_cpu_ms": ms("machine.create", layers._CPU),
        "oracle.verify_ms": ms("oracle.verify"),
        "oracle.verify_cpu_ms": verify_cpu,
        "oracle.verify_share": (verify_cpu / (verify_cpu + engine_cpu)
                                if verify_cpu + engine_cpu else 0.0),
        "admission.wait_p50_ms": pct("admission.wait", 50),
        "admission.wait_p99_ms": pct("admission.wait", 99),
        "admission.peak_queue": window["peaks"].get("admission.queue", 0),
        "serve.abandoned_s": sum(samples.get("serve.abandoned", ())),
        "serve.slot_hold_ms": sum(samples.get("serve.slot_hold", ())) * 1e3,
        "delta.apply_ms": ms("delta.apply"),
        "delta.apply_cpu_ms": ms("delta.apply", layers._CPU),
        "delta.dirty_frac": (dirtied / (kept + dirtied)
                             if kept + dirtied else 0.0),
        "wire.decode_us": per_call_us("wire.decode", layers._WALL),
        "wire.decode_cpu_us": per_call_us("wire.decode", layers._CPU),
        "wire.encode_us": per_call_us("wire.encode", layers._WALL),
        "wire.encode_cpu_us": per_call_us("wire.encode", layers._CPU),
        "wire.reply_bytes": (counts.get("wire.reply_bytes", 0) / replies
                             if replies else 0.0),
    }
    out.update(span_report(spans or []))
    return out


def span_report(spans: list) -> dict:
    """Coalescing and request self time from the service's own spans."""
    waits, single, lanes, self_ms = [], [], [], []
    for span in spans:
        if span.name == "serve.batch":
            lanes.append(span.attrs.get("lanes", 0))
        elif span.name == "serve.request":
            self_ms.append((span.duration - sum(c.duration
                                                for c in span.children))
                           * 1e3)
            for child in span.children:
                if child.name == "serve.coalesce":
                    waits.append(child.duration * 1e3)
                    single.append(bool(child.attrs.get("single_flight")))
    return {
        "coalesce.wait_p50_ms": common.percentile(waits, 50) if waits
        else 0.0,
        "coalesce.wait_p99_ms": common.percentile(waits, 99) if waits
        else 0.0,
        "coalesce.lanes_per_batch": float(np.mean(lanes)) if lanes else 0.0,
        "coalesce.single_flight_frac": float(np.mean(single)) if single
        else 0.0,
        "serve.self_ms": common.median(self_ms) if self_ms else 0.0,
    }


# ---------------------------------------------------------------------------
# APSP workloads
# ---------------------------------------------------------------------------


def _solve(spec: dict, W: np.ndarray):
    from repro.core.apsp import all_pairs_minimum_cost
    from repro.ppa.machine import PPAMachine
    from repro.ppa.topology import PPAConfig

    machine = PPAMachine(PPAConfig(n=spec["n"], word_bits=workloads.WORD_BITS))
    return all_pairs_minimum_cost(machine, W, **spec["kwargs"])


def _solve_digest(result) -> str:
    return common.digest(result.dist.tobytes(), result.succ.tobytes(),
                         np.asarray(result.iterations).tobytes(),
                         common.json_digest(result.counters).encode())


def apsp_main(proto, name: str, seed: int, rec) -> None:
    spec = workloads.SPECS[name]
    solves, variants = spec["solves"], spec["variants"]
    graphs = {(s["label"], v): workloads.graph(name, seed,
                                               v * len(solves) + i, s["n"])
              for v in range(variants) for i, s in enumerate(solves)}
    refs = workloads.References()
    problems: list[str] = []
    # Warm-up: the first fork and cold cost probe (an edgeless sweep
    # converges in one round), or one real solve of each size.
    for s in solves:
        if spec["warmup"] == "edgeless":
            W = workloads.edgeless(s["n"])
            if not np.array_equal(_solve(s, W).dist, W):
                problems.append(f"{s['label']}: edgeless warm-up is wrong")
        else:
            key = (s["label"], 0)
            problems += workloads.check_apsp(
                graphs[key], _solve(s, graphs[key]), np.arange(1), refs, key)
    setup_layers = rec.snapshot() if rec is not None else None
    common.send(proto, {
        "ready": True, "problems": problems,
        "inputs_digest": common.digest(
            *[graphs[key].tobytes() for key in sorted(graphs)]),
    })
    cmd = common.receive(sys.stdin)
    if cmd["cmd"] != "run":
        return
    seconds = float(cmd["seconds"])
    if rec is not None:
        rec.reset()
    marks = _cache_marks()
    ops: list[float] = []
    by_label: dict[str, list[float]] = {s["label"]: [] for s in solves}
    first: dict = {}
    digests: dict[tuple, set] = {}
    cpu0 = common.cpu_seconds()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = 0.0
        for s in solves:
            key = (s["label"], len(ops) % variants)
            t0 = time.perf_counter()
            result = _solve(s, graphs[key])
            dt = time.perf_counter() - t0
            op += dt
            by_label[s["label"]].append(dt * 1e3)
            digests.setdefault(key, set()).add(_solve_digest(result))
            first.setdefault(key, result)
            del result
        ops.append(op * 1e3)
    cpu = common.cpu_seconds() - cpu0
    layer_out = layer_report(rec, setup_layers, marks) if rec else None

    # Untimed checks: repeats of a graph are bit-identical, and each
    # solved graph is checked column-sampled against the reference.
    rng = np.random.default_rng(workloads.stream_seed(seed, name, "check"))
    for key, result in first.items():
        if len(digests[key]) != 1:
            problems.append(f"{key}: repeated solves disagree")
        n = result.dist.shape[0]
        columns = rng.choice(n, size=min(CHECK_COLUMNS, n), replace=False)
        problems += [f"{key}: {p}" for p in workloads.check_apsp(
            graphs[key], result, columns, refs, key)]
    common.send(proto, {
        "ops_ms": ops, "by_label_ms": by_label, "cpu_s": cpu,
        "rss_mb": common.peak_rss_mb(), "problems": problems,
        "counter_digests": {f"{label}/{v}": common.json_digest(
            {k: int(c) for k, c in result.counters.items()})
            for (label, v), result in sorted(first.items())},
        "layers": layer_out,
    })


# ---------------------------------------------------------------------------
# Serve workloads
# ---------------------------------------------------------------------------


def _commands(loop, queue: asyncio.Queue) -> None:
    """stdin reader thread: forward each command line to the loop."""
    for line in sys.stdin:
        loop.call_soon_threadsafe(queue.put_nowait, line)
    loop.call_soon_threadsafe(queue.put_nowait, None)


async def serve_main(proto, rec) -> None:
    from repro.serve.service import PathQueryService, ServiceConfig

    config = ServiceConfig(keep_request_spans=TRACED_SPANS) if rec \
        else ServiceConfig()
    service = PathQueryService(config)
    server = await service.start("127.0.0.1", 0)
    common.send(proto, {"port": server.sockets[0].getsockname()[1]})
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    threading.Thread(target=_commands, args=(loop, queue),
                     daemon=True).start()
    setup_layers, marks, span_mark = None, None, 0
    while True:
        line = await queue.get()
        cmd = json.loads(line) if line else {"cmd": "stop"}
        if cmd["cmd"] == "stop":
            break
        if cmd["cmd"] == "mark" and rec is not None:
            setup_layers = rec.snapshot()
            rec.reset()
            marks = _cache_marks()
            span_mark = len(service.profile().spans)
        common.send(proto, {"cpu_s": common.cpu_seconds()})
    await service.stop()
    layer_out = None
    if rec is not None and marks is not None:
        spans = service.profile().spans[span_mark:]
        layer_out = layer_report(rec, setup_layers, marks, spans)
    common.send(proto, {"cpu_s": common.cpu_seconds(),
                        "rss_mb": common.peak_rss_mb(),
                        "layers": layer_out})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Keep the protocol pipe clean: whatever else prints goes to stderr.
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    rec = None
    if args.trace:
        rec = layers.Recorder()
        layers.install(rec)
    if workloads.SPECS[args.workload]["kind"] == "apsp":
        apsp_main(proto, args.workload, args.seed, rec)
    else:
        asyncio.run(serve_main(proto, rec))
    proto.close()


if __name__ == "__main__":
    main()
