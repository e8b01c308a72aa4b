"""The repository benchmark: APSP solve time and path-query SLOs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload drives the system through
its public API only (``all_pairs_minimum_cost``, ``PathQueryService`` /
``ServiceConfig``, ``ServeClient``), in a fresh system-under-test process
(``perfbench/sut.py``) per setup, so set-up and memory see cold caches.
The serve workloads are open loops: this process is the only load
generator (one asyncio thread, two client connections) and the service
runs in its own process, so the two share no interpreter lock.

Every answer is checked outside the timed window; a wrong answer fails the
run. The last stdout line is the result object; the line before it is the
run record (host fingerprint, input and schedule digests, counter digests,
generator lateness). ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` makes one untraced and one traced pass of
half the window each and reports the per-layer metrics, the tracing
overhead included. End-to-end numbers never come from a traced pass.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import selectors
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import workloads  # noqa: E402

#: Fresh system-under-test processes per untraced run; ``setup_s`` is
#: their median.
SETUPS = 3
#: Longest wait for stragglers after the last scheduled request.
DRAIN_S = 10.0
#: Back-to-back sends (a backlog of due requests) between yields to the
#: event loop, so replies keep being read while the generator catches up.
FLUSH_EVERY = 32
#: The generator sleeps until this long before a send is due, then polls
#: the event loop until it is: an idle virtual CPU can take milliseconds
#: to wake from a sleep, which would read as service latency.
SPIN_S = 0.0005
#: At most this many equal slices of a serve window, each expected to
#: hold enough reads for a p99 (TAIL_SAMPLES beyond it); latency
#: percentiles are taken per slice and reported as the median over
#: slices, so one host stall moves one slice, not the run.
MAX_SLICES = 8
#: The gated tail is p90. On a shared 2-vCPU host the p99 of
#: millisecond answers is set by host scheduling jitter and moved by up to
#: 3x between identical runs; it is reported in the run record instead.
GATED_TAIL = 90.0


@contextlib.contextmanager
def sut_process(workload: str, seed: int, trace: int):
    """One system-under-test process; always reaped, killed if need be."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "sut.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        cwd=str(common.ROOT),
    )
    try:
        yield proc
    finally:
        for stream in (proc.stdin, proc.stdout):
            with contextlib.suppress(OSError):
                stream.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _command(proc, cmd: str, **fields) -> None:
    common.send(proc.stdin, {"cmd": cmd, **fields})


# ---------------------------------------------------------------------------
# APSP workloads (closed loop, library calls)
# ---------------------------------------------------------------------------


def apsp_pass(workload: str, seed: int, seconds: float, trace: int,
              setups: int) -> dict:
    setup_s: list[float] = []
    for i in range(setups):
        t0 = time.perf_counter()
        with sut_process(workload, seed, trace) as proc:
            ready = common.receive(proc.stdout)
            setup_s.append(time.perf_counter() - t0)
            if i < setups - 1:
                _command(proc, "quit")
                continue
            _command(proc, "run", seconds=seconds)
            result = common.receive(proc.stdout)
    result["setup_s"] = setup_s
    result["problems"] = ready["problems"] + result["problems"]
    result["inputs_digest"] = ready["inputs_digest"]
    return result


def apsp_metrics(spec: dict, run: dict) -> tuple[dict, dict]:
    ops = run["ops_ms"]
    correct = not run["problems"]
    good = [ms for ms in ops if ms <= spec["limit_ms"]] if correct else []
    rank, p_tail = common.tail(ops, GATED_TAIL)
    metrics = {
        "setup_s": common.median(run["setup_s"]),
        "p50_ms": common.median(ops),
        "p90_ms": p_tail,
        "goodput_rps": len(good) / (sum(ops) / 1e3),
        "ok_frac": 1.0 if correct else 0.0,
        "cpu_ms_per_op": run["cpu_s"] * 1e3 / len(ops),
        "peak_rss_mb": run["rss_mb"],
    }
    record = {
        "ops": len(ops), "tail_rank": rank,
        "solve_ms_median": {k: common.median(v)
                            for k, v in run["by_label_ms"].items()},
        "counter_digests": run["counter_digests"],
        "inputs_digest": run["inputs_digest"],
        "problems": run["problems"][:10],
    }
    outcome = {"correct": correct, "attempted": len(ops),
               "failed": 0 if correct else len(ops)}
    return metrics, {"record": record, **outcome}


# ---------------------------------------------------------------------------
# Serve workloads (open loop over TCP)
# ---------------------------------------------------------------------------


class _Graph:
    """The generator's copy of one served graph, per version."""

    def __init__(self, name: str, W):
        self.name = name
        self.grids = {1: W}
        self.sent = 1    # version the last sent write will create
        self.acked = 1   # newest version the service has confirmed


class _Op:
    __slots__ = ("kind", "graph", "source", "dest", "edges", "due", "sent",
                 "done", "acked", "response", "wrong")

    def __init__(self, kind, graph, source, dest, due, edges=None):
        self.kind, self.graph, self.due = kind, graph, due
        self.source, self.dest, self.edges = source, dest, edges
        self.sent, self.done = 0.0, None
        self.acked, self.response, self.wrong = 0, None, False


async def serve_pass(workload: str, seed: int, seconds: float, trace: int,
                     setups: int, sched: dict) -> dict:
    from repro.serve.client import ServeClient

    spec = workloads.SPECS[workload]
    mats = [workloads.graph(workload, seed, i, spec["n"])
            for i in range(spec["graphs"])]
    wires = [workloads.wire_weights(W) for W in mats]
    refs = workloads.References()
    setup_s: list[float] = []
    out: dict = {"problems": []}
    for attempt in range(setups):
        t0 = time.perf_counter()
        with sut_process(workload, seed, trace) as proc:
            port = common.receive(proc.stdout)["port"]
            clients = [await ServeClient("127.0.0.1", port).connect()
                       for _ in range(2)]
            try:
                graphs = [_Graph(f"g{i}", W) for i, W in enumerate(mats)]
                for g, wire in zip(graphs, wires):
                    put = await clients[0].put_graph(
                        g.name, wire, word_bits=workloads.WORD_BITS)
                    if put.status != "ok":
                        raise RuntimeError(f"put_graph failed: {put.error}")
                # Warm-up: the first columns of every graph, so caches,
                # cost probes and compute threads are warm before the
                # window.
                warm = [(g, d) for g in graphs for d in range(spec["warmup"])]
                answers = await asyncio.gather(*(
                    clients[k % 2].dest(g.name, d)
                    for k, (g, d) in enumerate(warm)))
                first = await clients[0].point(graphs[0].name, 1, 0)
                ref = refs.column((graphs[0].name, 1), mats[0], 0)
                if first.status != "ok" or not workloads.check_point(
                        mats[0], ref, 1, 0, first.result):
                    out["problems"].append("first answer after warm-up "
                                           "is wrong")
                setup_s.append(time.perf_counter() - t0)
                for (g, d), resp in zip(warm, answers):
                    if resp.status != "ok" or not workloads.check_dest(
                            g.grids[1], refs.column((g.name, 1),
                                                    g.grids[1], d),
                            d, resp.result):
                        out["problems"].append(
                            f"warm-up answer {g.name}/{d} is wrong")
                if attempt < setups - 1:
                    continue
                out.update(await _window(spec, sched, seconds, trace,
                                         proc, clients, graphs))
            finally:
                for client in clients:
                    await client.close()
                _command(proc, "stop")
                final = common.receive(proc.stdout)
    out["setup_s"] = setup_s
    out["rss_mb"] = final["rss_mb"]
    out["layers"] = final["layers"]
    out["inputs_digest"] = common.digest(*[W.tobytes() for W in mats])

    # Untimed checks: staleness of every answer, values of a sample.
    for i, op in enumerate(out["ops"]):
        resp = op.response
        if op.kind == "write" or resp is None or resp.status != "ok":
            continue
        g = op.graph
        version = resp.result.get("version")
        if not isinstance(version, int) or version < op.acked \
                or version not in g.grids:
            op.wrong = True  # a stale version is a wrong answer
        elif i % spec["check_every"] == 0:
            W = g.grids[version]
            ref = refs.column((g.name, version), W, op.dest)
            op.wrong = not (
                workloads.check_point(W, ref, op.source, op.dest,
                                      resp.result)
                if op.kind == "point" else
                workloads.check_dest(W, ref, op.dest, resp.result))
    out["checked"] = sum(1 for i, op in enumerate(out["ops"])
                         if op.kind != "write"
                         and i % spec["check_every"] == 0)
    return out


async def _window(spec, sched, seconds, trace, proc, clients, graphs):
    """Offer the scheduled load; returns the completed operations."""
    _command(proc, "mark")
    cpu0 = common.receive(proc.stdout)["cpu_s"]
    stats0 = (await clients[0].stats()).result if trace else None

    ops: list[_Op] = []
    for k in range(len(sched["at"])):
        if sched["at"][k] >= seconds:
            break
        kind = "dest" if sched["op"][k] else "point"
        ops.append(_Op(kind, graphs[int(sched["graph"][k])],
                       int(sched["source"][k]), int(sched["dest"][k]),
                       float(sched["at"][k])))
    for w in sched["writes"]:
        if w["at"] < seconds:
            ops.append(_Op("write", graphs[w["graph"]], None, None, w["at"],
                           w["edges"]))
    ops.sort(key=lambda o: o.due)

    futures = []
    # The generator's own collector pauses would read as service latency.
    gc.collect()
    gc.disable()
    start = time.perf_counter() + 0.05

    def finished(op, fut):
        op.done = time.perf_counter()
        if not fut.cancelled() and fut.exception() is None:
            op.response = fut.result()
            if op.kind == "write" and op.response.status == "ok":
                op.graph.acked = max(op.graph.acked,
                                     op.response.result["version"])

    for k, op in enumerate(ops):
        op.due += start
        wait = op.due - time.perf_counter()
        if wait > SPIN_S:
            await asyncio.sleep(wait - SPIN_S)
        if wait > 0 or k % FLUSH_EVERY == 0:
            await asyncio.sleep(0)
        while time.perf_counter() < op.due:
            await asyncio.sleep(0)
        g = op.graph
        op.acked = g.acked
        op.sent = time.perf_counter()
        if op.kind == "write":
            grid = g.grids[g.sent].copy()
            for u, v, w in op.edges:
                grid[u, v] = workloads.MAXINT if w is None else w
            g.grids[g.sent + 1] = grid
            fut = clients[0].submit("put_graph", graph=g.name,
                                    edges=op.edges, base_version=g.sent)
            g.sent += 1
        elif op.kind == "dest":
            fut = clients[k % 2].submit("dest", graph=g.name, dest=op.dest)
        else:
            fut = clients[k % 2].submit("point", graph=g.name,
                                        source=op.source, dest=op.dest)
        fut.add_done_callback(lambda f, op=op: finished(op, f))
        futures.append(fut)
    if futures:
        await asyncio.wait(futures, timeout=DRAIN_S)
    gc.enable()
    for fut in futures:
        if not fut.done():
            fut.cancel()
    _command(proc, "cpu")
    cpu1 = common.receive(proc.stdout)["cpu_s"]
    stats1 = (await clients[0].stats()).result if trace else None
    return {"ops": ops, "cpu_s": cpu1 - cpu0, "start": start,
            "stats": (stats0, stats1)}


def serve_metrics(spec: dict, run: dict, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of one serve pass; any answer but a correct
    ``ok`` is a failed operation and misses the latency limit."""
    ops = run["ops"]
    statuses: dict[str, int] = {}
    # a p99 leaves TAIL_SAMPLES beyond it from 100 * TAIL_SAMPLES reads
    slices = max(1, min(MAX_SLICES, int(spec["rate"] * seconds
                                        / (100 * common.TAIL_SAMPLES))))
    latencies: list[list[float]] = [[] for _ in range(slices)]
    good = ok = failed = 0
    for op in ops:
        status = "transport_error" if op.response is None \
            else op.response.status
        if status == "ok" and op.wrong:
            status = "wrong"
        statuses[status] = statuses.get(status, 0) + 1
        if status != "ok":
            failed += 1
            continue
        ok += 1
        if op.kind != "write":
            ms = (op.done - op.due) * 1e3
            part = int((op.due - run["start"]) / seconds * slices)
            latencies[min(max(part, 0), slices - 1)].append(ms)
            good += ms <= spec["limit_ms"]
    tails = [common.tail(part, GATED_TAIL) for part in latencies if part]
    p99s = [common.tail(part, 99.0) for part in latencies if part]
    late_rank, late_tail = common.tail([(op.sent - op.due) * 1e3
                                        for op in ops], 99.0)
    completed = sum(1 for op in ops if op.response is not None)
    correct = not run["problems"] and "wrong" not in statuses
    valid = late_tail <= spec["limit_ms"] / 2
    metrics = {
        "setup_s": common.median(run["setup_s"]),
        "p50_ms": common.median([common.median(part)
                                 for part in latencies if part]),
        "p90_ms": common.median([value for _, value in tails]),
        "goodput_rps": good / seconds,
        "ok_frac": ok / len(ops),
        "cpu_ms_per_op": run["cpu_s"] * 1e3 / max(completed, 1),
        "peak_rss_mb": run["rss_mb"],
    }
    record = {
        "ops": len(ops), "statuses": statuses, "checked": run["checked"],
        "tail_rank": min(rank for rank, _ in tails),
        "p99_ms": {"rank": min(rank for rank, _ in p99s),
                   "value": common.median([value for _, value in p99s])},
        "slice_p50_ms": [common.median(part) for part in latencies if part],
        "gen_late_ms": {"rank": late_rank, "value": late_tail},
        "valid": valid, "inputs_digest": run["inputs_digest"],
        "schedule_digest": run["schedule_digest"],
        "rate_rps": spec["rate"], "limit_ms": spec["limit_ms"],
        "problems": run["problems"][:10],
    }
    outcome = {"correct": correct and valid, "attempted": len(ops),
               "failed": failed}
    return metrics, {"record": record, **outcome}


def stats_report(stats: tuple) -> dict:
    """Per-layer counts from the service's ``stats`` op, window deltas."""
    before, after = stats
    if before is None:
        return {"cache.hit_frac": 0.0, "cache.lookups": 0,
                "serve.retries": 0, "serve.degraded_frac": 0.0,
                "admission.shed": 0}

    def delta(*path):
        a, b = before, after
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (b or 0) - (a or 0)

    hits = delta("counters", "cache_hits")
    lookups = hits + delta("counters", "cache_misses")
    answered = delta("counters", "ok")
    return {
        "cache.hit_frac": hits / lookups if lookups else 0.0,
        "cache.lookups": lookups,
        "serve.retries": delta("counters", "retries"),
        "serve.degraded_frac": (delta("counters", "degraded_responses")
                                / answered if answered else 0.0),
        "admission.shed": delta("admission", "shed"),
    }


def measure(workload: str, seed: int, seconds: float, trace: int,
            setups: int) -> tuple[dict, dict]:
    """One pass: ``(end-to-end metrics, outcome with the run record)``."""
    spec = workloads.SPECS[workload]
    if spec["kind"] == "apsp":
        run = apsp_pass(workload, seed, seconds, trace, setups)
        metrics, outcome = apsp_metrics(spec, run)
    else:
        sched = workloads.serve_schedule(workload, seed, seconds)
        # select() takes microsecond timeouts where epoll rounds every
        # sleep up to the next millisecond: the generator sends on time.
        loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
        try:
            run = loop.run_until_complete(serve_pass(
                workload, seed, seconds, trace, setups, sched))
        finally:
            loop.close()
        run["schedule_digest"] = sched["digest"]
        metrics, outcome = serve_metrics(spec, run, seconds)
    if trace:
        run["layers"].update(stats_report(run.get("stats", (None, None))))
    outcome["layers"] = run.get("layers")
    return metrics, outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.require_source()
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{names}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if args.trace:
        half = args.seconds / 2
        plain, first = measure(args.workload, args.seed, half, 0, 1)
        traced, outcome = measure(args.workload, args.seed, half, 1, 1)
        outcome["correct"] = outcome["correct"] and first["correct"]
        outcome["attempted"] += first["attempted"]
        outcome["failed"] += first["failed"]
        outcome["record"]["untraced"] = {"p50_ms": plain["p50_ms"],
                                         "record": first["record"]}
        values = dict(outcome.pop("layers"))
        values["gen.late_p99_ms"] = outcome["record"].get(
            "gen_late_ms", {}).get("value", 0.0)
        values["trace.overhead_frac"] = traced["p50_ms"] / plain["p50_ms"] - 1
        wanted = bench["per_layer"]
    else:
        values, outcome = measure(args.workload, args.seed, args.seconds, 0,
                                  SETUPS)
        outcome.pop("layers")
        wanted = bench["end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise SystemExit(f"perfbench: metric set drifted from "
                         f"BENCHMARK.json: {sorted(missing)}")
    record = outcome.pop("record")
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  host=common.host_fingerprint())
    print(json.dumps({"record": record}, sort_keys=True))
    outcome["metrics"] = {m["name"]: {"value": float(values[m["name"]]),
                                      "unit": m["unit"]} for m in wanted}
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
