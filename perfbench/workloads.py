"""Workload definitions, seeded input generation and answer checking.

Every input is a function of ``(workload, seed)`` alone: the graphs are
``gnp_digraph(n, 16/n)`` with 16-bit words, and the serve schedules
(Poisson arrival times, operation mix, destinations, edge deltas) come from
one seeded generator. The system under test only ever sees the generated
matrices and requests.

The open-loop rate and the latency limits below were calibrated once on a
2-vCPU Intel Xeon host (Python 3.11, numpy 2.4, no numba), where the
serve-update shape sustains about 200 requests/s before its queue grows;
80 requests/s keeps the service near 40 % busy. They are fixed numbers so
that every run offers the same load.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from common import digest, json_digest

MAXINT = (1 << 16) - 1
WORD_BITS = 16
#: Average out-degree of the generated graphs.
DEGREE = 16

SPECS: dict[str, dict] = {
    # Library calls, closed loop. One operation is one full APSP solve;
    # consecutive operations rotate over ``variants`` seeded graphs so a
    # run's median does not hang on one graph's round count.
    "apsp-sharded": {
        "kind": "apsp",
        "solves": [{"label": "n512", "n": 512, "kwargs": {"workers": 2}}],
        "variants": 4,
        "warmup": "edgeless",
        "limit_ms": 12_000.0,
    },
    # One operation is an n=128 auto solve followed by an n=64 solve on
    # the cycle simulator (both inline).
    "apsp-inline": {
        "kind": "apsp",
        "solves": [
            {"label": "n128", "n": 128, "kwargs": {}},
            {"label": "n64_cycle", "n": 64, "kwargs": {"engine": "cycle"}},
        ],
        "variants": 8,
        "warmup": "solve",
        "limit_ms": 1_500.0,
    },
    "serve-update": {
        "kind": "serve",
        "graphs": 4,
        "n": 256,
        "dest_frac": 0.25,
        "rate": 80.0,
        "write_every_s": 0.25,
        "limit_ms": 250.0,
        "check_every": 3,
        "warmup": 64,
    },
}

#: Exact per-configuration MCP cost vectors (init + per-round counter
#: deltas), seed-independent: serial-equivalent APSP counters must equal
#: ``n * init + sum(iterations) * iteration``.
EXPECTED = json.loads(
    (Path(__file__).resolve().parent / "expected.json").read_text())


def stream_seed(seed: int, *tags) -> list[int]:
    return [int(seed)] + [int.from_bytes(str(t).encode(), "little") % 2**31
                          for t in tags]


def graph(workload: str, seed: int, index: int, n: int) -> np.ndarray:
    """Graph *index* of *workload* for *seed* (int64, MAXINT = no edge)."""
    from repro.workloads.generators import gnp_digraph

    sub = np.random.SeedSequence(stream_seed(seed, workload, index))
    return gnp_digraph(n, DEGREE / n, seed=int(sub.generate_state(1)[0]),
                       inf_value=MAXINT)


def wire_weights(W: np.ndarray) -> list:
    """The ``put_graph`` wire form: ``None`` marks a missing edge."""
    return [[None if v >= MAXINT else int(v) for v in row]
            for row in W.tolist()]


def edgeless(n: int) -> np.ndarray:
    W = np.full((n, n), MAXINT, dtype=np.int64)
    np.fill_diagonal(W, 0)
    return W


def serve_schedule(workload: str, seed: int, seconds: float) -> dict:
    """The open-loop request stream of a serve workload.

    Reads arrive as a Poisson process at the workload's rate; each picks a
    graph, a destination and a source uniformly. Writes are sparse edge
    deltas of
    ``n/8`` edges (20 % deletions) at a fixed interval, to each graph in
    turn.
    """
    spec = SPECS[workload]
    n, graphs = spec["n"], spec["graphs"]
    rng = np.random.default_rng(stream_seed(seed, workload, "schedule"))
    gaps = rng.exponential(1.0 / spec["rate"],
                           size=int(spec["rate"] * seconds * 1.5) + 64)
    at = np.cumsum(gaps)
    at = at[at < seconds]
    count = int(at.size)
    ops = np.where(rng.random(count) < spec["dest_frac"], 1, 0)
    gidx = rng.integers(0, graphs, size=count)
    src = rng.integers(0, n, size=count)
    dst = rng.integers(0, n, size=count)
    writes = []
    interval = spec["write_every_s"]
    if interval:
        t = interval
        while t < seconds:
            edges = []
            for _ in range(max(1, n // 8)):
                u = int(rng.integers(0, n))
                v = int(rng.integers(0, n - 1))
                v += v >= u
                w = None if rng.random() < 0.2 else int(rng.integers(1, 10))
                edges.append([u, v, w])
            writes.append({"at": t, "graph": len(writes) % graphs,
                            "edges": edges})
            t += interval
    sched = {"at": at, "op": ops, "graph": gidx, "source": src,
             "dest": dst, "writes": writes}
    sched["digest"] = digest(
        np.round(at * 1e6).astype(np.int64).tobytes(), ops.tobytes(),
        gidx.astype(np.int64).tobytes(), src.astype(np.int64).tobytes(),
        dst.astype(np.int64).tobytes(),
        json_digest(writes).encode())
    return sched


# ---------------------------------------------------------------------------
# Answer checking (runs outside every timed window)
# ---------------------------------------------------------------------------


def successors_ok(W: np.ndarray, cost: np.ndarray, succ: np.ndarray,
                  d: int) -> bool:
    """Every reachable vertex's successor is a real edge that lies on a
    minimum-cost path. Weights are >= 1, so following successors strictly
    lowers the cost and must end at *d*."""
    n = cost.shape[0]
    v = np.flatnonzero((cost < MAXINT) & (np.arange(n) != d))
    s = np.asarray(succ, dtype=np.int64)[v]
    if ((s < 0) | (s >= n)).any():
        return False
    return bool(((s != v) & (W[v, s] < MAXINT)
                 & (W[v, s] + cost[s] == cost[v])).all())


def jacobi_rounds(W: np.ndarray, d: int) -> int:
    """The paper's do-while loop, restated independently: start from the
    1-edge costs into *d*, relax every vertex at once until a round
    changes nothing; returns the number of rounds run."""
    sow = W[:, d].copy()
    rounds = 0
    while True:
        rounds += 1
        new = np.minimum(W + sow[None, :], MAXINT).min(axis=1)
        new[d] = 0
        if np.array_equal(new, sow):
            return rounds
        sow = new


def expected_counters(n: int, iterations: np.ndarray) -> dict:
    vector = EXPECTED["cost_vectors"][str(n)]
    total = int(np.sum(iterations))
    return {k: n * vector["init"][k] + total * vector["iteration"][k]
            for k in vector["iteration"]}


class References:
    """Memoised ``bellman_reference`` columns per (graph key, dest)."""

    def __init__(self) -> None:
        from repro.serve.oracle import bellman_reference

        self._solve = bellman_reference
        self._columns: dict[tuple, np.ndarray] = {}

    def column(self, key, W: np.ndarray, d: int) -> np.ndarray:
        col = self._columns.get((key, d))
        if col is None:
            col = self._columns[(key, d)] = self._solve(W, d, MAXINT)
        return col


def check_point(W: np.ndarray, ref: np.ndarray, source: int, dest: int,
                result: dict) -> bool:
    want = int(ref[source])
    if want >= MAXINT:
        return result.get("reachable") is False and result.get("cost") is None
    if result.get("cost") != want or result.get("reachable") is not True:
        return False
    if source == dest:
        return True
    nxt = result.get("next")
    return (isinstance(nxt, int) and 0 <= nxt < W.shape[0] and nxt != source
            and W[source, nxt] < MAXINT
            and int(W[source, nxt] + ref[nxt]) == want)


def check_dest(W: np.ndarray, ref: np.ndarray, dest: int,
               result: dict) -> bool:
    sow = result.get("sow")
    ptn = result.get("ptn")
    if sow is None or ptn is None or len(sow) != ref.shape[0]:
        return False
    if not np.array_equal(np.asarray(sow, dtype=np.int64), ref):
        return False
    return successors_ok(W, ref, np.asarray(ptn, dtype=np.int64), dest)


def check_apsp(W: np.ndarray, result, columns: np.ndarray,
               refs: References, key) -> list[str]:
    """Problems with one APSP solve: sampled columns against the reference
    (costs, successors, round counts) and the counters against the cost
    vector closed form."""
    problems = []
    n = W.shape[0]
    for d in columns:
        d = int(d)
        ref = refs.column(key, W, d)
        if not np.array_equal(result.dist[:, d], ref):
            problems.append(f"dist column {d} differs from the reference")
        elif not successors_ok(W, ref, result.succ[:, d], d):
            problems.append(f"succ column {d} is not a shortest-path tree")
        else:
            rounds = jacobi_rounds(W, d)
            if rounds != int(result.iterations[d]):
                problems.append(f"iterations[{d}] = "
                                f"{int(result.iterations[d])}, expected "
                                f"{rounds}")
    want = expected_counters(n, result.iterations)
    got = {k: int(result.counters.get(k, 0)) for k in want}
    if got != want:
        problems.append(f"counters {got} != cost-vector closed form {want}")
    return problems
