"""Where the compiled tier's edge-list kernel stops beating its dense tiles.

Times one batched solve (``B`` lanes, destinations ``0..B-1``) through
the public API for each ``(n, B, density)`` cell, three ways: the
compiled tier forced onto its edge list, forced onto its dense tiles,
and ``engine="auto"`` as shipped (which applies
``EDGE_LIST_MAX_DENSITY``). With ``--baseline-src DIR`` it also times
``engine="auto"`` from another checkout's ``src`` directory on the same
graphs, so two versions of the engine can be compared on one host. Each
side times each cell in a fresh process of its own (allocation history
moves whole-solve times by tens of percent), and single solves are
interleaved across the sides in rotating order, so host drift lands on
all of them alike. Every cell is checked against the fused reference
first.

    PYTHONPATH=src python benchmarks/density_crossover.py
    PYTHONPATH=src python benchmarks/density_crossover.py \\
        --baseline-src ../other-checkout/src --n 256 512 --lanes 1 256

Prints the median solve time per side in milliseconds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

WORD_BITS = 16
MAXINT = (1 << WORD_BITS) - 1
SEED = 3
SRC = Path(__file__).resolve().parent.parent / "src"


def _graph(n: int, density: float) -> np.ndarray:
    from repro.workloads import WeightSpec, gnp_digraph

    # gnp's off-diagonal edge probability that gives this plane density
    # (entries below MAXINT over n**2, the zero diagonal included).
    p = min(1.0, max(0.0, (density * n - 1) / (n - 1)))
    return gnp_digraph(n, p, seed=SEED, weights=WeightSpec(1, 9),
                       inf_value=MAXINT)


def _solve(n: int, lanes: int, W: np.ndarray, engine: str):
    from repro.core.batched import batched_minimum_cost_path
    from repro.ppa import PPAConfig, PPAMachine

    machine = PPAMachine(PPAConfig(n=n, word_bits=WORD_BITS))
    return batched_minimum_cost_path(machine.lanes(lanes), W,
                                     np.arange(lanes), engine=engine)


def serve(threshold: float | None) -> None:
    """Timing server: one JSON request per stdin line, ``{"cell": [n, B,
    density], "warm": bool}``; answers with one solve's seconds. Uses
    nothing but the public API, plus *threshold* when given."""
    if threshold is not None:
        import repro.engine.compiled as compiled

        compiled.EDGE_LIST_MAX_DENSITY = threshold
    graphs: dict = {}
    for line in sys.stdin:
        req = json.loads(line)
        n, lanes, density = req["cell"]
        if (n, density) not in graphs:
            graphs[n, density] = _graph(n, density)
        W = graphs[n, density]
        if req["warm"]:
            _solve(n, lanes, W, "auto")
        t0 = time.perf_counter()
        _solve(n, lanes, W, "auto")
        print(json.dumps(time.perf_counter() - t0), flush=True)


class _Server:
    """One side of the comparison in its own process."""

    def __init__(self, src, threshold: float | None = None):
        argv = [sys.executable, __file__, "--serve"]
        if threshold is not None:
            argv += ["--threshold", str(threshold)]
        self.proc = subprocess.Popen(
            argv, env=dict(os.environ, PYTHONPATH=str(src)), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def time(self, cell, warm: bool) -> float:
        self.proc.stdin.write(json.dumps({"cell": cell, "warm": warm}) + "\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _repeats(n: int, lanes: int, budget: int) -> int:
    return max(5, budget // max(1, lanes * n // 256))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[256, 512])
    ap.add_argument("--lanes", type=int, nargs="+", default=[1, 256])
    ap.add_argument("--density", type=float, nargs="+",
                    default=[0.05, 0.25, 0.5, 0.75, 1.0])
    ap.add_argument("--repeats", type=int, default=40,
                    help="solves per side and cell at n=256, B=1 (scaled "
                         "down for bigger cells, never below 5)")
    ap.add_argument("--baseline-src", default=None,
                    help="another checkout's src directory: also time its "
                         "engine='auto' on the same graphs")
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--threshold", type=float, default=None,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.serve:
        serve(args.threshold)
        return 0

    from repro.engine.compiled import EDGE_LIST_MAX_DENSITY, edge_list

    sides = {"edge_ms": (SRC, 2.0), "dense_ms": (SRC, 0.0),
             "auto_ms": (SRC, None)}
    if args.baseline_src:
        sides["baseline_auto_ms"] = (args.baseline_src, None)
    rows = []
    for n in args.n:
        for lanes in args.lanes:
            for density in args.density:
                cell = [n, lanes, density]
                W = _graph(n, density)
                if lanes * n <= 256 * 256:  # fused is slow past this
                    ref = _solve(n, lanes, W, "fused")
                    got = _solve(n, lanes, W, "auto")
                    assert np.array_equal(ref.sow, got.sow), cell
                    assert np.array_equal(ref.ptn, got.ptn), cell
                # Fresh processes per cell: glibc's allocator tunes itself
                # to the biggest blocks a process has freed, so a side's
                # earlier cells would shape its later ones.
                servers = {k: _Server(*v) for k, v in sides.items()}
                samples: dict[str, list] = {k: [] for k in sides}
                names = list(sides)
                try:
                    for r in range(_repeats(n, lanes, args.repeats)):
                        k = r % len(names)
                        for name in names[k:] + names[:k]:
                            samples[name].append(
                                servers[name].time(cell, warm=(r == 0)))
                finally:
                    for server in servers.values():
                        server.close()
                row = {"n": n, "lanes": lanes,
                       "density": round(float((W < MAXINT).mean()), 3),
                       "auto_kernel": ("dense"
                                       if edge_list(W, MAXINT) is None
                                       else "edge-list")}
                for name, values in samples.items():
                    row[name] = round(1e3 * float(np.median(values)), 3)
                rows.append(row)
                if not args.json:
                    print("  ".join(f"{k}={v}" for k, v in row.items()),
                          flush=True)
    if args.json:
        print(json.dumps({"edge_list_max_density": EDGE_LIST_MAX_DENSITY,
                          "rows": rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
