"""Command-line interface.

``python -m repro <command>``:

* ``mcp``      — run minimum cost path on a generated or file-loaded graph,
  on any of the four simulated architectures;
* ``apsp``     — all-pairs minimum cost paths; batched (lane-parallel) by
  default with a ``--lanes`` knob, ``--serial`` for the literal sweep;
* ``report``   — regenerate the evaluation artefacts (see EXPERIMENTS.md);
* ``ppc``      — run (or pretty-print) a Polymorphic Parallel C source file;
* ``lint``     — statically verify PPC sources and bundled programs
  (bus races, use-before-def, word-width, cost audit; see
  docs/static-analysis.md) with text or ``--json`` findings;
* ``selftest`` — run the bus diagnostic, optionally with injected faults;
* ``profile``  — run MCP under the span tracer and print the per-phase
  cost breakdown (see docs/observability.md);
* ``serve``    — run the fault-tolerant async path-query service
  (admission control, deadlines/retries, degradation ladder, circuit
  breaker; see docs/robustness.md, "Serving and failure handling");
* ``loadgen``  — drive a running service (or ``--self-serve`` one
  in-process) with a seeded query stream; reports latency percentiles
  and independently validates sampled answers;
* ``chaos``    — run the seeded service-level chaos campaign and check
  its invariants (0 silent-wrong, 0 leaked shared memory).

``mcp`` and ``selftest`` accept ``--profile PATH`` (write the run's span
profile; ``--trace-format chrome`` emits Chrome ``trace_event`` JSON for
chrome://tracing / Perfetto instead of the native schema) and ``--trace``
(print the bus transaction log summary; PPA architecture only).

``mcp``, ``apsp`` and ``profile`` accept
``--engine {auto,cycle,fused,compiled}`` (see docs/performance.md,
"Choosing an engine"). ``auto`` — the default — runs the compiled
analytic-cost engine whenever the machine is eligible and
silently falls back to the faithful cycle engine otherwise. An explicit
``--engine fused`` combined with anything that needs per-transaction
execution (``--resilient``, ``--fault*``, ``--trace``, ``--profile``,
``--word-parallel``, a non-PPA ``--arch``) prints a note naming the
blocking condition and runs the cycle engine — exit code 0, results and
counters identical either way.

``mcp``, ``apsp`` and ``selftest`` accept fault-injection flags
(``--fault``, ``--fault-intermittent``, ``--fault-transient``,
``--fault-seed``; see :mod:`repro.ppa.faults`). ``mcp`` and ``apsp``
additionally accept ``--screen`` (pre-flight self-test that refuses a
diagnosed-faulty array) and ``--resilient`` with its policy knobs
(``--array-n``, ``--checkpoint-every``, ``--max-retries``,
``--detect-every``) to run under the detect/diagnose/recover runtime of
:mod:`repro.resilience` — see docs/robustness.md.

Graphs load from ``.npy``/``.npz`` (array ``W``) or whitespace/CSV text via
:func:`numpy.loadtxt`; ``inf`` entries mean "no edge".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro import __version__
from repro.baselines import GCNMachine, HypercubeMachine, MeshMachine
from repro.core import minimum_cost_path, minimum_cost_path_word
from repro.errors import ReproError
from repro.ppa import FaultKind, FaultPlan, PPAConfig, PPAMachine
from repro.ppa.selftest import diagnose_switches
from repro.workloads import WeightSpec, generators

__all__ = ["main", "build_parser"]

_FAMILIES = {
    "gnp": lambda n, seed, density, inf: generators.gnp_digraph(
        n, density, seed=seed, weights=WeightSpec(1, 9), inf_value=inf
    ),
    "grid": lambda n, seed, density, inf: generators.grid_graph(
        int(round(n ** 0.5)), seed=seed, weights=WeightSpec(1, 9), inf_value=inf
    ),
    "ring": lambda n, seed, density, inf: generators.ring_graph(
        n, seed=seed, weights=WeightSpec(1, 9), inf_value=inf
    ),
    "tree": lambda n, seed, density, inf: generators.random_tree(
        n, seed=seed, weights=WeightSpec(1, 9), inf_value=inf
    ),
    "complete": lambda n, seed, density, inf: generators.complete_graph(
        n, seed=seed, weights=WeightSpec(1, 9), inf_value=inf
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Minimum Cost Path on the Polymorphic Processor Array "
        "(IPPS'98 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    mcp = sub.add_parser("mcp", help="run minimum cost path")
    src = mcp.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", type=Path, help=".npy/.npz/.txt weight matrix")
    src.add_argument("--generate", choices=sorted(_FAMILIES), help="workload family")
    mcp.add_argument("--n", type=int, default=8, help="vertex count (generated)")
    mcp.add_argument("--seed", type=int, default=0)
    mcp.add_argument("--density", type=float, default=0.3, help="gnp density")
    mcp.add_argument("-d", "--destination", type=int, default=0)
    mcp.add_argument(
        "--arch",
        choices=["ppa", "gcn", "hypercube", "mesh", "rmesh"],
        default="ppa",
    )
    mcp.add_argument("--word-bits", type=int, default=16)
    mcp.add_argument(
        "--word-parallel",
        action="store_true",
        help="A7 variant: word-wide bus minimum (ppa only)",
    )
    mcp.add_argument(
        "--paths",
        action="store_true",
        help="print the full path for every reachable vertex",
    )
    _add_engine_flag(mcp)
    _add_fault_flags(mcp)
    _add_resilience_flags(mcp)
    _add_observability_flags(mcp)

    apsp = sub.add_parser(
        "apsp",
        help="all-pairs minimum cost paths (batched lanes by default)",
    )
    src = apsp.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", type=Path, help=".npy/.npz/.txt weight matrix")
    src.add_argument("--generate", choices=sorted(_FAMILIES), help="workload family")
    apsp.add_argument("--n", type=int, default=16, help="vertex count (generated)")
    apsp.add_argument("--seed", type=int, default=0)
    apsp.add_argument("--density", type=float, default=0.3, help="gnp density")
    apsp.add_argument("--word-bits", type=int, default=16)
    apsp.add_argument(
        "--word-parallel",
        action="store_true",
        help="A7 variant: word-wide bus minimum",
    )
    apsp.add_argument(
        "--lanes",
        type=int,
        default=None,
        metavar="B",
        help="destinations per batched pass (default: all n)",
    )
    apsp.add_argument(
        "--serial",
        action="store_true",
        help="force the literal one-destination-per-pass host loop",
    )
    apsp.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="P",
        help="shard destinations over P worker processes (shared-memory "
        "planes; results and serial-equivalent counters are bit-identical "
        "to the inline sweep)",
    )
    apsp.add_argument(
        "--matrix",
        action="store_true",
        help="print the full distance matrix (default: summary only)",
    )
    _add_engine_flag(apsp)
    _add_fault_flags(apsp)
    _add_resilience_flags(apsp)
    _add_observability_flags(apsp)

    prof = sub.add_parser(
        "profile",
        help="run MCP under the span tracer; print per-phase costs",
    )
    src = prof.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", type=Path, help=".npy/.npz/.txt weight matrix")
    src.add_argument("--generate", choices=sorted(_FAMILIES), help="workload family")
    prof.add_argument("--n", type=int, default=16, help="vertex count (generated)")
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--density", type=float, default=0.3, help="gnp density")
    prof.add_argument("-d", "--destination", type=int, default=0)
    prof.add_argument(
        "--arch",
        choices=["ppa", "gcn", "hypercube", "mesh", "rmesh"],
        default="ppa",
    )
    prof.add_argument("--word-bits", type=int, default=16)
    prof.add_argument(
        "--out", type=Path, help="also write the profile to this path"
    )
    prof.add_argument(
        "--trace-format",
        choices=["json", "chrome"],
        default="json",
        help="serialisation for --out (native schema or Chrome trace_event)",
    )
    prof.add_argument(
        "--compare",
        type=Path,
        help="diff the per-phase counters against a saved profile",
    )
    _add_engine_flag(prof)

    report = sub.add_parser("report", help="regenerate the evaluation")
    report.add_argument("--quick", action="store_true")
    report.add_argument("--markdown", action="store_true")
    report.add_argument("experiments", nargs="*", metavar="ID")

    ppc = sub.add_parser("ppc", help="run or format a PPC source file")
    ppc.add_argument("file", type=Path)
    ppc.add_argument("--entry", default="main")
    ppc.add_argument("--n", type=int, default=8, help="machine side")
    ppc.add_argument("--word-bits", type=int, default=16)
    ppc.add_argument(
        "--format",
        action="store_true",
        help="pretty-print the program instead of running it",
    )
    ppc.add_argument(
        "--compile",
        dest="compile_only",
        action="store_true",
        help="emit PPA assembly instead of interpreting",
    )
    ppc.add_argument(
        "--run-compiled",
        action="store_true",
        help="compile to the ISA and execute the instruction stream",
    )
    ppc.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=INT",
        help="initialise a scalar program global",
    )
    ppc.add_argument(
        "--graph",
        type=Path,
        help="weight matrix loaded into the parallel global W",
    )

    lint = sub.add_parser(
        "lint",
        help="statically verify PPC sources / bundled programs",
    )
    lint.add_argument(
        "files",
        nargs="*",
        type=Path,
        help="PPC source files; .py files are scanned for module-level "
        "PPC string listings",
    )
    lint.add_argument(
        "--program",
        action="append",
        default=[],
        choices=sorted(_LINT_PROGRAMS) + ["all"],
        help="lint a bundled program ('all' = every bundled listing plus "
        "the assembly MCP)",
    )
    lint.add_argument("--n", type=int, default=8, help="analysis grid side")
    lint.add_argument("--word-bits", type=int, default=16)
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable diagnostics instead of text",
    )
    lint.add_argument(
        "--no-cost-audit",
        action="store_true",
        help="skip the three-way cost audit leg of asm-mcp linting",
    )
    lint.add_argument(
        "--host",
        action="store_true",
        help="run the host-* concurrency/resource-safety rules over "
        "Python files or directories instead of PPC listings "
        "(default target: src/repro)",
    )

    st = sub.add_parser("selftest", help="bus switch diagnostic")
    st.add_argument("--n", type=int, default=8)
    _add_fault_flags(st)
    _add_observability_flags(st)

    serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant path-query service (JSON lines over "
        "TCP; see docs/robustness.md, 'Serving and failure handling')",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7464,
                       help="TCP port (0 = ephemeral, printed on startup)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="concurrently computing requests")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="admission wait-queue bound (beyond: shed)")
    serve.add_argument("--workers", type=int, default=2,
                       help="APSP shard workers at the top ladder rung")
    serve.add_argument("--shard-timeout", type=float, default=30.0,
                       help="per-shard-attempt deadline (seconds)")
    serve.add_argument("--deadline-ms", type=float, default=30_000.0,
                       help="default per-request deadline")
    serve.add_argument("--seed", type=int, default=0,
                       help="retry-jitter RNG seed")
    serve.add_argument("--coalesce-window-ms", type=float, default=2.0,
                       help="how long a micro-batch collects concurrent "
                       "column requests before dispatching")
    serve.add_argument("--max-lanes", type=int, default=32,
                       help="distinct destinations per coalesced batch "
                       "(a full batch dispatches early)")
    serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable request coalescing / single-flight dedup (one "
        "engine run per request, the pre-coalescing behaviour)",
    )
    serve.add_argument(
        "--no-verify",
        action="store_true",
        help="skip Bellman-fixpoint verification of computed answers "
        "(forfeits the 0-silent-wrong guarantee; benchmarking only)",
    )

    lg = sub.add_parser(
        "loadgen",
        help="drive a running service with a seeded query stream and "
        "report latency percentiles + independent answer validation",
    )
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument("--port", type=int, default=7464)
    lg.add_argument("--requests", type=int, default=2000)
    lg.add_argument("--concurrency", type=int, default=256,
                    help="maximum in-flight requests")
    lg.add_argument("--connections", type=int, default=8,
                    help="TCP connections to multiplex over")
    lg.add_argument("--n", type=int, default=24, help="graph vertex count")
    lg.add_argument("--density", type=float, default=0.35)
    lg.add_argument("--deadline-ms", type=float, default=5_000.0)
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--graph", default="loadgen", help="graph name to use")
    lg.add_argument("--zipf", type=float, default=None,
                    help="skew destination choice to a Zipf law with this "
                    "exponent (hot-key workload; default: uniform)")
    lg.add_argument("--update-every", type=int, default=0,
                    help="issue a seeded sparse edge-delta update after "
                    "every N requests (0 = never); answers are validated "
                    "per graph version")
    lg.add_argument(
        "--self-serve",
        action="store_true",
        help="start an in-process service on an ephemeral port and drive "
        "that (no separate 'repro serve' needed)",
    )
    lg.add_argument("--json", action="store_true",
                    help="emit the result as JSON")

    chaos = sub.add_parser(
        "chaos",
        help="run the seeded service-level chaos campaign (worker kill / "
        "slow worker / overload / bus faults / update storms) and check "
        "its invariants",
    )
    chaos.add_argument("--runs", type=int, default=50)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--n", type=int, default=10)
    chaos.add_argument("--requests-per-run", type=int, default=12)
    chaos.add_argument("--max-p99-ms", type=float, default=None,
                       help="also fail (exit 1) if the campaign's p99 "
                       "latency exceeds this bound")
    chaos.add_argument("--json", action="store_true",
                       help="emit the campaign report as JSON")
    return parser


def _add_engine_flag(sub: argparse.ArgumentParser) -> None:
    from repro.engine import ENGINE_NAMES

    sub.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="auto",
        help="execution engine: 'auto' (default) runs the 'compiled' "
        "analytic tier (edge-list kernel on sparse graphs, cache-blocked "
        "dense tiles otherwise) and falls back to the faithful cycle "
        "engine when the machine is ineligible; 'fused' is the "
        "whole-array dense reference; results and counters are "
        "bit-identical (see docs/performance.md)",
    )


def _effective_engine(
    args,
    machine: PPAMachine | None = None,
    *,
    ppa: bool = True,
    word_parallel: bool = False,
    resilient: bool = False,
) -> str:
    """The engine to forward down the library call.

    ``auto``/``cycle`` pass through untouched (``auto`` falls back
    silently inside :func:`repro.engine.select.resolve_engine`). An
    explicit ``fused`` or ``compiled`` request that cannot be honoured
    prints a note naming the blocking condition and downgrades to
    ``cycle`` — the CLI never fails a run over an engine preference
    (exit 0).
    """
    engine = getattr(args, "engine", "auto")
    if engine not in ("fused", "compiled"):
        return engine
    from repro.engine import fused_block_reason

    reason = None
    if not ppa:
        reason = f"--arch {args.arch} has no {engine} engine (PPA only)"
    elif resilient:
        reason = (
            "--resilient detects and recovers per-transaction faults, "
            "which only the cycle engine executes"
        )
    elif word_parallel:
        reason = "--word-parallel swaps in non-default reduction routines"
    elif machine is not None:
        reason = fused_block_reason(machine)
    if reason is None:
        return engine
    print(f"note: engine '{engine}' unavailable: {reason}; "
          "running the cycle engine (results are identical)")
    return "cycle"


def _add_fault_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="ROW,COL,KIND[,AXIS]",
        help="inject a permanent switch fault (KIND: open|short; "
        "AXIS: 0|1|both)",
    )
    sub.add_argument(
        "--fault-intermittent",
        action="append",
        default=[],
        metavar="ROW,COL,KIND,PROB[,AXIS]",
        help="inject an intermittent stuck-at that fires with "
        "probability PROB per bus transaction",
    )
    sub.add_argument(
        "--fault-transient",
        action="append",
        default=[],
        metavar="ROW,COL,BIT,PROB[,AXIS]",
        help="inject a transient bit-flip on the word PE (ROW, COL) "
        "receives, with probability PROB per bus transaction",
    )
    sub.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="RNG seed for stochastic fault activation",
    )


def _add_resilience_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--resilient",
        action="store_true",
        help="run under the resilient executor: screen, online "
        "detectors, checkpoint/rollback/replay, spare-row remap "
        "(ppa only; see docs/robustness.md)",
    )
    sub.add_argument(
        "--array-n",
        type=int,
        default=None,
        metavar="N_PHYS",
        help="physical array side, >= the problem size; the slack is "
        "spare capacity for quarantine (default: exactly the problem "
        "size, i.e. no spares)",
    )
    sub.add_argument(
        "--checkpoint-every",
        type=int,
        default=4,
        metavar="K",
        help="commit a verified checkpoint every K productive "
        "iterations (resilient mode)",
    )
    sub.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="R",
        help="rollback/replay attempts per recovery episode "
        "(resilient mode)",
    )
    sub.add_argument(
        "--detect-every",
        type=int,
        default=1,
        metavar="K",
        help="run the online detectors every K productive iterations "
        "(resilient mode)",
    )
    sub.add_argument(
        "--screen",
        action="store_true",
        help="pre-flight self-test; without --resilient a diagnosed-"
        "faulty array is refused",
    )


def _add_observability_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--profile",
        type=Path,
        metavar="PATH",
        help="record a span profile of the run and write it to PATH",
    )
    sub.add_argument(
        "--trace-format",
        choices=["json", "chrome"],
        default="json",
        help="profile serialisation (native schema or Chrome trace_event)",
    )
    sub.add_argument(
        "--trace",
        action="store_true",
        help="print the bus transaction log summary (ppa only)",
    )


def _load_graph(path: Path, inf: int) -> np.ndarray:
    if not path.exists():
        raise ReproError(f"graph file not found: {path}")
    if path.suffix == ".npy":
        W = np.load(path)
    elif path.suffix == ".npz":
        data = np.load(path)
        if "W" not in data:
            raise ReproError(f"{path} has no array named 'W'")
        W = data["W"]
    else:
        W = np.loadtxt(path, delimiter="," if path.suffix == ".csv" else None)
    W = np.asarray(W, dtype=float)
    out = np.where(np.isfinite(W), W, inf)
    return out.astype(np.int64)


def _make_machine_and_runner(arch: str, n: int, word_bits: int,
                             word_parallel: bool = False):
    """One (machine, run(W, d)) pair per architecture choice."""
    if arch == "ppa":
        machine = PPAMachine(PPAConfig(n=n, word_bits=word_bits))
        runner = minimum_cost_path_word if word_parallel else minimum_cost_path
        return machine, (
            lambda W, d, engine="auto": runner(machine, W, d, engine=engine)
        )
    if word_parallel:
        raise ReproError("--word-parallel applies to --arch ppa only")
    if arch == "rmesh":
        from repro.rmesh import RMeshMachine, rmesh_mcp

        machine = RMeshMachine(n, word_bits=word_bits)
        return machine, lambda W, d, engine="auto": rmesh_mcp(machine, W, d)
    cls = {"gcn": GCNMachine, "hypercube": HypercubeMachine,
           "mesh": MeshMachine}[arch]
    machine = cls(n, word_bits=word_bits)
    return machine, lambda W, d, engine="auto": machine.mcp(W, d)


def _export_profile(machine, path: Path, trace_format: str, **meta) -> None:
    from repro.telemetry import RunProfile, save_profile

    profile = RunProfile.from_tracer(machine.telemetry, **meta)
    save_profile(profile, path, trace_format=trace_format)
    print(f"profile written to {path} ({trace_format})")


def _print_trace_summary(machine) -> None:
    by_kind: dict[str, list[int]] = {}
    for t in machine.trace.records:
        by_kind.setdefault(t.kind, []).append(t.max_span)
    print(f"bus transactions: {len(machine.trace)}")
    for kind in sorted(by_kind):
        spans = by_kind[kind]
        print(f"  {kind:>10}: {len(spans):>5}   max cluster span "
              f"{max(spans)}")


def _check_trace_supported(args) -> None:
    if args.trace and args.arch != "ppa":
        raise ReproError("--trace records the PPA bus; use --arch ppa")


_FAULT_KINDS = {"open": FaultKind.STUCK_OPEN, "short": FaultKind.STUCK_SHORT}


def _parse_axis(token: str, spec: str) -> int | None:
    if token == "both":
        return None
    if token in ("0", "1"):
        return int(token)
    raise ReproError(f"fault axis must be 0, 1 or both, got {token!r} "
                     f"in {spec!r}")


def _build_fault_plan(args) -> FaultPlan | None:
    """Assemble a :class:`FaultPlan` from the ``--fault*`` flags."""
    if not (args.fault or args.fault_intermittent or args.fault_transient):
        return None
    plan = FaultPlan(seed=args.fault_seed)
    try:
        for spec in args.fault:
            parts = spec.split(",")
            if len(parts) not in (3, 4) or parts[2] not in _FAULT_KINDS:
                raise ReproError(
                    f"--fault expects ROW,COL,open|short[,AXIS], got {spec!r}"
                )
            axis = _parse_axis(parts[3], spec) if len(parts) == 4 else None
            plan.add(
                int(parts[0]), int(parts[1]), _FAULT_KINDS[parts[2]], axis
            )
        for spec in args.fault_intermittent:
            parts = spec.split(",")
            if len(parts) not in (4, 5) or parts[2] not in _FAULT_KINDS:
                raise ReproError(
                    "--fault-intermittent expects ROW,COL,open|short,PROB"
                    f"[,AXIS], got {spec!r}"
                )
            axis = _parse_axis(parts[4], spec) if len(parts) == 5 else None
            plan.add_intermittent(
                int(parts[0]), int(parts[1]), _FAULT_KINDS[parts[2]],
                probability=float(parts[3]), axis=axis,
            )
        for spec in args.fault_transient:
            parts = spec.split(",")
            if len(parts) not in (4, 5):
                raise ReproError(
                    "--fault-transient expects ROW,COL,BIT,PROB[,AXIS], "
                    f"got {spec!r}"
                )
            axis = _parse_axis(parts[4], spec) if len(parts) == 5 else None
            plan.add_transient(
                int(parts[0]), int(parts[1]), bit=int(parts[2]),
                probability=float(parts[3]), axis=axis,
            )
    except ValueError as exc:  # int()/float() on a malformed token
        raise ReproError(f"malformed fault spec: {exc}") from exc
    return plan


def _preflight_screen(machine: PPAMachine) -> None:
    """``--screen`` without ``--resilient``: refuse a faulty array."""
    report = diagnose_switches(machine)
    if report.healthy:
        print(f"pre-flight screen: all switch-boxes healthy "
              f"({report.transactions} probe transactions)")
        return
    raise ReproError(
        f"pre-flight screen diagnosed {len(report.faults)} fault(s) and "
        f"{len(report.undiagnosable_rings)} undiagnosable ring(s); rerun "
        "with --resilient to quarantine and continue"
    )


def _resilience_config(args):
    from repro.resilience import (
        CheckpointPolicy,
        ResilienceConfig,
        RetryPolicy,
    )

    return ResilienceConfig(
        detect_every=args.detect_every,
        retry=RetryPolicy(max_retries=args.max_retries),
        checkpoint=CheckpointPolicy(every=args.checkpoint_every),
    )


def _resilient_executor(args, m: int):
    """Machine + executor for ``--resilient`` runs (PPA only)."""
    from repro.resilience import ResilientExecutor

    n_phys = args.array_n if args.array_n is not None else m
    if n_phys < m:
        raise ReproError(
            f"--array-n {n_phys} is smaller than the {m}-vertex problem"
        )
    machine = PPAMachine(PPAConfig(n=n_phys, word_bits=args.word_bits))
    plan = _build_fault_plan(args)
    if plan is not None:
        machine.inject_faults(plan)
    if args.profile is not None:
        machine.telemetry.enable()
    if args.trace:
        machine.trace.enabled = True
    if args.word_parallel:
        from repro.core.variants import _word_selected_min
        from repro.ppc.reductions import word_parallel_min

        executor = ResilientExecutor(
            machine, _resilience_config(args),
            min_routine=word_parallel_min,
            selected_min_routine=_word_selected_min,
        )
    else:
        executor = ResilientExecutor(machine, _resilience_config(args))
    return machine, executor


def _print_resilient_summary(res) -> None:
    e = res.embedding
    print(f"resilience: status {res.status.value}"
          + ("" if res.failure is None else f" ({res.failure})"))
    print(f"  embedding: {e.m} logical on {e.n_phys}x{e.n_phys} physical, "
          f"quarantined {sorted(e.quarantined) or '[]'}, "
          f"spares left {e.spares_left}")
    print(f"  rounds {res.rounds} (furthest {res.furthest_round}, "
          f"replayed {res.replayed_rounds}), checkpoints {res.checkpoints}, "
          f"rollbacks {res.rollbacks}, remaps {res.remaps}, "
          f"detections {res.detections}, benign glitches "
          f"{res.benign_glitches}")
    for name, delta in res.overhead.items():
        if delta:
            body = ", ".join(f"{k}={v}" for k, v in sorted(delta.items()))
            print(f"  overhead[{name}]: {body}")
    for ev in res.events:
        print(f"  round {ev.round:>3}  {ev.kind}: {ev.detail}")


def _print_vertices(result, n: int, paths: bool) -> None:
    for v in range(n):
        if not result.reachable[v]:
            print(f"  {v:>3}: unreachable")
        elif paths:
            chain = " -> ".join(map(str, result.path(v)))
            print(f"  {v:>3}: cost {int(result.sow[v]):>6}   {chain}")
        else:
            print(f"  {v:>3}: cost {int(result.sow[v]):>6}   "
                  f"next {int(result.ptn[v])}")


def _check_ppa_only_flags(args) -> None:
    uses_faults = bool(
        args.fault or args.fault_intermittent or args.fault_transient
    )
    if args.arch != "ppa" and (
        uses_faults or args.resilient or args.screen
        or args.array_n is not None
    ):
        raise ReproError(
            "fault injection, --screen and --resilient drive the PPA "
            "switch fabric; use --arch ppa"
        )


def _cmd_mcp(args) -> int:
    inf = (1 << args.word_bits) - 1
    if args.graph is not None:
        W = _load_graph(args.graph, inf)
    else:
        W = _FAMILIES[args.generate](args.n, args.seed, args.density, inf)
    n = W.shape[0]
    d = args.destination
    _check_trace_supported(args)
    _check_ppa_only_flags(args)

    if args.resilient:
        _effective_engine(args, resilient=True)  # note on --engine fused
        machine, executor = _resilient_executor(args, n)
        res = executor.run(W, d, raise_on_failure=False)
        print(f"minimum cost paths to vertex {d} on resilient ppa "
              f"({res.embedding.n_phys}x{res.embedding.n_phys} physical, "
              f"h={args.word_bits})")
        _print_resilient_summary(res)
        lane = res.lane(0)
        print(f"iterations: {lane.iterations}")
        _print_vertices(lane, n, args.paths)
        print("counters: " + ", ".join(
            f"{k}={v}" for k, v in res.counters.items()))
        if args.trace:
            _print_trace_summary(machine)
        if args.profile is not None:
            _export_profile(
                machine, args.profile, args.trace_format,
                command="mcp", arch="ppa", n=n, d=d,
                word_bits=args.word_bits, resilient=True,
            )
        return 0 if res.trustworthy else 1

    machine, run = _make_machine_and_runner(
        args.arch, n, args.word_bits, args.word_parallel
    )
    plan = _build_fault_plan(args)
    if plan is not None:
        machine.inject_faults(plan)
    if args.screen:
        _preflight_screen(machine)
    if args.profile is not None:
        machine.telemetry.enable()
    if args.trace:
        machine.trace.enabled = True
    engine = _effective_engine(
        args,
        machine if args.arch == "ppa" else None,
        ppa=args.arch == "ppa",
        word_parallel=args.word_parallel,
    )
    result = run(W, d, engine=engine)

    print(f"minimum cost paths to vertex {d} on {args.arch} ({n}x{n}, "
          f"h={args.word_bits})")
    print(f"iterations: {result.iterations}")
    _print_vertices(result, n, args.paths)
    print("counters: " + ", ".join(f"{k}={v}" for k, v in result.counters.items()))
    if args.trace:
        _print_trace_summary(machine)
    if args.profile is not None:
        _export_profile(
            machine, args.profile, args.trace_format,
            command="mcp", arch=args.arch, n=n, d=d,
            word_bits=args.word_bits,
        )
    return 0


def _cmd_apsp(args) -> int:
    from repro.core import all_pairs_minimum_cost

    inf = (1 << args.word_bits) - 1
    if args.graph is not None:
        W = _load_graph(args.graph, inf)
    else:
        W = _FAMILIES[args.generate](args.n, args.seed, args.density, inf)
    n = W.shape[0]

    if args.resilient:
        if args.serial:
            raise ReproError(
                "--resilient runs all destinations as batched lanes; "
                "drop --serial"
            )
        if args.workers is not None and args.workers > 1:
            print("note: --workers ignored with --resilient (fault "
                  "recovery observes individual transactions; running "
                  "inline)")
        _effective_engine(args, resilient=True)  # note on --engine fused
        machine, executor = _resilient_executor(args, n)
        res = executor.run_batched(
            W, list(range(n)), raise_on_failure=False
        )
        print(f"all-pairs minimum cost on resilient ppa "
              f"({res.embedding.n_phys}x{res.embedding.n_phys} physical, "
              f"h={args.word_bits}, lanes={n})")
        _print_resilient_summary(res)
        reachable = res.sow < res.maxint
        off_diag = int(reachable.sum()) - n
        print(f"reachable ordered pairs: {off_diag}/{n * (n - 1)}")
        print(f"iterations per destination: "
              f"min {int(res.iterations.min())}, "
              f"max {int(res.iterations.max())}")
        if args.matrix:
            shown = np.where(reachable, res.sow, -1)
            print("distance matrix (row = destination, -1 = unreachable):")
            print(shown)
        print("counters: " + ", ".join(
            f"{k}={v}" for k, v in res.counters.items()))
        if args.trace:
            _print_trace_summary(machine)
        if args.profile is not None:
            _export_profile(
                machine, args.profile, args.trace_format,
                command="apsp", arch="ppa", n=n,
                word_bits=args.word_bits, resilient=True,
            )
        return 0 if res.trustworthy else 1

    machine = PPAMachine(PPAConfig(n=n, word_bits=args.word_bits))
    plan = _build_fault_plan(args)
    if plan is not None:
        machine.inject_faults(plan)
    if args.screen:
        _preflight_screen(machine)
    if args.profile is not None:
        machine.telemetry.enable()
    if args.trace:
        machine.trace.enabled = True
    engine = _effective_engine(
        args, machine, word_parallel=args.word_parallel
    )
    res = all_pairs_minimum_cost(
        machine,
        W,
        word_parallel=args.word_parallel,
        serial=args.serial,
        lanes=args.lanes,
        engine=engine,
        workers=args.workers,
    )

    report = res.shard_report
    if report.get("blocked"):
        print(f"note: --workers {report['requested_workers']} unavailable: "
              f"{report['blocked']}; running the inline sweep (results "
              "are identical)")
    mode = "serial sweep" if args.serial else (
        f"batched lanes={args.lanes or n}"
    )
    if report.get("workers", 1) > 1:
        mode += (f", {report['workers']} workers "
                 f"({report['engine']} engine per shard)")
    print(f"all-pairs minimum cost on ppa ({n}x{n}, h={args.word_bits}, "
          f"{mode})")
    reachable = res.dist < res.maxint
    off_diag = int(reachable.sum()) - n
    print(f"reachable ordered pairs: {off_diag}/{n * (n - 1)}")
    print(f"iterations per destination: min {int(res.iterations.min())}, "
          f"max {int(res.iterations.max())}")
    if args.matrix:
        shown = np.where(reachable, res.dist, -1)
        print("distance matrix (-1 = unreachable):")
        print(shown)
    print("counters (serial-equivalent): "
          + ", ".join(f"{k}={v}" for k, v in res.counters.items()))
    if res.machine_counters != res.counters:
        print("counters (batched machine):  "
              + ", ".join(f"{k}={v}" for k, v in res.machine_counters.items()))
    if args.trace:
        _print_trace_summary(machine)
    if args.profile is not None:
        _export_profile(
            machine, args.profile, args.trace_format,
            command="apsp", arch="ppa", n=n, word_bits=args.word_bits,
            serial=bool(args.serial), lanes=args.lanes,
        )
    return 0


def _cmd_profile(args) -> int:
    from repro.telemetry import (
        RunProfile,
        compare_profiles,
        load_profile,
        phase_table,
        save_profile,
    )

    inf = (1 << args.word_bits) - 1
    if args.graph is not None:
        W = _load_graph(args.graph, inf)
    else:
        W = _FAMILIES[args.generate](args.n, args.seed, args.density, inf)
    n = W.shape[0]
    d = args.destination

    machine, run = _make_machine_and_runner(args.arch, n, args.word_bits)
    engine = getattr(args, "engine", "auto")
    if engine == "fused":
        print("note: engine 'fused' unavailable: the profiler's span "
              "tracer needs per-transaction cycle spans; running the "
              "cycle engine (results are identical)")
        engine = "cycle"
    with machine.telemetry.capture():
        result = run(W, d, engine=engine)
    profile = RunProfile.from_tracer(
        machine.telemetry, command="profile", arch=args.arch, n=n, d=d,
        word_bits=args.word_bits,
    )
    print(phase_table(profile).render())
    print(f"iterations: {result.iterations}")
    if args.out is not None:
        save_profile(profile, args.out, trace_format=args.trace_format)
        print(f"profile written to {args.out} ({args.trace_format})")
    if args.compare is not None:
        diffs = compare_profiles(load_profile(args.compare), profile)
        if diffs:
            print(f"drift against {args.compare}:")
            for line in diffs:
                print(f"  {line}")
            return 1
        print(f"no drift against {args.compare}")
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import main as report_main

    argv = []
    if args.quick:
        argv.append("--quick")
    if args.markdown:
        argv.append("--markdown")
    argv.extend(args.experiments)
    return report_main(argv)


def _cmd_ppc(args) -> int:
    from repro.core.graph import normalize_weights
    from repro.ppc.lang import compile_ppc
    from repro.ppc.lang.formatter import format_program
    from repro.ppc.lang.parser import parse

    if not args.file.exists():
        raise ReproError(f"PPC source not found: {args.file}")
    source = args.file.read_text()
    if args.format:
        print(format_program(parse(source)), end="")
        return 0
    machine = PPAMachine(PPAConfig(n=args.n, word_bits=args.word_bits))
    globals_: dict[str, object] = {}
    for item in args.set:
        name, _, value = item.partition("=")
        if not _:
            raise ReproError(f"--set expects NAME=INT, got {item!r}")
        globals_[name] = int(value, 0)
    if args.graph is not None:
        W = _load_graph(args.graph, machine.maxint)
        globals_["W"] = normalize_weights(W, machine)
    if args.compile_only or args.run_compiled:
        from repro.ppc.lang.codegen import compile_to_asm

        compiled = compile_to_asm(
            source, args.n, args.word_bits, entry=args.entry
        )
        if args.compile_only:
            print(compiled.asm, end="")
            return 0
        run = compiled.run(machine, globals=globals_)
        for name, value in run.globals.items():
            if isinstance(value, np.ndarray):
                print(f"{name} =\n{value}")
            else:
                print(f"{name} = {value}")
        print("counters: " + ", ".join(
            f"{k}={v}" for k, v in run.counters.items()))
        return 0
    program = compile_ppc(source)
    run = program.run(machine, args.entry, globals=globals_)
    if run.value is not None:
        print(f"return value: {run.value}")
    for name, value in run.globals.items():
        if isinstance(value, np.ndarray):
            print(f"{name} =\n{value}")
        else:
            print(f"{name} = {value}")
    print("counters: " + ", ".join(f"{k}={v}" for k, v in run.counters.items()))
    return 0


#: bundled PPC listings lintable by name (plus "asm-mcp", handled apart).
_LINT_PPC_PROGRAMS = {
    "min": "MIN_CODE",
    "selected-min": "SELECTED_MIN_CODE",
    "mcp": "MCP_CODE",
    "mcp-library-min": "MCP_WITH_LIBRARY_MIN",
    "distance-transform": "DISTANCE_TRANSFORM_CODE",
}
_LINT_PROGRAMS = {**_LINT_PPC_PROGRAMS, "asm-mcp": None}


def _extract_ppc_strings(path: Path) -> list[tuple[str, str]]:
    """Module-level PPC listings embedded in a Python file.

    A string constant assigned at module level counts as a PPC listing
    when it mentions the ``parallel`` keyword and parses as a PPC
    program. Strings inside functions (e.g. deliberately-broken demo
    snippets) are not scanned.
    """
    import ast as pyast

    from repro.errors import PPCError
    from repro.ppc.lang.parser import parse as ppc_parse

    tree = pyast.parse(path.read_text())
    found: list[tuple[str, str]] = []
    for node in tree.body:
        targets = []
        if isinstance(node, pyast.Assign):
            targets = [
                t.id for t in node.targets if isinstance(t, pyast.Name)
            ]
            value = node.value
        elif isinstance(node, pyast.AnnAssign) and node.value is not None:
            if isinstance(node.target, pyast.Name):
                targets = [node.target.id]
            value = node.value
        else:
            continue
        if not (
            targets
            and isinstance(value, pyast.Constant)
            and isinstance(value.value, str)
            and "parallel" in value.value
        ):
            continue
        try:
            program = ppc_parse(value.value)
        except PPCError:
            continue  # a string, but not a PPC program
        if program.functions:
            found.append((targets[0], value.value))
    return found


def _lint_asm_mcp(args) -> "object":
    """Verify + cost-audit the bundled assembly MCP stream."""
    from repro.core.asm_mcp import mcp_assembly
    from repro.ppa.assembler import assemble
    from repro.verify import audit_mcp_cost, verify_isa
    from repro.verify.diagnostics import Report

    config = PPAConfig(n=args.n, word_bits=args.word_bits)
    program = assemble(mcp_assembly(config.n, config.word_bits))
    report = Report(source="asm-mcp")
    for d in sorted({0, args.n // 2, args.n - 1}):
        verify_isa(
            program, config, inputs={"r0": None, "s0": d}, report=report
        )
    if not args.no_cost_audit:
        report.extend(audit_mcp_cost(config))
    return report


#: bumped whenever the shape of `repro lint --json` changes; downstream
#: tooling gates on it (tests/verify/test_cli_lint.py pins the golden).
LINT_SCHEMA_VERSION = 1


def _cmd_lint_host(args) -> int:
    from repro.verify.host_checks import analyze_host_file, \
        iter_python_files

    targets = args.files or [Path("src/repro")]
    reports = [analyze_host_file(p) for p in iter_python_files(targets)]
    # keep only units with findings in text mode; JSON keeps everything
    errors = sum(len(r.errors) for r in reports)
    warnings = sum(len(r.warnings) for r in reports)
    if args.json:
        import json

        print(json.dumps(
            {
                "schema_version": LINT_SCHEMA_VERSION,
                "mode": "host",
                "errors": errors,
                "warnings": warnings,
                "reports": [r.to_dict() for r in reports],
            },
            indent=2,
        ))
    else:
        for report in reports:
            if report.diagnostics:
                print(report.render())
        print(
            f"lint --host: {len(reports)} file(s), {errors} error(s), "
            f"{warnings} warning(s)"
        )
    return 1 if errors else 0


def _cmd_lint(args) -> int:
    from repro.ppc.lang import programs as bundled
    from repro.verify import verify_ppc_source

    if args.host:
        return _cmd_lint_host(args)

    selected = list(args.program)
    if not selected and not args.files:
        selected = ["all"]
    if "all" in selected:
        selected = sorted(_LINT_PROGRAMS)

    reports = []
    for name in selected:
        if name == "asm-mcp":
            reports.append(_lint_asm_mcp(args))
            continue
        source = getattr(bundled, _LINT_PPC_PROGRAMS[name])
        reports.append(
            verify_ppc_source(
                source,
                n=args.n,
                word_bits=args.word_bits,
                source_name=name,
            )
        )
    for path in args.files:
        if not path.exists():
            raise ReproError(f"lint target not found: {path}")
        if path.suffix == ".py":
            listings = _extract_ppc_strings(path)
            for var, source in listings:
                reports.append(
                    verify_ppc_source(
                        source,
                        n=args.n,
                        word_bits=args.word_bits,
                        source_name=f"{path}:{var}",
                    )
                )
            if not listings and not args.json:
                print(f"{path}: no module-level PPC listings found")
        else:
            reports.append(
                verify_ppc_source(
                    path.read_text(),
                    n=args.n,
                    word_bits=args.word_bits,
                    source_name=str(path),
                )
            )

    errors = sum(len(r.errors) for r in reports)
    warnings = sum(len(r.warnings) for r in reports)
    if args.json:
        import json

        print(json.dumps(
            {
                "schema_version": LINT_SCHEMA_VERSION,
                "mode": "ppc",
                "errors": errors,
                "warnings": warnings,
                "reports": [r.to_dict() for r in reports],
            },
            indent=2,
        ))
    else:
        for report in reports:
            print(report.render())
        print(
            f"lint: {len(reports)} unit(s), {errors} error(s), "
            f"{warnings} warning(s)"
        )
    return 1 if errors else 0


def _cmd_selftest(args) -> int:
    machine = PPAMachine(PPAConfig(n=args.n, word_bits=16))
    plan = _build_fault_plan(args)
    if plan is not None:
        machine.inject_faults(plan)
    if args.profile is not None:
        machine.telemetry.enable()
    if args.trace:
        machine.trace.enabled = True
    report = diagnose_switches(machine)
    if args.trace:
        _print_trace_summary(machine)
    if args.profile is not None:
        _export_profile(
            machine, args.profile, args.trace_format,
            command="selftest", arch="ppa", n=args.n,
        )
    if report.healthy:
        print(f"all {2 * args.n * args.n} switch-boxes healthy "
              f"({report.transactions} probe transactions)")
        return 0
    for f in report.faults:
        print(f"{f.kind.value} switch at ({f.row}, {f.col}) on "
              f"{'column' if f.axis == 0 else 'row'} bus")
    for axis, ring in report.undiagnosable_rings:
        print(f"{'column' if axis == 0 else 'row'} ring {ring}: "
              "undiagnosable (too few working switches)")
    return 1


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import PathQueryService, ServiceConfig

    config = ServiceConfig(
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        workers=args.workers,
        shard_timeout=args.shard_timeout,
        default_deadline_ms=args.deadline_ms,
        seed=args.seed,
        verify=not args.no_verify,
        coalesce=not args.no_coalesce,
        coalesce_window_ms=args.coalesce_window_ms,
        max_lanes=args.max_lanes,
    )

    def summary(service: "PathQueryService") -> None:
        stats = service.stats()
        co = stats.get("coalescer")
        if co is not None:
            print(f"repro serve: coalescer dispatched {co['batches']} "
                  f"batches for {co['requests']} requests "
                  f"({co['single_flight_hits']} single-flight hits); "
                  f"lane fill {co['lane_fill'] or '{}'}")
        eng = stats.get("engine", {})
        plan, cost = eng.get("plan_cache", {}), eng.get("cost_cache", {})
        if plan or cost:
            print("repro serve: engine plan cache "
                  f"{plan.get('broadcast_hits', 0) + plan.get('reduce_hits', 0)} hits / "
                  f"{plan.get('broadcast_misses', 0) + plan.get('reduce_misses', 0)} misses; "
                  f"cost cache {cost.get('hits', 0)} hits / "
                  f"{cost.get('misses', 0)} misses")

    async def run() -> None:
        service = PathQueryService(config)
        server = await service.start(args.host, args.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(f"repro serve: listening on {host}:{port} "
              f"(max_inflight={config.max_inflight}, "
              f"max_queue={config.max_queue}, workers={config.workers}, "
              f"coalesce={'on' if config.coalesce else 'OFF'}, "
              f"verify={'on' if config.verify else 'OFF'})")
        try:
            await server.serve_forever()
        finally:
            await service.stop()
            summary(service)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("repro serve: shut down")
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio
    import json

    from repro.serve.loadgen import run_loadgen

    async def run():
        service = None
        host, port = args.host, args.port
        if args.self_serve:
            from repro.serve import PathQueryService, ServiceConfig

            service = PathQueryService(ServiceConfig(seed=args.seed))
            server = await service.start("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
        try:
            return await run_loadgen(
                host, port,
                requests=args.requests,
                concurrency=args.concurrency,
                connections=args.connections,
                graph=args.graph,
                n=args.n,
                density=args.density,
                deadline_ms=args.deadline_ms,
                seed=args.seed,
                zipf=args.zipf,
                update_every=args.update_every,
            )
        finally:
            if service is not None:
                await service.stop()

    result = asyncio.run(run())
    body = result.to_dict()
    if args.json:
        print(json.dumps(body, indent=2))
    else:
        lat = body["latency_ms"]
        print(f"requests      {body['requests']}")
        print(f"statuses      {body['by_status']}")
        print(f"degraded      {body['degraded']}")
        if body.get("updates"):
            print(f"updates       {body['updates']}")
        print(f"validated     {body['validated']} (wrong: {body['wrong']})")
        if lat:
            print(f"latency ms    p50={lat['p50']}  p90={lat['p90']}  "
                  f"p99={lat['p99']}  max={lat['max']}")
        print(f"throughput    {body['throughput_rps']} req/s "
              f"(goodput {body['goodput_rps']} ok/s) over "
              f"{body['wall_s']} s")
    return 1 if result.wrong else 0


def _cmd_chaos(args) -> int:
    import json

    from repro.serve.chaos import run_chaos_campaign

    report = run_chaos_campaign(
        runs=args.runs,
        seed=args.seed,
        n=args.n,
        requests_per_run=args.requests_per_run,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"chaos campaign: {report['runs']} runs, seed {report['seed']}")
        print(f"statuses        {report['by_status']}")
        print(f"degraded        {report['degraded_responses']} "
              f"(verify rejections: {report['verify_rejections']}, "
              f"ladder downgrades: {report['ladder_downgrades']}, "
              f"breaker trips: {report['breaker_trips']})")
        print(f"latency ms      {report['latency_ms']}")
        print(f"silent wrong    {report['silent_wrong']}")
        print(f"leaked shm      {report['leaked_shm'] or 'none'}")
        print(f"digest          {report['digest']}")
    failed = bool(report["silent_wrong"] or report["leaked_shm"])
    p99 = report["latency_ms"].get("p99")
    if args.max_p99_ms is not None and (p99 is None
                                        or p99 > args.max_p99_ms):
        print(f"p99 latency {p99} ms exceeds --max-p99-ms "
              f"{args.max_p99_ms}", file=sys.stderr)
        failed = True
    if failed:
        print("chaos campaign FAILED its invariants", file=sys.stderr)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "mcp": _cmd_mcp,
        "apsp": _cmd_apsp,
        "profile": _cmd_profile,
        "report": _cmd_report,
        "ppc": _cmd_ppc,
        "lint": _cmd_lint,
        "selftest": _cmd_selftest,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "chaos": _cmd_chaos,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
