"""Three-way static cost audit of the assembly MCP.

The paper's complexity claims are counter statements — so a verifier for
this repo must be able to *predict* the counters of an instruction
stream without running the datapath, and to prove the prediction against
the live machine. The audit triangulates three independent derivations
of the MCP cost profile:

1. **static** — :func:`repro.verify.isa_checks.analyze_isa` executes the
   stream's controller concretely under the ``gor`` flag schedules
   ``[F]``, ``[T,F]``, ``[T,T,F]`` (one, two and three do-while rounds)
   and prices the per-``pc`` execution counts with the static opcode
   cost table. An affine fit ``C(k) = init + k * iteration`` must hold:
   ``C3 - C2 == C2 - C1`` on every counter, else the stream has a
   data-independent-cost violation and the mismatch is localised to the
   first ``pc`` whose per-round execution-count delta is not constant.

2. **analytic** — :func:`repro.engine.costs.mcp_cost_vector`, the fused
   engine's replayed per-round vector, probed from the *native* Python
   implementation. Native and assembly renditions are counter-identical
   on the communication ledger (the equality the repo's parity tests
   pin), so the audit cross-checks :data:`ANALYTIC_FIELDS` only —
   ``instructions``/``alu_ops`` legitimately differ between renditions
   (the bit-serial asm loops do more local bookkeeping per round).

3. **dynamic** — a real cycle-engine run of
   :func:`repro.core.asm_mcp.minimum_cost_path_asm` on a deterministic
   workload. The static prediction ``init + k * iteration`` (with ``k``
   the run's observed round count) must equal the run's counter delta
   on **all** counters, bit for bit.

Any disagreement is an error-severity ``cost-audit-*`` diagnostic: it
means the static table, the executor's charging, or the analytic probe
drifted apart — exactly the regression class this audit exists to catch.
"""

from __future__ import annotations

import numpy as np

from repro.engine.costs import affine_fit, mcp_cost_vector
from repro.ppa.isa import Instruction
from repro.ppa.topology import PPAConfig
from repro.verify.diagnostics import Report, Severity
from repro.verify.isa_checks import COUNTER_FIELDS, ISARun, analyze_isa

__all__ = ["ANALYTIC_FIELDS", "fit_affine_cost", "audit_mcp_cost"]

#: counters on which the native and assembly MCP renditions are provably
#: identical (the communication ledger); ``instructions``/``alu_ops``
#: depend on the rendition and are checked against the dynamic run only.
ANALYTIC_FIELDS = (
    "broadcasts",
    "reductions",
    "shifts",
    "global_ors",
    "bus_cycles",
    "bit_cycles",
)

#: flag schedules driving one, two and three do-while rounds.
_SCHEDULES = ((False,), (True, False), (True, True, False))


def fit_affine_cost(
    program: list[Instruction],
    config: PPAConfig,
    *,
    inputs: dict[str, object] | None = None,
    report: Report | None = None,
) -> tuple[dict[str, int], dict[str, int], list[ISARun], Report]:
    """Fit ``cost(k) = init + k * iteration`` to the static prediction.

    Runs the three probe schedules, checks per-round constancy, and
    returns ``(init, iteration, runs, report)``. Non-affine behaviour is
    reported as ``cost-audit-nonaffine`` at the first instruction whose
    per-round execution-count delta is not constant.
    """
    rep = report if report is not None else Report()
    runs = [
        analyze_isa(
            program, config, inputs=inputs, flag_schedule=s, report=rep
        )
        for s in _SCHEDULES
    ]
    first, iteration, bad = affine_fit([r.counters for r in runs])
    init = {k: first[k] - iteration[k] for k in COUNTER_FIELDS}
    if bad:
        d12 = runs[1].pc_counts - runs[0].pc_counts
        d23 = runs[2].pc_counts - runs[1].pc_counts
        diverging = np.flatnonzero(d12 != d23)
        pc = int(diverging[0]) if diverging.size else 0
        instr = program[pc]
        rep.add(
            "cost-audit-nonaffine",
            Severity.ERROR,
            "per-round cost is not constant on counter(s) "
            f"{', '.join(bad)}: {instr.opcode.value} executes "
            f"{int(d12[pc])} time(s) in round 2 but {int(d23[pc])} in "
            "round 3 — the stream's cost is data- or round-dependent",
            line=instr.line,
            pc=pc,
        )
    return init, iteration, runs, rep


def _audit_workload(config: PPAConfig) -> np.ndarray:
    """Deterministic weight matrix with a multi-round MCP on any grid."""
    n, maxint = config.n, config.maxint
    W = np.full((n, n), maxint, dtype=np.int64)
    np.fill_diagonal(W, 0)
    # a chain i -> i-1 -> ... -> 0 forces ~n productive rounds
    for i in range(1, n):
        W[i, i - 1] = 1 + (i % 3)
    if (3 * n) > maxint:  # tiny words: fall back to the edgeless graph
        W = np.full((n, n), maxint, dtype=np.int64)
        np.fill_diagonal(W, 0)
    return W


def audit_mcp_cost(
    config: PPAConfig,
    *,
    destination: int = 0,
    source_name: str = "asm-mcp",
    run_machine: bool = True,
) -> Report:
    """Three-way cost audit of the bundled assembly MCP for *config*.

    ``run_machine=False`` skips the dynamic leg (static + analytic only),
    for callers that audit many configurations cheaply.
    """
    from repro.core.asm_mcp import mcp_assembly, minimum_cost_path_asm
    from repro.ppa.assembler import assemble
    from repro.ppa.machine import PPAMachine

    report = Report(source=source_name)
    program = assemble(mcp_assembly(config.n, config.word_bits))
    inputs = {"r0": None, "s0": destination}

    init, iteration, runs, _ = fit_affine_cost(
        program, config, inputs=inputs, report=report
    )
    if not all(r.halted for r in runs):
        report.add(
            "cost-audit-aborted",
            Severity.ERROR,
            "static analysis did not reach halt under every probe "
            "schedule; cost prediction is unavailable",
        )
        return report

    # -- leg 2: analytic vector (communication ledger) ----------------------
    vector = mcp_cost_vector(config)
    for k in ANALYTIC_FIELDS:
        if iteration[k] != vector.iteration[k]:
            report.add(
                "cost-audit-analytic",
                Severity.ERROR,
                f"per-iteration {k}: static prediction {iteration[k]} "
                f"!= analytic vector {vector.iteration[k]} "
                "(asm stream and native implementation disagree on the "
                "communication ledger)",
            )
        if init[k] != vector.init[k]:
            report.add(
                "cost-audit-analytic",
                Severity.ERROR,
                f"init-phase {k}: static prediction {init[k]} != "
                f"analytic vector {vector.init[k]}",
            )

    # -- leg 3: real cycle-engine run (all counters) -------------------------
    if run_machine:
        machine = PPAMachine(config)
        result = minimum_cost_path_asm(
            machine, _audit_workload(config), destination
        )
        k_rounds = result.iterations
        predicted = {
            f: init[f] + k_rounds * iteration[f] for f in COUNTER_FIELDS
        }
        actual = {f: result.counters.get(f, 0) for f in COUNTER_FIELDS}
        for f in COUNTER_FIELDS:
            if predicted[f] != actual[f]:
                report.add(
                    "cost-audit-counters",
                    Severity.ERROR,
                    f"counter {f}: static prediction {predicted[f]} != "
                    f"cycle-engine run {actual[f]} "
                    f"({k_rounds} round(s), n={config.n}, "
                    f"h={config.word_bits})",
                )
    return report
