"""Execution-engine selection policy.

Three engines can run the paper's MCP relaxation loop:

``cycle``
    The faithful simulator: every bus transaction is an individually
    executed :class:`~repro.ppa.machine.PPAMachine` primitive (the
    bit-serial ``min()`` issues ``h`` wired-ORs, and so on). This is the
    only engine that can honour fault plans, span tracing, bus traces and
    non-default reduction routines, because those features observe (or
    perturb) *individual* transactions.

``compiled``
    The analytic-cost engine (:mod:`repro.engine.compiled`): one
    relaxation round is a vectorised numpy kernel, and the machine's
    counters are charged from a per-iteration cost vector *replayed* from
    a single cycle-engine iteration (:mod:`repro.engine.costs`). The
    kernel is chosen per call by the weight plane's density: an edge-list
    relaxation for sparse shared planes, cache-blocked dense tiles for
    dense planes and per-lane stacks. Results and **all** counter ledgers
    are bit-identical to the cycle engine — but per-transaction observers
    see nothing, which is why eligibility is gated.

``fused``
    The whole-array dense reference (:mod:`repro.engine.fused`): the same
    analytic replay through one ``(..., n, n)`` candidate temporary per
    round. Only ever run on request — the differential suites and the
    P17/P18 baselines compare against it, and the serving tier's
    degradation ladder falls back to it. Eligibility conditions are
    identical to ``compiled``.

:func:`resolve_engine` implements the policy:

* ``engine="auto"`` (the default everywhere) upgrades to ``compiled`` on
  every eligible machine and otherwise silently falls back to ``cycle``;
  existing workflows (fault injection, ``--trace``, profiling, A7/A13
  routine ablations) keep their exact behaviour.
* ``engine="cycle"`` always honours the request.
* ``engine="fused"`` / ``engine="compiled"`` raise
  :class:`~repro.errors.EngineError` with the blocking reason when the
  machine is ineligible (the CLI catches this earlier and prints a
  friendly note instead; see ``repro.cli``).

Process-parallel APSP sharding (``all_pairs_minimum_cost(workers=...)``)
adds one more gate on top of engine eligibility — see
:func:`repro.engine.shard.workers_block_reason`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EngineError

__all__ = [
    "EngineChoice",
    "ENGINE_NAMES",
    "ENGINE_DEGRADE_ORDER",
    "fused_block_reason",
    "compiled_block_reason",
    "degrade_engine",
    "resolve_engine",
]

ENGINE_NAMES = ("auto", "cycle", "fused", "compiled")

#: Graceful-degradation order used by the serving tier
#: (:mod:`repro.serve.degrade`): each engine maps to the next tier to try
#: when the current one fails or is under pressure. All tiers are
#: bit-identical on results and counters, so walking down the ladder
#: trades throughput for isolation/diagnosability, never correctness.
ENGINE_DEGRADE_ORDER = ("compiled", "fused", "cycle")


def degrade_engine(name: str) -> str | None:
    """The next-lower engine tier, or ``None`` at the bottom.

    ``auto`` degrades like ``compiled`` (the fastest tier it can resolve
    to); ``cycle`` has nothing below it. Unknown names raise
    :class:`~repro.errors.EngineError`.
    """
    if name == "auto":
        name = ENGINE_DEGRADE_ORDER[0]
    if name not in ENGINE_NAMES:
        raise EngineError(
            f"unknown engine {name!r}; choose one of {ENGINE_NAMES}"
        )
    idx = ENGINE_DEGRADE_ORDER.index(name)
    if idx + 1 >= len(ENGINE_DEGRADE_ORDER):
        return None
    return ENGINE_DEGRADE_ORDER[idx + 1]


@dataclass(frozen=True)
class EngineChoice:
    """Outcome of :func:`resolve_engine`.

    Attributes
    ----------
    name
        The engine that will actually run: ``"cycle"``, ``"fused"`` or
        ``"compiled"``.
    requested
        The caller's request (``"auto"``/``"cycle"``/``"fused"``/
        ``"compiled"``).
    reason
        Why the choice was made — for ``auto`` fallbacks this is the
        blocking condition (``"fault plan attached"``...), otherwise a
        short confirmation string. Surfaced by the CLI.
    """

    name: str
    requested: str
    reason: str

    @property
    def fused(self) -> bool:
        return self.name == "fused"

    @property
    def compiled(self) -> bool:
        return self.name == "compiled"

    @property
    def analytic(self) -> bool:
        """True for either analytic-replay tier (``fused``/``compiled``)."""
        return self.name in ("fused", "compiled")


def fused_block_reason(
    machine,
    *,
    min_routine=None,
    selected_min_routine=None,
) -> str | None:
    """The first condition blocking the fused engine, or ``None``.

    The fused engine computes whole rounds without issuing individual bus
    transactions, so anything that observes (faults, bus trace, span
    tracer) or redefines (custom reduction routines) per-transaction
    behaviour forces the cycle engine.
    """
    from repro.ppc.reductions import ppa_min, ppa_selected_min

    if machine.fault_plan is not None:
        return "fault plan attached (faults act on individual bus transactions)"
    if machine.telemetry.enabled:
        return "span tracer enabled (per-phase attribution needs cycle spans)"
    if machine.trace.enabled:
        return "bus trace enabled (the fused engine issues no transactions)"
    if min_routine is not None and min_routine is not ppa_min:
        return "non-default min routine (its cost profile is not replayed)"
    if (
        selected_min_routine is not None
        and selected_min_routine is not ppa_selected_min
    ):
        return (
            "non-default selected_min routine (its cost profile is not "
            "replayed)"
        )
    if machine.n < 2:
        return "grid side < 2 (nothing to fuse; cycle engine is trivial)"
    return None


def compiled_block_reason(
    machine,
    *,
    min_routine=None,
    selected_min_routine=None,
) -> str | None:
    """The first condition blocking the compiled engine, or ``None``.

    The compiled tier charges the same replayed analytic cost vectors as
    the fused engine and issues no individual bus transactions either, so
    its eligibility conditions are exactly the fused ones.
    """
    return fused_block_reason(
        machine,
        min_routine=min_routine,
        selected_min_routine=selected_min_routine,
    )


def resolve_engine(
    machine,
    engine: str = "auto",
    *,
    min_routine=None,
    selected_min_routine=None,
) -> EngineChoice:
    """Apply the engine policy to *machine* and the caller's request.

    See the module docstring for the policy. *min_routine* /
    *selected_min_routine* are the reduction implementations the caller
    would pass to the cycle engine (``None`` means the defaults).
    """
    if engine not in ENGINE_NAMES:
        raise EngineError(
            f"unknown engine {engine!r}; choose one of {ENGINE_NAMES}"
        )
    if engine == "cycle":
        return EngineChoice("cycle", engine, "cycle engine requested")
    blocked = fused_block_reason(
        machine,
        min_routine=min_routine,
        selected_min_routine=selected_min_routine,
    )
    if engine in ("fused", "compiled"):
        if blocked is not None:
            raise EngineError(
                f"engine={engine!r} unavailable: {blocked}; use engine='auto' "
                "to fall back to the cycle engine transparently"
            )
        return EngineChoice(engine, engine, f"{engine} engine requested")
    # auto
    if blocked is not None:
        return EngineChoice("cycle", engine, blocked)
    return EngineChoice(
        "compiled", engine, "machine eligible for analytic execution"
    )
