"""Analytic per-iteration cost vectors for the fused engine.

The paper's MCP loop issues a **fixed, data-independent** instruction
stream: below the controller's do-while test there is no data-dependent
branch, so every iteration charges the machine counters the *same* delta
(the batched lane ledger of PR 2 already relies on this). The fused
engine exploits it in the other direction: instead of executing ~35
Python-level machine primitives per round it executes a handful of numpy
kernels and charges the counters from a cost vector measured **once**.

Derivation — replay, not hand-derivation
----------------------------------------
Hand-deriving the constants (``5h + ...`` ALU ops per round, etc.) would
silently drift the day anyone touches the cycle engine's accounting. So
the vector is *replayed*: a scratch cycle machine with the same word
width, bus-cost model, torus and strict-bus flags runs one tiny
deterministic MCP under the span tracer, and the ``mcp.init`` /
``mcp.iteration`` span counters — exact partitions of the run's totals,
by the telemetry exactness invariant — become the init and per-iteration
deltas. Any change to the cycle engine's charging is therefore picked up
automatically, and the differential suite in ``tests/engine/`` pins
fused == cycle bit-for-bit on every ledger.

The replay never runs on a grid larger than 5 x 5. The do-while body is
a fixed instruction stream (``h`` bit-serial wired-ORs per ``min()`` plus
a fixed set of broadcasts), so the grid side ``n`` enters a counter only
through the LINEAR bus-cost model, which charges a bus transaction in
proportion to ``n``. The vector for ``n > 5`` is therefore derived from
replays at ``n = 3, 4, 5`` (:data:`_FIT_SIZES`): the first two fit every
``init`` and ``iteration`` counter as ``a + b·n`` in exact integers, the
third must agree with the fit, and the fit is evaluated at ``config.n``.
The fit assumes nothing about *which* charges scale with ``n``; a charge
that grows faster than linearly fails the check and raises
:class:`~repro.errors.EngineError` instead of extrapolating. Configs with
``n <= 5`` replay at their own size.

Cache key
---------
The key is the (frozen, hashable) :class:`PPAConfig` with ``n`` dropped
unless the bus-cost model is LINEAR: under UNIT every bus transaction
costs one cycle whatever the grid side, so the vector is the same at
every ``n`` and a process meeting several grid sizes derives it once.
The vector returned carries the requested ``config``; its
``probe_iterations`` are those of the replays that derived the cached
entry. The vector does **not** depend on the lane count ``B`` either: a
batched machine charges its scalar counters once per SIMD instruction —
the same increments a serial machine charges — and its per-lane ledger
replicates those increments
into each active lane (see :meth:`repro.ppa.machine.PPAMachine._charge`).
The fused engine therefore applies ``init + iterations[b] * iteration``
per lane and ``init + rounds * iteration`` to the scalar book, which the
differential tests verify lane-for-lane against the batched cycle
engine. Vectors live in a small LRU behind one lock: concurrent lookups
of a cold config derive it once (single flight), and a forked child
re-creates the lock and keeps the vectors its parent already derived.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import EngineError
from repro.ppa.topology import BusCostModel, PPAConfig

__all__ = [
    "MCPCostVector",
    "affine_fit",
    "mcp_cost_vector",
    "clear_cost_cache",
    "cost_cache_size",
    "cost_cache_stats",
    "reset_cost_cache_stats",
]

_COST_CACHE_SIZE = 32
#: Grid sides of the constant-size replays: the first two fit each
#: counter as ``a + b*n``, the third checks the fit.
_FIT_SIZES = (3, 4, 5)
_cache: "OrderedDict[PPAConfig, MCPCostVector]" = OrderedDict()
# Host-side metric (mirrors the bus-plan cache stats convention): never
# part of the machine cost model or any golden snapshot.
_stats = {"hits": 0, "misses": 0}
# Guards _cache and _stats, and is held across a derivation so racing
# lookups of one cold config derive it once.
_lock = threading.Lock()


def _renew_lock_after_fork() -> None:
    # A thread of the parent may hold the lock at fork; that thread does
    # not exist in the child, so the child's copy would never be released.
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_renew_lock_after_fork)


@dataclass(frozen=True)
class MCPCostVector:
    """One machine configuration's exact MCP cost profile.

    Attributes
    ----------
    config
        The :class:`PPAConfig` the vector was derived for.
    init
        Counter delta of the init phase (statements 4-7 plus the
        directed-graph init transposition), charged once per run.
    iteration
        Counter delta of one full do-while round (statements 9-20),
        charged once per executed round.
    probe_iterations
        How many rounds the replay workload executed (1 or 2; the
        fewest over the fit's replays); with two, the per-round
        constancy was verified directly.
    """

    config: PPAConfig
    init: dict[str, int]
    iteration: dict[str, int]
    probe_iterations: int

    def total(self, iterations: int) -> dict[str, int]:
        """The exact counter delta of a run with *iterations* rounds."""
        return {
            k: v + iterations * self.iteration[k]
            for k, v in self.init.items()
        }


def affine_fit(
    samples: Sequence[Mapping[str, int]],
) -> tuple[dict[str, int], dict[str, int], list[str]]:
    """Fit ``c(x) = c(x0) + (x - x0) * slope`` to three counter samples.

    *samples* are counter dicts taken at three equally spaced points
    ``x0``, ``x0 + 1`` and ``x0 + 2`` (in units of the spacing). Returns
    ``(value, slope, bad)``: the first sample, the per-step slope from
    the first two, and the counters on which the third sample disagrees
    with the fit — empty when every counter is affine.
    """
    first, second, third = samples
    slope = {k: second[k] - first[k] for k in first}
    bad = [k for k in first if third[k] - second[k] != slope[k]]
    return dict(first), slope, bad


def _probe_weights(config: PPAConfig) -> tuple[np.ndarray, int]:
    """A deterministic workload with a known iteration count.

    Prefers a 2-hop chain toward destination 0 (exactly two rounds: one
    productive, one no-change) so per-round constancy can be asserted;
    falls back to the edgeless graph (exactly one round) when the grid or
    word width cannot host it.
    """
    n, maxint = config.n, config.maxint
    W = np.full((n, n), maxint, dtype=np.int64)
    np.fill_diagonal(W, 0)
    if n >= 3 and (n - 1) < maxint:  # weight-1 edges pass the headroom check
        W[1, 0] = 1
        W[2, 1] = 1
        return W, 2
    return W, 1


def _replay(config: PPAConfig) -> MCPCostVector:
    """Run the cycle engine once under the tracer and split its phases."""
    from repro.core.mcp import minimum_cost_path
    from repro.ppa.machine import PPAMachine

    W, expected_rounds = _probe_weights(config)
    scratch = PPAMachine(config)
    with scratch.telemetry.capture():
        result = minimum_cost_path(scratch, W, 0, engine="cycle")
    if result.iterations != expected_rounds:  # pragma: no cover - invariant
        raise EngineError(
            f"cost probe executed {result.iterations} rounds, expected "
            f"{expected_rounds}; the cycle engine changed shape"
        )
    (root,) = scratch.telemetry.roots
    (init_span,) = root.find("mcp.init")
    iter_spans = root.find("mcp.iteration")
    deltas = [dict(s.counters) for s in iter_spans]
    if any(d != deltas[0] for d in deltas[1:]):  # pragma: no cover - invariant
        raise EngineError(
            "cycle-engine iterations are no longer cost-constant; the "
            "fused engine's analytic replay is invalid for this config"
        )
    init = dict(init_span.counters)
    iteration = deltas[0]
    # Partition sanity: init + rounds * iteration must equal the run total.
    total = {
        k: init.get(k, 0) + len(iter_spans) * iteration.get(k, 0)
        for k in result.counters
    }
    if total != result.counters:  # pragma: no cover - invariant
        raise EngineError(
            "cost probe phases do not partition the run total; charges "
            "exist outside the init/iteration spans"
        )
    return MCPCostVector(
        config=config,
        init=init,
        iteration=iteration,
        probe_iterations=len(iter_spans),
    )


def _probe(config: PPAConfig) -> MCPCostVector:
    """Derive *config*'s vector from replays on constant-size grids."""
    if config.n <= _FIT_SIZES[-1]:
        return _replay(config)
    small = [_replay(dataclasses.replace(config, n=m)) for m in _FIT_SIZES]
    steps = config.n - _FIT_SIZES[0]
    phases: dict[str, dict[str, int]] = {}
    for phase in ("init", "iteration"):
        value, slope, bad = affine_fit([getattr(v, phase) for v in small])
        if bad:
            raise EngineError(
                f"{phase} counter(s) {', '.join(bad)} are not affine in "
                f"the grid side over n = {_FIT_SIZES}; the cost vector "
                f"cannot be extrapolated to n = {config.n}"
            )
        phases[phase] = {k: value[k] + steps * slope[k] for k in value}
    return MCPCostVector(
        config=config,
        init=phases["init"],
        iteration=phases["iteration"],
        probe_iterations=min(v.probe_iterations for v in small),
    )


def _cache_key(config: PPAConfig) -> PPAConfig:
    """The configuration *config*'s vector is cached under: ``n`` only
    enters the vector through the LINEAR bus-cost model."""
    if config.bus_cost_model is BusCostModel.LINEAR:
        return config
    return dataclasses.replace(config, n=1)


def mcp_cost_vector(config: PPAConfig) -> MCPCostVector:
    """The (cached) exact MCP cost vector for *config*.

    The first call per cache key (the configuration, without ``n`` under
    the UNIT bus-cost model) replays three tiny MCPs on scratch cycle
    machines of side 3, 4 and 5 (about 20 ms at any ``n``; smaller grids
    replay once at their own size); later calls are a dictionary lookup.
    Concurrent first calls for one key derive it once: the others wait
    and hit. The replays may warm the module-wide
    bus-plan caches exactly as any cycle run would — plan-cache state
    never affects counters (host-side metric), which ``tests/engine/``
    pins.
    """
    key = _cache_key(config)
    with _lock:
        vector = _cache.pop(key, None)
        if vector is not None:
            _stats["hits"] += 1
        else:
            _stats["misses"] += 1
            vector = _probe(config)
        _cache[key] = vector  # (re)insert as most recently used
        while len(_cache) > _COST_CACHE_SIZE:
            _cache.popitem(last=False)
    if vector.config != config:
        vector = dataclasses.replace(vector, config=config)
    return vector


def clear_cost_cache() -> None:
    """Drop every cached cost vector (hit/miss stats are kept)."""
    with _lock:
        _cache.clear()


def cost_cache_size() -> int:
    """Current number of cached cost vectors (bounded by the LRU cap)."""
    return len(_cache)


def cost_cache_stats() -> dict[str, int]:
    """Host-side hit/miss tallies of the cost-vector cache (copy)."""
    with _lock:
        return dict(_stats)


def reset_cost_cache_stats() -> None:
    with _lock:
        _stats["hits"] = 0
        _stats["misses"] = 0
