"""The PPA machine facade.

:class:`PPAMachine` is the single object algorithms program against. It
bundles

* the grid geometry and index planes (``ROW``/``COL``),
* the activity-mask stack backing PPC's ``where``/``elsewhere``,
* the bus primitives (``broadcast``, ``bus_or``/``bus_reduce``, ``shift``,
  ``global_or``) with cycle accounting,
* saturating word arithmetic helpers honouring the machine word width,
* a :class:`~repro.ppa.memory.ParallelMemory` variable table.

Primitives always *compute over the full grid*: in the PPA the switch
settings come from the instruction's ``L`` operand, not from the activity
mask, so an inactive PE still drives the bus if ``L`` marks it Open. The
mask only gates *stores* (:meth:`store`), exactly as ``where`` gates
assignment in Polymorphic Parallel C.

Batched (lane) execution
------------------------
``PPAMachine(config, batch=B)`` models ``B`` *independent* copies of the
same physical array running the same instruction stream — the SIMD lever
for multi-destination MCP, APSP and parameter sweeps. Parallel variables
become ``(B, n, n)`` stacks, switch planes may be shared ``(n, n)`` or
per-lane ``(B, n, n)``, and every bus primitive resolves all lanes in one
vectorised pass (see :mod:`repro.ppa.segments`).

Counters keep **two books**. The scalar :class:`CycleCounters` price the
*batched* instruction stream: one broadcast instruction is one broadcast,
however many lanes it serves (that is the point of batching). The
:class:`LaneCounters` plane prices each lane as if it ran *serially*:
every charge is replicated into each lane's ledger, but only for lanes in
the current *lane mask* (:meth:`set_active_lanes`) — a converged lane
stops accruing cost, which is what makes per-lane totals bit-identical to
independent serial runs.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.errors import (
    BusConflictError,
    ConfigurationError,
    MaskError,
    WordWidthError,
)
from repro.ppa.bus import BusTrace
from repro.ppa.faults import FaultPlan
from repro.ppa.counters import CycleCounters, LaneCounters
from repro.ppa.directions import Direction
from repro.ppa.memory import ParallelMemory
from repro.ppa.segments import (
    ReduceOp,
    RowBits,
    broadcast_values,
    segmented_reduce,
    shift_values,
)
from repro.ppa.switchbox import as_switch_plane
from repro.ppa.topology import PPAConfig
from repro.telemetry.spans import Tracer

__all__ = ["PPAMachine", "check_broadcast_conflicts"]

_RING_SENTINEL = np.int64(1) << 62

#: Carriers of narrow word planes, narrowest first, each mapped to the
#: next wider unsigned dtype, which holds the carry of a sum of two words.
#: Words past 32 bits ride in int64, which holds ``MAXINT + MAXINT`` for
#: every width up to 62 bits.
_NARROW_WORDS = {
    np.dtype(np.uint8): np.dtype(np.uint16),
    np.dtype(np.uint16): np.dtype(np.uint32),
    np.dtype(np.uint32): np.dtype(np.uint64),
}


def _word_dtype(config: PPAConfig) -> np.dtype:
    """The narrowest unsigned dtype holding ``MAXINT`` and every PE index
    (``n - 1``), or int64 past 32 bits."""
    top = max(config.maxint, config.n - 1)
    for dtype in _NARROW_WORDS:
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.dtype(np.int64)


def check_broadcast_conflicts(src, plane, direction: Direction) -> None:
    """Dynamic bus-race detector for one broadcast transaction.

    Flags rings where **two or more** Open drivers inject *disagreeing*
    values. Rationale (see docs/static-analysis.md):

    * one Open per ring — the intended single-writer broadcast; fine.
    * all nodes Open — the identity configuration (every PE is its own
      cluster head); fine by construction.
    * several Opens, **all injecting the same value** — the paper's
      ``min()`` survivor idiom: after the bit-serial elimination every
      surviving driver holds the cluster minimum, so the multi-driver
      broadcast is deterministic. Fine.
    * several Opens with differing values — the program's answer now
      depends on which driver each PE happens to sit downstream of:
      a genuine write race on the physical bus. Raises
      :class:`~repro.errors.BusConflictError`.

    Rings with *zero* Open drivers are the province of the existing
    ``strict_bus`` machine mode (an undriven ring may legitimately float
    when its result is never stored, as in ``selected_min`` on row ``d``
    of the MCP listing), so they are not reported here.

    Works on ``(n, n)`` grids and batched ``(B, n, n)`` stacks alike;
    *src* and *plane* broadcast against each other.
    """
    src_a = np.asarray(src)
    if src_a.dtype == np.bool_:
        src_a = src_a.astype(np.int64)
    if isinstance(plane, RowBits):
        plane = plane.unpack()
    vals, opens = np.broadcast_arrays(src_a, np.asarray(plane, dtype=bool))
    if direction.axis == 0:
        # Rings run along axis 0 (columns); canonicalise onto last axis.
        vals = np.swapaxes(vals, -1, -2)
        opens = np.swapaxes(opens, -1, -2)
    ring_len = opens.shape[-1]
    n_open = opens.sum(axis=-1)
    multi = (n_open >= 2) & (n_open < ring_len)
    if not multi.any():
        return
    lo = np.where(opens, vals, _RING_SENTINEL).min(axis=-1)
    hi = np.where(opens, vals, -_RING_SENTINEL).max(axis=-1)
    bad = multi & (lo != hi)
    if not bad.any():
        return
    where = np.argwhere(bad)[0]
    ring = int(where[-1])
    lane = f" (lane {int(where[0])})" if bad.ndim == 2 else ""
    axis_name = "column" if direction.axis == 0 else "row"
    raise BusConflictError(
        f"bus write race: broadcast {direction} drives {axis_name} {ring}"
        f"{lane} from {int(n_open[tuple(where)])} Open PEs holding "
        f"disagreeing values [{int(lo[tuple(where)])}, "
        f"{int(hi[tuple(where)])}]"
    )


class PPAMachine:
    """Simulator of one ``n x n`` Polymorphic Processor Array."""

    def __init__(
        self,
        config: PPAConfig | int,
        *,
        trace: bool = False,
        batch: int | None = None,
        check_bus_conflicts: bool = False,
    ):
        if isinstance(config, int):
            config = PPAConfig(n=config)
        if batch is not None and batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        self.config = config
        self.batch = batch
        #: dynamic bus-race detection: every broadcast transaction is
        #: screened by :func:`check_broadcast_conflicts` (the runtime
        #: counterpart of the static detector in :mod:`repro.verify`, for
        #: the switch planes static analysis cannot decide). Off by
        #: default — the check reads the plane but never moves a counter.
        self.check_bus_conflicts = check_bus_conflicts
        self.counters = CycleCounters()
        #: per-lane serial-equivalent cost ledger (batched machines only)
        self.lane_counters: LaneCounters | None = (
            LaneCounters(batch) if batch is not None else None
        )
        self.memory = ParallelMemory(self.parallel_shape)
        self.trace = BusTrace()
        self.trace.enabled = trace
        #: span tracer (see :mod:`repro.telemetry`); disabled by default —
        #: a disabled tracer neither allocates nor reads the clock, and an
        #: enabled one only *reads* counters, so counter totals are
        #: identical either way.
        self.telemetry = Tracer(self.counters)
        self._mask_stack: list[np.ndarray] = []
        self._faults: FaultPlan | None = None
        #: dtype of the MCP listings' word planes (see :meth:`new_parallel`)
        self.word_dtype = _word_dtype(config)
        #: dtype :meth:`sat_add` adds word-dtype operands in
        self._carry_dtype = _NARROW_WORDS.get(self.word_dtype)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Grid side length."""
        return self.config.n

    @property
    def shape(self) -> tuple[int, int]:
        return self.config.shape

    @property
    def parallel_shape(self) -> tuple[int, ...]:
        """Shape of a parallel variable: ``(n, n)``, or ``(B, n, n)`` when
        the machine carries a batch (lane) axis."""
        if self.batch is None:
            return self.config.shape
        return (self.batch, *self.config.shape)

    @property
    def word_bits(self) -> int:
        """Machine word width ``h``."""
        return self.config.word_bits

    @property
    def maxint(self) -> int:
        """The ``MAXINT`` infinity sentinel (all-ones word)."""
        return self.config.maxint

    @property
    def row_index(self) -> np.ndarray:
        """Fresh ``ROW`` index plane (``row_index[i, j] == i``).

        Built on each access rather than stored: the analytic engines
        create a machine (and a lane view) per solve and never read it.
        """
        n = self.n
        return np.repeat(np.arange(n, dtype=np.int64)[:, None], n, axis=1)

    @property
    def col_index(self) -> np.ndarray:
        """Fresh ``COL`` index plane (``col_index[i, j] == j``)."""
        n = self.n
        return np.repeat(np.arange(n, dtype=np.int64)[None, :], n, axis=0)

    # ------------------------------------------------------------------
    # Activity masks (PPC where/elsewhere)
    # ------------------------------------------------------------------

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean grid of currently active PEs (all-True outside ``where``).

        On a batched machine the innermost ``where`` condition may be a
        shared ``(n, n)`` plane or a per-lane ``(B, n, n)`` stack; the
        returned copy has whichever shape is on top of the stack.
        """
        if not self._mask_stack:
            return np.ones(self.parallel_shape, dtype=bool)
        return self._mask_stack[-1].copy()

    @contextmanager
    def where(self, condition):
        """Restrict stores to PEs satisfying *condition* (nests by AND)."""
        cond = as_switch_plane(condition, self.shape, lanes=self.batch)
        if self._mask_stack:
            cond = cond & self._mask_stack[-1]
        self._mask_stack.append(cond)
        try:
            yield self
        finally:
            self._mask_stack.pop()

    @contextmanager
    def elsewhere(self, condition):
        """Complement of :meth:`where`: restrict to PEs *failing* condition
        (still intersected with the enclosing mask)."""
        with self.where(
            ~as_switch_plane(condition, self.shape, lanes=self.batch)
        ):
            yield self

    def store(self, dest: np.ndarray, value) -> np.ndarray:
        """Masked in-place store ``dest <- value`` on active PEs.

        Returns *dest* for chaining. Outside any ``where`` the store is a
        plain full-grid assignment. Batched machines store per-lane stacks
        the same way; the ``where`` mask broadcasts across lanes when it is
        a shared plane.

        *value* is cast to ``dest.dtype`` as it is written, with no
        temporary: a :meth:`sat_add` result in the carry dtype lands in a
        word plane directly. The cast wraps like ``astype``; a word plane
        holds every value in ``[0, MAXINT]``.
        """
        if self._mask_stack:
            np.copyto(dest, value, casting="unsafe",
                      where=self._mask_stack[-1])
        else:
            np.copyto(dest, value, casting="unsafe")
        self.count_alu()
        return dest

    def new_parallel(self, init=0, dtype=np.int64) -> np.ndarray:
        """Allocate an anonymous parallel value (full-grid array, one layer
        per lane on a batched machine).

        The default dtype is int64. The MCP listings allocate their word
        planes — costs and successor indices alike — at
        :attr:`word_dtype`: the narrowest unsigned dtype that holds
        ``MAXINT`` and every PE index (uint16 for 16-bit words), int64 past
        32 bits. Index planes stay word-wide rather than index-wide so a
        transient flip of any bit below ``h`` lands in the plane (see
        :meth:`repro.ppa.faults.FaultPlan.corrupt`).
        """
        return np.full(self.parallel_shape, init, dtype=dtype)

    # ------------------------------------------------------------------
    # Lane management (batched machines)
    # ------------------------------------------------------------------

    def _lane_ledger(self, what: str) -> LaneCounters:
        if self.lane_counters is None:
            raise MaskError(f"{what} requires a batched machine (batch=B)")
        return self.lane_counters

    def set_active_lanes(self, mask) -> None:
        """Select which lanes accrue :attr:`lane_counters` charges.

        ``None`` re-activates every lane. The mask only gates the per-lane
        *cost ledger* — the SIMD datapath always computes all lanes; callers
        freeze converged lanes' state themselves (convergence masking).
        """
        ledger = self._lane_ledger("set_active_lanes")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (ledger.lanes,):
                raise MaskError(
                    f"lane mask shape {mask.shape} does not match batch "
                    f"({ledger.lanes},)"
                )
        ledger.select(mask)

    @property
    def active_lanes(self) -> np.ndarray:
        """Boolean ``(B,)`` vector of lanes currently accruing cost."""
        return self._lane_ledger("active_lanes").selected

    def lanes(self, batch: int) -> "PPAMachine":
        """A batched *view* of this (unbatched) machine.

        The view is a fresh ``PPAMachine`` with a lane axis that **shares**
        this machine's scalar counters, telemetry tracer, bus trace and
        fault plan — so a batched kernel run through the view is attributed
        to the caller's profile exactly like a serial run would be. Memory
        and lane counters are the view's own.
        """
        if self.batch is not None:
            raise MaskError("lanes() requires an unbatched machine")
        view = PPAMachine(
            self.config,
            batch=batch,
            check_bus_conflicts=self.check_bus_conflicts,
        )
        view.counters = self.counters
        view.telemetry = self.telemetry
        view.trace = self.trace
        view._faults = self._faults
        return view

    def _charge(self, **inc: int) -> None:
        """Add *inc* to the scalar counters and, on a batched machine, to
        every lane's ledger currently selected by the lane mask."""
        c = self.counters
        for name, value in inc.items():
            setattr(c, name, getattr(c, name) + value)
        if self.lane_counters is not None:
            self.lane_counters.add(inc)

    def apply_counter_delta(self, delta: dict) -> None:
        """Charge a pre-computed counter delta in one shot.

        Used by the fused engine (:mod:`repro.engine`) to *replay* the
        exact per-phase cost of a cycle-engine run without issuing the
        individual bus transactions. The delta lands on the scalar book
        and — on a batched machine — on every lane selected by the current
        lane mask, exactly like organic per-primitive charges do.
        """
        self._charge(**delta)

    # ------------------------------------------------------------------
    # Bus primitives
    # ------------------------------------------------------------------

    def broadcast(
        self, src, direction: Direction, L, *, receivers=None
    ) -> np.ndarray:
        """One bus broadcast: every PE receives the value injected by its
        cluster head — the nearest Open node (per *L*) at-or-upstream on its
        ring, itself included when its own switch is Open.

        ``L`` follows the PPC convention: ``True``/1 means Open.

        *receivers* (a switch plane) models a ``where (receivers)`` latch
        on the result, as in statement 12 of the paper's ``min()``: only
        the PEs it marks are resolved and take the bus value; every other
        PE holds its own ``src``. Transient flips land at receivers only.
        ``L`` may then be a packed :class:`~repro.ppa.segments.RowBits`
        plane.
        """
        plane = L if isinstance(L, RowBits) else as_switch_plane(
            L, self.shape, lanes=self.batch
        )
        plane = self._effective_plane(plane, direction)
        src = np.asarray(src)
        if self.check_bus_conflicts:
            check_broadcast_conflicts(src, plane, direction)
        if receivers is not None:
            receivers = as_switch_plane(
                receivers, self.shape, lanes=self.batch
            )
        out = broadcast_values(
            src,
            plane,
            direction,
            receivers=receivers,
            strict=self.config.strict_bus,
            stats=self.counters.plan_cache,
        )
        cycles = self.config.bus_transaction_cycles()
        self._charge(
            instructions=1,
            broadcasts=1,
            bus_cycles=cycles,
            bit_cycles=cycles * self._operand_bits(src),
        )
        self.trace.record("broadcast", direction, plane)
        return self._corrupt(out, direction, where=receivers)

    def bus_reduce(
        self,
        values,
        direction: Direction,
        L,
        op: ReduceOp,
        *,
        bits: int | None = None,
    ):
        """Cluster-wide reduction delivered to every cluster member.

        Models the constant-time wired-OR of the reconfigurable bus (and its
        AND/min/max/sum generalisations used by ablation variants). ``bits``
        overrides the width charged to ``bit_cycles`` — e.g. the
        digit-serial minimum drives ``2**k - 1`` presence lanes per
        transaction instead of a full word. *values* may be a packed
        :class:`~repro.ppa.segments.RowBits` plane for ``op="or"`` (see
        :meth:`bus_or`).
        """
        plane = self._effective_plane(
            as_switch_plane(L, self.shape, lanes=self.batch), direction
        )
        if not isinstance(values, RowBits):
            values = np.asarray(values)
        out = segmented_reduce(
            values,
            plane,
            direction,
            op,
            strict=self.config.strict_bus,
            stats=self.counters.plan_cache,
        )
        cycles = self.config.bus_transaction_cycles()
        self._charge(
            instructions=1,
            reductions=1,
            bus_cycles=cycles,
            bit_cycles=cycles
            * (self._operand_bits(values) if bits is None else bits),
        )
        self.trace.record("reduce", direction, plane)
        return self._corrupt(out, direction)

    def bus_or(self, bits, direction: Direction, L):
        """Wired-OR of 1-bit values within each cluster.

        Resolves on a row-packed :class:`~repro.ppa.segments.RowBits`
        plane and returns a fresh one; a bool plane is packed on entry
        and the result unpacked to bool on return.
        """
        if isinstance(bits, RowBits):
            return self.bus_reduce(bits, direction, L, "or")
        return self.bus_reduce(RowBits.pack(bits), direction, L, "or").unpack()

    def shift(
        self, src, direction: Direction, *, fill=0, torus: bool | None = None
    ) -> np.ndarray:
        """Nearest-neighbour shift of *src* downstream along *direction*.

        ``torus`` overrides the machine's wrap-around setting for this one
        shift: edge PEs can always be fed a boundary value (*fill*) by the
        controller instead of the wrapped neighbour — image algorithms use
        this to keep opposite borders non-adjacent.
        """
        src = np.asarray(src)
        out = shift_values(
            src,
            direction,
            torus=self.config.torus if torus is None else torus,
            fill=fill,
        )
        self._charge(
            instructions=1,
            shifts=1,
            bus_cycles=1,
            bit_cycles=self._operand_bits(src),
        )
        return out

    def global_or(self, bits) -> bool:
        """Controller-visible OR over the whole array.

        Realised on hardware as a row wired-OR followed by a column
        wired-OR into the controller's condition flag; charged as two bus
        transactions.
        """
        cycles = 2 * self.config.bus_transaction_cycles()
        self._charge(
            instructions=1, global_ors=1, bus_cycles=cycles, bit_cycles=cycles
        )
        self.trace.record("global_or", None, None)
        return bool(np.asarray(bits, dtype=bool).any())

    def lane_global_or(self, bits) -> np.ndarray:
        """Per-lane controller OR: a ``(B,)`` boolean vector.

        Each lane is an independent copy of the physical array, so the
        condition flag exists per lane; cost is identical to
        :meth:`global_or` (one row + one column wired-OR), charged once to
        the batched stream and once to each *active* lane's ledger.
        """
        batch = self._lane_ledger("lane_global_or").lanes
        arr = np.broadcast_to(
            np.asarray(bits, dtype=bool), self.parallel_shape
        )
        cycles = 2 * self.config.bus_transaction_cycles()
        self._charge(
            instructions=1, global_ors=1, bus_cycles=cycles, bit_cycles=cycles
        )
        self.trace.record("global_or", None, None)
        return arr.reshape(batch, -1).any(axis=1)

    # ------------------------------------------------------------------
    # Word arithmetic
    # ------------------------------------------------------------------

    def _operand_bits(self, arr) -> int:
        """Width of one bus transfer: 1 for boolean and packed 1-bit
        planes (the bit-serial wired-OR case), the machine word
        otherwise."""
        if isinstance(arr, RowBits) or arr.dtype == np.bool_:
            return 1
        return self.word_bits

    def count_alu(self, k: int = 1) -> None:
        """Charge *k* local (per-PE, fully parallel) ALU instructions."""
        self._charge(instructions=k, alu_ops=k)

    def sat_add(self, a, b) -> np.ndarray:
        """Saturating word addition: ``min(a + b, MAXINT)``.

        ``MAXINT`` absorbs, so "infinity plus anything is infinity" holds
        for the shortest-path sentinel.

        Operands that cast safely to a narrow :attr:`word_dtype` (word
        planes, narrower unsigned and boolean planes) are added in the
        next wider unsigned dtype, which holds the carry of any two
        words, and the clipped sum is returned in that dtype; store it
        into a word plane with :meth:`store`, which casts in place. Other
        operands (signed, wider, float, Python scalars) and machines whose
        word is past 32 bits add in int64, as before.
        """
        a, b = np.asarray(a), np.asarray(b)
        word, carry = self.word_dtype, self._carry_dtype
        if (carry is not None and np.can_cast(a.dtype, word)
                and np.can_cast(b.dtype, word)):
            out = np.add(a, b, dtype=carry)
        else:
            out = np.add(np.asarray(a, dtype=np.int64),
                         np.asarray(b, dtype=np.int64))
        np.minimum(out, self.maxint, out=out)
        self.count_alu()
        return out

    def check_word(self, values, what: str = "value") -> np.ndarray:
        """Validate that *values* fit the machine word; returns int64 copy."""
        arr = np.asarray(values, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() > self.maxint):
            raise WordWidthError(
                f"{what} outside [0, {self.maxint}] for word_bits="
                f"{self.word_bits}: range [{arr.min()}, {arr.max()}]"
            )
        return arr.copy()

    def bit(self, src, j: int, *, out: np.ndarray | None = None) -> np.ndarray:
        """Parallel ``bit(x, j)``: boolean plane of bit *j* of *src*,
        written into *out* when given (a reused bool buffer)."""
        if not (0 <= j < self.word_bits):
            raise WordWidthError(
                f"bit index {j} outside word of {self.word_bits} bits"
            )
        self.count_alu()
        src = np.asarray(src)
        # Test in the input's own integer dtype when bit j lies below its
        # sign bit (a narrow plane is cheaper to sweep); otherwise widen to
        # int64, whose two's complement gives negative values their sign
        # bits.
        kind = src.dtype.kind
        if kind not in "iu" or j >= 8 * src.dtype.itemsize - (kind == "i"):
            src = src.astype(np.int64)
        return np.not_equal(src & (1 << j), 0, out=out)

    # ------------------------------------------------------------------

    def require_square_fit(self, size: int) -> None:
        """Raise unless a ``size x size`` problem fits this grid exactly."""
        if size != self.n:
            raise MaskError(
                f"problem of size {size} requires an {size}x{size} machine; "
                f"this machine is {self.n}x{self.n}"
            )

    # ------------------------------------------------------------------
    # Fault injection (see repro.ppa.faults)
    # ------------------------------------------------------------------

    def inject_faults(self, plan: FaultPlan) -> None:
        """Attach a :class:`FaultPlan`; every subsequent bus transaction
        sees the stuck-at switches instead of the programmed plane."""
        plan.validate(self.shape, self.word_bits)
        self._faults = plan

    def clear_faults(self) -> None:
        self._faults = None

    @property
    def fault_plan(self) -> FaultPlan | None:
        return self._faults

    def _effective_plane(self, plane, direction: Direction):
        if self._faults is None:
            return plane
        return self._faults.effective_plane(plane, direction.axis)

    def _corrupt(self, out, direction: Direction, *, where=None):
        """Apply this transaction's transient bit-flips (if any) to the
        received values — only where *where* is set, when given. Width is
        the operand width actually driven on the bus, so flips above a
        1-bit wired-OR transfer are no-ops."""
        if self._faults is None:
            return out
        hit = self._faults.corrupt(
            out, direction.axis, width=self._operand_bits(out)
        )
        if where is not None and hit is not out:
            for f in self._faults.transients:  # corrupt() left out intact
                pe = (..., f.row, f.col)
                hit[pe] = np.where(where[pe], hit[pe], out[pe])
        return hit

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lanes = "" if self.batch is None else f", batch={self.batch}"
        return (
            f"PPAMachine(n={self.n}, word_bits={self.word_bits}, "
            f"cost={self.config.bus_cost_model.value}{lanes})"
        )
