"""Switch-box and bus fault injection.

Reference [2]'s argument for the PPA is that its restricted switch-box is
*hardware implementable*; a hardware artefact can fail. This module models
three fault classes a two-state switch-box and its bus admit:

**Permanent stuck-at faults** (:class:`SwitchFault`) — the original T14
model:

``STUCK_SHORT``
    The switch can no longer disconnect the bus: it behaves as Short even
    when the instruction's ``L`` operand marks it Open. The PE silently
    stops driving its cluster — downstream nodes hear the *previous* head.

``STUCK_OPEN``
    The switch can no longer close: it behaves as Open even when ``L``
    marks it Short, splitting its ring and injecting the PE's (stale)
    register value into the bus.

**Intermittent stuck-at faults** (:class:`IntermittentFault`) — the same
two stuck-at modes, but marginal rather than hard: the switch misbehaves
only on a (seeded, per-transaction) random subset of bus transactions.
This is the classic loose-bond / marginal-timing failure mode that a
one-shot self-test can easily miss.

**Transient bit-flips** (:class:`TransientFault`) — single-event upsets on
the bus word itself: with a per-transaction activation probability, one
bit of the value *received* by a given PE is inverted for that transaction
only. The switch programming is unaffected; only the latched word is.

A :class:`FaultPlan` carries any mix of the three; attach one with
``machine.inject_faults(plan)``. Stuck-at faults (permanent and currently
active intermittent ones) rewrite the *effective switch plane* of every
bus transaction via :meth:`FaultPlan.effective_plane`; transient flips
corrupt the received values via :meth:`FaultPlan.corrupt`. Faults apply
per bus *axis* (each PE has one switch-box per bus set, so a fault may
afflict the column-bus switch, the row-bus switch, or both).

Randomness is owned by the plan: activation draws come from one
:class:`numpy.random.Generator` seeded by :attr:`FaultPlan.seed`, consumed
in a fixed order (one draw per intermittent fault, then one per transient
fault, per bus transaction — independent of direction), so a campaign
replays bit-for-bit for a given transaction sequence.

Interaction with the bus-plan caches (audited for PR 3)
-------------------------------------------------------
:mod:`repro.ppa.segments` caches resolved bus plans keyed on the **bytes
of the effective switch plane** (plus direction/shape/batch). Faults are
applied *before* the kernel is entered — the machine hands the kernels
the already-faulted plane — so a faulted transaction and a faultless one
can never share a cache entry: a stuck-at fault changes the plane bytes,
hence the key. Intermittent faults that happen to be inactive for a
transaction leave the plane bytes untouched and correctly *reuse* the
faultless plan. Transient flips never touch switch planes at all (they
corrupt values after the kernel returns), so they are cache-invisible by
construction. ``tests/ppa/test_fault_batched.py`` pins all three
properties against the serial, lane-expanded and per-lane-stack fast
paths.

:mod:`repro.ppa.selftest` localises the permanent faults from the outside
using only bus operations; :mod:`repro.resilience` builds the online
detect → diagnose → recover loop for all three classes on top.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.ppa.segments import RowBits

__all__ = [
    "FaultKind",
    "SwitchFault",
    "IntermittentFault",
    "TransientFault",
    "FaultPlan",
]


class FaultKind(enum.Enum):
    STUCK_SHORT = "stuck-short"
    STUCK_OPEN = "stuck-open"


@dataclass(frozen=True)
class SwitchFault:
    """One permanently faulty switch-box.

    Attributes
    ----------
    row, col
        PE coordinates.
    kind
        Stuck-at mode.
    axis
        0 = the column-bus switch, 1 = the row-bus switch, None = both.
    """

    row: int
    col: int
    kind: FaultKind
    axis: int | None = None

    def affects_axis(self, axis: int) -> bool:
        return self.axis is None or self.axis == axis


@dataclass(frozen=True)
class IntermittentFault:
    """A stuck-at fault that activates per transaction with probability
    :attr:`probability` (drawn from the plan's seeded RNG)."""

    row: int
    col: int
    kind: FaultKind
    probability: float = 1.0
    axis: int | None = None

    def affects_axis(self, axis: int) -> bool:
        return self.axis is None or self.axis == axis


@dataclass(frozen=True)
class TransientFault:
    """A per-transaction bit-flip on the word received at one PE.

    Attributes
    ----------
    row, col
        PE coordinates whose *received* value is corrupted.
    bit
        Bit position inverted. Flips wider than the transaction's operand
        (e.g. ``bit >= 1`` on a 1-bit wired-OR transfer) have no physical
        lane to hit and are no-ops for that transaction.
    probability
        Per-transaction activation probability.
    axis
        Restrict to one bus axis (0 = column buses, 1 = row buses), or
        ``None`` for both.
    """

    row: int
    col: int
    bit: int = 0
    probability: float = 1.0
    axis: int | None = None

    def affects_axis(self, axis: int) -> bool:
        return self.axis is None or self.axis == axis


def _check_probability(probability: float) -> None:
    if not (0.0 < probability <= 1.0):
        raise ConfigurationError(
            f"activation probability must be in (0, 1], got {probability}"
        )


@dataclass
class FaultPlan:
    """A set of switch/bus faults applied to every bus transaction.

    ``faults`` are the permanent stuck-ats; ``intermittents`` and
    ``transients`` are the probabilistic classes, activated per
    transaction from a :class:`numpy.random.Generator` seeded with
    :attr:`seed` (call :meth:`reseed` to replay a campaign).
    """

    faults: list[SwitchFault] = field(default_factory=list)
    intermittents: list[IntermittentFault] = field(default_factory=list)
    transients: list[TransientFault] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add(
        self,
        row: int,
        col: int,
        kind: FaultKind,
        axis: int | None = None,
    ) -> "FaultPlan":
        """Add a permanent stuck-at fault; returns ``self`` for chaining."""
        self._check_axis_kind(kind, axis)
        self.faults.append(SwitchFault(row, col, kind, axis))
        return self

    def add_intermittent(
        self,
        row: int,
        col: int,
        kind: FaultKind,
        probability: float,
        axis: int | None = None,
    ) -> "FaultPlan":
        """Add an intermittent stuck-at fault; returns ``self``."""
        self._check_axis_kind(kind, axis)
        _check_probability(probability)
        self.intermittents.append(
            IntermittentFault(row, col, kind, probability, axis)
        )
        return self

    def add_transient(
        self,
        row: int,
        col: int,
        bit: int,
        probability: float,
        axis: int | None = None,
    ) -> "FaultPlan":
        """Add a transient bus-word bit-flip; returns ``self``."""
        if axis not in (None, 0, 1):
            raise ConfigurationError(f"axis must be 0, 1 or None, got {axis}")
        if bit < 0:
            raise ConfigurationError(f"bit index must be >= 0, got {bit}")
        _check_probability(probability)
        self.transients.append(
            TransientFault(row, col, bit, probability, axis)
        )
        return self

    @staticmethod
    def _check_axis_kind(kind: FaultKind, axis: int | None) -> None:
        if axis not in (None, 0, 1):
            raise ConfigurationError(f"axis must be 0, 1 or None, got {axis}")
        if not isinstance(kind, FaultKind):
            raise ConfigurationError(f"kind must be a FaultKind, got {kind!r}")

    def reseed(self, seed: int | None = None) -> "FaultPlan":
        """Reset the activation RNG (to :attr:`seed` or a new one)."""
        if seed is not None:
            self.seed = seed
        self._rng = np.random.default_rng(self.seed)
        return self

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(
        self, shape: tuple[int, int], word_bits: int | None = None
    ) -> None:
        """Reject out-of-grid coordinates, conflicting duplicates on the
        same physical switch/axis, invalid probabilities and (when
        *word_bits* is given) bit indices outside the machine word."""
        stuck = [*self.faults, *self.intermittents]
        for f in [*stuck, *self.transients]:
            if not (0 <= f.row < shape[0] and 0 <= f.col < shape[1]):
                raise ConfigurationError(
                    f"fault at ({f.row}, {f.col}) outside grid {shape}"
                )
        # Two stuck-at faults on the same physical switch (same PE, same
        # bus axis) are contradictory when the kinds differ and redundant
        # otherwise — either way the plan is malformed.
        for axis in (0, 1):
            seen: set[tuple[int, int]] = set()
            for f in stuck:
                if not f.affects_axis(axis):
                    continue
                key = (f.row, f.col)
                if key in seen:
                    raise ConfigurationError(
                        f"duplicate stuck-at fault on switch ({f.row}, "
                        f"{f.col}) axis {axis}"
                    )
                seen.add(key)
            seen_t: set[tuple[int, int, int]] = set()
            for t in self.transients:
                if not t.affects_axis(axis):
                    continue
                key_t = (t.row, t.col, t.bit)
                if key_t in seen_t:
                    raise ConfigurationError(
                        f"duplicate transient fault on PE ({t.row}, "
                        f"{t.col}) bit {t.bit} axis {axis}"
                    )
                seen_t.add(key_t)
        for f in self.intermittents:
            _check_probability(f.probability)
        for t in self.transients:
            _check_probability(t.probability)
            if word_bits is not None and t.bit >= word_bits:
                raise ConfigurationError(
                    f"transient bit {t.bit} outside the {word_bits}-bit "
                    "machine word"
                )

    def __len__(self) -> int:
        return len(self.faults) + len(self.intermittents) + len(self.transients)

    @property
    def is_static(self) -> bool:
        """True when the plan has no probabilistic (RNG-driven) faults."""
        return not self.intermittents and not self.transients

    # ------------------------------------------------------------------
    # Per-transaction application
    # ------------------------------------------------------------------

    def apply(self, open_plane: np.ndarray, axis: int) -> np.ndarray:
        """Effective switch plane after the *permanent* stuck-at faults.

        Works on a single ``(n, n)`` plane or a batched ``(B, n, n)`` lane
        stack — a hardware fault afflicts the same physical switch-box in
        every lane, so the fault is applied across the leading axis.
        Deterministic and RNG-free; :meth:`effective_plane` is the
        per-transaction entry point that adds the intermittent class.
        """
        return self._apply_stuck(open_plane, axis, self.faults)

    @staticmethod
    def _apply_stuck(open_plane, axis: int, stuck):
        active = [f for f in stuck if f.affects_axis(axis)]
        if not active:
            return open_plane
        out = open_plane.copy()
        for f in active:
            stuck_open = f.kind is FaultKind.STUCK_OPEN
            if isinstance(out, RowBits):
                out.set_pe(f.row, f.col, stuck_open)
            else:
                out[..., f.row, f.col] = stuck_open
        return out

    def effective_plane(self, open_plane, axis: int):
        """Effective switch plane for **one bus transaction** (a bool plane
        or a packed :class:`~repro.ppa.segments.RowBits` one).

        Applies every permanent fault plus the intermittent faults whose
        activation draw fires for this transaction. Exactly one RNG draw
        is consumed per intermittent fault per call, in list order,
        regardless of *axis* — keeping the activation stream independent
        of the direction sequence an algorithm happens to issue.
        """
        stuck: list = list(self.faults)
        if self.intermittents:
            draws = self._rng.random(len(self.intermittents))
            stuck.extend(
                f
                for f, u in zip(self.intermittents, draws)
                if u < f.probability
            )
        return self._apply_stuck(open_plane, axis, stuck)

    def corrupt(self, values, axis: int, *, width: int):
        """Apply this transaction's transient bit-flips to *values*.

        *values* is the array of received words (``(n, n)`` or a batched
        ``(B, n, n)`` stack — a flip at a physical PE hits every lane, as
        with stuck-ats), or a packed 1-bit
        :class:`~repro.ppa.segments.RowBits` plane; *width* is the operand
        width of the transfer (1 for boolean wired-OR traffic, the machine
        word otherwise). Flips at ``bit >= width`` have no lane to hit and
        are skipped. One RNG draw is consumed per transient fault per
        call, in list order, regardless of *axis*. Returns *values*
        unchanged (no copy) when nothing fires.
        """
        if not self.transients:
            return values
        draws = self._rng.random(len(self.transients))
        active = [
            f
            for f, u in zip(self.transients, draws)
            if u < f.probability and f.affects_axis(axis) and f.bit < width
        ]
        if not active:
            return values
        if isinstance(values, RowBits):  # width 1: bit 0 only
            bits = values.copy()
            for f in active:
                bits.flip_pe(f.row, f.col)
            return bits
        out = np.array(values, copy=True)
        for f in active:
            if out.dtype == np.bool_:
                out[..., f.row, f.col] ^= True
            else:
                out[..., f.row, f.col] = np.bitwise_xor(
                    out[..., f.row, f.col], np.int64(1) << np.int64(f.bit)
                )
        return out
