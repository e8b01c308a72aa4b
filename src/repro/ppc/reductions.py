"""The paper's bus reduction routines: ``min()`` and ``selected_min()``.

These are faithful ports of the listings in Section 3 of the paper. The
algorithm examines all candidate values simultaneously, bit by bit from the
most significant position; at each bit, a cluster-wide wired-OR reveals
whether any still-enabled candidate has a 0 there, and if so every enabled
candidate holding a 1 is eliminated. After ``h`` bit steps the surviving
nodes hold the cluster minimum; two broadcasts (statements 11-13 of the
listing) deliver that value to the cluster's extreme node and then to every
member.

Complexity: ``h`` wired-OR bus transactions plus 2 broadcasts — **O(h)**,
as derived in the paper's Section 3. (The abstract's "log h" is an internal
inconsistency of the paper; see DESIGN.md and experiment F3.)

How the simulator runs it: the 1-bit registers of statements 8-10 (the
``enable`` set, the wired-OR operand and each bit slice) stay packed along
rows into machine words (:class:`~repro.ppa.segments.RowBits`), so a bit
step is one ``bit()`` slice packed once plus a few word operations, and
its wired-OR resolves on the words. Statement 12's
``where (L) src = broadcast(src, opposite(orientation), enable)`` is one
broadcast with ``receivers=L``: only the PEs of ``L`` latch, so only they
are resolved, each reading its nearest survivor from the packed rows.
Every transaction, charge, trace record and fault draw is the listing's,
one for one.

``word_parallel_min`` is the A7 ablation: the same cluster minimum computed
in a single transaction, as if each PE had a word-wide comparator on the
bus. It is *not* in the paper; it quantifies what the bit-serial design
trades away.
"""

from __future__ import annotations

import numpy as np

from repro.ppa.directions import Direction, opposite
from repro.ppa.machine import PPAMachine
from repro.ppa.segments import RowBits
from repro.ppa.switchbox import as_switch_plane

__all__ = [
    "ppa_min",
    "ppa_selected_min",
    "ppa_max",
    "word_parallel_min",
    "ppa_min_digit_serial",
]


def _word_operand(src) -> np.ndarray:
    """*src* as an integer plane: integer planes keep their dtype (a word
    plane stays narrow), anything else is read as int64."""
    src = np.asarray(src)
    return src if src.dtype.kind in "iu" else src.astype(np.int64)


def _bit_serial_survivors(
    machine: PPAMachine,
    src: np.ndarray,
    orientation: Direction,
    L: np.ndarray,
    enable: np.ndarray,
) -> RowBits:
    """Statements 8-10 of the paper's ``min()``: MSB-first elimination.

    Returns the final ``enable`` plane, row-packed: within each cluster,
    exactly the nodes (among the initially enabled ones) holding the
    minimum value.
    """
    h = machine.word_bits
    # Bits j < h survive the wrap-around cast, negative and over-word
    # values included; a word plane is used as it is.
    src = src.astype(machine.word_dtype, copy=False)
    # The 1-bit registers (enable, the wired-OR operand, each bit slice)
    # live packed along rows, so every step is a few word operations.
    en = RowBits.pack(enable)
    bit_j = np.empty(src.shape, dtype=bool)
    drive = RowBits(np.empty_like(en.words), en.n)
    tele = machine.telemetry
    for j in range(h - 1, -1, -1):
        with tele.span("min.bit_slice", j=j):
            machine.bit(src, j, out=bit_j)
            not_bit = RowBits.pack(bit_j).words
            np.invert(not_bit, out=not_bit)
            # or(!bit(src, j) && enable, orientation, L): one wired-OR
            # delivers the cluster-level "a zero exists at this bit" flag
            # to every node.
            np.bitwise_and(en.words, not_bit, out=drive.words)
            seen = machine.bus_or(drive, orientation, L).words
            # where (zero_seen && bit_j) enable = 0, as
            # enable = (drive && seen) || (enable && !seen).
            np.bitwise_and(drive.words, seen, out=drive.words)
            np.invert(seen, out=seen)
            np.bitwise_and(en.words, seen, out=en.words)
            np.bitwise_or(en.words, drive.words, out=en.words)
            machine.count_alu(4)  # the &,~ of the operand and the update
    return en


def _deliver_min(
    machine: PPAMachine,
    src: np.ndarray,
    orientation: Direction,
    L: np.ndarray,
    enable,
) -> np.ndarray:
    """Statements 11-13: route each cluster's surviving value to all members.

    ``where (L) src = broadcast(src, opposite(orientation), enable)`` pulls a
    survivor's value onto each cluster's extreme node (every cluster retains
    at least one survivor, so the nearest enabled node at-or-upstream in the
    opposite orientation is within the same cluster); only the PEs of ``L``
    latch it, so only they are resolved. The final broadcast fans it back
    out.
    """
    with machine.telemetry.span("min.deliver"):
        staged = machine.broadcast(
            src, opposite(orientation), enable, receivers=L
        )
        machine.count_alu()  # the masked store of statement 12
        return machine.broadcast(staged, orientation, L)


def ppa_min(machine: PPAMachine, src, orientation: Direction, L) -> np.ndarray:
    """Paper's ``min(src, orientation, L)``: cluster-wide minimum.

    Every PE receives the minimum of ``src`` over the bus cluster it belongs
    to (clusters defined by the Open plane *L* under *orientation*).
    O(h) bus transactions for h-bit words.
    """
    with machine.telemetry.span("min"):
        src = _word_operand(src)
        # parallel logical enable = 1 (per lane on a batched machine)
        enable = np.ones(
            np.broadcast_shapes(src.shape, machine.parallel_shape), dtype=bool
        )
        machine.count_alu()
        survivors = _bit_serial_survivors(machine, src, orientation, L, enable)
        return _deliver_min(machine, src, orientation, L, survivors)


def ppa_selected_min(
    machine: PPAMachine,
    src,
    orientation: Direction,
    L,
    selected,
) -> np.ndarray:
    """Paper's ``selected_min(src, orientation, L, selected)``.

    Identical to :func:`ppa_min` but the elimination starts from the subset
    of nodes flagged by *selected* (paper: "the selected_min() algorithm
    starts considering a subset of the values defined by its fourth input
    parameter"). In the MCP listing this recovers, per row, the (smallest)
    column index among the nodes achieving the row minimum.

    The result is undefined for clusters whose *selected* set is empty —
    the MCP algorithm never produces one (a minimum achiever always exists).
    """
    with machine.telemetry.span("selected_min"):
        src = _word_operand(src)
        enable = as_switch_plane(selected, machine.shape, lanes=machine.batch)
        machine.count_alu()
        survivors = _bit_serial_survivors(machine, src, orientation, L, enable)
        return _deliver_min(machine, src, orientation, L, survivors)


def ppa_max(machine: PPAMachine, src, orientation: Direction, L) -> np.ndarray:
    """Cluster-wide maximum, by running ``min`` on the complemented word.

    Not in the paper's listing but an immediate corollary of it (complement
    all bit planes); used by the extension algorithms. Costs exactly one
    :func:`ppa_min` plus two local complements.
    """
    src = np.asarray(src, dtype=np.int64)
    machine.count_alu()
    flipped = machine.maxint - src
    out = ppa_min(machine, flipped, orientation, L)
    machine.count_alu()
    return machine.maxint - out


def word_parallel_min(
    machine: PPAMachine, src, orientation: Direction, L
) -> np.ndarray:
    """Ablation A7: cluster minimum in one bus transaction.

    Models a hypothetical PPA whose bus resolves a word-wide minimum per
    cycle (as a word comparator per switch would allow). Same result as
    :func:`ppa_min`, O(1) instead of O(h) transactions.
    """
    with machine.telemetry.span("min.word_parallel"):
        return machine.bus_reduce(
            np.asarray(src, dtype=np.int64), orientation, L, "min"
        )


def ppa_min_digit_serial(
    machine: PPAMachine,
    src,
    orientation: Direction,
    L,
    digit_bits: int,
) -> np.ndarray:
    """Digit-serial cluster minimum: the radix-2**k generalisation (A13).

    The paper's routine scans one *bit* per bus cycle; a switch-box with
    ``2**k - 1`` parallel wired-OR lanes can scan ``k`` bits per cycle:
    every enabled candidate asserts the lane of its current digit, each PE
    reads the smallest asserted lane (the cluster's minimal digit) and
    self-eliminates if its own digit is larger. ``ceil(h / k)``
    transactions instead of ``h``, each ``2**k - 1`` lanes wide — at
    ``k = 1`` this *is* the paper's min() (one lane: "a zero exists").

    Accounting: one bus transaction per digit with ``bit_cycles`` charged
    at ``2**k - 1`` lanes, exposing the lane-count/transaction-count
    trade-off experiment A13 sweeps.
    """
    h = machine.word_bits
    if not (1 <= digit_bits <= h):
        raise ValueError(f"digit_bits must be in [1, {h}], got {digit_bits}")
    radix = 1 << digit_bits
    tele = machine.telemetry
    with tele.span("min.digit_serial", digit_bits=digit_bits):
        src = np.asarray(src, dtype=np.int64)
        enable = np.ones(
            np.broadcast_shapes(src.shape, machine.parallel_shape), dtype=bool
        )
        machine.count_alu()
        positions = range(((h + digit_bits - 1) // digit_bits) - 1, -1, -1)
        for pos in positions:
            with tele.span("min.digit_slice", pos=pos):
                digit = (src >> (pos * digit_bits)) & (radix - 1)
                machine.count_alu()
                # One multi-lane transaction: the per-cluster minimum
                # asserted digit.
                staged = np.where(enable, digit, radix)
                machine.count_alu()
                min_digit = machine.bus_reduce(
                    staged, orientation, L, "min", bits=radix - 1
                )
                enable &= digit == min_digit
                machine.count_alu(2)
        return _deliver_min(machine, src, orientation, L, enable)
