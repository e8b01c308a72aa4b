"""Vectorised resolution of segmented, circular PPA buses.

Every PPA bus operation reduces to one of two questions about each *ring*
(a full row or column of the torus, in the direction the controller chose):

1. **Broadcast** — which Open node drives the segment this PE belongs to?
   Per the PPC language specification (paper, Section 2), ``broadcast``
   "returns the value of the element of src corresponding to the extreme
   node of the cluster the processor belongs to": a cluster is an Open node
   (its *head*) plus the Short nodes downstream of it up to the next Open
   node, cyclically, and every member — the head included — receives the
   head's value. (The head receiving its own value is load-bearing: the
   paper's ``min()`` routine, statements 11-12, relies on it whenever a
   cluster head survives the bit-serial elimination.)

2. **Segmented reduction** (wired-OR and friends) — combine the values of a
   whole *cluster*: an Open node together with the Short nodes downstream of
   it, up to (excluding) the next Open node, cyclically.

Both are computed for the entire grid at once with numpy primitives
(gathers, ``reduce``/``reduceat``, ``repeat``) — no per-PE Python loops.

Lanes and switch planes
-----------------------
Every public kernel accepts one ``(n, n)`` grid or a stack of ``B``
independent problem instances, ``(B, n, n)``, against either one shared
``(n, n)`` switch plane or a per-lane ``(B, n, n)`` plane stack. One bus
transaction resolves all lanes in a few whole-array passes, by one of two
methods:

* **Ring-wise** — every ring is a single cluster. A reduction is one
  ``reduce`` along the raw ring axis (no flip or transpose copies), and a
  broadcast with exactly one Open per ring is one gather per ring.
* **Cluster-start segment fill** — any plane. The rings are cut into runs
  at every Open node and every ring start; each run is filled from its
  Open node in one ``repeat`` (reduced in one ``reduceat``), after each
  ring's leading run is joined to the cluster it wraps into.

A **shared plane** is resolved once into a *plan* — its method plus the
ring heads or runs — cached per ``(direction, plane bytes)``: algorithms
reprogram the same planes over and over (the MCP's bit-serial min issues
~2h wired-ORs per iteration against one plane), and a plan serves any
number of lanes. A **per-lane stack** is resolved on every call and never
cached: its content can change in place under any cache key, and its
planes are mostly data-dependent. Its Open count picks the method: a
broadcast with as many Opens as rings checks for one Open per ring;
everything else takes the segment fill.

**1-bit planes are packed.** A wired-OR moves one bit per PE, so its
operand and result are :class:`RowBits`: the plane packed along rows into
the widest unsigned word that tiles a row, PE ``p`` as bit ``p``. A
ring-wise shared plan resolves on the words — a row ring ORs its row's
words into one flag and delivers all-ones or all-zeros words, a column
ring ORs the words over the rows — so a step of the bit-serial ``min()``
is a few word operations on ``(B, n, n / 64)`` words. A segmented plan or
a per-lane stack unpacks into the segment fill and repacks. A bool
wired-OR packs on entry, so there is one 1-bit wired-OR.

**Receiver-only broadcasts.** ``broadcast_values(..., receivers=R)``
resolves ``where (R) x = broadcast(src, direction, D)`` at the PEs of
``R`` only, as the paper's ``min()`` does in statement 12: its receivers
are the few cluster heads of ``L``, its Open nodes the data-dependent
survivors of the elimination. Each receiver reads its nearest Open node
from its ring's packed words: mask the words at or upstream of it, take
the nearest set bit, and wrap to the ring's far end when none is set.
Every other PE keeps ``src``; no plan is cached.

Canonical layout
----------------
Runs are derived in a canonical orientation: rings live on the *last* axis
and downstream is *increasing index* (for 2-D grids that means rings are
rows). :func:`_to_canonical` transposes/flips inputs into that layout and
:func:`_from_canonical` undoes it; both are lane-axis agnostic (they only
touch the trailing two axes). Ring-wise transactions never leave the raw
layout.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import Literal

import numpy as np

from repro.errors import BusError
from repro.ppa.counters import PlanCacheStats
from repro.ppa.directions import Direction

__all__ = [
    "RowBits",
    "broadcast_values",
    "segmented_reduce",
    "shift_values",
    "clear_plan_cache",
    "plan_cache_stats",
    "reset_plan_cache_stats",
    "plan_cache_sizes",
    "PlanCacheStats",
    "ReduceOp",
]

ReduceOp = Literal["or", "and", "min", "max", "sum"]

# ---------------------------------------------------------------------------
# Shared-plane plan caches
#
# Resolving a shared plane into its plan is a pure function of
# (direction, plane bytes), so a small LRU of plans spares repeat
# transactions the resolution. 64 entries is far beyond what any
# algorithm here cycles through. Two caches exist, one per kernel; both
# serve unbatched grids and lane stacks alike. ``clear_plan_cache()``
# drops both.
# ---------------------------------------------------------------------------

_PLAN_CACHE_SIZE = 64
_broadcast_plans: "OrderedDict[tuple, tuple]" = OrderedDict()
_reduce_plans: "OrderedDict[tuple, tuple]" = OrderedDict()

# Module-wide hit/miss accounting (host-side metric: depends on process
# history, never part of the machine cost model). Public kernels bump this
# once per call; a per-machine ``PlanCacheStats`` sink may be passed in
# addition via the ``stats`` kwarg.
_stats = PlanCacheStats()


def clear_plan_cache() -> None:
    """Drop all cached bus plans (memory hygiene for huge sweeps).

    Clears both shared-plane plan LRUs, broadcast and reduce. Hit/miss
    statistics are left untouched (use :func:`reset_plan_cache_stats`).
    """
    _broadcast_plans.clear()
    _reduce_plans.clear()


def plan_cache_stats() -> PlanCacheStats:
    """The module-wide plan-cache hit/miss counters (live object)."""
    return _stats


def reset_plan_cache_stats() -> None:
    """Zero the module-wide plan-cache hit/miss counters."""
    _stats.reset()


def plan_cache_sizes() -> dict[str, int]:
    """Current entry counts of both plan caches (for memory tests)."""
    return {"broadcast": len(_broadcast_plans), "reduce": len(_reduce_plans)}


def _record(stats: PlanCacheStats | None, kind: str, hit: bool) -> None:
    name = f"{kind}_{'hits' if hit else 'misses'}"
    setattr(_stats, name, getattr(_stats, name) + 1)
    if stats is not None and stats is not _stats:
        setattr(stats, name, getattr(stats, name) + 1)


def _cached_plan(cache: "OrderedDict", o: np.ndarray, direction: Direction,
                 kind: str, stats: PlanCacheStats | None) -> tuple:
    """The *kind* plan of shared plane *o*, from the LRU or freshly
    resolved."""
    key = (direction, o.shape, o.tobytes())
    plan = cache.pop(key, None)
    _record(stats, kind, plan is not None)
    if plan is None:
        plan = _resolve(o, direction, kind)
        while len(cache) >= _PLAN_CACHE_SIZE:
            cache.popitem(last=False)
    cache[key] = plan  # (re)insert as most recently used
    return plan


_UFUNCS = {
    "or": np.maximum,  # operands are 0/1 integers
    "and": np.minimum,
    "min": np.minimum,
    "max": np.maximum,
    "sum": np.add,
}


def _to_canonical(arr: np.ndarray, direction: Direction) -> np.ndarray:
    """View of *arr* with rings on the last axis and downstream = +1."""
    if direction.axis == 0:
        arr = arr.swapaxes(-1, -2)
    if not direction.is_forward:
        arr = arr[..., ::-1]
    return arr


def _from_canonical(arr: np.ndarray, direction: Direction) -> np.ndarray:
    """Inverse of :func:`_to_canonical` (same sequence, reversed)."""
    if not direction.is_forward:
        arr = arr[..., ::-1]
    if direction.axis == 0:
        arr = arr.swapaxes(-1, -2)
    return np.ascontiguousarray(arr)


def _ring_axis(direction: Direction) -> int:
    """Raw axis a ring runs along: rows for EAST/WEST, columns otherwise."""
    return -1 if direction.axis == 1 else -2


def _undriven(what: str, direction: Direction, ring: str) -> BusError:
    if what == "broadcast":
        return BusError(
            f"broadcast({direction}): {ring} has no Open switch; "
            "the bus is un-driven"
        )
    return BusError(f"segmented_reduce({direction}): {ring} has no Open switch")


def _first_bad(undriven: np.ndarray) -> int:
    """First undriven ring (flat index), or -1 when every ring is driven."""
    return int(np.argmax(undriven)) if undriven.any() else -1


# ---------------------------------------------------------------------------
# Row-packed 1-bit planes
# ---------------------------------------------------------------------------


def _row_word(row_bytes: int) -> np.dtype:
    """The widest unsigned word that tiles a packed row of *row_bytes*."""
    for size in (8, 4, 2):
        if row_bytes % size == 0:
            return np.dtype(f"<u{size}")
    return np.dtype(np.uint8)


class RowBits:
    """A 1-bit plane packed along rows into machine words.

    ``words[..., r, k]`` holds PEs ``k*b .. k*b + b - 1`` of row ``r``,
    PE ``p`` as bit ``p % b`` (``b`` the word's width, the widest that
    tiles a row of ``ceil(n / 8)`` bytes). Bits past the row's ``n`` PEs
    are padding: zero, and read by nothing. Leading axes are lanes, as on
    a bool plane.
    """

    __slots__ = ("words", "n")

    def __init__(self, words: np.ndarray, n: int):
        self.words = words
        self.n = n

    @classmethod
    def pack(cls, plane) -> "RowBits":
        """Pack a bool plane (any layout) along its rows."""
        plane = np.asarray(plane, dtype=bool)
        n = plane.shape[-1]
        if n % 8 == 0 and plane.flags.c_contiguous:
            # One flat pass: every row is a whole number of bytes.
            packed = np.packbits(plane.reshape(-1), bitorder="little")
        else:  # keeps the plane's layout: make the rows contiguous
            packed = np.ascontiguousarray(
                np.packbits(plane, axis=-1, bitorder="little")
            )
        word = _row_word(-(-n // 8))
        return cls(packed.view(word).reshape(*plane.shape[:-1], -1), n)

    @property
    def shape(self) -> tuple:
        """Shape of the bool plane this packs."""
        return (*self.words.shape[:-1], self.n)

    def unpack(self) -> np.ndarray:
        """The bool plane, fresh and C-contiguous."""
        raw = self.words.view(np.uint8)
        if self.n % 8 == 0:
            bits = np.unpackbits(raw.reshape(-1), bitorder="little")
            return bits.view(bool).reshape(self.shape)
        bits = np.unpackbits(raw, axis=-1, count=self.n, bitorder="little")
        return bits.view(bool)

    def copy(self) -> "RowBits":
        return RowBits(self.words.copy(), self.n)

    def _pe(self, row: int, col: int) -> tuple:
        width = 8 * self.words.itemsize
        return (..., row, col // width), self.words.dtype.type(1 << col % width)

    def set_pe(self, row: int, col: int, value: bool) -> None:
        """Set PE ``(row, col)`` to *value* in every lane."""
        at, bit = self._pe(row, col)
        if value:
            self.words[at] |= bit
        else:
            self.words[at] &= ~bit

    def flip_pe(self, row: int, col: int) -> None:
        """Invert PE ``(row, col)`` in every lane."""
        at, bit = self._pe(row, col)
        self.words[at] ^= bit


# ---------------------------------------------------------------------------
# Whole-ring clusters: one gather or one reduce along the raw ring axis
# ---------------------------------------------------------------------------


def _ring_heads(o: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Open count of every ring of a ``(lanes, rows, cols)`` plane stack and
    the raw flat index of one Open node per ring, in (lane, ring) order."""
    lanes, rows, cols = o.shape
    opens = np.flatnonzero(o)
    if axis == -1:
        ring = opens // cols
    else:
        ring = opens // (rows * cols) * cols + opens % cols
    n_rings = lanes * (rows if axis == -1 else cols)
    heads = np.zeros(n_rings, dtype=np.int64)
    heads[ring] = opens
    return np.bincount(ring, minlength=n_rings), heads


def _deliver_rings(vals: np.ndarray, shape: tuple, axis: int) -> np.ndarray:
    """A *shape* array in which every PE of ring ``r`` holds
    ``vals[..., r]``."""
    return np.repeat(np.expand_dims(vals, axis), shape[axis], axis=axis)


@lru_cache(maxsize=16)
def _valid_bits(n: int, word: np.dtype) -> np.ndarray | None:
    """Per-word masks of a packed row's real PEs, or None without padding."""
    if n % 8 == 0:
        return None
    width = 8 * word.itemsize
    count = -(-n // width)
    valid = np.full(count, np.iinfo(word).max, dtype=word)
    valid[-1] >>= width * count - n
    valid.flags.writeable = False
    return valid


def _or_rings(bits: RowBits, axis: int) -> RowBits:
    """Wired-OR of every ring of a packed plane (each ring one cluster),
    delivered to all of its PEs.

    A row ring ORs its row's words into one flag and delivers all-ones or
    all-zeros words; a column ring ORs the words over the rows.
    """
    w = bits.words
    if axis == -2:
        out = np.bitwise_or.reduce(w, axis=-2)
        return RowBits(np.repeat(out[..., None, :], w.shape[-2], axis=-2),
                       bits.n)
    # numpy's reduce along a short last axis pays per row: fold the
    # row's word columns instead.
    acc = w[..., 0]
    if w.shape[-1] > 1:
        acc = acc.copy()
        for k in range(1, w.shape[-1]):
            np.bitwise_or(acc, w[..., k], out=acc)
    flag = (acc != 0).astype(w.dtype)
    np.negative(flag, out=flag)  # 1 -> all ones
    out = flag[..., None]
    if w.shape[-1] > 1:
        out = np.repeat(out, w.shape[-1], axis=-1)
    valid = _valid_bits(bits.n, w.dtype)
    if valid is not None:
        out &= valid
    return RowBits(out, bits.n)


def _reduce_rings(v: np.ndarray, ufunc, axis: int) -> np.ndarray:
    """Reduce every ring along the raw ring *axis* (each ring one cluster)
    and deliver the result to all of its PEs."""
    if ufunc is np.maximum and v.dtype == np.bool_:
        return _or_rings(RowBits.pack(v), axis).unpack()
    return _deliver_rings(ufunc.reduce(v, axis=axis), v.shape, axis)


# ---------------------------------------------------------------------------
# Cluster-start segment fill (any plane)
# ---------------------------------------------------------------------------


def _canonical(a: np.ndarray, direction: Direction, shape: tuple) -> np.ndarray:
    """Contiguous canonical copy (or view) of *a* broadcast to *shape*."""
    return np.ascontiguousarray(
        _to_canonical(np.broadcast_to(a, shape), direction)
    )


def _clusters(oc: np.ndarray) -> tuple:
    """Cluster-start decomposition of canonical rings *oc* (``(R, n)``,
    contiguous).

    The flattened rings are cut into *runs* at every Open node and every
    ring start. Returns ``(starts, lengths, head, tail, undriven)``: flat
    run starts and lengths; ``head``/``tail`` pair each driven ring's
    leading run, when the ring starts on a Short node, with the ring's
    last run — the cluster it wraps into; ``undriven`` marks rings with
    no Open node (one run spanning the whole ring).
    """
    n = oc.shape[-1]
    cut = oc.copy()
    cut[:, 0] = True
    starts = np.flatnonzero(cut)
    lengths = np.diff(starts, append=cut.size)
    first = np.flatnonzero(starts % n == 0)
    last = np.append(first[1:], starts.size) - 1
    short_start = ~oc[:, 0]
    undriven = short_start & (first == last)
    wrap = short_start & ~undriven
    return starts, lengths, first[wrap], last[wrap], undriven


def _fill_broadcast(sc: np.ndarray, cl: tuple) -> np.ndarray:
    """Segment-fill broadcast of canonical values ``sc`` (``(L, R, n)``)
    over the runs *cl* of ``R`` canonical rings, for each of ``L`` lanes."""
    starts, lengths, head, tail, undriven = cl
    source = starts.copy()  # the Open node each run takes its value from
    source[head] = starts[tail]  # a wrapped run joins the ring's last cluster
    flat = sc.reshape(sc.shape[0], -1)
    out = np.repeat(np.take(flat, source, axis=-1), lengths, axis=-1)
    out = out.reshape(sc.shape)
    out[:, undriven] = sc[:, undriven]  # un-driven rings keep their values
    return out


def _fill_reduce(vc: np.ndarray, cl: tuple, ufunc) -> np.ndarray:
    """Segmented reduction of canonical values ``vc`` (``(L, R, n)``) over
    the runs *cl*, delivered to every run member."""
    starts, lengths, head, tail, _undriven = cl
    sums = ufunc.reduceat(vc.reshape(vc.shape[0], -1), starts, axis=-1)
    # A wrapped leading run and its ring's last run are one cluster.
    sums[:, tail] = ufunc(sums[:, head], sums[:, tail])
    sums[:, head] = sums[:, tail]
    return np.repeat(sums, lengths, axis=-1).reshape(vc.shape)


# ---------------------------------------------------------------------------
# Shared-plane plans ``(ring_wise, index, bad_ring)``, cached per plane
#
# ``ring_wise``: every ring is a single cluster, so a broadcast is one
# gather per ring (exactly one Open per ring; ``index`` holds each one's
# raw flat index) and a reduction one ``reduce`` along the raw ring axis
# (at most one Open per ring). Otherwise ``index`` is the plane's
# canonical runs for the segment fill. ``bad_ring`` is the first ring
# without an Open switch (-1: none).
# ---------------------------------------------------------------------------


def _resolve(o: np.ndarray, direction: Direction, kind: str) -> tuple:
    counts, heads = _ring_heads(o[None], _ring_axis(direction))
    bad = _first_bad(counts == 0)
    # Ring-wise: a broadcast needs exactly one Open per ring, a reduction
    # at most one.
    fewest = 1 if kind == "broadcast" else 0
    if ((counts >= fewest) & (counts <= 1)).all():
        return True, heads, bad
    return False, _clusters(_canonical(o, direction, o.shape)), bad


def _stack_runs(o: np.ndarray, direction: Direction, strict: bool,
                what: str) -> tuple:
    """Canonical runs of a per-lane stack, resolved for this call."""
    oc = _canonical(o, direction, o.shape)
    cl = _clusters(oc.reshape(-1, oc.shape[-1]))
    if strict and cl[4].any():
        lane, ring = divmod(_first_bad(cl[4]), oc.shape[-2])
        raise _undriven(what, direction, f"lane {lane} ring {ring}")
    return cl


# ---------------------------------------------------------------------------
# Receiver-only broadcast: ``where (R) x = broadcast(src, direction, D)``
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _upstream_masks(n: int, forward: bool) -> np.ndarray:
    """Packed ``(n, words)`` masks: row ``p`` marks ring positions at or
    upstream of ``p`` (at or below it when downstream is +1)."""
    tri = np.tri(n, dtype=bool)
    masks = RowBits.pack(tri if forward else tri.T).words
    masks.flags.writeable = False
    return masks


def _high_bit(x: np.ndarray) -> np.ndarray:
    """Index of each word's highest set bit (-1 for a zero word).

    ``frexp`` is exact on words of up to 32 bits; 64-bit words are read
    as their two 32-bit halves.
    """
    if x.dtype.itemsize < 8:
        return np.frexp(x.astype(np.float64))[1] - 1
    halves = np.ascontiguousarray(x).view("<u4").astype(np.float64)
    e = np.frexp(halves)[1]
    lo, hi = e[..., 0::2], e[..., 1::2]
    return np.where(hi > 0, hi + 31, lo - 1)


def _nearest_open(words: np.ndarray, pos: np.ndarray,
                    n: int, forward: bool) -> tuple[np.ndarray, np.ndarray]:
    """Ring position of the nearest set bit at-or-upstream of each
    receiver, cyclically, and whether its ring holds one at all.

    *words* are the receivers' ring words (``(..., words)``) and *pos*
    their positions on the ring, counted from the ring's start; the two
    broadcast against each other. An empty ring's position reads -1 or
    another in-ring index; callers drop it.
    """
    near = words & _upstream_masks(n, forward)[pos]
    pick = np.where((near != 0).any(axis=-1, keepdims=True), near, words)
    if pick.shape[-1] == 1:
        k, word = 0, pick[..., 0]
    else:
        nz = pick != 0
        if forward:  # the last nonzero word
            k = nz.shape[-1] - 1 - np.argmax(nz[..., ::-1], axis=-1)
        else:  # the first one
            k = np.argmax(nz, axis=-1)
        word = np.take_along_axis(pick, k[..., None], axis=-1)[..., 0]
    if not forward:  # its lowest set bit
        word = word & np.negative(word)
    return k * (8 * words.itemsize) + _high_bit(word), word != 0


def _latch(s: np.ndarray, opens, receivers: np.ndarray,
           direction: Direction, strict: bool,
           stats: PlanCacheStats | None) -> np.ndarray:
    """Receiver-only :func:`broadcast_values` (see there)."""
    _record(stats, "broadcast", False)  # resolved for this call
    if not isinstance(opens, RowBits):
        opens = RowBits.pack(_switch_stack(opens))
    rings = opens.words
    if direction.axis == 0:  # column rings: pack along the columns
        rings = RowBits.pack(opens.unpack().swapaxes(-1, -2)).words
    if strict:
        undriven = ~np.bitwise_or.reduce(rings, axis=-1).astype(bool)
        if undriven.any():
            bad = _first_bad(undriven)
            where = (f"ring {bad}" if undriven.ndim == 1
                     else "lane {} ring {}".format(*divmod(bad, rings.shape[-2])))
            raise _undriven("broadcast", direction, where)
    shape = np.broadcast_shapes(s.shape, opens.shape, receivers.shape)
    out = np.empty(shape, dtype=s.dtype)
    np.copyto(out, s)
    n = shape[-1]
    # The latching (lane, PE) pairs; a shared plane's receivers broadcast
    # against a column of lanes.
    if receivers.ndim == 3:
        lane, pe = np.divmod(np.flatnonzero(receivers), n * n)
    else:
        pe = np.flatnonzero(receivers)
        lane = np.arange(shape[0] if len(shape) == 3 else 1)[:, None]
    row, col = np.divmod(pe, n)
    ring, pos = (row, col) if direction.axis == 1 else (col, row)
    if rings.ndim == receivers.ndim == 3:
        words = rings[lane, ring]
    else:
        words = np.take(rings, ring, axis=-2)
    head, found = _nearest_open(words, pos, n, direction.is_forward)
    if direction.axis == 1:
        col = head
    else:
        row = head
    vals = s[lane, row, col] if s.ndim == 3 else s[row, col]
    at = pe + lane * (n * n) if len(shape) == 3 else pe
    if not found.all():  # receivers on undriven rings keep their values
        at, vals, found = np.broadcast_arrays(at, vals, found)
        at, vals = at[found], vals[found]
    out.reshape(-1)[at] = vals
    return out


# ---------------------------------------------------------------------------
# Public kernels
# ---------------------------------------------------------------------------


def _switch_stack(open_plane) -> np.ndarray:
    o = np.asarray(open_plane, dtype=bool)
    if o.ndim not in (2, 3):
        raise ValueError(
            f"open_plane must be 2-D or a (B, n, n) stack, got {o.shape}"
        )
    return o


def broadcast_values(
    src: np.ndarray,
    open_plane: np.ndarray | RowBits,
    direction: Direction,
    *,
    receivers: np.ndarray | None = None,
    strict: bool = False,
    stats: PlanCacheStats | None = None,
) -> np.ndarray:
    """Resolve one bus broadcast over the whole grid (all lanes at once).

    Parameters
    ----------
    src
        Per-PE values to (potentially) inject — ``(n, n)`` or a batched
        ``(B, n, n)`` lane stack.
    open_plane
        Boolean grid; ``True`` marks an Open switch-box. Either one shared
        ``(n, n)`` plane (applied to every lane) or a per-lane
        ``(B, n, n)`` stack.
    direction
        Controller-selected data-movement direction.
    receivers
        Optional switch-shaped plane (shared or per-lane) of the PEs that
        latch the bus: ``where (receivers) x = broadcast(src, ...)``.
        Only they are resolved; every other PE keeps ``src``.
        *open_plane* may then be a :class:`RowBits` plane. The call
        consults no plan cache (one miss).
    strict
        If True, a ring with no Open switch raises :class:`BusError`
        (an un-driven bus), whether or not it holds a receiver. If False,
        such rings keep their ``src`` values unchanged (the PE latches its
        own register).
    stats
        Optional per-machine :class:`PlanCacheStats` sink; hit/miss is
        recorded there *and* in the module-wide counters, once per call.

    Returns
    -------
    numpy.ndarray
        ``received[p] = src[head(p)]`` for every PE ``p`` (every receiver,
        when *receivers* is given), where ``head(p)`` is the nearest Open
        node at-or-upstream of ``p`` on its ring (cyclic) — i.e. the
        extreme node of the cluster ``p`` belongs to. Shape is the
        broadcast of the *src*, *open_plane* and *receivers* shapes;
        always a fresh, writable, C-contiguous array.
    """
    s = np.asarray(src)
    if receivers is not None:
        return _latch(s, open_plane, _switch_stack(receivers), direction,
                      strict, stats)
    o = _switch_stack(open_plane)
    axis = _ring_axis(direction)
    if o.ndim == 2:
        ring_wise, index, bad = _cached_plan(
            _broadcast_plans, o, direction, "broadcast", stats
        )
        if strict and bad >= 0:
            raise _undriven("broadcast", direction, f"ring {bad}")
        if ring_wise:
            vals = np.take(s.reshape(*s.shape[:-2], -1), index, axis=-1)
            return _deliver_rings(vals, s.shape, axis)
        sc = _canonical(s, direction, s.shape)
        out = _fill_broadcast(sc.reshape(-1, *sc.shape[-2:]), index)
        return _from_canonical(out.reshape(sc.shape), direction)
    _record(stats, "broadcast", False)
    lanes = o.shape[0]
    if np.count_nonzero(o) == lanes * (o.shape[-2] if axis == -1
                                       else o.shape[-1]):
        counts, heads = _ring_heads(o, axis)
        if (counts == 1).all():  # one Open per ring: one gather per ring
            vals = np.take(s, heads % s.size).reshape(lanes, -1)
            return _deliver_rings(vals, o.shape, axis)
    cl = _stack_runs(o, direction, strict, "broadcast")
    sc = _canonical(s, direction, o.shape)
    out = _fill_broadcast(sc.reshape(1, -1, sc.shape[-1]), cl)
    return _from_canonical(out.reshape(sc.shape), direction)


def segmented_reduce(
    values: np.ndarray | RowBits,
    open_plane: np.ndarray,
    direction: Direction,
    op: ReduceOp,
    *,
    strict: bool = False,
    stats: PlanCacheStats | None = None,
) -> np.ndarray | RowBits:
    """Reduce *values* within each bus cluster; every member gets the result.

    A cluster is an Open node plus the Short nodes downstream of it up to the
    next Open node (cyclic). This models the constant-time wired-OR the
    paper's ``min()``/``selected_min()`` routines rely on, generalised to
    ``and``/``min``/``max``/``sum`` for the extension algorithms.

    Accepts batched ``(B, n, n)`` *values* with a shared 2-D or per-lane
    3-D *open_plane*; all lanes reduce in one pass.

    Rings with no Open switch raise :class:`BusError` when *strict*,
    otherwise every node of such a ring receives the reduction over the
    whole ring (a single de-facto cluster).

    *values* may be a :class:`RowBits` plane for ``op="or"``, the wired-OR
    of 1-bit registers; the result is then packed too. Ring-wise shared
    plans resolve on its words; a segmented plan or a per-lane stack
    unpacks into the segment fill and repacks.
    """
    if op not in _UFUNCS:
        raise ValueError(f"unknown reduction op {op!r}")
    ufunc = _UFUNCS[op]
    packed = isinstance(values, RowBits)
    if packed and op != "or":
        raise ValueError(f"a packed 1-bit plane reduces by 'or', not {op!r}")
    o = _switch_stack(open_plane)
    if o.ndim == 2:
        ring_wise, index, bad = _cached_plan(
            _reduce_plans, o, direction, "reduce", stats
        )
        if strict and bad >= 0:
            raise _undriven("reduce", direction, f"ring {bad}")
        if ring_wise:
            axis = _ring_axis(direction)
            if isinstance(values, RowBits):
                return _or_rings(values, axis)
            return _reduce_rings(np.asarray(values), ufunc, axis)
        v = values.unpack() if isinstance(values, RowBits) else np.asarray(values)
        vc = _canonical(v, direction, v.shape)
        out = _fill_reduce(vc.reshape(-1, *vc.shape[-2:]), index, ufunc)
    else:
        _record(stats, "reduce", False)
        cl = _stack_runs(o, direction, strict, "reduce")
        v = values.unpack() if isinstance(values, RowBits) else np.asarray(values)
        vc = _canonical(v, direction, o.shape)
        out = _fill_reduce(vc.reshape(1, -1, vc.shape[-1]), cl, ufunc)
    out = _from_canonical(out.reshape(vc.shape), direction)
    return RowBits.pack(out) if packed else out


def shift_values(
    src: np.ndarray,
    direction: Direction,
    *,
    torus: bool = True,
    fill=0,
) -> np.ndarray:
    """Nearest-neighbour shift: each PE receives its upstream neighbour's
    value (data moves *downstream*, i.e. ``shift(x, EAST)`` makes column
    ``j`` hold what column ``j-1`` held).

    With ``torus=False`` the array edge feeds in *fill* instead of wrapping.
    Lane stacks ``(B, n, n)`` shift all lanes in one roll.
    """
    s = _to_canonical(np.asarray(src), direction)
    out = np.roll(s, 1, axis=-1)
    if not torus:
        out = out.copy()
        out[..., 0] = fill
    return _from_canonical(out, direction)
