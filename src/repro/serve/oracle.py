"""Answer verification: the Bellman fixpoint as a serving invariant.

With non-negative weights the single-destination minimum-cost vector is
the *unique* fixpoint of

    sow[d] = 0
    sow[v] = min_u ( W[v, u] + sow[u] )        for v != d

(the min taken over ``u != v`` — the zero diagonal would otherwise make
any ``sow[v] = 0`` claim self-supporting), so a computed ``(sow, ptn)``
pair can be *proved* correct far cheaper than recomputing it, and
independently of which engine (or which possibly-faulted machine)
produced it. The successor array is held to the same bar: every hop must
be a real edge that closes the cost telescope, and following it must
terminate at the destination — so even a zero-cost cycle of
mutually-supporting wrong claims cannot verify.
:class:`~repro.serve.service.PathQueryService` verifies every computed
answer before caching or serving it; anything that fails is retried down
the degradation ladder or reported as an ``error`` — never served. This
check is what turns the chaos campaign's "0 silent-wrong" acceptance bar
into a structural guarantee.

The minimum runs over the oracle's own :class:`OracleCSR` — the plane's
``m`` off-diagonal entries below MAXINT, derived here from the dense
plane and never from an engine's edge list — and the termination walk
by pointer doubling (``ceil(log2 n)`` squarings of the successor map,
the destination absorbing), so one column costs O(m + n log n). The
service builds the CSR once per graph version and passes it in; without
one, each call builds it from ``W`` in O(n^2).

The functions return a list of human-readable violation strings (empty =
verified), so failures are diagnosable in logs and chaos reports.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["OracleCSR", "oracle_csr", "verify_mcp", "verify_apsp",
           "bellman_reference"]

#: Target byte size of one int64 block of destination columns in
#: :func:`verify_apsp` — ``m x columns`` candidates, ``n x columns``
#: successors; small problems cap it at half an ``n x n`` plane, so the
#: check's memory stays a few ``n x n`` planes at any ``n``.
_BLOCK_BYTES = 1 << 20


class OracleCSR(NamedTuple):
    """A plane's off-diagonal entries below MAXINT, row-major: the first
    hops a fixpoint check minimises over."""

    #: ``(m,)`` first hop ``u`` of each entry.
    cols: np.ndarray
    #: ``(m,)`` weight ``W[v, u]`` of each entry.
    weights: np.ndarray
    #: Rows ``v`` with at least one entry.
    rows: np.ndarray
    #: First entry of each row in ``rows``.
    starts: np.ndarray


def oracle_csr(W: np.ndarray, maxint: int) -> OracleCSR:
    """The :class:`OracleCSR` of *W*, its arrays read-only."""
    W = np.asarray(W, dtype=np.int64)
    n = W.shape[0]
    mask = W < maxint
    np.fill_diagonal(mask, False)
    flat = np.flatnonzero(mask)
    row_of = flat // n
    starts = np.flatnonzero(np.diff(row_of, prepend=-1))
    csr = OracleCSR(flat - row_of * n, np.ravel(W)[flat], row_of[starts],
                    starts)
    for array in csr:
        array.flags.writeable = False
    return csr


def _fixpoint(csr: OracleCSR, dist: np.ndarray, maxint: int) -> np.ndarray:
    """``min over u != v of sat(W[v, u] + dist[u])`` for every row ``v``.

    *dist* is one ``(n,)`` column or an ``(n, k)`` block of columns. A
    candidate through an infinite leg (``dist[u] >= maxint``) is
    ``maxint``, and so is the minimum of a row without entries.
    """
    out = np.full(dist.shape, maxint, dtype=np.int64)
    if csr.cols.size:
        cand = dist[csr.cols]
        infinite = cand >= maxint
        cand += csr.weights.reshape((-1,) + (1,) * (dist.ndim - 1))
        np.minimum(cand, maxint, out=cand)
        np.putmask(cand, infinite, maxint)
        out[csr.rows] = np.minimum.reduceat(cand, csr.starts, axis=0)
    return out


def _walk_ends(nxt: np.ndarray) -> np.ndarray:
    """Where a walker on each vertex stands after at least ``n`` steps of
    the successor map *nxt* (``(n,)``, or ``(n, k)`` with one map per
    column): ``ceil(log2 n)`` squarings."""
    for _ in range((nxt.shape[0] - 1).bit_length()):
        nxt = np.take_along_axis(nxt, nxt, axis=0)
    return nxt


def _min_plus_column(W: np.ndarray, sow: np.ndarray, maxint: int,
                     *, off_diagonal: bool = False) -> np.ndarray:
    """One dense min-plus relaxation of ``sow`` through ``W``, saturated.

    With ``off_diagonal=True`` the min excludes ``u == v``. Including the
    zero diagonal is fine for *relaxation* (``W[v,v] + sow[v]`` never
    improves anything) but fatal for *verification*: it makes
    ``min_u(W[v,u] + sow[u]) <= sow[v]`` hold trivially, so an
    underestimating ``sow`` would pass the fixpoint equality.
    """
    cand = W.astype(np.int64) + sow[np.newaxis, :]
    np.minimum(cand, maxint, out=cand)
    # entries where either leg is "infinite" must stay infinite
    cand[(W >= maxint) | (sow[np.newaxis, :] >= maxint)] = maxint
    if off_diagonal:
        n = W.shape[0]
        cand[np.arange(n), np.arange(n)] = maxint
    return np.minimum(cand.min(axis=1), maxint)


def verify_mcp(
    W: np.ndarray,
    sow: np.ndarray,
    ptn: np.ndarray,
    d: int,
    maxint: int,
    *,
    csr: OracleCSR | None = None,
) -> list[str]:
    """Violations of the Bellman fixpoint for one destination (empty=ok).

    Checks, in order: the destination's zero; saturation discipline (all
    costs in ``[0, maxint]``); the fixpoint equation at every vertex; and
    successor consistency — for every reachable non-destination vertex
    ``v``, ``sow[v] == W[v, ptn[v]] + sow[ptn[v]]`` with a reachable
    successor, so the returned *paths* (not just the costs) are optimal.
    *csr* is :func:`oracle_csr` of *W*, built here when not given.
    """
    W = np.asarray(W, dtype=np.int64)
    sow = np.asarray(sow, dtype=np.int64)
    ptn = np.asarray(ptn, dtype=np.int64)
    n = W.shape[0]
    problems: list[str] = []
    if sow.shape != (n,) or ptn.shape != (n,):
        return [f"shape mismatch: W {W.shape}, sow {sow.shape}, "
                f"ptn {ptn.shape}"]
    if not 0 <= d < n:
        return [f"destination {d} out of range for n={n}"]
    if sow[d] != 0:
        problems.append(f"sow[{d}] = {int(sow[d])}, expected 0")
    if (sow < 0).any() or (sow > maxint).any():
        problems.append("sow leaves [0, maxint]")
        return problems
    if csr is None:
        csr = oracle_csr(W, maxint)
    expected = _fixpoint(csr, sow, maxint)
    expected[d] = 0
    bad = np.flatnonzero(expected != sow)
    for v in bad[:4]:
        problems.append(
            f"fixpoint violated at {int(v)}: sow={int(sow[v])}, "
            f"min-plus={int(expected[v])}"
        )
    if bad.size > 4:
        problems.append(f"... and {int(bad.size) - 4} more fixpoint "
                        "violations")
    reachable = sow < maxint
    via = np.flatnonzero(reachable & (np.arange(n) != d))
    if via.size:
        succ = ptn[via]
        if (succ < 0).any() or (succ >= n).any():
            problems.append("ptn points outside the vertex range")
        else:
            edge = W[via, succ]
            hop_ok = (
                (succ != via)  # self-loops prove nothing
                & (edge < maxint)
                & (sow[succ] < maxint)
                & (sow[via] == edge + sow[succ])
            )
            bad_hop = np.flatnonzero(~hop_ok)
            if bad_hop.size:
                v = int(via[bad_hop[0]])
                problems.append(
                    f"ptn inconsistent at {v}: sow={int(sow[v])} != "
                    f"W[v,ptn]+sow[ptn] ({int(bad_hop.size)} such)"
                )
            elif not problems:
                # every hop telescopes, so if the walk also *terminates*
                # at d the claimed costs are achievable path costs; a
                # cycle here would mean mutually-supporting wrong claims
                nxt = np.arange(n)
                nxt[via] = succ
                stuck = np.flatnonzero(reachable & (_walk_ends(nxt) != d))
                if stuck.size:
                    problems.append(
                        f"ptn cycles without reaching {d} from "
                        f"{int(stuck[0])} ({int(stuck.size)} such)"
                    )
    return problems


def verify_apsp(
    W: np.ndarray,
    dist: np.ndarray,
    succ: np.ndarray,
    maxint: int,
    *,
    csr: OracleCSR | None = None,
) -> list[str]:
    """Bellman-fixpoint verification of a full APSP solution (empty=ok).

    The checks of :func:`verify_mcp`, on every column, run over blocks
    of destination columns sized so one ``m x columns`` candidate block
    stays near 1 MiB: O(n m) work in O(n^2) memory. Successor
    consistency is checked on every reachable off-diagonal pair. *csr*
    is :func:`oracle_csr` of *W*, built here when not given.
    """
    W = np.asarray(W, dtype=np.int64)
    dist = np.asarray(dist, dtype=np.int64)
    succ = np.asarray(succ, dtype=np.int64)
    n = W.shape[0]
    problems: list[str] = []
    if dist.shape != (n, n) or succ.shape != (n, n):
        return [f"shape mismatch: W {W.shape}, dist {dist.shape}"]
    if (np.diagonal(dist) != 0).any():
        problems.append("diagonal of dist is not zero")
    if (dist < 0).any() or (dist > maxint).any():
        problems.append("dist leaves [0, maxint]")
        return problems
    if csr is None:
        csr = oracle_csr(W, maxint)
    block = min(_BLOCK_BYTES, 4 * n * n)
    width = max(1, block // (8 * max(n, csr.cols.size)))
    rows = np.arange(n)[:, np.newaxis]
    mismatch = np.zeros((n, n), dtype=bool)
    hop_bad = np.zeros((n, n), dtype=bool)
    stuck = np.zeros((n, n), dtype=bool)
    outside = False
    for d0 in range(0, n, width):
        cols = slice(d0, min(n, d0 + width))
        dests = np.arange(n)[np.newaxis, cols]
        dist_c = dist[:, cols]
        diagonal = rows == dests
        # Fixpoint: the min over first hops u != v (see verify_mcp on why
        # the zero diagonal must be excluded).
        expected = _fixpoint(csr, dist_c, maxint)
        np.putmask(expected, diagonal, 0)
        mismatch[:, cols] = expected != dist_c
        pairs = (dist_c < maxint) & ~diagonal
        s = succ[:, cols]
        if (pairs & ((s < 0) | (s >= n))).any():
            outside = True
            continue
        s = np.where(pairs, s, rows)
        edge = W[rows, s]
        tail = np.take_along_axis(dist_c, s, axis=0)
        ok = (s != rows) & (edge < maxint) & (tail < maxint) & (
            dist_c == edge + tail
        )
        hop_bad[:, cols] = pairs & ~ok
        # per-column successor walks must all reach the diagonal
        stuck[:, cols] = pairs & (_walk_ends(s) != dests)
    count = int(np.count_nonzero(mismatch))
    for k in np.flatnonzero(mismatch)[:4]:
        v, d = divmod(int(k), n)
        want = 0 if v == d else int(_fixpoint(csr, dist[:, d], maxint)[v])
        problems.append(
            f"fixpoint violated at ({v} -> {d}): "
            f"dist={int(dist[v, d])}, min-plus={want}"
        )
    if count > 4:
        problems.append(f"... and {count - 4} more fixpoint violations")
    if outside:
        problems.append("succ points outside the vertex range")
    elif hop_bad.any():
        v, d = divmod(int(np.argmax(hop_bad)), n)
        problems.append(f"succ inconsistent at ({v} -> {d})")
    elif not problems and stuck.any():
        v, d = divmod(int(np.argmax(stuck)), n)
        problems.append(
            f"succ cycles without reaching the destination "
            f"({v} -> {d}, {int(np.count_nonzero(stuck))} such)"
        )
    return problems


def bellman_reference(W: np.ndarray, d: int, maxint: int) -> np.ndarray:
    """Plain-numpy Bellman-Ford costs to ``d`` (load-generator oracle)."""
    W = np.asarray(W, dtype=np.int64)
    n = W.shape[0]
    sow = np.full(n, maxint, dtype=np.int64)
    sow[d] = 0
    for _ in range(n):
        relaxed = _min_plus_column(W, sow, maxint)
        relaxed[d] = 0
        nxt = np.minimum(sow, relaxed)
        if np.array_equal(nxt, sow):
            break
        sow = nxt
    return sow
