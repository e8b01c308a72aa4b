"""Weight-matrix conventions and validation.

The algorithm's input is the paper's matrix ``W``: ``w[i, j]`` is the weight
of the directed edge ``i -> j``, ``MAXINT`` (all-ones machine word) where no
edge exists. Library users may supply ``float('inf')``/:data:`INF` or any
explicit sentinel; :func:`normalize_weights` maps it onto the machine word
and enforces the preconditions identified in DESIGN.md:

* square matrix matching the machine grid;
* **zero diagonal** (``w[i, i] = 0``) — statement 16 of the listing
  overwrites the d-row SOW without re-minimising against the old value, and
  only the zero-cost self edge re-injects the previously found path;
* non-negative integer weights fitting the word, with enough headroom that
  no *finite* shortest path saturates at ``MAXINT`` (which would silently
  alias it with "unreachable").
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError, WordWidthError
from repro.ppa.machine import PPAMachine

__all__ = ["INF", "normalize_weights", "max_finite_weight",
           "check_word_headroom"]

INF = float("inf")
"""Convenience sentinel accepted (alongside ``machine.maxint``) for
"no edge" entries in user-supplied weight matrices."""


def normalize_weights(
    W,
    machine: PPAMachine,
    *,
    zero_diagonal: str = "require",
    check_headroom: bool = True,
) -> np.ndarray:
    """Validate *W* and return its machine representation (int64 grid).

    Parameters
    ----------
    W
        ``n x n`` array-like. Entries may be non-negative integers,
        ``float('inf')`` / ``numpy.inf`` for missing edges, or already the
        machine's ``maxint`` sentinel.
    machine
        Target machine; fixes the grid size and ``MAXINT``.
    zero_diagonal
        ``"require"`` raises unless the diagonal is all zeros (after sentinel
        mapping); ``"set"`` silently forces it to zero; ``"keep"`` trusts the
        caller (only for tests probing the failure mode).
    check_headroom
        When True (default), reject weight ranges for which a finite
        ``n-1``-edge path could reach ``MAXINT`` — saturation would alias a
        real path with "unreachable".

    Returns
    -------
    numpy.ndarray
        A fresh ``int64`` grid with ``maxint`` sentinels, safe to hand to
        :func:`~repro.core.mcp.minimum_cost_path`.
    """
    arr = np.asarray(W)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise GraphError(f"weight matrix must be square, got shape {arr.shape}")
    machine.require_square_fit(arr.shape[0])

    maxint = machine.maxint
    if np.issubdtype(arr.dtype, np.floating):
        finite = np.isfinite(arr)
        if finite.any():
            fin_vals = arr[finite]
            if (fin_vals < 0).any():
                raise GraphError("edge weights must be non-negative")
            if not np.array_equal(fin_vals, np.round(fin_vals)):
                raise GraphError(
                    "edge weights must be integers (the PPA word is an "
                    "integer; pre-scale fractional weights)"
                )
        out = np.full(arr.shape, maxint, dtype=np.int64)
        out[finite] = arr[finite].astype(np.int64)
    elif np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_:
        out = arr.astype(np.int64)
    else:
        raise GraphError(f"unsupported weight dtype {arr.dtype}")

    if (out < 0).any():
        raise GraphError("edge weights must be non-negative")
    if (out > maxint).any():
        raise WordWidthError(
            f"weights exceed MAXINT={maxint} for word_bits="
            f"{machine.word_bits}"
        )

    diag = np.einsum("ii->i", out)
    if zero_diagonal == "set":
        diag[...] = 0
    elif zero_diagonal == "require":
        if (diag != 0).any():
            bad = int(np.flatnonzero(diag != 0)[0])
            raise GraphError(
                f"w[{bad}, {bad}] = {int(diag[bad])}: the diagonal must be "
                "zero (see DESIGN.md, 'Zero diagonal'); pass "
                "zero_diagonal='set' to normalise automatically"
            )
    elif zero_diagonal != "keep":
        raise GraphError(f"unknown zero_diagonal mode {zero_diagonal!r}")

    if check_headroom:
        check_word_headroom(out.shape[0], max_finite_weight(out, maxint),
                            maxint)
    return out


def check_word_headroom(n: int, wmax: int, maxint: int) -> None:
    """Raise :class:`WordWidthError` unless an ``n-1``-edge path of
    weight-*wmax* edges stays below ``MAXINT`` (saturation would alias a
    real cost with "unreachable")."""
    if wmax > 0 and (n - 1) * wmax >= maxint:
        raise WordWidthError(
            f"a {n - 1}-edge path of weight-{wmax} edges would reach "
            f"MAXINT={maxint}; increase word_bits (need > "
            f"{int(np.ceil(np.log2((n - 1) * wmax + 2)))}) or rescale "
            "weights"
        )


def max_finite_weight(W: np.ndarray, maxint: int) -> int:
    """Largest non-sentinel weight in *W* (0 for an edgeless graph)."""
    finite = W[W < maxint]
    return int(finite.max()) if finite.size else 0
