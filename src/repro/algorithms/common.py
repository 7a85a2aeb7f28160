"""Shared vectorized-CSR helpers for the performance-level runners."""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph


def edge_sources(graph: CSRGraph) -> np.ndarray:
    """Per-edge source vertex (parallel to ``graph.col_indices``)."""
    return np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), graph.degrees()
    )


def compact_edges(keep: np.ndarray, *edge_arrays: np.ndarray) -> tuple:
    """Filter edge-parallel arrays to the edges where ``keep`` is set.

    The frontier idiom of the round-based runners: carrying only the
    edges whose source is still active makes a round cost O(active
    edges) instead of O(m).  Order is preserved, so a sorted source
    array stays sorted (see :func:`edge_offsets`).
    """
    return tuple(a[keep] for a in edge_arrays)


def edge_offsets(src: np.ndarray, n: int) -> np.ndarray:
    """CSR row offsets of a sorted, possibly compacted, source array."""
    return np.searchsorted(src, np.arange(n + 1))


def segment_max(values: np.ndarray, row_offsets: np.ndarray,
                empty: int) -> np.ndarray:
    """Per-vertex max of edge-parallel ``values``; ``empty`` for
    zero-degree vertices."""
    n = row_offsets.shape[0] - 1
    out = np.full(n, empty, dtype=values.dtype)
    starts = row_offsets[:-1]
    nonempty = row_offsets[1:] > starts
    if values.shape[0]:
        reduced = np.maximum.reduceat(values, starts[nonempty])
        out[nonempty] = reduced
    return out


def segment_min(values: np.ndarray, row_offsets: np.ndarray,
                empty: int) -> np.ndarray:
    """Per-vertex min of edge-parallel ``values``."""
    n = row_offsets.shape[0] - 1
    out = np.full(n, empty, dtype=values.dtype)
    starts = row_offsets[:-1]
    nonempty = row_offsets[1:] > starts
    if values.shape[0]:
        reduced = np.minimum.reduceat(values, starts[nonempty])
        out[nonempty] = reduced
    return out


def segment_any(flags: np.ndarray, row_offsets: np.ndarray) -> np.ndarray:
    """Per-vertex OR of edge-parallel boolean ``flags``."""
    return segment_max(flags.astype(np.int8), row_offsets, 0).astype(bool)


def recorded_roots(parent: np.ndarray, starts: np.ndarray, recorder,
                   read_site: str, write_site: str | None = None) -> np.ndarray:
    """Union-find root resolution with per-entry access counting.

    Mirrors a per-thread ``find`` loop: every entry loads parent
    pointers until it sees a self-parent, optionally storing a
    compression shortcut per jump (``write_site``).  Entries whose path
    is already flat cost two loads; only entries still walking keep
    generating traffic — this is exactly how implicit path compression
    keeps ECL-MST's racy-access count low (Section VI.A).

    ``parent`` itself is not modified (compression is applied by the
    caller where the algorithm does it).
    """
    starts = np.asarray(starts)
    out = parent[starts]
    recorder.load(read_site, count=int(out.size))  # load parent[x]
    active = np.flatnonzero(out != starts)         # parent[x] == x: done
    while active.size:
        cur = out[active]
        nxt = parent[cur]
        recorder.load(read_site, count=int(active.size))
        moved = nxt != cur
        n_moved = int(np.count_nonzero(moved))
        if n_moved and write_site is not None:
            # compression shortcut stored per successful jump
            recorder.store(write_site, count=n_moved)
        out[active] = nxt
        active = active[moved]
    return out


def pointer_jump(parent: np.ndarray) -> tuple[np.ndarray, int]:
    """Fully compress a parent forest via repeated ``p = p[p]``.

    Returns the compressed array and the number of jump passes — the
    access count driver for the union-find codes.
    """
    passes = 0
    while True:
        grand = parent[parent]
        passes += 1
        if np.array_equal(grand, parent):
            return parent, passes
        parent = grand
