"""Frontier-compacted GC and MIS perf runners against the O(m) loops.

``gc.run_perf`` and ``mis.run_perf`` carry only the edges out of
still-active vertices from round to round, and GC colors a round's
ready vertices in one batched smallest-free-color pass.  The
references below are verbatim copies of the previous loops, which
rescanned all ``m`` edges every round and colored vertex by vertex.
Outputs and the recorded ``AccessStats`` must be identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import gc, mis, verify
from repro.algorithms.common import edge_sources, segment_max
from repro.core.transform import site_kind
from repro.core.variants import Variant, get_algorithm
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.gpu.accesses import AccessKind
from repro.perf.engine import Recorder, algorithm_plan
from repro.perf.visibility import DelayedView

from .reference_recorders import PerCallRecorder


# ----------------------------------------------------------------------
# References: the O(m)-per-round loops, verbatim
# ----------------------------------------------------------------------

def reference_gc(graph, recorder, seed: int = 0) -> dict:
    """Jones-Plassmann coloring with recorded accesses."""
    n = graph.num_vertices
    m = graph.num_edges
    src = edge_sources(graph)
    dst = graph.col_indices.astype(np.int64)
    prio = gc.make_priorities(graph, seed)
    color = np.full(n, gc.UNCOLORED, dtype=np.int64)

    recorder.touch("color", 4 * n)
    recorder.touch("posscol", 4 * n)
    recorder.touch("csr", 4 * m + 8 * (n + 1))
    recorder.store("gc.color.write", count=n)  # init kernel
    recorder.round()

    uncolored = np.ones(n, dtype=bool)
    while np.any(uncolored):
        recorder.round()
        active_src = uncolored[src]
        n_polls = int(np.count_nonzero(active_src))
        n_active = int(np.count_nonzero(uncolored))
        recorder.structure(n_polls)
        # each active vertex polls its neighbors' colors and priorities
        # and maintains its possible-color set
        recorder.load("gc.color.read", count=n_polls)
        recorder.load("gc.prio.read", count=n_polls)
        recorder.load("gc.posscol.read", count=n_active)
        recorder.store("gc.posscol.write", count=n_active)
        recorder.compute(2 * n_polls)

        # blocked: an uncolored higher-priority neighbor exists
        blocking = active_src & uncolored[dst] & (prio[dst] > prio[src])
        blocked = np.zeros(n, dtype=bool)
        np.logical_or.at(blocked, src[blocking], True)
        ready = uncolored & ~blocked
        ready_vs = np.flatnonzero(ready)

        for v in ready_vs.tolist():
            beg, end = graph.row_offsets[v], graph.row_offsets[v + 1]
            neigh_colors = color[dst[beg:end]]
            used = np.unique(neigh_colors[neigh_colors >= 0])
            c = 0
            for u in used.tolist():
                if u == c:
                    c += 1
                elif u > c:
                    break
            color[v] = c
        recorder.store("gc.color.write", indices=ready_vs)
        uncolored[ready_vs] = False
    return {"colors": color}


def reference_mis(graph, recorder, seed: int = 0,
                  stale_fraction: float | None = None) -> dict:
    """Luby MIS with a delayed-visibility baseline."""
    UNDECIDED, IN, OUT = mis.UNDECIDED, mis.IN, mis.OUT
    n = graph.num_vertices
    m = graph.num_edges
    src = edge_sources(graph)
    dst = graph.col_indices.astype(np.int64)
    prio = mis.make_priorities(graph, seed)
    status = np.full(n, UNDECIDED, dtype=np.int8)

    if stale_fraction is None:
        stale_fraction = mis.BASELINE_STALE_FRACTION
    poll_kind = site_kind(recorder.plan, recorder.variant, "mis.nstat.poll")
    if poll_kind is AccessKind.ATOMIC or stale_fraction == 0.0:
        view = DelayedView(status, delay=0)
    else:
        view = DelayedView(status, delay=recorder.visibility_delay(),
                           stale_fraction=stale_fraction,
                           seed=seed)

    recorder.touch("nstat", n)  # one byte per vertex
    recorder.touch("csr", 4 * m + 8 * (n + 1))
    recorder.store("mis.nstat.write", count=n)  # init kernel
    recorder.round()

    while True:
        undecided = status == UNDECIDED
        if not np.any(undecided):
            break
        recorder.round()
        seen = view.read()
        active = undecided[src]
        n_polls = int(np.count_nonzero(active))
        recorder.structure(n_polls)
        recorder.load("mis.nstat.poll", count=n_polls)
        recorder.load("mis.prio.read", count=n_polls)
        recorder.compute(2 * n_polls)

        nbr_status = seen[dst]
        # OUT if any neighbor is (observed to be) IN
        in_nbr = segment_max((nbr_status == IN).astype(np.int64),
                             graph.row_offsets, 0).astype(bool)
        # IN if highest priority among (observed) undecided neighbors
        nbr_prio = np.where(nbr_status == UNDECIDED, prio[dst], -1)
        max_undecided_nbr = segment_max(nbr_prio, graph.row_offsets, -1)
        wins = undecided & ~in_nbr & (prio > max_undecided_nbr)
        outs = undecided & in_nbr

        status[wins] = IN
        status[outs] = OUT
        n_changed = int(np.count_nonzero(wins) + np.count_nonzero(outs))
        recorder.store("mis.nstat.write", count=n_changed)
        view.commit()

    return {"in_set": (status == IN).astype(np.int8)}


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

#: the recorder each ``engine`` parameter records on: ``batched`` is the
#: one buffered :class:`Recorder`, ``interp`` the per-call recorder it
#: replaced (both must count the same)
RECORDERS = {"interp": PerCallRecorder, "batched": Recorder}


def _recorder(key, variant, engine, staleness):
    return RECORDERS[engine](algorithm_plan(get_algorithm(key)), variant,
                             staleness_rounds=staleness)


def _run_both(key, runner, reference, graph, variant, engine, staleness,
              seed, **kwargs):
    """(new output, new stats repr), (reference output, stats repr)."""
    out = []
    for fn in (runner, reference):
        rec = _recorder(key, variant, engine, staleness)
        result = fn(graph, rec, seed, **kwargs)
        out.append((result, repr(rec.stats)))
    return out


def assert_gc_identical(graph, variant, engine, staleness, seed):
    (new, new_stats), (old, old_stats) = _run_both(
        "gc", gc.run_perf, reference_gc, graph, variant, engine,
        staleness, seed)
    assert np.array_equal(new["colors"], old["colors"])
    assert new["colors"].dtype == old["colors"].dtype
    assert new_stats == old_stats


def assert_mis_identical(graph, variant, engine, staleness, seed,
                         stale_fraction):
    (new, new_stats), (old, old_stats) = _run_both(
        "mis", mis.run_perf, reference_mis, graph, variant, engine,
        staleness, seed, stale_fraction=stale_fraction)
    assert np.array_equal(new["in_set"], old["in_set"])
    assert new["in_set"].dtype == old["in_set"].dtype
    assert new_stats == old_stats


@st.composite
def small_graphs(draw):
    """Small undirected CSR graphs: random edges (leaving isolated
    vertices), stars, dense cliques, or all three overlaid."""
    n = draw(st.integers(0, 24))
    shape = draw(st.sampled_from(["random", "star", "clique", "mixed"]))
    edges = []
    if n >= 2:
        vertex = st.integers(0, n - 1)
        if shape in ("random", "mixed"):
            edges += draw(st.lists(st.tuples(vertex, vertex),
                                   max_size=3 * n))
        if shape in ("star", "mixed"):
            hub = draw(vertex)
            leaves = draw(st.lists(vertex, min_size=1, max_size=n,
                                   unique=True))
            edges += [(hub, v) for v in leaves]
        if shape in ("clique", "mixed"):
            members = draw(st.lists(vertex, min_size=2,
                                    max_size=min(n, 10), unique=True))
            edges += [(u, v) for i, u in enumerate(members)
                      for v in members[i + 1:]]
    return CSRGraph.from_edges(n, np.array(edges, dtype=np.int64),
                               directed=False, symmetrize=True)


VARIANTS = pytest.mark.parametrize("variant", list(Variant))
ENGINES = pytest.mark.parametrize("engine", ["interp", "batched"])
STALENESS = pytest.mark.parametrize("staleness", [2, 3])


# ----------------------------------------------------------------------
# Differential properties
# ----------------------------------------------------------------------

@VARIANTS
@ENGINES
@STALENESS
@settings(max_examples=25, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 1000))
def test_gc_matches_reference(graph, seed, variant, engine, staleness):
    assert_gc_identical(graph, variant, engine, staleness, seed)


@VARIANTS
@ENGINES
@STALENESS
@pytest.mark.parametrize("stale_fraction", [None, 0.0])
@settings(max_examples=25, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 1000))
def test_mis_matches_reference(graph, seed, variant, engine, staleness,
                               stale_fraction):
    assert_mis_identical(graph, variant, engine, staleness, seed,
                         stale_fraction)


GENERATED = {
    "uniform": lambda: gen.random_uniform(400, 6.0, seed=7),
    "prefattach": lambda: gen.preferential_attachment(400, 4, seed=7),
    "grid": lambda: gen.grid2d(18),
}


@pytest.mark.parametrize("shape", sorted(GENERATED))
@pytest.mark.parametrize("variant", list(Variant))
def test_generated_graphs_match_reference(shape, variant):
    graph = GENERATED[shape]()
    for staleness in (2, 3):
        assert_gc_identical(graph, variant, "batched", staleness, 5)
        assert_mis_identical(graph, variant, "batched", staleness, 5, None)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 6])
@pytest.mark.parametrize("variant", list(Variant))
def test_edgeless_graphs(n, variant):
    graph = CSRGraph.empty(n)
    for engine in ("interp", "batched"):
        rec = _recorder("gc", variant, engine, 3)
        colors = gc.run_perf(graph, rec, 0)["colors"]
        assert colors.tolist() == [0] * n
        rec = _recorder("mis", variant, engine, 3)
        in_set = mis.run_perf(graph, rec, 0)["in_set"]
        assert in_set.tolist() == [1] * n
        assert_gc_identical(graph, variant, engine, 3, 0)
        assert_mis_identical(graph, variant, engine, 3, 0, None)


def test_smallest_free_colors_empty_round():
    ready = np.arange(4, dtype=np.int64)
    none = np.zeros(0, dtype=np.int64)
    assert gc.smallest_free_colors(none, none, ready, 4).tolist() == [0] * 4
    assert gc.smallest_free_colors(none, none, none, 0).size == 0


def test_smallest_free_colors_first_gap():
    owner = np.array([0, 0, 0, 1, 1, 1, 1, 3, 3], dtype=np.int64)
    nbr_color = np.array([1, 0, 3, 0, 0, 1, 2, 2, -1], dtype=np.int64)
    ready = np.array([0, 1, 2, 3], dtype=np.int64)
    free = gc.smallest_free_colors(owner, nbr_color, ready, 8)
    assert free.tolist() == [2, 3, 0, 0]


def test_star_above_one_word_is_valid_coloring():
    degree = 70
    edges = np.array([(0, v) for v in range(1, degree + 1)], dtype=np.int64)
    star = CSRGraph.from_edges(degree + 1, edges, directed=False,
                               symmetrize=True)
    assert gc.posscol_words(degree) > 2  # the bitset spans > 64 bits
    colors = gc.run_perf(star, _recorder("gc", Variant.BASELINE,
                                         "batched", 3), 0)["colors"]
    verify.check_coloring(star, colors)
    assert_gc_identical(star, Variant.BASELINE, "batched", 3, 0)


def test_clique_colors_exceed_one_word():
    k = 70
    edges = np.array([(u, v) for u in range(k) for v in range(u + 1, k)],
                     dtype=np.int64)
    clique = CSRGraph.from_edges(k, edges, directed=False, symmetrize=True)
    colors = gc.run_perf(clique, _recorder("gc", Variant.RACE_FREE,
                                           "batched", 2), 0)["colors"]
    verify.check_coloring(clique, colors)
    assert sorted(colors.tolist()) == list(range(k))
    assert_gc_identical(clique, Variant.RACE_FREE, "batched", 2, 0)
