"""The recorder against the per-call recorders it replaced.

:class:`repro.perf.engine.Recorder` buffers bucket increments in a
scratch vector, resolves each site once, counts contention with
``np.bincount`` and keeps per-site tallies.  The references, in
``tests/reference_recorders.py``, are the earlier per-call recorder and
per-site profiling recorder.  On
generated graphs both must see the same run: identical
``AccessStats`` (contended atomics included), staleness consumption,
output fingerprint and per-site traffic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transform import plan_for
from repro.core.variants import Variant, get_algorithm
from repro.gpu.accesses import AccessKind
from repro.graphs.csr import CSRGraph
from repro.memmodel.models import resolve_model
from repro.perf.engine import Recorder, algorithm_plan
from repro.perf.profiler import SiteTraffic
from repro.perf.trace import output_fingerprint

from .reference_recorders import PerCallRecorder, PerCallSiteRecorder


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

@st.composite
def small_graphs(draw, directed: bool):
    """Small CSR graphs: random edges (leaving isolated vertices and
    self-loops), stars, and cliques, overlaid at random."""
    n = draw(st.integers(0, 16))
    edges = []
    if n >= 2:
        vertex = st.integers(0, n - 1)
        edges += draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
        if draw(st.booleans()):
            hub = draw(vertex)
            leaves = draw(st.lists(vertex, min_size=1, max_size=n,
                                   unique=True))
            edges += [(hub, v) for v in leaves]
        if draw(st.booleans()):
            members = draw(st.lists(vertex, min_size=2,
                                    max_size=min(n, 8), unique=True))
            edges += [(u, v) for i, u in enumerate(members)
                      for v in members[i + 1:]]
    return CSRGraph.from_edges(n, np.array(edges, dtype=np.int64),
                               directed=directed, symmetrize=not directed)


def _record(recorder_cls, algo, plan, graph, variant, staleness, seed):
    rec = recorder_cls(plan, variant, staleness_rounds=staleness)
    output = algo.perf_runner(graph, rec, seed)
    return rec, output_fingerprint(output)


def assert_matches_reference(key, graph, variant, staleness, seed,
                             memory_model=None):
    algo = get_algorithm(key)
    plan = algorithm_plan(algo)
    if memory_model is not None:
        plan = resolve_model(memory_model).apply_to_plan(plan)
    new, new_fp = _record(Recorder, algo, plan, graph, variant, staleness,
                          seed)
    ref, ref_fp = _record(PerCallSiteRecorder, algo, plan, graph, variant,
                          staleness, seed)
    assert new.stats == ref.stats  # every bucket, contended_atomics too
    assert repr(new.stats) == repr(ref.stats)
    assert new.staleness_consulted == ref.staleness_consulted
    assert new_fp == ref_fp
    assert [(name, t.kind, t.loads, t.stores, t.rmws)
            for name, t in new.sites.items()] == [
        (name, t.kind, t.loads, t.stores, t.rmws)
        for name, t in ref.sites.items()]


KEYS = ["cc", "gc", "mis", "mst", "scc", "apsp"]


# ----------------------------------------------------------------------
# Differential properties
# ----------------------------------------------------------------------

@pytest.mark.parametrize("staleness", [2, 3])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("key", KEYS)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 1000))
def test_recorder_matches_per_call_reference(key, variant, staleness,
                                             data, seed):
    directed = get_algorithm(key).directed
    graph = data.draw(small_graphs(directed), label="graph")
    assert_matches_reference(key, graph, variant, staleness, seed)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("key", KEYS)
def test_fixture_graphs_match_reference(key, variant, tiny_graph,
                                        tiny_directed):
    graph = tiny_directed if get_algorithm(key).directed else tiny_graph
    assert_matches_reference(key, graph, variant, 2, 3)


@pytest.mark.parametrize("model", ["ptx:acq_rel", "sc"])
@pytest.mark.parametrize("key", KEYS)
def test_model_priced_plans_match_reference(key, model, tiny_graph,
                                            tiny_directed):
    """Plans lifted to acquire/release or seq_cst exercise the order
    weights the relaxed default plans never reach."""
    graph = tiny_directed if get_algorithm(key).directed else tiny_graph
    for variant in Variant:
        assert_matches_reference(key, graph, variant, 3, 1,
                                 memory_model=model)


def test_contention_totals_equal_on_adversarial_indices():
    """np.bincount and np.unique collision counting agree, on both the
    dense-window fast path and the sparse fallback, and the totals
    reach AccessStats through atomic stores and RMWs alike."""
    plan = algorithm_plan(get_algorithm("cc"))
    atomic = next(s.name for s in plan_for(plan, Variant.RACE_FREE).sites
                  if s.kind is AccessKind.ATOMIC and s.is_store)
    for indices in (
        np.zeros(64, dtype=np.int64),                  # total pile-up
        np.arange(64, dtype=np.int64),                 # no collisions
        np.arange(64, dtype=np.int64) % 7,             # dense window
        np.arange(64, dtype=np.int64) * 10 ** 7,       # sparse fallback
        np.array([5], dtype=np.int64),                 # single access
        np.array([], dtype=np.int64),                  # empty stream
    ):
        recs = [cls(plan, Variant.RACE_FREE, staleness_rounds=2)
                for cls in (Recorder, PerCallRecorder)]
        assert recs[0]._contention(indices) == recs[1]._contention(indices)
        for rec in recs:
            rec.store(atomic, indices=indices)
            rec.rmw(atomic, indices=indices)
            rec.round()
        assert recs[0].stats == recs[1].stats


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=80),
       st.integers(0, 2 ** 40))
def test_contention_matches_unique_on_generated_indices(values, shift):
    plan = algorithm_plan(get_algorithm("cc"))
    idx = np.array(values, dtype=np.int64) % (shift + 1)
    new = Recorder(plan, Variant.BASELINE, staleness_rounds=2)
    ref = PerCallRecorder(plan, Variant.BASELINE, staleness_rounds=2)
    assert new._contention(idx) == ref._contention(idx)


def test_site_tallies_are_floats_and_whole():
    """Tallies are float counters; the profiler's int conversion
    (:func:`_whole`) rejects a fractional count when it builds
    :class:`SiteTraffic`."""
    plan = algorithm_plan(get_algorithm("cc"))
    rec = Recorder(plan, Variant.BASELINE, staleness_rounds=2)
    rec.load("cc.label.jump_read", count=3)
    rec.load("cc.label.jump_read", indices=np.arange(4))
    tally = rec.sites["cc.label.jump_read"]
    assert tally.loads == 7.0 and type(tally.loads) is float
    assert SiteTraffic.from_tally("cc.label.jump_read", tally).loads == 7
    rec.store("cc.label.jump_write", count=0.5)
    with pytest.raises(ValueError, match="non-integral"):
        SiteTraffic.from_tally("cc.label.jump_write",
                               rec.sites["cc.label.jump_write"])
