"""Seeded inputs: the undirected suite, regenerated per benchmark seed.

Seed 0 reproduces :data:`repro.graphs.suite.UNDIRECTED_SUITE` exactly
(same generator calls, same generator seeds).  Any other seed keeps each
recipe's generator, degree regime and size, and shifts only the
generator seed, so the suite's size order and structure classes stay
those of Table II while the graphs themselves change.  The 2-D grid has
no randomness and is the same graph for every seed.
"""

from __future__ import annotations

from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.graphs.suite import _scale_bits, _sz, suite_names

#: added to every generator seed per unit of benchmark seed (a prime,
#: so shifted seeds never land on another recipe's canonical seed)
SEED_STRIDE = 7919


def _recipes(scale: float, shift: int):
    """(name, builder) pairs mirroring UNDIRECTED_SUITE's lambdas."""
    s = scale

    def sd(base: int) -> int:
        return base + shift

    return (
        ("2d-2e20.sym", lambda: gen.grid2d(
            max(16, int(64 * s ** 0.5)), name="2d-2e20.sym")),
        ("amazon0601", lambda: gen.preferential_attachment(
            _sz(1576, s), 6, seed=sd(601), name="amazon0601")),
        ("as-skitter", lambda: gen.web_graph(
            _sz(6627, s), 13.1, seed=sd(71), name="as-skitter")),
        ("citationCiteseer", lambda: gen.preferential_attachment(
            _sz(1049, s), 4, seed=sd(17), name="citationCiteseer")),
        ("cit-Patents", lambda: gen.preferential_attachment(
            _sz(14745, s), 4, seed=sd(23), name="cit-Patents")),
        ("coPapersDBLP", lambda: gen.copaper_graph(
            _sz(2111, s), 56.4, seed=sd(31), name="coPapersDBLP")),
        ("delaunay_n24", lambda: gen.delaunay(
            _sz(65536, s), seed=sd(24), name="delaunay_n24")),
        ("europe_osm", lambda: gen.roadmap(
            _sz(98304, s), seed=sd(37), extra_fraction=0.03,
            name="europe_osm")),
        ("in-2004", lambda: gen.web_graph(
            _sz(5402, s), 19.7, seed=sd(41), name="in-2004")),
        ("internet", lambda: gen.internet_topology(
            _sz(512, s), seed=sd(43), name="internet")),
        ("kron_g500-logn21", lambda: gen.kronecker(
            13 + _scale_bits(s), 43, seed=sd(47), name="kron_g500-logn21")),
        ("r4-2e23.sym", lambda: gen.random_uniform(
            _sz(32768, s), 8.0, seed=sd(53), name="r4-2e23.sym")),
        ("rmat16.sym", lambda: gen.rmat(
            9 + _scale_bits(s), 8, seed=sd(59), name="rmat16.sym")),
        ("rmat22.sym", lambda: gen.rmat(
            14 + _scale_bits(s), 8, seed=sd(61), name="rmat22.sym")),
        ("soc-LiveJournal1", lambda: gen.community_graph(
            _sz(18935, s), 17.7, 96, seed=sd(67), name="soc-LiveJournal1")),
        ("USA-road-d.NY", lambda: gen.roadmap(
            _sz(1032, s), seed=sd(73), extra_fraction=0.35,
            name="USA-road-d.NY")),
        ("USA-road-d.USA", lambda: gen.roadmap(
            _sz(93544, s), seed=sd(79), extra_fraction=0.15,
            name="USA-road-d.USA")),
    )


def suite_builders(seed: int, scale: float):
    """(name, zero-argument builder) for every undirected suite input."""
    recipes = _recipes(scale, SEED_STRIDE * seed)
    if [name for name, _ in recipes] != suite_names(directed=False):
        raise RuntimeError("perfbench recipes no longer mirror "
                           "repro.graphs.suite.UNDIRECTED_SUITE")
    return recipes


def build_suite(seed: int, scale: float) -> list[CSRGraph]:
    """The undirected suite for ``seed``, as CSRGraph objects."""
    return [build() for _, build in suite_builders(seed, scale)]
