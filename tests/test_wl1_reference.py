"""1-WL color refinement against the tuple-based loop it replaced.

_reference_refine_vertex_colors builds one Python tuple per vertex and
round, (color, sorted out-neighbor colors, sorted in-neighbor colors), and
numbers the distinct tuples in sorted order. wl1 must return exactly its
ids, and wl1_distinguishes its verdict on the disjoint union. The graphs
and digraphs have up to 300 vertices, so rounds run past one 64-row block
and ids past 255 show a key whose bytes do not sort as its integers do.
The pairs are random, relabelled isomorphic copies, and the family graph
with the grid.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dezawl import Graph, grid_graph, wl1, wl1_distinguishes
from test_graph_pins import _family
from test_graph_properties import kind_graphs

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
SIZES = st.integers(0, 300)


def _reference_refine_vertex_colors(out_nbrs: list[list[int]]) -> list[int]:
    """wl1 of the digraph with the given out-neighbor lists."""
    n = len(out_nbrs)
    colors = [0] * n
    in_nbrs: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in out_nbrs[u]:
            in_nbrs[v].append(u)
    while True:
        sigs = [
            (
                colors[u],
                tuple(sorted(colors[v] for v in out_nbrs[u])),
                tuple(sorted(colors[v] for v in in_nbrs[u])),
            )
            for u in range(n)
        ]
        ordering = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new_colors = [ordering[s] for s in sigs]
        if len(ordering) == len(set(colors)):
            return new_colors
        colors = new_colors


def _reference_wl1(g: Graph) -> list[int]:
    return _reference_refine_vertex_colors([g.neighbors(u) for u in range(g.n)])


def _reference_distinguishes(g1: Graph, g2: Graph) -> bool:
    n = g1.n
    union = [g1.neighbors(u) for u in range(n)]
    union += [[v + n for v in g2.neighbors(u)] for u in range(n)]
    colors = _reference_refine_vertex_colors(union)
    return sorted(colors[:n]) != sorted(colors[n:])


def _union(g1: Graph, g2: Graph) -> Graph:
    """The disjoint union, g2 shifted past the vertices of g1."""
    arcs = g1.edges() + [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    return Graph.from_edges(g1.n + g2.n, arcs, g1.directed)


@st.composite
def graphs(draw, directed):
    """A graph of one of the property kinds on at most 300 vertices, or its
    disjoint union with one on at most 80."""
    g = draw(kind_graphs(SIZES, directed))
    if draw(st.integers(0, 3)) == 0:
        g = _union(g, draw(kind_graphs(st.integers(0, 80), directed)))
    return g


@st.composite
def graph_pairs(draw, directed):
    """Two graphs on one vertex count, the second drawn independently."""
    g1 = draw(graphs(directed))
    return g1, draw(kind_graphs(st.just(g1.n), directed))


@st.composite
def relabelled_pairs(draw, directed):
    """A graph and an isomorphic copy under a random relabelling."""
    g = draw(graphs(directed))
    perm = draw(st.permutations(range(g.n)))
    return g, Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()], directed)


@PROPERTY
@given(st.one_of(graphs(False), graphs(True)))
def test_wl1_ids_equal_the_reference(g):
    assert wl1(g) == _reference_wl1(g)


@PROPERTY
@given(st.one_of(graph_pairs(False), graph_pairs(True)))
def test_wl1_distinguishes_equals_the_reference(pair):
    assert wl1_distinguishes(*pair) == _reference_distinguishes(*pair)


@PROPERTY
@given(st.one_of(relabelled_pairs(False), relabelled_pairs(True)))
def test_wl1_never_distinguishes_a_relabelled_copy(pair):
    assert wl1_distinguishes(*pair) is False
    assert _reference_distinguishes(*pair) is False


@pytest.mark.parametrize("k", range(3, 9))
def test_family_and_grid_verdict_equals_the_reference(k):
    gamma, grid = _family(k), grid_graph(4, 2 * k)
    assert wl1_distinguishes(gamma, grid) is _reference_distinguishes(gamma, grid) is False
