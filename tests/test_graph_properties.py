"""Property tests of the graph layer's exact float32 products.

Random graphs and digraphs on at most 40 vertices, including empty,
complete, disconnected, path-like and Cayley graphs, must give the same
common-neighbor counts as an int64 loop, the same diameter as a
breadth-first search, and the same Deza and divisible-design outcomes as
the pair-by-pair loops of test_graph_pins. On 65 to 160 vertices, past one
64-row block of a diameter step, and on 530 vertices, where a step takes
blocks of n // 8 rows and a shorter last one, the diameter must still equal
the search.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dezawl import Graph, ddg_check, deza_parameters, diameter
from dezawl.graphs import _common_neighbor_counts
from test_graph_pins import (
    _ddg_outcome,
    _deza_outcome,
    _family,
    _random_cayley,
    _reference_ddg,
    _reference_deza,
    _reference_diameter,
)

MAX_N = 40
KINDS = ["gnp", "empty", "complete", "path", "cycle", "circulant", "two-circulants"]

# Derandomized so the suite gives the same verdict on every run.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _gnp_arcs(n, directed, p, rng):
    """Each arc (u, v), u != v, or each pair u < v, with probability p."""
    return [(u, v) for u in range(n) for v in range(n)
            if u != v and (directed or u < v) and rng.random() < p]


def _arcs(kind, n, directed, draw):
    """Arcs (u, v), u != v, of a graph of the given kind on n vertices."""
    if kind == "gnp":
        p = draw(st.floats(0, 1))
        return _gnp_arcs(n, directed, p, draw(st.randoms(use_true_random=False)))
    if kind == "empty":
        return []
    if kind == "complete":
        return [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    if kind == "path":
        return [(u, u + 1) for u in range(n - 1)]
    if kind == "cycle":
        return [(u, (u + 1) % n) for u in range(n)] if n >= 3 else []
    if kind == "circulant":
        if n < 2:
            return []
        shifts = draw(st.sets(st.integers(1, max(1, n - 1 if directed else n // 2))))
        arcs = {(u, (u + d) % n) for u in range(n) for d in shifts}
        return sorted(arcs if directed else {(min(e), max(e)) for e in arcs})
    # two disjoint copies of one circulant: regular and disconnected
    half = n // 2
    copy = _arcs("circulant", half, directed, draw)
    return copy + [(u + half, v + half) for u, v in copy]


@st.composite
def graphs(draw, directed=False):
    """A graph of one of KINDS, or, for undirected graphs, Gamma_k or a
    Cayley graph of a random inverse-closed set over D_2k x C2 x C2 with
    k = 3, 4 or 5; these are the draws that can be strictly Deza."""
    if not directed and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(3, 5))
        if draw(st.booleans()):
            return _family(k)
        return _random_cayley(k, draw(st.randoms(use_true_random=False)))
    n = draw(st.integers(0, MAX_N))
    kind = draw(st.sampled_from(KINDS))
    return Graph.from_edges(n, _arcs(kind, n, directed, draw), directed)


@st.composite
def kind_graphs(draw, sizes, directed=False):
    """A graph or digraph of one of KINDS whose vertex count sizes draws.
    A gnp draw takes its coin flips from a seeded random.Random: the
    randoms of Hypothesis would feed each of the n^2 flips from its buffer,
    which its health check refuses past about 40 vertices."""
    n = draw(sizes)
    kind = draw(st.sampled_from(KINDS))
    if kind == "gnp":
        p = draw(st.floats(0, 1))
        arcs = _gnp_arcs(n, directed, p, random.Random(draw(st.integers(0, 2**32 - 1))))
    else:
        arcs = _arcs(kind, n, directed, draw)
    return Graph.from_edges(n, arcs, directed)


@st.composite
def partitioned_graphs(draw):
    """A graph with a partition of its vertices into classes of one size,
    or, for n >= 3, sometimes into two classes of different sizes."""
    g = draw(graphs())
    vertices = draw(st.permutations(range(g.n)))
    sizes = [l for l in range(1, g.n + 1) if g.n % l == 0] or [1]
    l = draw(st.sampled_from(sizes))
    if g.n >= 3 and draw(st.booleans()):
        cut = draw(st.integers(1, g.n - 1))
        if 2 * cut != g.n:
            return g, [vertices[:cut], vertices[cut:]]
    return g, [vertices[i:i + l] for i in range(0, g.n, l)]


def _reference_counts(g):
    """C[u, v] = |N+(u) & N+(v)| by a loop over int64 entries."""
    adj = g.adj.tolist()
    counts = np.zeros((g.n, g.n), dtype=np.int64)
    for u in range(g.n):
        for v in range(g.n):
            counts[u, v] = sum(1 for w in range(g.n) if adj[u][w] and adj[v][w])
    return counts


@PROPERTY
@given(st.one_of(graphs(), graphs(directed=True)))
def test_common_neighbor_counts_equal_the_loop(g):
    counts = _common_neighbor_counts(g)
    assert counts.shape == (g.n, g.n)
    assert np.array_equal(counts, _reference_counts(g))


@PROPERTY
@given(st.one_of(graphs(), graphs(directed=True)))
def test_diameter_equals_breadth_first_search(g):
    assert diameter(g) == _reference_diameter(g)


@PROPERTY
@given(st.one_of(kind_graphs(st.integers(65, 160)),
                 kind_graphs(st.integers(65, 160), directed=True)))
def test_diameter_past_one_row_block_equals_breadth_first_search(g):
    assert diameter(g) == _reference_diameter(g)


def _circulant_union(n, parts, shifts, directed):
    """parts disjoint circulants on n // parts vertices each."""
    size = n // parts
    arcs = [(base + u, base + (u + s) % size)
            for base in range(0, n, size) for u in range(size) for s in shifts]
    return Graph.from_edges(n, arcs, directed=directed)


@pytest.mark.parametrize(
    "parts, shifts, directed",
    [(1, (1, 37, 113), True), (2, (1, 12), False)],
)
def test_diameter_in_blocks_of_an_eighth_equals_breadth_first_search(parts, shifts, directed):
    g = _circulant_union(530, parts, shifts, directed)
    assert diameter(g) == _reference_diameter(g)


@PROPERTY
@given(graphs())
def test_deza_outcome_equals_the_reference_loop(g):
    assert _deza_outcome(deza_parameters(g)) == _reference_deza(g)


@PROPERTY
@given(partitioned_graphs())
def test_ddg_outcome_equals_the_reference_loop(case):
    g, partition = case
    assert _ddg_outcome(ddg_check(g, partition)) == _reference_ddg(g, partition)
