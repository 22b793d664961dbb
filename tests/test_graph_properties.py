"""Property tests of the graph layer's exact float32 products.

Random graphs and digraphs on at most 40 vertices, including empty,
complete, disconnected, path-like and Cayley graphs, must give the same
common-neighbor counts as an int64 loop (put together from the row blocks,
eight of them and one), the same diameter as a breadth-first search, and
the same Deza and divisible-design outcomes as the pair-by-pair loops of
test_graph_pins, in eight row blocks and in one. On 65 to 160 vertices, and
on 530 vertices, where a diameter step takes blocks of ceil(n / 8) rows and
a shorter last one, the diameter must still equal the search. On 65 to 300
vertices, regular graphs whose first break of a pattern is pushed past the
first row block by a switch of edges among high-numbered vertices must give
the Deza and divisible-design outcomes of the loops, and fixed cases put
the deciding pair in the first row of a later block and inside the last
one.
"""

from __future__ import annotations

import functools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dezawl import Graph, ddg_check, deza_parameters, diameter
from dezawl import graphs as graph_layer
from dezawl.graphs import _common_neighbor_blocks
from test_graph_pins import (
    _ddg_outcome,
    _deza_outcome,
    _disjoint_union,
    _family,
    _random_cayley,
    _reference_ddg,
    _reference_deza,
    _reference_diameter,
)
from test_graphs import _complete, _cycle

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


def _counts_from_blocks(g):
    """A A^T put together from the row blocks, each of which holds the
    pairs u <= v of its rows; checks the block bounds and pair masks."""
    counts = np.full((g.n, g.n), -1, dtype=np.int64)
    bounds = []
    for lo, block, upper in _common_neighbor_blocks(g):
        assert block.shape[1] == g.n - lo
        assert np.array_equal(upper, np.triu(np.ones(block.shape, dtype=bool), 1))
        counts[lo:lo + len(block), lo:] = block
        bounds.append((lo, lo + len(block)))
    assert bounds == graph_layer._row_blocks(g.n)
    lower = np.tril_indices(g.n, -1)
    counts[lower] = counts.T[lower]
    return counts


@PROPERTY
@given(st.one_of(graphs(), graphs(directed=True)))
def test_common_neighbor_counts_equal_the_loop(g):
    expected = _reference_counts(g)
    # eight blocks of ceil(n / 8) rows, the last one shorter, then one block
    assert np.array_equal(_counts_from_blocks(g), expected)
    with mock.patch.object(graph_layer, "_BLOCKS", 1):
        assert np.array_equal(_counts_from_blocks(g), expected)


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


@PROPERTY
@given(partitioned_graphs())
def test_outcomes_in_blocks_of_an_eighth_equal_the_reference_loops(case):
    """Eight row blocks, the default, and one block give the same outcomes."""
    g, partition = case
    ddg, deza = _reference_ddg(g, partition), _reference_deza(g)
    for blocks in (graph_layer._BLOCKS, 1):
        with mock.patch.object(graph_layer, "_BLOCKS", blocks):
            assert _ddg_outcome(ddg_check(g, partition)) == ddg
            assert _deza_outcome(deza_parameters(g)) == deza


def _union(parts):
    """The disjoint union of the graphs parts, numbered in order."""
    return functools.reduce(_disjoint_union, parts)


def _switch_high(g, rng):
    """g with one degree-preserving swap (a, b), (c, d) -> (a, d), (c, b)
    of two edges among the vertices n / 2 and up, or g itself when 100
    draws find no valid swap."""
    edges = [e for e in g.edges() if e[0] >= g.n // 2]
    for _ in range(100 if len(edges) >= 2 else 0):
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b):
            dropped = {(a, b), (min(c, d), max(c, d))}
            return Graph.from_edges(g.n, [e for e in g.edges() if e not in dropped]
                                    + [(a, d), (c, b)])
    return g


@st.composite
def block_graphs(draw):
    """(g, m): a regular graph g on 65 to 300 vertices, then up to two edge
    switches among its upper half. g is made of copies of one complete
    graph, cycle or circulant on m vertices, whose counts take few values
    (a union of complete graphs is strongly regular, with one count within
    a copy and 0 across), or is Gamma_k or a random Cayley graph over
    D_2k x C2 x C2 for k = 9..20, with m = n. A switch changes only the
    counts of pairs on its four vertices, so the first pair that breaks a
    pattern often lies past the first row block."""
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(9, 20))
        if draw(st.booleans()):
            g = _family(k)
        else:
            g = _random_cayley(k, random.Random(draw(st.integers(0, 2**32 - 1))))
        m = g.n
    else:
        m = draw(st.integers(3, 40))
        kind = draw(st.sampled_from(["complete", "complete", "cycle", "circulant"]))
        copy = Graph.from_edges(m, _arcs(kind, m, False, draw))
        g = _union([copy] * draw(st.integers(-(-65 // m), 300 // m)))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        g = _switch_high(g, random.Random(draw(st.integers(0, 2**32 - 1))))
    return g, m


BLOCK_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@BLOCK_PROPERTY
@given(block_graphs())
def test_deza_past_one_row_block_equals_the_reference_loop(case):
    g, _ = case
    assert _deza_outcome(deza_parameters(g)) == _reference_deza(g)


@BLOCK_PROPERTY
@given(block_graphs(), st.data())
def test_ddg_past_one_row_block_equals_the_reference_loop(case, data):
    """Classes of one size l | n: the copies of g, or runs of l consecutive
    vertices, or of a seeded shuffle."""
    g, m = case
    vertices = list(range(g.n))
    if data.draw(st.booleans()):
        l = m
    else:
        l = data.draw(st.sampled_from([l for l in range(1, g.n + 1) if g.n % l == 0]))
        if data.draw(st.booleans()):
            random.Random(data.draw(st.integers(0, 2**32 - 1))).shuffle(vertices)
    partition = [vertices[i:i + l] for i in range(0, g.n, l)]
    assert _ddg_outcome(ddg_check(g, partition)) == _reference_ddg(g, partition)


def _cube():
    return Graph.from_edges(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])


@pytest.mark.parametrize("n, squares", [(160, 16), (160, 34), (600, 75)])
def test_a_cycle_after_squares_is_caught_where_it_starts(n, squares):
    """Copies of C4 have the counts 2 (opposite vertices) and 0; a cycle on
    the vertices t = 4 * squares and up adds 1 at (t, t + 2). With blocks
    of 64 rows at n = 160, t = 64 is the first row of the second block and
    t = 136 lies inside the last; with blocks of n // 8 = 75 rows at
    n = 600, t = 300 is the first row of the fifth. Classes {u, u + 2} in
    the squares give levels 2 within and 0 between, and the cycle's classes
    put the first pair off its level at t."""
    t = 4 * squares
    g = _union([_cycle(4)] * squares + [_cycle(n - t)])
    assert t >= max(64, n // 8)  # past the first block
    witness = ["not_deza", "more than two common-neighbor counts", (t, t + 2)]
    assert _deza_outcome(deza_parameters(g)) == witness == _reference_deza(g)
    in_squares = [[4 * i + j, 4 * i + j + 2] for i in range(squares) for j in (0, 1)]
    half = (n - t) // 2
    for cycle_classes, kind, witness in [
        ([[t + j, t + j + half] for j in range(half)], "between", (t, t + 2)),
        ([[v, v + 1] for v in range(t, n, 2)], "within", (t, t + 1)),
    ]:
        partition = in_squares + cycle_classes
        expected = ["ddg_failure", f"{kind}-class count not constant", witness]
        assert _ddg_outcome(ddg_check(g, partition)) == expected == _reference_ddg(g, partition)


@pytest.mark.parametrize("parts, srg", [
    ([_complete(4)] * 40, True),
    ([_complete(4)] * 16 + [_cube()] * 12, False),
    ([_complete(3)] * 64 + [_cycle(5)], False),
], ids=["k4", "k4-then-cubes", "triangles-then-c5"])
def test_strong_regularity_is_decided_over_every_block(parts, srg):
    """Copies of K_m are strongly regular: m - 2 on adjacent pairs, 0 on
    the others. Cubes on the vertices 64 and up keep the counts 2 and 0 but
    give 0 on adjacent pairs, which only the later blocks show. The C5 on
    the vertices 192 to 196, a block of its own, is strongly regular with
    the levels of the triangles swapped (0 adjacent, 1 not), so only levels
    carried over from the first block refute strong regularity."""
    g = _union(parts)
    m = parts[0].n
    expected = ["deza", g.n, m - 1, m - 2, 0, False, srg, False]
    assert _deza_outcome(deza_parameters(g)) == expected == _reference_deza(g)
