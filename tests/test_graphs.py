import random

import pytest

from dezawl import (
    DDGFailure,
    DDGParameters,
    DezaParameters,
    Graph,
    NotDezaVerdict,
    canonical_ddg_partition,
    cayley_graph,
    coefficient_fibers,
    connection_set,
    ddg_check,
    deza_parameters,
    diameter,
    family_group,
    graph_from_json,
    graph_to_json,
    grid_graph,
    multiply,
    parse_edgelist,
    simple_quantity,
    subgroup_generated,
    to_dot,
    write_edgelist,
)
from dezawl.graphs import _common_neighbor_counts


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_cayley_graph_of_family_is_regular():
    g = family_group(3)
    gamma = cayley_graph(g, connection_set(g, 3))
    assert gamma.n == 24
    assert not gamma.directed
    assert gamma.is_regular() == 8
    assert gamma.labels[g.identity] == "e"


def test_cayley_graph_with_all_nonidentity_elements_is_complete():
    g = family_group(3)
    s = [x for x in g.elements() if x != g.identity]
    gamma = cayley_graph(g, s)
    assert gamma.edge_count() == g.order * (g.order - 1) // 2


def test_cayley_graph_with_empty_set_is_empty():
    g = family_group(3)
    gamma = cayley_graph(g, [])
    assert gamma.edge_count() == 0
    assert not gamma.directed


def test_cayley_graph_rejects_identity_in_connection_set():
    g = family_group(3)
    with pytest.raises(ValueError):
        cayley_graph(g, [g.identity, g.a])


def test_cayley_graph_rejects_elements_out_of_range():
    g = family_group(3)
    for bad in (-1, g.order):
        with pytest.raises(ValueError, match="out of range"):
            cayley_graph(g, [bad, g.a])


def test_cayley_graph_directed_when_set_not_symmetric():
    g = family_group(3)
    gamma = cayley_graph(g, [g.a])  # a has order 3, not an involution
    assert gamma.directed


def test_grid_graph_shape():
    gr = grid_graph(4, 6)
    assert gr.n == 24
    assert gr.is_regular() == 8


def test_grid_graph_degenerate_cases():
    single = grid_graph(1, 1)
    assert single.n == 1 and single.edge_count() == 0
    square = grid_graph(2, 2)
    assert square.n == 4 and square.is_regular() == 2
    assert diameter(square) == 2  # the 4-cycle


@pytest.mark.parametrize("l,m", [(2, 3), (3, 5), (4, 6)])
def test_grid_graph_regularity_property(l, m):
    gr = grid_graph(l, m)
    assert gr.n == l * m
    assert gr.is_regular() == l + m - 2


def test_family_graph_is_strictly_deza():
    g = family_group(3)
    gamma = cayley_graph(g, connection_set(g, 3))
    params = deza_parameters(gamma)
    assert isinstance(params, DezaParameters)
    assert params.as_tuple() == (24, 8, 4, 2)
    assert params.strictly
    assert not params.strongly_regular


def test_grid_4x6_same_parameters_not_strongly_regular():
    # Row-adjacent pairs share 4 common neighbors, column-adjacent pairs 2,
    # so the count is not a function of adjacency alone and the rectangular
    # grid is itself strictly Deza with the same parameter tuple.
    params = deza_parameters(grid_graph(4, 6))
    assert isinstance(params, DezaParameters)
    assert params.as_tuple() == (24, 8, 4, 2)
    assert not params.strongly_regular
    assert params.strictly


def test_square_grid_is_strongly_regular():
    params = deza_parameters(grid_graph(4, 4))
    assert isinstance(params, DezaParameters)
    assert params.strongly_regular
    assert not params.strictly


def test_cycle_six_is_deza_but_not_strictly():
    gamma = _cycle(6)
    # brute-force oracle over neighbor sets
    nbrs = [set(gamma.neighbors(u)) for u in range(6)]
    counts = {
        len(nbrs[u] & nbrs[v]) for u in range(6) for v in range(u + 1, 6)
    }
    assert counts == {0, 1}
    params = deza_parameters(gamma)
    assert params.as_tuple() == (6, 2, 1, 0)
    assert not params.strictly
    assert diameter(gamma) == 3


def test_complete_graph_is_degenerate_deza():
    params = deza_parameters(_complete(4))
    assert isinstance(params, DezaParameters)
    assert params.degenerate
    assert params.alpha == params.beta == 2
    assert params.strongly_regular


def test_petersen_graph_is_strongly_regular():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    petersen = Graph.from_edges(10, outer + inner + spokes)
    params = deza_parameters(petersen)
    assert params.as_tuple() == (10, 3, 1, 0)
    assert params.strongly_regular


def test_non_regular_graph_is_not_deza():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    verdict = deza_parameters(path)
    assert isinstance(verdict, NotDezaVerdict)
    assert verdict.reason == "not regular"


def test_three_common_neighbor_values_rejected_with_witness():
    # K_4 plus a pendant path has three distinct counts
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                             (3, 4), (4, 5)])
    verdict = deza_parameters(g)
    assert isinstance(verdict, NotDezaVerdict)


def test_diameter_examples():
    g = family_group(5)
    gamma = cayley_graph(g, connection_set(g, 5))
    assert diameter(gamma) == 2
    assert diameter(_complete(5)) == 1
    empty = Graph(3)
    assert diameter(empty) == float("inf")


@pytest.mark.parametrize("product", [_common_neighbor_counts, diameter])
def test_products_refuse_graphs_past_the_float32_bound(product):
    """Counts up to n are exact in float32 only below 2^24. The stand-in has
    no adjacency matrix, so reading adj would raise AttributeError: the
    bound is checked before anything n x n is allocated."""
    g = Graph.__new__(Graph)
    g.n, g.directed = 2**24, False
    with pytest.raises(ValueError, match="too many"):
        product(g)


@pytest.mark.parametrize("k", [3, 4, 11, 12])
def test_canonical_partition_and_ddg(k):
    g = family_group(k)
    partition = canonical_ddg_partition(g, k)
    assert len(partition) == 4
    assert all(len(cls) == 2 * k for cls in partition)
    gamma = cayley_graph(g, connection_set(g, k))
    result = ddg_check(gamma, partition)
    assert isinstance(result, DDGParameters)
    assert result.as_tuple() == (8 * k, 2 * (k + 1), 2 * (k - 1), 2, 4, 2 * k)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_union_a_cba_is_a_subgroup(k):
    g = family_group(k)
    subs = g.standard_subgroups()
    cb = g.mul(g.c, g.b)
    union = set(subs.a.elements) | {g.mul(cb, x) for x in subs.a.elements}
    sub = subgroup_generated(g, [g.a, cb])
    assert set(sub.elements) == union
    assert sub.order == 2 * k


def test_ddg_check_k4_singleton_classes():
    result = ddg_check(_complete(4), [[0], [1], [2], [3]])
    assert isinstance(result, DDGParameters)
    assert result.beta == 2
    assert result.l == 1


def test_ddg_check_random_partition_fails():
    g = family_group(3)
    gamma = cayley_graph(g, connection_set(g, 3))
    rng = random.Random(1)
    vertices = list(range(24))
    rng.shuffle(vertices)
    partition = [vertices[i : i + 6] for i in range(0, 24, 6)]
    result = ddg_check(gamma, partition)
    assert isinstance(result, DDGFailure)
    assert result.witness is not None
    # confirm by brute force that the condition really is violated
    class_of = {}
    for i, cls in enumerate(partition):
        for v in cls:
            class_of[v] = i
    within = set()
    between = set()
    for u in range(24):
        for v in range(u + 1, 24):
            c = gamma.common_neighbors(u, v)
            (within if class_of[u] == class_of[v] else between).add(c)
    assert len(within) > 1 or len(between) > 1


def test_ddg_check_rejects_malformed_partition():
    g = _complete(4)
    with pytest.raises(ValueError):
        ddg_check(g, [[0, 1], [1, 2, 3]])


def test_ddg_check_unequal_sizes_reported():
    g = _complete(4)
    result = ddg_check(g, [[0], [1, 2, 3]])
    assert isinstance(result, DDGFailure)
    assert "unequal" in result.reason


@pytest.mark.parametrize("k", [3, 4])
def test_common_neighbor_counts_match_square_fibers(k):
    g = family_group(k)
    s = connection_set(g, k)
    gamma = cayley_graph(g, s)
    s_bar = simple_quantity(g, s)
    fibers = coefficient_fibers(multiply(s_bar, s_bar))
    e = g.identity
    for coeff, fiber in fibers.items():
        for x in fiber:
            if x == e:
                continue
            assert gamma.common_neighbors(e, x) == coeff


def test_vertex_transitivity_necessary_conditions():
    g = family_group(4)
    gamma = cayley_graph(g, connection_set(g, 4))
    profiles = set()
    for u in range(gamma.n):
        counts = tuple(
            sorted(gamma.common_neighbors(u, v) for v in gamma.neighbors(u))
        )
        profiles.add((gamma.degree(u), counts))
    assert len(profiles) == 1


def test_edgelist_round_trip_is_bit_exact():
    g = family_group(3)
    gamma = cayley_graph(g, connection_set(g, 3))
    text = write_edgelist(gamma)
    assert text.splitlines()[0] == "24 96"
    parsed = parse_edgelist(text)
    assert parsed.n == gamma.n
    assert parsed.edges() == gamma.edges()
    assert write_edgelist(parsed) == text


def test_json_round_trip_preserves_labels():
    g = family_group(3)
    gamma = cayley_graph(g, connection_set(g, 3))
    text = graph_to_json(gamma)
    parsed = graph_from_json(text)
    assert parsed == gamma
    assert graph_to_json(parsed) == text


def test_dot_output_mentions_every_edge():
    gr = grid_graph(2, 2)
    dot = to_dot(gr)
    assert dot.startswith("graph G {")
    assert dot.count(" -- ") == gr.edge_count()


def test_edgelist_rejects_directed_graphs():
    g = family_group(3)
    digraph = cayley_graph(g, [g.a])
    with pytest.raises(ValueError):
        write_edgelist(digraph)


def test_parse_edgelist_rejects_garbage():
    with pytest.raises(ValueError):
        parse_edgelist("not a graph\n")
    with pytest.raises(ValueError):
        parse_edgelist("2 5\n0 1\n")
