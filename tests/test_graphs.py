import random
import tracemalloc

import numpy as np
import pytest

from dezawl import (
    DDGFailure,
    DDGParameters,
    DezaParameters,
    Graph,
    NotDezaVerdict,
    canonical_ddg_partition,
    cayley_graph,
    connection_set,
    ddg_check,
    deza_parameters,
    diameter,
    family_group,
    graph_from_json,
    graph_to_json,
    grid_graph,
    integral_spectrum,
    multiply,
    parse_edgelist,
    simple_quantity,
    subgroup_generated,
    to_dot,
    wl1_distinguishes,
    wl2,
    write_edgelist,
)
from dezawl import graphs as graph_layer


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


@pytest.mark.parametrize("k", [3, 4, 16])
def test_deza_parameters_calls_diameter_only_when_alpha_is_zero(cache, k, monkeypatch):
    """alpha = 2 on Gamma_k and the 4 x 2k grid: every pair has a common
    neighbor, so the counts alone give diameter 2. The 6-cycle has alpha = 0
    and needs the product."""
    import dezawl.graphs

    calls = []

    def counted(g):
        calls.append(g.n)
        return diameter(g)

    monkeypatch.setattr(dezawl.graphs, "diameter", counted)
    for graph in (cache.graph(k), grid_graph(4, 2 * k)):
        params = deza_parameters(graph)
        assert params.as_tuple() == (8 * k, 2 * (k + 1), 2 * (k - 1), 2)
        assert params.strictly and not params.strongly_regular
    assert calls == []
    params = deza_parameters(_cycle(6))
    assert calls == [6]
    assert (params.alpha, params.beta, params.strictly, params.strongly_regular) == (
        0, 1, False, False)


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


@pytest.mark.parametrize("blocks", [1, 3, 8, 64])
def test_row_blocks_cover_every_row_once(monkeypatch, blocks):
    """At most `blocks` nonempty ranges of ceil(n / blocks) rows, the last
    one shorter, that list 0..n-1 in order."""
    monkeypatch.setattr(graph_layer, "_BLOCKS", blocks)
    for n in range(601):
        bounds = graph_layer._row_blocks(n)
        assert len(bounds) <= blocks
        assert all(lo < hi for lo, hi in bounds)
        assert all(hi - lo == -(-n // blocks) for lo, hi in bounds[:-1])
        assert [r for lo, hi in bounds for r in range(lo, hi)] == list(range(n))


def _blocked_results(g):
    return wl2(g).color, integral_spectrum(g), deza_parameters(g), diameter(g)


@pytest.mark.parametrize("name", ["gamma5", "grid4x10"])
def test_row_blocks_do_not_change_any_result(cache, monkeypatch, name):
    """The 2-WL colours (hashed products), the spectrum, the Deza parameters
    and the diameter are the same in one block, three, eight and n."""
    g = cache.graph(5) if name == "gamma5" else grid_graph(4, 10)
    color, *expected = _blocked_results(g)
    for blocks in (1, 3, g.n):
        monkeypatch.setattr(graph_layer, "_BLOCKS", blocks)
        blocked_color, *blocked = _blocked_results(g)
        assert np.array_equal(blocked_color, color)
        assert blocked == expected


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
            c = np.count_nonzero(gamma.adj[u] & gamma.adj[v])
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
    coeffs = multiply(s_bar, s_bar).coeffs
    e = g.identity
    for x in g.elements():
        if x != e:
            assert np.count_nonzero(gamma.adj[e] & gamma.adj[x]) == coeffs.get(x, 0)


def test_vertex_transitivity_necessary_conditions():
    g = family_group(4)
    gamma = cayley_graph(g, connection_set(g, 4))
    profiles = set()
    for u in range(gamma.n):
        counts = tuple(sorted(
            int(np.count_nonzero(gamma.adj[u] & gamma.adj[v])) for v in gamma.neighbors(u)
        ))
        profiles.add((len(gamma.neighbors(u)), counts))
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


@pytest.mark.parametrize("check", ["deza", "ddg"])
def test_common_neighbor_checks_peak_below_one_float64_matrix(cache, check):
    """The counts and masks are held one row block at a time: on Gamma_48
    (n = 384) each check's traced peak, the float32 A included, stays below
    8 n^2 bytes. Gamma_48 has alpha = 2, so deza_parameters runs no diameter
    step. Forming A A^T and its n x n masks whole peaked at 12.3 n^2 (deza)
    and 11.1 n^2 (ddg)."""
    gamma = cache.graph(48)
    partition = canonical_ddg_partition(cache.group(48), 48)
    run = {"deza": lambda: deza_parameters(gamma),
           "ddg": lambda: ddg_check(gamma, partition)}[check]
    run()  # warm every lazy import first
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * gamma.n**2


@pytest.mark.parametrize("build", ["ddg_partition", "grid"])
def test_ddg_partition_and_grid_peak_near_their_n2_arrays(build):
    """At n = 1024 the coset table of canonical_ddg_partition is sorted in
    place and grid_graph XORs the column comparison into adj, so each
    traced peak stays below 2.5 n^2 bytes (an n^2 boolean adj is 1). A
    sorted copy of the table peaked at 4.0 n^2, and two comparison
    temporaries and their XOR at 3.2 n^2."""
    g = family_group(128)
    n = g.order
    run = {"ddg_partition": lambda: canonical_ddg_partition(g, 128),
           "grid": lambda: grid_graph(4, 256)}[build]
    run()  # warm every lazy import first
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n**2


def test_family_group_table_built_in_place():
    """family_group(48) builds its int32 table in place, adding the low bits
    one column residue at a time, and Group keeps one int32 copy: the traced
    peak stays below 12 n^2 bytes. An intp outer product, an n x n XOR
    temporary and the intp copy peaked at 19.3 n^2."""
    family_group(48)  # warm every lazy import first
    n = 8 * 48
    tracemalloc.start()
    try:
        family_group(48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * n**2


def test_wl1_neighbor_index_in_one_pass(cache):
    """The 1-WL neighbor index takes its columns from one flatnonzero array
    of arcs, reduced modulo n in place: comparing Gamma_48 with the 4 x 96
    grid (n = 384) traces below 7 n^2 bytes. The rows, columns and shifted
    columns of nonzero peaked at 8.2 n^2."""
    gamma = cache.graph(48)
    grid = grid_graph(4, 96)
    wl1_distinguishes(gamma, grid)  # warm every lazy import first
    tracemalloc.start()
    try:
        wl1_distinguishes(gamma, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * gamma.n**2
