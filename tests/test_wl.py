import random

import pytest

from conftest import cyclic_group
from dezawl import (
    Graph,
    cayley_graph,
    connection_set,
    family_group,
    grid_graph,
    initial_pair_coloring,
    verify_coherence,
    wl1,
    wl1_distinguishes,
    wl2,
    wl_closure,
    wl_rank,
)


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_wl1_regular_connected_graph_has_one_class(cache):
    assert len(set(wl1(cache.graph(3)))) == 1
    assert len(set(wl1(grid_graph(4, 6)))) == 1


def test_wl1_path_has_two_classes():
    colors = wl1(Graph.from_edges(3, [(0, 1), (1, 2)]))
    assert len(set(colors)) == 2
    assert colors[0] == colors[2] != colors[1]


def test_wl2_complete_and_empty_have_rank_2():
    assert wl_rank(_complete(5)) == 2
    assert wl_rank(Graph(5)) == 2
    assert wl_rank(Graph(1)) == 1


def test_wl2_family_graph_rank_equals_vertex_count(cache):
    assert cache.configuration(("family", 3), cache.graph(3)).rank == 24


def test_wl2_grid_rank_is_4():
    assert wl_rank(grid_graph(4, 6)) == 4
    assert wl_rank(grid_graph(4, 8)) == 4


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_cycle_rank_formula(n):
    assert wl_rank(_cycle(n)) == n // 2 + 1


def test_wl1_does_not_distinguish_family_from_grid(cache):
    assert not wl1_distinguishes(cache.graph(3), grid_graph(4, 6))


def test_wl1_distinguishes_different_degrees():
    assert wl1_distinguishes(_complete(4), _cycle(4))


def test_wl1_distinguishes_is_false_on_identical_graph(cache):
    gamma = cache.graph(3)
    assert not wl1_distinguishes(gamma, gamma)


def test_wl1_distinguishes_requires_same_vertex_count():
    with pytest.raises(ValueError):
        wl1_distinguishes(_complete(3), _complete(4))


def test_wl2_output_is_coherent(cache):
    for graph in (cache.graph(3), grid_graph(4, 6), _cycle(7)):
        conf = wl2(graph)
        assert verify_coherence(conf.coloring).ok


def test_initial_coloring_of_family_graph_is_not_coherent(cache):
    res = verify_coherence(initial_pair_coloring(cache.graph(3)))
    assert not res.ok
    assert res.witness["kind"] == "intersection"
    # the witness pairs really do differ, recounted by hand
    gamma = cache.graph(3)
    (u1, v1), (u2, v2) = res.witness["pairs"]
    i, j = res.witness["colors"]
    init = initial_pair_coloring(gamma)

    def count(u, v):
        return sum(
            1
            for w in range(gamma.n)
            if init.color[u, w] == i and init.color[w, v] == j
        )

    assert count(u1, v1) != count(u2, v2)


def test_trivial_coloring_of_complete_graph_is_coherent():
    res = verify_coherence(initial_pair_coloring(_complete(5)))
    assert res.ok


def test_arc_set_is_union_of_stable_classes(cache):
    gamma = cache.graph(4)
    conf = cache.configuration(("family", 4), gamma)
    arc_colors = {
        int(conf.coloring.color[u, v])
        for u in range(gamma.n)
        for v in gamma.neighbors(u)
    }
    non_arc_colors = {
        int(conf.coloring.color[u, v])
        for u in range(gamma.n)
        for v in range(gamma.n)
        if u != v and not gamma.has_edge(u, v)
    }
    assert not arc_colors & non_arc_colors


def test_transpose_closure_on_directed_graph():
    digraph = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    conf = wl2(digraph)
    color = conf.coloring.color
    for i in range(conf.rank):
        partners = {int(color[v, u]) for u in range(3) for v in range(3)
                    if color[u, v] == i}
        assert len(partners) == 1


def test_color_ids_are_contiguous_and_diagonal_separate(cache):
    conf = cache.configuration(("family", 3), cache.graph(3))
    import numpy as np

    colors = np.unique(conf.coloring.color)
    assert list(colors) == list(range(conf.coloring.num_colors))
    diag = set(np.diagonal(conf.coloring.color).tolist())
    off = set(conf.coloring.color[~np.eye(conf.coloring.n, dtype=bool)].tolist())
    assert not diag & off


def test_rank_bounded_by_vertex_count_for_cayley_graphs():
    rng = random.Random(17)
    g = family_group(3)
    for _ in range(5):
        size = rng.randrange(2, 8)
        base = rng.sample([x for x in g.elements() if x != g.identity], size)
        sym = set(base) | {g.inverse(x) for x in base}
        gamma = cayley_graph(g, sym)
        assert 2 <= wl_rank(gamma) <= g.order


def test_closure_and_wl2_rank_agree_on_random_connection_sets():
    rng = random.Random(23)
    g = family_group(3)
    for _ in range(6):
        size = rng.randrange(1, 9)
        base = rng.sample([x for x in g.elements() if x != g.identity], size)
        sym = frozenset(base) | frozenset(g.inverse(x) for x in base)
        closure_rank = wl_closure(g, [sym]).rank
        graph_rank = wl_rank(cayley_graph(g, sym))
        assert closure_rank == graph_rank


def test_closure_and_wl2_agree_on_cyclic_groups():
    rng = random.Random(29)
    c = cyclic_group(16)
    for _ in range(4):
        size = rng.randrange(1, 7)
        base = rng.sample(range(1, 16), size)
        sym = frozenset(base) | frozenset(c.inverse(x) for x in base)
        assert wl_closure(c, [sym]).rank == wl_rank(cayley_graph(c, sym))


def test_configuration_serialization(cache):
    import json

    from dezawl import configuration_to_json

    conf = cache.configuration(("family", 3), cache.graph(3))
    plain = json.loads(configuration_to_json(conf))
    assert plain["n"] == 24
    assert plain["rank"] == 24
    assert len(plain["colors"]) == 24 * 24


def test_refinement_never_decreases_color_count(cache):
    from dezawl.wl import _wl2_round

    gamma = cache.graph(3)
    init = initial_pair_coloring(gamma)
    color, num = init.color, init.num_colors
    for _ in range(10):
        new_color, new_num = _wl2_round(color, num)
        assert new_num >= num
        assert new_num <= gamma.n * gamma.n
        if new_num == num:
            break
        color, num = new_color, new_num


def _directed_3_cycle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)


# sha256 of configuration_to_json(wl2(g)), recorded before 2-WL rounds were
# blocked and numbered through a signature dict; the bytes must never move.
_PINNED_COLORINGS = {
    "gamma5": "171466738738cd91e60c39088f43fdc95c15cf15cd2f912db141c9c13e284597",
    "gamma6": "ea9790d03f4ca4e87c87662f838d848c7b79e763f8326cbb3558e25f17bdc3a2",
    "grid4x6": "ba22c35f5e876791a1044fb996a7df9f9b6b4d609bf1b88f09f59e99c9b9b6b3",
    "directed3cycle": "850993c77412e609f52d59eff330daaa0fd843bcd09cccbdc77342404f0358ae",
}


def test_final_colorings_are_bit_identical_to_pins(cache):
    import hashlib

    from dezawl import configuration_to_json

    graphs = {
        "gamma5": cache.graph(5),
        "gamma6": cache.graph(6),
        "grid4x6": grid_graph(4, 6),
        "directed3cycle": _directed_3_cycle(),
    }
    for name, graph in graphs.items():
        text = configuration_to_json(wl2(graph))
        assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_COLORINGS[name], name


def _exact_fixed_point(graph):
    """The stable coloring reached by exact _wl2_round rounds alone."""
    from dezawl.wl import _wl2_round

    init = initial_pair_coloring(graph)
    color, num = init.color, init.num_colors
    while True:
        new_color, new_num = _wl2_round(color, num)
        if new_num == num:
            return color, num
        color, num = new_color, new_num


def test_one_row_blocks_give_the_single_block_coloring(cache, monkeypatch):
    import numpy as np

    from dezawl import wl

    digraph = Graph.from_edges(
        7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (6, 0)],
        directed=True,
    )
    graphs = (cache.graph(4), cache.graph(5), digraph)
    single = [wl2(graph) for graph in graphs]
    assert all(wl._BLOCK_ENTRIES >= graph.n ** 2 for graph in graphs)
    monkeypatch.setattr(wl, "_BLOCK_ENTRIES", 1)
    # wl2 reaches these colorings by hashed rounds, so drive the exact rounds
    # to their fixed point directly.
    for graph, expected in zip(graphs, single):
        color, num = _exact_fixed_point(graph)
        assert num == expected.rank
        assert np.array_equal(color, expected.coloring.color)
    assert wl_rank(Graph(0)) == 0
    assert wl_rank(Graph(1)) == 1


def test_round_ids_do_not_depend_on_color_values(cache):
    """Ids depend only on which signatures are equal, whatever values name
    the colors."""
    import numpy as np

    from dezawl.wl import _wl2_round

    for graph in (cache.graph(3), _directed_3_cycle()):
        init = initial_pair_coloring(graph)
        expected_color, expected_num = _wl2_round(init.color, init.num_colors)
        reversed_color = init.num_colors - 1 - init.color
        new_color, new_num = _wl2_round(reversed_color, init.num_colors)
        assert new_num == expected_num
        assert np.array_equal(new_color, expected_color)


def test_wl2_raises_when_refinement_stops_early(cache, monkeypatch):
    from dezawl import wl

    monkeypatch.setattr(wl, "_hashed_round", lambda color, num, seed: (color, num))
    monkeypatch.setattr(wl, "_wl2_round", lambda color, num: (color, num))
    with pytest.raises(RuntimeError, match="incoherent"):
        wl2(cache.graph(3))


def _pinned_graphs(cache):
    return {
        "gamma5": cache.graph(5),
        "gamma6": cache.graph(6),
        "grid4x6": grid_graph(4, 6),
        "directed3cycle": _directed_3_cycle(),
    }


def _sha(conf):
    import hashlib

    from dezawl import configuration_to_json

    return hashlib.sha256(configuration_to_json(conf).encode()).hexdigest()


def test_hashed_rounds_take_the_hashed_path(cache):
    for name, graph in _pinned_graphs(cache).items():
        conf = wl2(graph)
        assert conf.path == "hashed", name
        assert conf.recheck_rows == graph.n, name
        assert conf.rounds >= 1


@pytest.mark.parametrize("prime", [2, 3])
def test_hash_collisions_fall_back_to_exact_rounds(cache, monkeypatch, prime):
    """With p = 2 every projection is 1, so the hashed rounds stop at once on
    the initial coloring; with p = 3 hashed signatures collide at random.
    Either way the exact rounds finish the job and the bytes stay pinned."""
    from dezawl import wl

    monkeypatch.setattr(wl, "_HASH_PRIME", prime)
    paths = set()
    for name, graph in _pinned_graphs(cache).items():
        conf = wl2(graph)
        assert _sha(conf) == _PINNED_COLORINGS[name], name
        paths.add(conf.path)
    assert paths <= {"hashed", "hashed+exact"}
    if prime == 2:
        assert wl2(cache.graph(5)).path == "hashed+exact"


def test_exact_rounds_run_past_the_size_bound(cache, monkeypatch):
    from dezawl import wl

    assert wl._HASH_MAX_N * (wl._HASH_PRIME - 1) ** 2 < 2 ** 53
    assert (wl._HASH_MAX_N * wl._HASH_PRIME) ** 2 <= 2 ** 63
    graphs = _pinned_graphs(cache)
    monkeypatch.setattr(wl, "_HASH_MAX_N", 23)
    monkeypatch.setattr(wl, "_hashed_round", None)  # must not be called
    for name, graph in graphs.items():
        if graph.n <= 23:
            continue
        conf = wl2(graph)
        assert conf.path == "exact", name
        assert _sha(conf) == _PINNED_COLORINGS[name], name


def _random_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randrange(2, 13)
    directed = seed % 2 == 1
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and (directed or u < v)]
    edges = [e for e in pairs if rng.random() < rng.choice([0.2, 0.4, 0.6])]
    return Graph.from_edges(n, edges, directed=directed)


@pytest.mark.parametrize("seed", range(12))
def test_hashed_and_exact_rounds_agree(seed):
    """Every hashed round gives the exact round's coloring, ids included, on
    random graphs and digraphs, which are rarely Cayley graphs."""
    import numpy as np

    from dezawl.wl import _hashed_round, _wl2_round

    graph = _random_graph(seed)
    init = initial_pair_coloring(graph)
    color, num = init.color, init.num_colors
    for t in range(graph.n ** 2):
        exact_color, exact_num = _wl2_round(color, num)
        hashed_color, hashed_num = _hashed_round(color, num, t)
        assert hashed_num == exact_num
        assert np.array_equal(hashed_color, exact_color)
        if exact_num == num:
            break
        color, num = exact_color, exact_num
    conf = wl2(graph)
    assert conf.path == "hashed"
    assert np.array_equal(conf.coloring.color, color)
