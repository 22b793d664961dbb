import json
import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    carrying,
    cyclic_group,
    elementary_abelian,
    exact_round,
    hashed_round,
    initial_coloring,
)
from dezawl import (
    Graph,
    cayley_graph,
    connection_set,
    family_group,
    grid_graph,
    is_sring,
    verify_coherence,
    wl1,
    wl1_distinguishes,
    wl2,
    wl_closure,
    wl_rank,
)


def _configuration_to_json(c):
    """Serialize a coherent configuration: n, rank and the color matrix in
    row-major order."""
    flat = [int(x) for x in c.color.ravel()]
    obj = {"n": len(c.color), "rank": c.rank, "colors": flat}
    return json.dumps(obj, sort_keys=True) + "\n"


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
        assert verify_coherence(conf.color, conf.rank).ok


def test_initial_coloring_of_family_graph_is_not_coherent(cache):
    res = verify_coherence(*initial_coloring(cache.graph(3)))
    assert not res.ok
    assert res.witness["kind"] == "intersection"
    # the witness pairs really do differ, recounted by hand
    gamma = cache.graph(3)
    (u1, v1), (u2, v2) = res.witness["pairs"]
    i, j = res.witness["colors"]
    init, _ = initial_coloring(gamma)

    def count(u, v):
        return sum(
            1
            for w in range(gamma.n)
            if init[u, w] == i and init[w, v] == j
        )

    assert count(u1, v1) != count(u2, v2)


def test_a_recheck_is_true_exactly_when_it_accepts(cache):
    accepted = verify_coherence(*initial_coloring(_complete(5)))
    rejected = verify_coherence(*initial_coloring(cache.graph(3)))
    assert accepted and accepted.ok and accepted.witness is None
    assert not rejected and not rejected.ok and rejected.witness is not None


def test_trivial_coloring_of_complete_graph_is_coherent():
    import numpy as np

    from dezawl.wl import CoherenceResult

    res = verify_coherence(*initial_coloring(_complete(5)))
    assert res.ok
    # the empty coloring, with no rows to compare
    assert verify_coherence(np.zeros((0, 0), dtype=np.int32), 0) == CoherenceResult(True)


def test_arc_set_is_union_of_stable_classes(cache):
    gamma = cache.graph(4)
    conf = cache.configuration(("family", 4), gamma)
    arc_colors = {
        int(conf.color[u, v])
        for u in range(gamma.n)
        for v in gamma.neighbors(u)
    }
    non_arc_colors = {
        int(conf.color[u, v])
        for u in range(gamma.n)
        for v in range(gamma.n)
        if u != v and not gamma.has_edge(u, v)
    }
    assert not arc_colors & non_arc_colors


def test_transpose_closure_on_directed_graph():
    digraph = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    conf = wl2(digraph)
    color = conf.color
    for i in range(conf.rank):
        partners = {int(color[v, u]) for u in range(3) for v in range(3)
                    if color[u, v] == i}
        assert len(partners) == 1


def test_color_ids_are_contiguous_and_diagonal_separate(cache):
    conf = cache.configuration(("family", 3), cache.graph(3))
    import numpy as np

    colors = np.unique(conf.color)
    assert list(colors) == list(range(conf.rank))
    diag = set(np.diagonal(conf.color).tolist())
    off = set(conf.color[~np.eye(len(conf.color), dtype=bool)].tolist())
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
    conf = cache.configuration(("family", 3), cache.graph(3))
    plain = json.loads(_configuration_to_json(conf))
    assert plain["n"] == 24
    assert plain["rank"] == 24
    assert len(plain["colors"]) == 24 * 24


def test_refinement_never_decreases_color_count(cache):
    gamma = cache.graph(3)
    color, num = initial_coloring(gamma)
    for _ in range(10):
        new_color, new_num = exact_round(color, num)
        assert new_num >= num
        assert new_num <= gamma.n * gamma.n
        if new_num == num:
            break
        color, num = new_color, new_num


def _directed_3_cycle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)


# sha256 of _configuration_to_json(wl2(g)), recorded before 2-WL rounds were
# blocked and numbered through a signature dict; the bytes must never move.
_PINNED_COLORINGS = {
    "gamma5": "171466738738cd91e60c39088f43fdc95c15cf15cd2f912db141c9c13e284597",
    "gamma6": "ea9790d03f4ca4e87c87662f838d848c7b79e763f8326cbb3558e25f17bdc3a2",
    "grid4x6": "ba22c35f5e876791a1044fb996a7df9f9b6b4d609bf1b88f09f59e99c9b9b6b3",
    "directed3cycle": "850993c77412e609f52d59eff330daaa0fd843bcd09cccbdc77342404f0358ae",
}


def test_final_colorings_are_bit_identical_to_pins(cache):
    import hashlib

    graphs = {
        "gamma5": cache.graph(5),
        "gamma6": cache.graph(6),
        "grid4x6": grid_graph(4, 6),
        "directed3cycle": _directed_3_cycle(),
    }
    for name, graph in graphs.items():
        text = _configuration_to_json(wl2(graph))
        assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_COLORINGS[name], name


def _exact_fixed_point(graph):
    """The stable coloring reached by exact rounds alone."""
    color, num = initial_coloring(graph)
    while True:
        new_color, new_num = exact_round(color, num)
        if new_num == num:
            return color, num
        color, num = new_color, new_num


def test_exact_rounds_alone_reach_the_wl2_coloring(cache):
    import numpy as np

    digraph = Graph.from_edges(
        7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (6, 0)],
        directed=True,
    )
    graphs = (cache.graph(4), cache.graph(5), digraph)
    # wl2 reaches these colorings by hashed rounds, so drive the exact rounds
    # to their fixed point directly.
    for graph in graphs:
        expected = wl2(graph)
        color, num = _exact_fixed_point(graph)
        assert num == expected.rank
        assert np.array_equal(color, expected.color)
    assert wl_rank(Graph(0)) == 0
    assert wl_rank(Graph(1)) == 1


def test_no_vertices_are_not_transitive():
    """_transitive is False on a 0 x 0 matrix, whose recheck compares no
    row, and True on one vertex without perms, whose one row is all."""
    import numpy as np

    from dezawl.graphs import _transitive

    assert not _transitive(np.zeros((0, 0), dtype=bool), ())
    assert _transitive(np.zeros((1, 1), dtype=bool), ())
    assert verify_coherence(np.zeros((0, 0), dtype=np.int32), 0).rows == 0
    assert verify_coherence(np.zeros((1, 1), dtype=np.int32), 1).rows == 1


def test_round_ids_do_not_depend_on_color_values(cache):
    """Ids depend only on which signatures are equal, whatever values name
    the colors."""
    import numpy as np

    for graph in (cache.graph(3), _directed_3_cycle()):
        init, num = initial_coloring(graph)
        expected_color, expected_num = exact_round(init, num)
        new_color, new_num = exact_round(num - 1 - init, num)
        assert new_num == expected_num
        assert np.array_equal(new_color, expected_color)


def test_wl2_raises_when_refinement_stops_early(cache, monkeypatch):
    """A recheck stand-in rejects every coloring, with a witness that splits
    no class of a coherent one: a transpose witness, or an intersection
    witness whose counts are constant on every class. wl2 raises after its
    one check, of the stable coloring, instead of looping."""
    from dezawl import wl
    from dezawl.wl import CoherenceResult

    graph = cache.graph(3)
    for witness in ({"kind": "transpose", "color": 0},
                    {"kind": "intersection", "colors": (1, 2)}):
        checked = []

        def reject(color, rank, perms=()):
            checked.append(rank)
            return CoherenceResult(False, witness)

        monkeypatch.setattr(wl, "verify_coherence", reject)
        with pytest.raises(RuntimeError, match="splits no class"):
            wl2(graph)
        assert checked == [graph.n], witness


def _pinned_graphs(cache):
    return {
        "gamma5": cache.graph(5),
        "gamma6": cache.graph(6),
        "grid4x6": grid_graph(4, 6),
        "directed3cycle": _directed_3_cycle(),
    }


def _sha(conf):
    import hashlib

    return hashlib.sha256(_configuration_to_json(conf).encode()).hexdigest()


def test_hashed_rounds_take_the_hashed_path(cache):
    """On a copy that carries no automorphisms the recheck compares every
    row; on the graph itself it compares one on the Cayley graphs and the
    grid, which carry their translations, and every row on the 3-cycle
    digraph, built from its edges."""
    import numpy as np

    for name, graph in _pinned_graphs(cache).items():
        conf = wl2(carrying(graph))
        assert conf.rejections == 0, name
        assert conf.recheck_rows == graph.n, name
        assert conf.rounds >= 1
        carried = wl2(graph)
        assert np.array_equal(carried.color, conf.color), name
        assert carried.recheck_rows == (graph.n if name == "directed3cycle" else 1), name


def _spy_rejections(monkeypatch) -> list:
    """The witness kinds of the rejections of wl2's rechecks from now on."""
    from dezawl import wl

    real, kinds = wl.verify_coherence, []

    def spy(color, rank, perms=()):
        check = real(color, rank, perms)
        if not check.ok:
            kinds.append(check.witness["kind"])
        return check

    monkeypatch.setattr(wl, "verify_coherence", spy)
    return kinds


@pytest.mark.parametrize("prime", [2, 3])
def test_hash_collisions_are_split_by_the_recheck_witness(cache, monkeypatch, prime):
    """The prime taken from n is replaced by 2 or 3. With p = 2 every weight
    is 1, so no hashed round splits a class: the first trigger fires on the
    initial coloring, and the splits by the recheck's witnesses alone refine
    every pinned graph whose initial coloring is not coherent. On Gamma_5
    every check that compares rows compares one, as each coloring the
    rounds restart from is invariant under the translations; a transpose
    rejection compares none. With p = 3 hashed signatures collide at
    random. Either way the bytes stay pinned."""
    from dezawl import wl

    monkeypatch.setattr(wl, "_hash_prime", lambda n: prime)
    kinds = _spy_rejections(monkeypatch)
    for name, graph in _pinned_graphs(cache).items():
        conf = wl2(graph)
        assert _sha(conf) == _PINNED_COLORINGS[name], name
        if prime == 2:
            coherent = verify_coherence(*initial_coloring(graph)).ok
            assert (conf.rejections > 0) == (not coherent), name
    if prime == 2:
        kinds.clear()
        conf = wl2(cache.graph(5))
        assert conf.rejections == len(kinds) > 0
        assert conf.recheck_rows == conf.rejections + 1 - kinds.count("transpose")


def test_a_false_stop_is_retried_under_the_next_seed(cache, monkeypatch):
    """A trigger forced to fire on the first round (seed 0) stops on the
    initial coloring; the recheck rejects it where it is not coherent, and
    hashed rounds under the next seeds, from its split by the witness,
    reach the pinned bytes after that one rejection."""
    from dezawl import wl

    real = wl._hashed_round

    def false_stop(key, p, seed, trigger):
        if seed == 0:
            return not trigger  # the key unchanged, so a count rule stops too
        return real(key, p, seed, trigger)

    monkeypatch.setattr(wl, "_hashed_round", false_stop)
    for name, graph in _pinned_graphs(cache).items():
        conf = wl2(graph)
        assert _sha(conf) == _PINNED_COLORINGS[name], name
        assert conf.rejections == (0 if verify_coherence(*initial_coloring(graph)) else 1), name
    assert wl2(cache.graph(5)).recheck_rows == 2


def test_a_mixer_that_merges_classes_cannot_stop_on_a_coarser_coloring(cache, monkeypatch):
    """The mixer of the first round maps the arc and non-arc keys (and
    reverse arcs) to one key. The coloring {diagonal, off-diagonal} that the
    rounds then stop on is coherent, so the recheck would accept it; only
    the check that it refines the initial coloring catches it, and the
    recheck takes their meet, the initial coloring, instead: it accepts it
    where it is coherent and else rejects it once, and the rounds from its
    split reach the pinned bytes and rank."""
    import numpy as np

    from dezawl import wl

    real = wl._finalize
    merged = []

    def merging(z):
        if z.ndim == 2 and not merged:  # the first round's keys
            merged.append(True)
            z[...] = np.eye(len(z), dtype=z.dtype)
        return real(z)

    monkeypatch.setattr(wl, "_finalize", merging)
    for name, graph in _pinned_graphs(cache).items():
        n = graph.n
        assert verify_coherence(1 - np.eye(n, dtype=np.int32), 2)
        merged.clear()
        conf = wl2(graph)
        assert merged, name
        assert _sha(conf) == _PINNED_COLORINGS[name], name
        assert conf.rank == _exact_fixed_point(graph)[1] > 2, name
        assert conf.rejections == (0 if verify_coherence(*initial_coloring(graph)) else 1), name


def test_perms_that_are_not_transitive_automorphisms_trigger_nothing(cache):
    """The identity alone has n orbits, and a shift of the vertex labels is
    transitive but moves edges of these graphs: on a copy that carries
    either, wl2 stops on a round that keeps the count and rechecks every
    row, on the pinned bytes."""
    for name, graph in _pinned_graphs(cache).items():
        n = graph.n
        perms = [[list(range(n))]]
        if name != "directed3cycle":  # whose shifts are its rotations
            perms.append([[(v + 1) % n for v in range(n)]])
        for p in perms:
            conf = wl2(carrying(graph, p))
            assert _sha(conf) == _PINNED_COLORINGS[name], name
            assert conf.recheck_rows == n, name


def test_a_hashed_round_is_one_product_in_row_blocks(cache, monkeypatch):
    """Each full hashed round forms one product, in _BLOCKS row blocks. On
    Gamma_5, whose translations act transitively, row 0 comes first on its
    own, and the round that finds row 0 stable stops after it. Gamma_5 less
    the edge (0, 2) carries no automorphisms, so a full round that keeps the
    count stops it, on the coloring exact rounds alone reach."""
    from types import SimpleNamespace

    import numpy as np

    from dezawl import wl
    from dezawl.graphs import _BLOCKS, _row_blocks

    products = []

    def matmul(a, b):
        products.append(a.shape)
        return np.matmul(a, b)

    monkeypatch.setattr(wl, "np", SimpleNamespace(**{**vars(np), "matmul": matmul}))
    gamma = cache.graph(5)
    dropped = gamma.without_edge(0, 2)
    assert dropped.automorphisms == ()
    confs = []
    for graph, row_0, rows in ((gamma, 1, 1), (dropped, 0, gamma.n)):
        assert len(_row_blocks(graph.n)) == _BLOCKS
        products.clear()
        conf = wl2(graph)
        assert len(products) == conf.rounds * (_BLOCKS + row_0) + row_0
        assert products[0] == ((1, graph.n) if row_0 else (graph.n // _BLOCKS, graph.n))
        assert (conf.rejections, conf.recheck_rows) == (0, rows)
        confs.append(conf)
    assert products[-1] == (graph.n // _BLOCKS, graph.n)
    assert _sha(confs[0]) == _PINNED_COLORINGS["gamma5"]
    exact_color, exact_num = _exact_fixed_point(dropped)
    assert exact_num == confs[1].rank
    assert np.array_equal(exact_color, confs[1].color)


@pytest.mark.parametrize("n", [1, 2, 120, 8192, 8200, 46340])
def test_the_hash_prime_is_the_largest_exact_one(n):
    """p is prime, n (p - 1)^2 < 2^53, so every sum of a hashed product is
    exact, and the next prime breaks that bound; 8192 keeps the prime that
    was fixed while hashed rounds stopped there."""
    import sympy

    from dezawl import wl

    p = wl._hash_prime(n)
    assert sympy.isprime(p)
    assert n * (p - 1) ** 2 < 2 ** 53 <= n * (sympy.nextprime(p) - 1) ** 2
    assert (n != 8192) or p == 1048573
    odd = range(p - 200, p + 1, 2)  # the candidates wl._is_prime is given
    assert [wl._is_prime(m) for m in odd] == [sympy.isprime(m) for m in odd]


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

    graph = _random_graph(seed)
    color, num = initial_coloring(graph)
    for t in range(graph.n ** 2):
        exact_color, exact_num = exact_round(color, num)
        hashed_color, hashed_num = hashed_round(color, t)
        assert hashed_num == exact_num
        assert np.array_equal(hashed_color, exact_color)
        if exact_num == num:
            break
        color, num = exact_color, exact_num
    conf = wl2(graph)
    assert conf.rejections == 0
    assert np.array_equal(conf.color, color)


@pytest.mark.parametrize("prime", [2, 3])
def test_witness_splits_reach_the_exact_fixed_point(monkeypatch, prime):
    """With the prime replaced by 2, where only the recheck's witnesses
    split classes, or 3, where hashed signatures collide at random, wl2
    ends on the exact fixed point, ids included, on the random graphs and
    digraphs of test_hashed_and_exact_rounds_agree; splits by transpose and
    by intersection witnesses both occur."""
    import numpy as np

    from dezawl import wl

    monkeypatch.setattr(wl, "_hash_prime", lambda n: prime)
    kinds = _spy_rejections(monkeypatch)
    for seed in range(12):
        graph = _random_graph(seed)
        conf = wl2(graph)
        color, num = _exact_fixed_point(graph)
        assert conf.rank == num, seed
        assert np.array_equal(conf.color, color), seed
    assert {"transpose", "intersection"} <= set(kinds), kinds


def test_witness_splits_alone_refine_gamma_5_less_an_edge(cache, monkeypatch):
    """Under p = 2 the witnesses alone refine Gamma_5 less the edge (0, 2),
    which carries no automorphisms, to its exact fixed point of rank 800,
    one class or more per rejection."""
    import numpy as np

    from dezawl import wl

    graph = cache.graph(5).without_edge(0, 2)
    color, num = _exact_fixed_point(graph)
    assert num == 800
    monkeypatch.setattr(wl, "_hash_prime", lambda n: 2)
    conf = wl2(graph)
    assert np.array_equal(conf.color, color)
    assert 0 < conf.rejections <= num - initial_coloring(graph)[1]


_CAYLEY_GROUPS = (family_group(3), elementary_abelian(4), cyclic_group(16))
# Orders 64 to 128: the dihedral-based family group at k = 8 and 16, C2^6,
# C2^7 and C128.
_LARGER_GROUPS = (family_group(8), elementary_abelian(6), family_group(16),
                  elementary_abelian(7), cyclic_group(128))


@st.composite
def _inverse_closed_sets(draw, groups=_CAYLEY_GROUPS):
    """One of the groups and an inverse-closed S in G - {e}, as a union of
    drawn pairs {x, x^-1}."""
    g = draw(st.sampled_from(groups))
    pairs = sorted({tuple(sorted((x, int(g.inv[x])))) for x in range(g.order)
                    if x != g.identity})
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    return g, sorted({x for pair in chosen for x in pair})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_inverse_closed_sets())
def test_wl2_and_sring_closure_agree_on_cayley_graphs(group_and_set):
    """On Cayley graphs of three groups, 2-WL and the S-ring closure, which
    share no code, give one rank; every hashed round gives the exact round's
    coloring, ids included, once numbered by first occurrence; the right
    translations the graph carries pass the exact automorphism check and
    act transitively, so wl2 and integral_spectrum give with them what they give
    on a copy that carries none, and the recheck reduced by them gives the
    full recheck's verdict and witness from one row. Graphs derived from it
    carry none."""
    _check_wl2_and_closure(*group_and_set)


@settings(max_examples=25, deadline=timedelta(seconds=20), derandomize=True,
          database=None)
@given(_inverse_closed_sets(_LARGER_GROUPS))
def test_wl2_and_sring_closure_agree_on_larger_cayley_graphs(group_and_set):
    """The same checks on groups of order 64 to 128. Time bound: no example
    may take 20 s (the hypothesis deadline), so a round, the closure or the
    spectrum that blew up on some connection set would fail the test. The
    slowest examples take about 1.5 s, almost all of it the spectrum's
    exact elimination on graphs that are not integral."""
    _check_wl2_and_closure(*group_and_set)


def _check_wl2_and_closure(g, s):
    import numpy as np

    from dezawl import graph_to_json, integral_spectrum, load_graph
    from dezawl.graphs import _transitive

    graph = cayley_graph(g, s)
    closure = wl_closure(g, [s])
    translations = graph.automorphisms
    assert _transitive(graph.adj, translations)
    carried, every_row = wl2(graph), wl2(carrying(graph))
    assert np.array_equal(carried.color, every_row.color)
    assert (carried.recheck_rows, every_row.recheck_rows) == (1, graph.n)
    assert carried.rank == closure.rank
    assert integral_spectrum(graph) == integral_spectrum(carrying(graph))
    assert is_sring(closure).ok
    derived = [load_graph(graph_to_json(graph))]
    if s:
        derived.append(graph.without_edge(*graph.edges()[0]))
    assert [d.automorphisms for d in derived] == [()] * len(derived)
    color, num = initial_coloring(graph)
    for t in range(graph.n ** 2):
        full = verify_coherence(color, num)
        reduced = verify_coherence(color, num, translations)
        assert (reduced.ok, reduced.witness, reduced.rows) == (full.ok, full.witness, 1)
        exact_color, exact_num = exact_round(color, num)
        hashed_color, hashed_num = hashed_round(color, t)
        assert hashed_num == exact_num
        assert np.array_equal(hashed_color, exact_color)
        if exact_num == num:
            break
        color, num = exact_color, exact_num
    assert num == closure.rank
