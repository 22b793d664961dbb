"""Cross-check of verify_coherence against a brute-force reference.

The reference counts every intersection number p^r_ij in pure Python, pair by
pair, and reports the first failure in the order verify_coherence promises:
diagonal, then transpose, then the smallest color pair (i, j) and the
smallest class r on which p_ij varies.
"""

import random
from collections import Counter

import numpy as np
import pytest

from dezawl import Graph, initial_pair_coloring, verify_coherence
from dezawl.verify import _right_translations
from dezawl.wl import CoherenceResult, PairColoring, _wl2_round


def _reference_failure(color: list[list[int]], num_colors: int):
    """(kind, details) of the first coherence failure, or None."""
    n = len(color)
    diag = {color[u][u] for u in range(n)}
    off = {color[u][v] for u in range(n) for v in range(n) if u != v}
    if diag & off:
        return ("diagonal", min(diag & off))
    for i in range(num_colors):
        partners = sorted({color[v][u] for u in range(n) for v in range(n) if color[u][v] == i})
        if len(partners) != 1:
            return ("transpose", (i, partners))
    counts = {
        (u, v): Counter((color[u][w], color[w][v]) for w in range(n))
        for u in range(n)
        for v in range(n)
    }
    varying = []
    for r in range(num_colors):
        members = [counts[u, v] for u in range(n) for v in range(n) if color[u][v] == r]
        for ij in set().union(*members):
            if len({m[ij] for m in members}) > 1:
                varying.append((ij, r))
    if varying:
        return ("intersection", min(varying))
    return None


def _intersection_count(color, i, j, u, v):
    return sum(1 for w in range(len(color)) if color[u][w] == i and color[w][v] == j)


def _check_against_reference(coloring: PairColoring) -> str:
    color = coloring.color.tolist()
    expected = _reference_failure(color, coloring.num_colors)
    res = verify_coherence(coloring)
    if expected is None:
        assert res.ok and res.witness is None
        return "ok"
    assert not res.ok
    kind, details = expected
    assert res.witness["kind"] == kind
    if kind == "diagonal":
        assert res.witness["color"] == details
    elif kind == "transpose":
        assert (res.witness["color"], res.witness["partners"]) == details
    else:
        (i, j), r = details
        assert res.witness["colors"] == (i, j)
        assert res.witness["class"] == r
        members = [(u, v) for u in range(coloring.n) for v in range(coloring.n)
                   if color[u][v] == r]
        by_hand = [_intersection_count(color, i, j, u, v) for u, v in members]
        lo, hi = res.witness["pairs"]
        assert lo in members and hi in members
        assert res.witness["counts"] == (min(by_hand), max(by_hand))
        assert _intersection_count(color, i, j, *lo) == min(by_hand)
        assert _intersection_count(color, i, j, *hi) == max(by_hand)
        assert min(by_hand) < max(by_hand)
    return kind


def _contiguous(rows: list[list[int]]) -> PairColoring:
    """Renumber colors 0, 1, ... in row-major order of first occurrence."""
    ids: dict[int, int] = {}
    color = [[ids.setdefault(x, len(ids)) for x in row] for row in rows]
    return PairColoring(len(rows), np.array(color, dtype=np.int64), len(ids))


def _random_digraph(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randrange(4, 9)
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
    return Graph.from_edges(n, edges, directed=True)


@pytest.mark.parametrize("graph", ["gamma3", "gamma4"] + [f"digraph{s}" for s in range(10)])
def test_every_intermediate_round(cache, graph):
    if graph.startswith("gamma"):
        g = cache.graph(int(graph[len("gamma"):]))
    else:
        g = _random_digraph(int(graph[len("digraph"):]))
    init = initial_pair_coloring(g)
    color, num = init.color, init.num_colors
    kinds = []
    while True:
        kinds.append(_check_against_reference(PairColoring(init.n, color, num)))
        new_color, new_num = _wl2_round(color, num)
        if new_num == num:
            break
        color, num = new_color, new_num
    assert kinds[-1] == "ok"
    assert kinds[:-1] and all(kind == "intersection" for kind in kinds[:-1])


def _random_coloring(rng: random.Random, family: str) -> PairColoring:
    n = rng.randrange(1, 8)
    r = rng.randrange(1, 5)
    rows = [[rng.randrange(r) for _ in range(n)] for _ in range(n)]
    if family != "any":
        # diagonal colors apart from the off-diagonal ones
        for u in range(n):
            rows[u][u] = r + rng.randrange(2)
    if family == "symmetric":
        rows = [[max(rows[u][v], rows[v][u]) for v in range(n)] for u in range(n)]
    return _contiguous(rows)


@pytest.mark.parametrize("family", ["any", "asymmetric", "symmetric"])
def test_random_colorings(family):
    rng = random.Random(f"coherence-{family}")
    kinds = Counter(_check_against_reference(_random_coloring(rng, family))
                    for _ in range(150))
    # the kinds each family must reach, and the kinds it can reach at all
    needed, possible = {
        "any": ({"diagonal"}, {"diagonal", "transpose", "intersection", "ok"}),
        "asymmetric": ({"transpose", "intersection"}, {"transpose", "intersection", "ok"}),
        "symmetric": ({"intersection", "ok"}, {"intersection", "ok"}),
    }[family]
    assert needed <= set(kinds) <= possible



# The orbit-reduced recheck: given color-preserving permutations it compares
# one row per orbit, and it must reach the full check's verdict and witness.

def _assert_reduced_agrees(coloring: PairColoring, perms) -> CoherenceResult:
    full = verify_coherence(coloring)
    reduced = verify_coherence(coloring, perms)
    assert (reduced.ok, reduced.witness) == (full.ok, full.witness)
    # diagonal and transpose failures come before any row is compared
    compared = full.ok or full.witness["kind"] == "intersection"
    assert full.rows == (coloring.n if compared else 0)
    return reduced


def _relabel(coloring: PairColoring, perms, sigma):
    """The coloring and the permutations with vertex u renamed sigma[u]."""
    n = coloring.n
    inverse = np.argsort(sigma)
    color = np.empty_like(coloring.color)
    color[np.ix_(sigma, sigma)] = coloring.color
    moved = [[sigma[p[inverse[x]]] for x in range(n)] for p in perms]
    return _contiguous(color.tolist()), moved


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_orbit_reduced_recheck_on_every_round(cache, k):
    g = cache.group(k)
    perms = _right_translations(g, [g.a, g.b, g.c, g.d])
    init = initial_pair_coloring(cache.graph(k))
    rng = random.Random(k)
    color, num = init.color, init.num_colors
    while True:
        coloring = PairColoring(init.n, color, num)
        reduced = _assert_reduced_agrees(coloring, perms)
        # the translations preserve every round and move 0 to every vertex
        assert reduced.rows == (1 if reduced.ok else 1 + init.n)
        sigma = rng.sample(range(init.n), init.n)
        moved = _assert_reduced_agrees(*_relabel(coloring, perms, sigma))
        assert moved.rows == reduced.rows
        new_color, new_num = _wl2_round(color, num)
        if new_num == num:
            break
        color, num = new_color, new_num
    assert reduced.ok


def _invariant_coloring(rng: random.Random):
    """A random coloring that a random permutation pi preserves: one random
    color per orbit of <pi> on pairs, with the diagonal colored apart."""
    n = rng.randrange(1, 9)
    pi = rng.sample(range(n), n)
    r = rng.randrange(1, 4)
    rows = [[None] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if rows[u][v] is None:
                c = rng.randrange(r) + (r if u == v else 0)
                x, y = u, v
                while rows[x][y] is None:
                    rows[x][y] = c
                    x, y = pi[x], pi[y]
    return _contiguous(rows), pi


def test_orbit_reduced_recheck_on_random_invariant_colorings():
    rng = random.Random("orbit-reduced")
    kinds = Counter()
    fewer_rows = 0
    for _ in range(300):
        coloring, pi = _invariant_coloring(rng)
        kinds[_check_against_reference(coloring)] += 1
        reduced = _assert_reduced_agrees(coloring, [pi])
        if reduced.ok:
            cycles = len({min(_orbit(pi, u)) for u in range(coloring.n)})
            assert reduced.rows == cycles
            fewer_rows += cycles < coloring.n
    assert {"ok", "intersection", "transpose"} <= set(kinds)
    assert fewer_rows > 0


def _orbit(pi, u):
    orbit = [u]
    while pi[orbit[-1]] != u:
        orbit.append(pi[orbit[-1]])
    return orbit


def test_non_preserving_permutations_fall_back_to_the_full_check(cache):
    gamma = cache.graph(3)
    g = cache.group(3)
    conf = cache.configuration(("family", 3), gamma)
    perms = _right_translations(g, [g.a, g.b, g.c, g.d])
    assert verify_coherence(conf.coloring, perms).rows == 1
    # right translations are not automorphisms of the graph with an edge
    # removed, so its colorings are checked in full, with the same witness
    u = 0
    broken = gamma.without_edge(u, gamma.neighbors(u)[0])
    init = initial_pair_coloring(broken)
    color, num = init.color, init.num_colors
    while True:
        coloring = PairColoring(init.n, color, num)
        reduced = _assert_reduced_agrees(coloring, perms)
        assert reduced.rows == init.n
        new_color, new_num = _wl2_round(color, num)
        if new_num == num:
            break
        color, num = new_color, new_num
    # maps that are not permutations of the vertices are ignored; a random
    # permutation may or may not preserve the coloring
    rng = random.Random(5)
    for _ in range(50):
        coloring = _random_coloring(rng, "symmetric")
        n = coloring.n
        full_rows = verify_coherence(coloring).rows
        for perm in ([0] * n, list(range(n + 1))):
            if n > 1 or len(perm) != n:
                assert _assert_reduced_agrees(coloring, [perm]).rows == full_rows
        _assert_reduced_agrees(coloring, [rng.sample(range(n), n)])
