"""Cross-check of verify_coherence against a brute-force reference.

The reference counts every intersection number p^r_ij in pure Python, pair by
pair, and reports the first failure in the order verify_coherence promises:
diagonal, then transpose, then the smallest color pair (i, j) and the
smallest class r on which p_ij varies.
"""

import random
from collections import Counter
from typing import Optional, Sequence

import numpy as np
import pytest
from conftest import exact_round, hashed_round, initial_coloring

from dezawl import Graph, verify_coherence, wl
from dezawl.wl import (
    _SORT_BLOCK_ROWS,
    CoherenceResult,
    _varying_intersection,
)


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


def _check_against_reference(matrix: np.ndarray, num: int) -> str:
    color = matrix.tolist()
    expected = _reference_failure(color, num)
    res = verify_coherence(matrix, num)
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
        n = len(color)
        members = [(u, v) for u in range(n) for v in range(n) if color[u][v] == r]
        by_hand = [_intersection_count(color, i, j, u, v) for u, v in members]
        lo, hi = res.witness["pairs"]
        assert lo in members and hi in members
        assert res.witness["counts"] == (min(by_hand), max(by_hand))
        assert _intersection_count(color, i, j, *lo) == min(by_hand)
        assert _intersection_count(color, i, j, *hi) == max(by_hand)
        assert min(by_hand) < max(by_hand)
    return kind


def _contiguous(rows: list[list[int]]) -> tuple[np.ndarray, int]:
    """Renumber colors 0, 1, ... in row-major order of first occurrence: the
    int64 matrix and its rank."""
    ids: dict[int, int] = {}
    color = [[ids.setdefault(x, len(ids)) for x in row] for row in rows]
    return np.array(color, dtype=np.int64), len(ids)


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
    color, num = initial_coloring(g)
    kinds = []
    while True:
        kinds.append(_check_against_reference(color, num))
        new_color, new_num = exact_round(color, num)
        if new_num == num:
            break
        color, num = new_color, new_num
    assert kinds[-1] == "ok"
    assert kinds[:-1] and all(kind == "intersection" for kind in kinds[:-1])


def _random_coloring(rng: random.Random, family: str) -> tuple[np.ndarray, int]:
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
    kinds = Counter(_check_against_reference(*_random_coloring(rng, family))
                    for _ in range(150))
    # the kinds each family must reach, and the kinds it can reach at all
    needed, possible = {
        "any": ({"diagonal"}, {"diagonal", "transpose", "intersection", "ok"}),
        "asymmetric": ({"transpose", "intersection"}, {"transpose", "intersection", "ok"}),
        "symmetric": ({"intersection", "ok"}, {"intersection", "ok"}),
    }[family]
    assert needed <= set(kinds) <= possible



# The reduced recheck: given color-preserving permutations that act
# transitively it compares row 0 alone, else every row, and it must reach the
# full check's verdict and witness.

def _assert_reduced_agrees(color: np.ndarray, num: int, perms) -> CoherenceResult:
    full = verify_coherence(color, num)
    reduced = verify_coherence(color, num, perms)
    assert (reduced.ok, reduced.witness) == (full.ok, full.witness)
    # diagonal and transpose failures come before any row is compared
    compared = full.ok or full.witness["kind"] == "intersection"
    assert full.rows == (len(color) if compared else 0)
    return reduced


def _relabel(color: np.ndarray, perms, sigma):
    """The coloring, its rank and the permutations with vertex u renamed
    sigma[u]."""
    n = len(color)
    inverse = np.argsort(sigma)
    moved_color = np.empty_like(color)
    moved_color[np.ix_(sigma, sigma)] = color
    moved = [[sigma[p[inverse[x]]] for x in range(n)] for p in perms]
    return (*_contiguous(moved_color.tolist()), moved)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_orbit_reduced_recheck_on_every_round(cache, k):
    perms = cache.graph(k).automorphisms
    n = cache.graph(k).n
    rng = random.Random(k)
    color, num = initial_coloring(cache.graph(k))
    while True:
        reduced = _assert_reduced_agrees(color, num, perms)
        # the translations preserve every round and move 0 to every vertex,
        # so one row decides, on rejection too
        assert reduced.rows == 1
        sigma = rng.sample(range(n), n)
        moved = _assert_reduced_agrees(*_relabel(color, perms, sigma))
        assert moved.rows == reduced.rows
        new_color, new_num = exact_round(color, num)
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
    one_row = Counter()  # by verdict, on n > 1 vertices
    for _ in range(300):
        (color, num), pi = _invariant_coloring(rng)
        kinds[_check_against_reference(color, num)] += 1
        reduced = _assert_reduced_agrees(color, num, [pi])
        if reduced.ok or reduced.witness["kind"] == "intersection":
            # <pi> is transitive iff pi is one n-cycle
            one_cycle = len(_orbit(pi, 0)) == len(color)
            assert reduced.rows == (1 if one_cycle else len(color))
            one_row[reduced.ok] += one_cycle and len(color) > 1
    assert {"ok", "intersection", "transpose"} <= set(kinds)
    assert one_row[True] > 0 and one_row[False] > 0


def _orbit(pi, u):
    orbit = [u]
    while pi[orbit[-1]] != u:
        orbit.append(pi[orbit[-1]])
    return orbit


def test_non_preserving_permutations_fall_back_to_the_full_check(cache):
    gamma = cache.graph(3)
    conf = cache.configuration(("family", 3), gamma)
    perms = gamma.automorphisms
    assert verify_coherence(conf.color, conf.rank, perms).rows == 1
    # right translations are not automorphisms of the graph with an edge
    # removed, so its colorings are checked in full, with the same witness
    u = 0
    broken = gamma.without_edge(u, gamma.neighbors(u)[0])
    color, num = initial_coloring(broken)
    while True:
        reduced = _assert_reduced_agrees(color, num, perms)
        assert reduced.rows == broken.n
        new_color, new_num = exact_round(color, num)
        if new_num == num:
            break
        color, num = new_color, new_num
    # maps that are not permutations of the vertices are ignored; a random
    # permutation may or may not preserve the coloring
    rng = random.Random(5)
    for _ in range(50):
        color, num = _random_coloring(rng, "symmetric")
        n = len(color)
        full_rows = verify_coherence(color, num).rows
        for perm in ([0] * n, list(range(n + 1))):
            if n > 1 or len(perm) != n:
                assert _assert_reduced_agrees(color, num, [perm]).rows == full_rows
        _assert_reduced_agrees(color, num, [rng.sample(range(n), n)])


# The comparison of verify_coherence lists the compared pairs class by class
# and compares each with the one before it. The row path below, which compared
# each pair with the first pair of its class through a rank x n table, is kept
# as its reference: both must name the same (code, class).

def _row_path_varying_intersection(
    color: np.ndarray, rank: int, rows: Sequence[int]
) -> Optional[tuple[int, int]]:
    """The smallest (code of (i, j), class r) on which p^r_ij varies among the
    pairs of the given rows, each compared with the first pair of its class
    among them in row-major order; None if none varies."""
    n = color.shape[0]
    # first[r] is the position at * n + v of the first pair of class r met so
    # far; reps[r] is its multiset, filled when that pair is reached, before
    # any other pair of the class is compared to it.
    first = np.full(rank, len(rows) * n)
    reps = np.empty((rank, n), dtype=np.int64)
    worst = None
    for at, u in enumerate(rows):
        row = color[u]
        here = np.arange(at * n, at * n + n)
        np.minimum.at(first, row, here)
        is_first = first[row] == here
        left = np.multiply(row, rank, dtype=np.int64)
        for v0 in range(0, n, _SORT_BLOCK_ROWS):
            v1 = min(n, v0 + _SORT_BLOCK_ROWS)
            # multisets[v - v0] holds the codes color(u, w) * rank + color(w, v).
            multisets = left + color.T[v0:v1]
            multisets.sort(axis=1)
            cls = row[v0:v1]
            new = np.flatnonzero(is_first[v0:v1])
            reps[cls[new]] = multisets[new]
            expected = reps[cls]
            differ = multisets != expected
            bad = np.flatnonzero(differ.any(axis=1))
            if len(bad):
                # At the first position where two sorted multisets differ, the
                # smaller entry is the smallest code whose multiplicities differ.
                at_pos = differ[bad].argmax(axis=1)
                codes = np.minimum(multisets[bad, at_pos], expected[bad, at_pos])
                found = min(zip(codes.tolist(), cls[bad].tolist()))
                worst = found if worst is None else min(worst, found)
            del multisets, expected, differ  # before the next block is built
    return worst


def _assert_same_witness(color: np.ndarray, rank: int, rng: random.Random) -> list:
    """Both comparisons on all rows, on row 0 and on a random row subset;
    returns the full-row witness."""
    n = color.shape[0]
    subset = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
    witnesses = []
    for rows in (range(n), [0], subset):
        witnesses.append(_row_path_varying_intersection(color, rank, rows))
        assert _varying_intersection(color, rank, rows) == witnesses[-1], rows
    return witnesses[0]


@pytest.mark.parametrize("k", [8, 16, 32])
@pytest.mark.parametrize("drop", [False, True])
def test_witness_matches_row_path_on_every_hashed_round(cache, k, drop):
    graph = cache.graph(k)
    if drop:
        graph = graph.without_edge(0, 2)
    color, num = initial_coloring(graph)
    rng = random.Random(f"hashed-{k}-{drop}")
    witnesses = []
    seed = 0
    while True:
        witnesses.append(_assert_same_witness(color, num, rng))
        color, new_num = hashed_round(color, seed)
        seed += 1
        if new_num == num:
            break
        num = new_num
    # every round but the stable one varies, and the stable one is coherent
    assert witnesses[-1] is None
    assert None not in witnesses[:-1]


def test_witness_matches_row_path_on_the_drop_edge_coloring(cache):
    conf = cache.configuration(("drop", 32), cache.graph(32).without_edge(0, 2))
    assert conf.rank == 32768
    # The stable coloring is coherent; so is every coloring on fewer rows.
    assert _assert_same_witness(conf.color, conf.rank, random.Random(32)) is None
    # A merge of two classes is not, and the classes split at many codes.
    color = conf.color.copy()
    color[color == conf.rank - 1] = conf.rank - 2
    assert _assert_same_witness(color, conf.rank - 1, random.Random(33)) is not None


@pytest.mark.parametrize("block", [3, _SORT_BLOCK_ROWS])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_witness_matches_row_path_on_random_colorings(monkeypatch, dtype, block):
    """Blocks of three pairs put a block boundary between many pairs
    that are compared."""
    monkeypatch.setattr(wl, "_SORT_BLOCK_ROWS", block)
    rng = random.Random(f"witness-{np.dtype(dtype).name}")
    found = Counter()
    for _ in range(200):
        n = rng.randrange(1, 25)
        # Few large classes, or classes of two or three pairs, which block
        # boundaries often split.
        few, many = rng.randrange(1, min(n * n, 12) + 1), max(1, n * n // rng.choice([2, 3]))
        rank = rng.choice([few, many])
        color = np.array([rng.randrange(rank) for _ in range(n * n)], dtype=dtype)
        found[_assert_same_witness(color.reshape(n, n), rank, rng) is None] += 1
    assert found[True] > 0 and found[False] > 0
