"""Weisfeiler-Leman refinement: vertex color refinement (1-WL) and pair
refinement (2-WL) producing the coherent configuration of a graph.

The exact 2-WL round (_wl2_round) replaces the color of each pair (u, v) by
its old color together with the sorted multiset over w of the color pairs
(color(u, w), color(w, v)). Rounds are synchronous; refinement only splits
classes, so at most n^2 rounds occur. Each round numbers the distinct
signatures 0, 1, ... in order of first occurrence in row-major pair order.
The ids therefore depend only on which signatures are equal, never on byte
order or on how signatures sort, so they are the same on every platform.
The signature tensor is built a block of rows u at a time, so a round holds
O(max(2^20, n^2)) tensor entries and one bytes key per pair of the block,
the int32 array of the n^2 new ids, written one block at a time, and the
n + 1 entries of each distinct signature: O(n^2 + rank * n) memory, which
is O(n^2) when the new rank is at most n. The codes are formed from the
int32 coloring block by block, with no int64 copy of it. The stable
coloring W is the smallest coherent configuration in which the arc set is
a union of classes: the initial (diagonal, arc, non-arc) classes are unions
of classes of any such configuration, and each round preserves that
property because intersection numbers are well defined there.

wl2 first refines with hashed rounds (_hashed_round), which compress each
signature, following Shervashidze et al. (JMLR 2011), to two numbers
h_t(u, v) = sum over w of x_t[color(u, w)] * y_t[color(w, v)] mod p, one
float64 matrix product each, with x_t, y_t drawn from [1, p)^rank and p a
prime below 2^18. The new color is the first-occurrence id of the row
(old color, h_1, h_2). Three arguments make the result exact:

1. Exact arithmetic. Every product is below p^2 < 2^36 and a sum has n
   nonnegative integer terms, so every partial sum, in any order and with or
   without fused multiply-adds, is an integer below n * p^2 < 2^49 while
   n <= 8192 (_HASH_MAX_N), and float64 holds it exactly. The row packs
   into one int64, color * p^2 + h_1 * p + h_2 < n^2 * p^2 < 2^62, because
   a color is below n^2. Past the bound only exact rounds run. A product
   formed in row blocks sums the same terms, so it is exact too.
2. A recheck that passes proves H = W. The new color of a hashed round is a
   function of the old color and the exact signature, so by induction the
   hashed partition H_t after t rounds is never finer than the exact W_t,
   hence never finer than W, and it refines the initial coloring. If the
   exact, independent verify_coherence accepts the stable H, then H is a
   coherent configuration refining the initial coloring, so it is at least
   as fine as W, the coarsest one. So H = W as partitions, and since both
   are numbered by first occurrence in row-major order, the color matrices
   are identical. If the recheck rejects H (two signatures collided), exact
   rounds continue from H, which lies between the initial coloring and W,
   so they reach W.
3. Orbit reduction is sound. verify_coherence may be given vertex
   permutations. It checks exactly that each is a permutation preserving
   every pair color; then every element pi of the group they generate does,
   and the multiset of (color(u, w), color(w, v)) over w equals that of
   (pi u, pi v), because w -> pi w is a bijection. Every class meets a row
   whose vertex is the smallest of its orbit, so comparing the multisets of
   the pairs in those rows, each with the first pair of its class there,
   decides coherence, with the full comparison's witness: the first pair
   (u, v) of a class lies in a representative row (were s < u the least of
   u's orbit, (s, pi v) with pi u = s would come earlier), and every
   multiset of a class occurs in one, so the least (code, class) that
   varies is the same. For the family graph and the grid the group is
   transitive and one row is compared.

Pair colors are int32 ids below n^2, exact while n^2 < 2^31, that is
n <= 46340; initial_pair_coloring, and so wl2, raise ValueError past that
before allocating anything. A unit below is 8 n^2 bytes, one n x n int64
array. A hashed round (_hashed_key) holds the current coloring (half a
unit), the int64 key (one), the float64 operand y_t[color] (one) and one
block of n // 8 + 1 rows of x_t[color] and of its product: it never holds
x_t[color] or a full product. The key goes straight into
_renumber_first_occurrence, which sorts it in place and frees it once the
run starts are known; then the argsort order (one unit of intp), the int32
run ids and the int32 new ids (half a unit each) remain. wl2 holds no
reference to the initial coloring and at most the current and the new
coloring. So wl2 peaks near three units; under tracemalloc it stays within
four on Gamma_16 and the 4 x 32 grid, which the tests assert, against 8.2
with int64 colors and whole-matrix products. The recheck holds the coloring,
one rank x n int64 table of first-pair multisets (one unit when rank = n)
and a block of 64 rows of int64 codes.

wl1 is classical color refinement (Berkholz, Bonsma and Grohe, 2017). A
round keys each vertex u by its signature (color(u), sorted multiset of
out-neighbor colors, sorted multiset of in-neighbor colors) and numbers the
distinct keys 0, 1, ... in sorted order; rounds stop when the count stops
changing. The rounds read a padded out-neighbor index matrix built once
from adj: row u lists the out-neighbors of u, padded to the maximum degree
D with a sentinel slot N, the vertex count. A digraph adds the same matrix
for in-neighbors. An undirected graph does not, because its two multisets
are equal and a key (c, X, X) sorts as (c, X) does. A round gathers the
int32 codes color + 1 of 64 rows at a time, with N + 1 for the sentinel,
sorts each row, so that the sentinels come last, and overwrites them with
0. Every real code is at least 1, so a row that is a prefix of another
sorts first, as a Python tuple does, and the bytes of (code, out row,
in row) as big-endian int32 compare as the signature tuples do. The ids
are therefore those of the tuple refinement the tests keep as a reference.
Codes are at most N + 1, which fits int32 for any graph whose adjacency
matrix fits in memory. A round holds the O(N D) index matrices, one 64-row
block and the N keys, and no N x N array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph


@dataclass
class PairColoring:
    """Coloring of V x V with contiguous color ids 0..num_colors-1: int32 from
    wl2 and its rounds; verify_coherence also takes int64."""

    n: int
    color: np.ndarray
    num_colors: int


@dataclass
class CoherentConfiguration:
    """A stable 2-WL coloring with the work wl2 did to reach it: the rounds
    run, the path ("hashed", "hashed+exact" after a rejected hashed
    coloring, or "exact" past _HASH_MAX_N) and the rows its rechecks
    compared. Only the coloring and the rank are serialized."""

    coloring: PairColoring
    rank: int
    rounds: int
    path: str
    recheck_rows: int


def _renumber_first_occurrence(key: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel the values of a 1-D integer array 0..r-1 in order of first
    occurrence, as int32 ids (r < 2^31). Sorts key in place.

    The caller hands key over: the function drops its reference once the run
    starts are known, so a key passed straight from the helper that built it
    is freed before the ids are.
    """
    order = np.argsort(key)
    key.sort()
    starts = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    del key
    # The sort need not be stable: take the first index of each value.
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    relabel = np.empty(len(first), dtype=np.int32)
    relabel[np.argsort(first)] = np.arange(len(first), dtype=np.int32)
    run = np.cumsum(starts, dtype=np.int32)
    del starts
    run -= 1
    ids = np.empty(len(run), dtype=np.int32)
    ids[order] = run
    del order, run
    return relabel[ids], len(first)


def _initial_key(g: Graph) -> np.ndarray:
    """adj + 2 adj^T off the diagonal and 4 on it, as one flat int64 key."""
    key = np.empty((g.n, g.n), dtype=np.int64)
    np.multiply(g.adj.T, 2, out=key)
    key += g.adj
    np.fill_diagonal(key, 4)
    return key.ravel()


def initial_pair_coloring(g: Graph) -> PairColoring:
    """Diagonal, arc, reverse-arc and non-arc classes, degenerate cases
    collapsing to fewer colors. Raises ValueError when n^2 >= 2^31."""
    if g.n * g.n >= 2**31:
        raise ValueError(f"{g.n} vertices too many for int32 pair colors")
    flat, num = _renumber_first_occurrence(_initial_key(g))
    return PairColoring(g.n, flat.reshape(g.n, g.n), num)


# Caps the rows u of a 2-WL signature block at 2^20 // n^2, about 8 MB of int64
# while n <= 1024; a block always holds at least one row, n * (n + 1) entries.
_BLOCK_ENTRIES = 1 << 20


def _wl2_round(color: np.ndarray, num_colors: int) -> tuple[np.ndarray, int]:
    n = color.shape[0]
    rows = max(1, _BLOCK_ENTRIES // (n * n))
    row_type = np.dtype((np.void, (n + 1) * 8))
    ids: dict[bytes, int] = {}
    new = np.empty(n * n, dtype=np.int32)
    for u0 in range(0, n, rows):
        u1 = min(n, u0 + rows)
        # sig[u, v] = (color(u, v), sorted over w of the code of the pair
        # (color(u, w), color(w, v))), one contiguous row per pair.
        sig = np.empty((u1 - u0, n, n + 1), dtype=np.int64)
        sig[:, :, 0] = color[u0:u1]
        np.multiply(color[u0:u1, None, :], num_colors, out=sig[:, :, 1:], dtype=np.int64)
        sig[:, :, 1:] += color.T[None, :, :]
        sig[:, :, 1:].sort(axis=2)
        keys = sig.reshape(-1).view(row_type).tolist()
        del sig  # before the keys are numbered
        new[u0 * n:u1 * n] = np.fromiter(
            (ids.setdefault(key, len(ids)) for key in keys), dtype=np.int32, count=len(keys))
        del keys  # before the next block is built
    return new.reshape(n, n), len(ids)


# Hashed rounds reduce modulo a prime p below 2^18 and run while n <= 8192, so
# that float64 sums of products and packed int64 rows are exact (module
# docstring, argument 1).
_HASH_PRIME = 262139
_HASH_MAX_N = 8192


def _splitmix64(start: int, size: int) -> np.ndarray:
    """Outputs start, ..., start + size - 1 of the splitmix64 generator with
    seed 0: seeded pseudo-random words without numpy.random, whose import
    costs several MB of resident memory."""
    z = np.arange(start + 1, start + size + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


# Each hashed product is formed in this many row blocks, so a round holds no
# full x_t[color] and no full product.
_HASH_BLOCKS = 8


def _hashed_key(color: np.ndarray, num_colors: int, seed: int) -> np.ndarray:
    """The flat int64 rows color * p^2 + h_1 * p + h_2 of a hashed round."""
    n = color.shape[0]
    p = _HASH_PRIME
    words = _splitmix64(seed << 32, 4 * num_colors) % np.uint64(p - 1) + np.uint64(1)
    x1, y1, x2, y2 = words.astype(np.float64).reshape(4, num_colors)
    key = color.astype(np.int64)
    key *= p * p
    rows = n // _HASH_BLOCKS + 1
    for x, y, scale in ((x1, y1, p), (x2, y2, 1)):
        y_color = y[color]
        for lo in range(0, n, rows):
            key[lo:lo + rows] += (
                (x[color[lo:lo + rows]] @ y_color).astype(np.int64) % p * scale)
        del y_color  # before the second operand is built
    return key.ravel()


def _hashed_round(color: np.ndarray, num_colors: int, seed: int) -> tuple[np.ndarray, int]:
    """One 2-WL round on hashed signatures (old color, h_1, h_2), numbered by
    first occurrence in row-major pair order; see the module docstring."""
    new, num = _renumber_first_occurrence(_hashed_key(color, num_colors, seed))
    return new.reshape(color.shape), num


def wl2(g: Graph, perms: Sequence[Sequence[int]] = ()) -> CoherentConfiguration:
    """Stable 2-WL pair coloring of g, verified coherent before returning.

    While g.n <= _HASH_MAX_N, hashed rounds refine until the color count
    stops changing, and verify_coherence rechecks the result; exact
    _wl2_round rounds continue from it only if the recheck rejects it. The
    module docstring argues the three points this rests on: the float64
    products are exact below the bound, a recheck that passes proves the
    hashed coloring equal to the exact one, ids included, and an
    orbit-reduced recheck decides as the full one does. perms, vertex
    permutations believed to be automorphisms of g, only shorten the
    recheck; verify_coherence checks that they preserve the coloring and
    ignores them otherwise.

    Colors are int32, so g.n must be at most 46340 (ValueError otherwise).
    wl2 holds at most the current and the new coloring; the module
    docstring lists the arrays of a round and bounds the peak memory.

    Raises RuntimeError if the stabilized coloring fails the independent
    coherence recheck (an implementation fault, not a property of g).
    """
    init = initial_pair_coloring(g)
    color, num = init.color, init.num_colors
    del init
    rounds = recheck_rows = 0
    path = []
    steps = [("hashed", _hashed_round)] if g.n <= _HASH_MAX_N else []
    steps.append(("exact", lambda c, r, seed: _wl2_round(c, r)))
    for name, step in steps:
        path.append(name)
        while g.n > 0:
            # A round refines; one that keeps the count keeps the partition,
            # and so, numbered by first occurrence, the very matrix.
            color, new_num = step(color, num, rounds)
            rounds += 1
            if new_num == num:
                break
            num = new_num
        coloring = PairColoring(g.n, color, num)
        check = verify_coherence(coloring, perms)
        recheck_rows += check.rows
        if check.ok:
            return CoherentConfiguration(coloring, num, rounds, "+".join(path), recheck_rows)
    raise RuntimeError(f"2-WL produced an incoherent coloring: {check.witness}")


def wl_rank(g: Graph) -> int:
    """Rank of the smallest coherent configuration in which the arc set of g
    is a union of classes."""
    return wl2(g).rank


@dataclass
class CoherenceResult:
    ok: bool
    witness: Optional[dict] = None
    rows: int = 0  # rows u whose multisets were compared

    def __bool__(self) -> bool:
        return self.ok


def _orbit_representatives(
    color: np.ndarray, perms: Sequence[Sequence[int]]
) -> Optional[list[int]]:
    """The smallest vertex of each orbit of the group the perms generate, or
    None unless perms is nonempty and each is a permutation of the vertices
    that preserves every pair color exactly."""
    n = color.shape[0]
    gens = [np.asarray(p, dtype=np.intp) for p in perms]
    if not gens:
        return None
    for p in gens:
        if (p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n))
                or not np.array_equal(color[np.ix_(p, p)], color)):
            return None
    images = [p.tolist() for p in gens]
    seen = [False] * n
    reps = []
    for s in range(n):
        if seen[s]:
            continue
        reps.append(s)
        seen[s] = True
        stack = [s]
        while stack:
            x = stack.pop()
            for image in images:
                y = image[x]
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return reps


# Rows v of the int64 code block a recheck builds and sorts at a time.
_RECHECK_BLOCK_ROWS = 64


def _varying_intersection(
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
        for v0 in range(0, n, _RECHECK_BLOCK_ROWS):
            v1 = min(n, v0 + _RECHECK_BLOCK_ROWS)
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


def _intersection_counts(color: np.ndarray, i: int, j: int) -> np.ndarray:
    """p_ij(u, v) for every pair (u, v), as the float32 BLAS product of the
    0/1 matrices of classes i and j. A count is at most n, so every partial
    sum is an exact integer while n < 2^24; larger colorings raise
    ValueError before any product."""
    n = color.shape[0]
    if n >= 2**24:
        raise ValueError(f"{n} vertices too many for exact float32 counts")
    return (color == i).astype(np.float32) @ (color == j).astype(np.float32)


def verify_coherence(c: PairColoring, perms: Sequence[Sequence[int]] = ()) -> CoherenceResult:
    """Independent recheck that a pair coloring is a coherent configuration.

    Checks that the diagonal is a union of classes, that the transpose of
    every class is a class, and that all intersection numbers are well
    defined. The transpose check maps each color to one partner color and
    compares that map with the transposed matrix, O(n^2) in all. The last
    check is an exact integer count, made one row u at a time and
    independently of the refinement: the sorted multiset over w of the codes
    color(u, w) * rank + color(w, v) of every pair (u, v) must equal that of
    the first pair of its class in row-major order. The codes are built as
    int64 in blocks of 64 pairs (u, v), so colors may be int32 or int64.
    This takes O(n^2 log n) time per row and O(n^2 + rank * n) memory, which
    is O(n^2) when rank <= n, as for every Cayley graph.

    Given vertex permutations perms, it first checks exactly that each is a
    permutation with color[p][:, p] == color, and then compares only the
    rows of the smallest vertex of each orbit of the group they generate.
    That is sound: the generated group preserves the coloring, an element
    pi maps the multiset of (u, v) to that of (pi u, pi v), and every class
    meets a representative row, which holds its first pair (see the module
    docstring). So the reduced comparison alone gives the full one's
    verdict and witness, on rejection too, and neither depends on perms.
    If perms is empty or any check on them fails, every row is compared.
    The result counts the rows compared.

    Returns a witness describing the first failure: for intersection
    numbers, the lexicographically smallest color pair (i, j) and then the
    smallest class on which p_ij varies, with a pair of that class where
    p_ij is smallest and one where it is largest, counted by an exact
    float32 product (ValueError from n = 2^24).
    """
    n = c.n
    color = c.color
    if n == 0:
        return CoherenceResult(True)

    rank = c.num_colors
    # counts[i] pairs have color i, on_diagonal[i] of them on the diagonal.
    counts = np.bincount(color.ravel(), minlength=rank)
    on_diagonal = np.bincount(np.diagonal(color), minlength=len(counts))
    mixed = np.flatnonzero((on_diagonal > 0) & (counts > on_diagonal))
    if len(mixed):
        return CoherenceResult(False, {"kind": "diagonal", "color": int(mixed[0])})

    # partner[i] is one color of the transposes of class i; class i has a
    # single partner iff it is not empty and none of its pairs disagrees.
    partner = np.zeros(len(counts), dtype=color.dtype)
    partner[color] = color.T
    unpaired = counts == 0
    unpaired[color[partner[color] != color.T]] = True
    if unpaired.any():
        i = int(np.argmax(unpaired))
        partners = np.flatnonzero(np.bincount(color.T[color == i]))
        return CoherenceResult(
            False,
            {"kind": "transpose", "color": i,
             "partners": [int(x) for x in partners]},
        )

    reps = _orbit_representatives(color, perms)
    rows = range(n) if reps is None else reps
    worst = _varying_intersection(color, rank, rows)
    if worst is None:
        return CoherenceResult(True, rows=len(rows))
    code, r = worst
    i, j = divmod(code, rank)
    pairs = np.argwhere(color == r)
    vals = _intersection_counts(color, i, j)[color == r]
    p_lo = pairs[int(np.argmin(vals))]
    p_hi = pairs[int(np.argmax(vals))]
    return CoherenceResult(
        False,
        {
            "kind": "intersection",
            "colors": (i, j),
            "class": r,
            "pairs": (tuple(int(x) for x in p_lo),
                      tuple(int(x) for x in p_hi)),
            "counts": (int(vals.min()), int(vals.max())),
        },
        len(rows),
    )


def configuration_to_json(c: CoherentConfiguration) -> str:
    """Serialize a coherent configuration: n, rank and the color matrix in
    row-major order."""
    flat = [int(x) for x in c.coloring.color.ravel()]
    obj = {"n": c.coloring.n, "rank": c.rank, "colors": flat}
    return json.dumps(obj, sort_keys=True) + "\n"


def wl1(g: Graph) -> list[int]:
    """Stable vertex coloring under color refinement, canonically numbered.

    Each round replaces a vertex color by (old color, sorted multiset of
    out-neighbor colors, sorted multiset of in-neighbor colors); for
    undirected graphs the two multisets coincide. See the module docstring
    for the array form of the rounds.
    """
    return _refine_vertex_colors([g.adj], g.directed).tolist()


def _neighbor_index(adjs: Sequence[np.ndarray]) -> np.ndarray:
    """Padded out-neighbor index matrix of the disjoint union of the digraphs
    with the given adjacency matrices, each shifted past the ones before it:
    row u lists the out-neighbors of u in increasing order, then the
    sentinel N, the union's vertex count, up to the maximum out-degree."""
    degrees = [np.count_nonzero(a, axis=1) for a in adjs]
    total = sum(len(degree) for degree in degrees)
    width = max(int(degree.max(initial=0)) for degree in degrees)
    index = np.full((total, width), total, dtype=np.int32)
    offset = 0
    for a, degree in zip(adjs, degrees):
        # A boolean mask assigns in row-major order, the order in which
        # flatnonzero lists the arcs, so row u gets its arcs in its first
        # degree[u] slots. The flat index u * n + v reaches n^2, so the
        # column v is taken modulo n in intp, in the one array of arcs.
        cols = np.flatnonzero(a)
        cols %= len(degree)
        cols += offset
        part = index[offset:offset + len(degree)]
        part[np.arange(width) < degree[:, None]] = cols
        offset += len(degree)
    return index


# Rows of the neighbor-code block gathered and sorted at a time in a 1-WL round.
_WL1_BLOCK_ROWS = 64


def _refine_vertex_colors(adjs: Sequence[np.ndarray], directed: bool) -> np.ndarray:
    """wl1 of the disjoint union of the (di)graphs with the given adjacency
    matrices, as an int32 vector; see the module docstring."""
    indexes = [_neighbor_index(adjs)]
    if directed:
        indexes.append(_neighbor_index([a.T for a in adjs]))
    n = len(indexes[0])
    width = 1 + sum(index.shape[1] for index in indexes)
    key_type = np.dtype((np.void, 4 * width))
    # code[v] = color(v) + 1 for a vertex, n + 1 for the sentinel slot n.
    code = np.full(n + 1, n + 1, dtype=np.int32)
    colors = np.zeros(n, dtype=np.int32)
    num = min(n, 1)  # the initial coloring has one class, none on no vertices
    while True:
        code[:n] = colors + 1
        keys: list[bytes] = []
        for lo in range(0, n, _WL1_BLOCK_ROWS):
            hi = min(n, lo + _WL1_BLOCK_ROWS)
            block = np.empty((hi - lo, width), dtype=">i4")
            block[:, 0] = code[lo:hi]
            at = 1
            for index in indexes:
                row = code[index[lo:hi]]
                row.sort(axis=1)
                row[row > n] = 0
                block[:, at:at + row.shape[1]] = row
                at += row.shape[1]
            keys += block.view(key_type).ravel().tolist()
        ordering = {key: i for i, key in enumerate(sorted(set(keys)))}
        new_colors = np.array([ordering[key] for key in keys], dtype=np.int32)
        if len(ordering) == num:
            return new_colors
        colors, num = new_colors, len(ordering)


def wl1_distinguishes(g1: Graph, g2: Graph) -> bool:
    """True iff stable color refinement separates g1 from g2.

    Refinement runs on the disjoint union, g2 shifted to vertices n..2n-1,
    so both graphs share one color vocabulary; the graphs are distinguished
    iff the color histograms of the two sides differ. Requires equal vertex
    counts.
    """
    if g1.n != g2.n:
        raise ValueError("graphs must have the same vertex count")
    if g1.directed != g2.directed:
        raise ValueError("graphs must both be directed or both undirected")
    n = g1.n
    colors = _refine_vertex_colors([g1.adj, g2.adj], g1.directed)
    return not np.array_equal(np.sort(colors[:n]), np.sort(colors[n:]))
