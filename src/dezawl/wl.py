"""Weisfeiler-Leman refinement: vertex color refinement (1-WL) and pair
refinement (2-WL) producing the coherent configuration of a graph.

The exact 2-WL round (_wl2_round) replaces the color of each pair (u, v) by
its old color together with the sorted multiset over w of the color pairs
(color(u, w), color(w, v)). Rounds are synchronous; refinement only splits
classes, so at most n^2 rounds occur. Each round numbers the distinct
signatures 0, 1, ... in order of first occurrence in row-major pair order.
The ids therefore depend only on which signatures are equal, never on byte
order or on how signatures sort, so they are the same on every platform.
The signatures are built one pair row u at a time, so a round holds the
n (n + 1) int64 entries and n bytes keys of one row, the int32 array of the
n^2 new ids, written one row at a time, and the n + 1 entries of each
distinct signature: O(n^2 + rank * n) memory at every n, which is O(n^2)
when the new rank is at most n. The codes are formed from the int32
coloring row by row, with no int64 copy of it. The stable coloring W is the
smallest coherent configuration in which the arc set is a union of classes:
the initial (diagonal, arc, non-arc) classes are unions of classes of any
such configuration, and each round preserves that property because
intersection numbers are well defined there.

wl2 first refines with hashed rounds (_hashed_round), which compress each
signature, following Shervashidze et al. (JMLR 2011), to one number
h_t(u, v) = sum over w of x_t[color(u, w)] * y_t[color(w, v)] mod p, one
float64 matrix product, with x_t, y_t drawn from [1, p)^rank and p a prime
below 2^20, and number the keys color * p + h_t by first occurrence. Two
distinct signatures of one class collide with probability at most 2/p
(Schwartz, JACM 1980), which only delays a split or makes the recheck
reject. Three arguments make the result exact:

1. Exact arithmetic. Every product is at most (p - 1)^2 and a sum has n
   nonnegative integer terms, so every partial sum, in any order and with or
   without fused multiply-adds, is an integer at most n (p - 1)^2 < 2^53
   while n <= 8192 (_HASH_MAX_N), and float64 holds it exactly; row blocks
   sum the same terms. The key is below n^2 p < 2^46, as a color is below
   n^2. Past the bound only exact rounds run.
2. A recheck that passes proves H = W, so the recheck, not a stable count,
   stops wl2. A hashed key is a function of the old color and the exact
   signature, so by induction the hashed partition H_t after t rounds is
   never finer than the exact W_t, hence never finer than W, and it refines
   the initial coloring. If the exact, independent verify_coherence accepts
   H, then H is a coherent configuration refining the initial coloring, so
   it is at least as fine as W, the coarsest one. So H = W as partitions,
   and since both are numbered by first occurrence in row-major order, the
   color matrices are identical. If the recheck rejects H (a collision),
   hashed rounds continue from H, which lies between the initial coloring
   and W, under fresh seeds. Rounds only refine, so a second stop at H's
   count stops on H itself; exact rounds then continue from it to W.
3. Orbit reduction is sound. verify_coherence may be given vertex
   permutations, and wl2 passes the graph's own (Graph.automorphisms)
   unless given others. It checks exactly that each is a permutation preserving
   every pair color; then so does every element pi of the group they
   generate, and the multiset of (color(u, w), color(w, v)) over w equals
   that of (pi u, pi v), as w -> pi w is a bijection. So every multiset of a
   class occurs at some (s, pi v) in the row of s = pi u, the least vertex
   of u's orbit, and the pairs of those rows give the full comparison's
   least varying (code, class). On every graph built by cayley_graph or
   grid_graph the group is transitive and one row is compared. This gives
   wl2 its trigger: perms that preserve the initial coloring preserve every
   round's, and if they act transitively a round splits a class iff row 0
   of its key, read from the first row block, does.

Pair colors are int32 ids below n^2, exact while n^2 < 2^31, that is
n <= 46340; initial_pair_coloring, and so wl2, raise ValueError past that
before allocating anything. A unit below is 8 n^2 bytes, one n x n int64
array. A hashed round (_hashed_key) holds the current coloring (half a
unit), the int64 key (one), the float64 operand y_t[color] (one), the
weights x_t, y_t (2 rank float64 words, a unit at rank n^2 / 2) and one of
eight row blocks of x_t[color] and of its product, never all of x_t[color]
or a full product. The key goes straight into _renumber_first_occurrence,
which sorts it in place and frees it once the run starts are known; then
the argsort order (one unit of intp), the int32 run ids and the int32 new
ids (half a unit each) remain. wl2 holds no reference to the initial
coloring and at most the current and the new coloring. So wl2 peaks near
three units; under tracemalloc it stays within four on Gamma_16 and the
4 x 32 grid, and within five on Gamma_32 less the edge (0, 2), of rank
n^2 / 2, as the tests assert. The recheck frees its O(rank) class counts
before the comparison, which holds the coloring, the colors and intp sort
order of the compared pairs (1.5 units for all rows) and a block of 64
pairs of int64 codes: O(n^2) at any rank.

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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, _row_blocks


@dataclass
class PairColoring:
    """Coloring of V x V with contiguous color ids 0..num_colors-1: int32 from
    wl2 and its rounds; verify_coherence also takes int64."""

    n: int
    color: np.ndarray
    num_colors: int


@dataclass
class CoherentConfiguration:
    """A stable 2-WL coloring with the work wl2 did to reach it: the full
    rounds run, the path ("hashed", "hashed+exact" after a rejected hashed
    coloring, or "exact" past _HASH_MAX_N) and the rows its rechecks
    compared."""

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


def _wl2_round(color: np.ndarray, num_colors: int) -> tuple[np.ndarray, int]:
    n = color.shape[0]
    row_type = np.dtype((np.void, (n + 1) * 8))
    ids: dict[bytes, int] = {}
    new = np.empty((n, n), dtype=np.int32)
    for u in range(n):
        # sig[v] = (color(u, v), sorted over w of the code of the pair
        # (color(u, w), color(w, v))), one contiguous row per pair.
        sig = np.empty((n, n + 1), dtype=np.int64)
        sig[:, 0] = color[u]
        np.multiply(color[u, None, :], num_colors, out=sig[:, 1:], dtype=np.int64)
        sig[:, 1:] += color.T
        sig[:, 1:].sort(axis=1)
        keys = sig.reshape(-1).view(row_type).tolist()
        del sig  # before the keys are numbered
        new[u] = np.fromiter((ids.setdefault(key, len(ids)) for key in keys),
                             dtype=np.int32, count=n)
        del keys  # before the next row is built
    return new, len(ids)


# p is the largest prime with 8192 (p - 1)^2 < 2^53, so float64 sums of
# products are exact while n <= 8192 (module docstring, argument 1).
_HASH_PRIME = 1048573
_HASH_MAX_N = 8192


def _splitmix64(start: int, size: int, p: int) -> np.ndarray:
    """Outputs start, ..., start + size - 1 of the splitmix64 generator with
    seed 0, each taken mod p - 1 plus 1 into [1, p), computed in place:
    seeded pseudo-random words without numpy.random, whose import costs
    several MB of resident memory."""
    z = np.arange(start + 1, start + size + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    z %= np.uint64(p - 1)
    z += np.uint64(1)
    return z


def _hashed_key(color: np.ndarray, num_colors: int, seed: int, trigger: bool) -> np.ndarray:
    """The flat int64 key color * p + h of a hashed round; empty when trigger
    is set and row 0 of the key splits no class of row 0."""
    p = _HASH_PRIME
    x, y = _splitmix64(seed << 32, 2 * num_colors, p).astype(np.float64).reshape(2, -1)
    y_color = y[color]
    key = color.astype(np.int64)
    key *= p
    # Row blocks, so a round holds no full x[color] and no full product.
    for lo, hi in _row_blocks(len(color)):
        key[lo:hi] += np.matmul(x[color[lo:hi]], y_color).astype(np.int64) % p
        if trigger and lo == 0 and len(set(key[0].tolist())) == len(set(color[0].tolist())):
            return np.empty(0, dtype=np.int64)
    return key.ravel()


def _hashed_round(color: np.ndarray, num_colors: int, seed: int,
                  trigger: bool = False) -> Optional[tuple[np.ndarray, int]]:
    """One 2-WL round on hashed keys, numbered by first occurrence in
    row-major pair order; None if trigger is set and row 0 splits no class."""
    new, num = _renumber_first_occurrence(_hashed_key(color, num_colors, seed, trigger))
    return (new.reshape(color.shape), num) if num else None


def wl2(
    g: Graph, perms: Optional[Sequence[Sequence[int]]] = None
) -> CoherentConfiguration:
    """Stable 2-WL pair coloring of g, verified coherent before returning.

    While g.n <= _HASH_MAX_N, hashed rounds of one float64 product each
    refine until a trigger fires: row 0 of a round splits no class of row 0
    if perms pass the exact automorphism check on the initial coloring and
    act transitively, else a round keeps the color count. wl2 returns once
    verify_coherence accepts; a rejected coloring is refined on under fresh
    seeds, and a second stop at its count, or g.n > _HASH_MAX_N, runs exact
    _wl2_round rounds (module docstring). perms, vertex permutations
    believed to be automorphisms of g, default to g.automorphisms, and ()
    compares every row; they only trigger and shorten the recheck.

    Colors are int32, so g.n must be at most 46340 (ValueError otherwise);
    the module docstring lists the arrays of a round and bounds its memory.

    Raises RuntimeError if the stable exact coloring fails the independent
    coherence recheck (an implementation fault, not a property of g).
    """
    init = initial_pair_coloring(g)
    color, num = init.color, init.num_colors
    del init
    if perms is None:
        perms = g.automorphisms
    trigger = len(_orbit_representatives(color, perms)) == 1
    path = "hashed" if g.n <= _HASH_MAX_N else "exact"
    rounds = seed = recheck_rows = 0
    rejected = None
    while g.n > 0:
        step = (_hashed_round(color, num, seed, trigger) if path == "hashed"
                else _wl2_round(color, num))
        seed += 1
        rounds += step is not None
        if step is not None and step[1] != num:
            color, num = step
            continue
        del step  # a repeated coloring, freed before the recheck
        if num == rejected and path == "hashed":  # the rejected coloring itself
            path = "hashed+exact"
            continue
        check = verify_coherence(PairColoring(g.n, color, num), perms)
        recheck_rows += check.rows
        if check.ok:
            break
        if path != "hashed":
            raise RuntimeError(f"2-WL produced an incoherent coloring: {check.witness}")
        rejected = num
    return CoherentConfiguration(PairColoring(g.n, color, num), num, rounds, path, recheck_rows)


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
) -> Sequence[int]:
    """The smallest vertex of each orbit of the group the perms generate, or
    every vertex unless each is a permutation of the vertices that preserves
    every pair color exactly. The check gathers rows then columns with take."""
    n = color.shape[0]
    gens = [np.asarray(p, dtype=np.intp) for p in perms]
    for p in gens:
        if (p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n))
                or not np.array_equal(color.take(p, axis=0).take(p, axis=1), color)):
            return range(n)
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


# Rows of the code block that a coherence recheck or a 1-WL round builds and
# sorts at a time.
_SORT_BLOCK_ROWS = 64


def _varying_intersection(
    color: np.ndarray, rank: int, rows: Sequence[int]
) -> Optional[tuple[int, int]]:
    """The smallest (code of (i, j), class r) on which p^r_ij varies among the
    pairs of the given rows, each compared with the pair before it in a list
    of those pairs by class; None if none varies."""
    n = color.shape[0]
    rows = np.asarray(rows, dtype=np.intp)
    flat = color[rows].ravel()
    # The positions at * n + v of the pairs (rows[at], v), class by class.
    order = np.argsort(flat)
    # codes[1 + k] holds the sorted codes color(u, w) * rank + color(w, v) of
    # pair k of a block, codes[0] those of the pair before it, of class last.
    codes = np.zeros((_SORT_BLOCK_ROWS + 1, n), dtype=np.int64)
    last, worst = -1, None
    for lo in range(0, len(order), _SORT_BLOCK_ROWS):
        at = order[lo:lo + _SORT_BLOCK_ROWS]
        cls = flat[at]
        block = codes[:len(at) + 1]
        np.multiply(color[rows[at // n]], rank, out=block[1:], dtype=np.int64)
        block[1:] += color[:, at % n].T
        block[1:].sort(axis=1)
        differ = block[1:] != block[:-1]
        bad = np.flatnonzero((cls == np.append(last, cls[:-1])) & differ.any(axis=1))
        if len(bad):
            # At the first position where two sorted multisets differ, the
            # smaller entry is the smallest code whose multiplicities differ.
            at_pos = differ[bad].argmax(axis=1)
            codes_at = np.minimum(block[bad + 1, at_pos], block[bad, at_pos])
            found = min(zip(codes_at.tolist(), cls[bad].tolist()))
            worst = found if worst is None else min(worst, found)
        codes[0] = block[-1]
        last = cls[-1]
    return worst


def _intersection_counts(color: np.ndarray, i: int, j: int) -> np.ndarray:
    """p_ij(u, v) for every pair (u, v), as the float32 BLAS product of the
    0/1 matrices of classes i and j, exact as every partial sum is at most
    n <= 46340 < 2^24."""
    return (color == i).astype(np.float32) @ (color == j).astype(np.float32)


def verify_coherence(c: PairColoring, perms: Sequence[Sequence[int]] = ()) -> CoherenceResult:
    """Independent recheck that a pair coloring is a coherent configuration.

    Checks that the diagonal is a union of classes, that the transpose of
    every class is a class, and that all intersection numbers are well
    defined. The transpose check maps each color to one partner color and
    compares that map with the transposed matrix, O(n^2) in all. The last
    check is an exact integer count, made independently of the refinement:
    with the pairs listed class by class, the sorted multiset over w of the
    codes color(u, w) * rank + color(w, v) of each pair (u, v) must equal
    that of the pair before it in its class. The least code whose
    multiplicity differs between two pairs of a class also differs between
    two consecutive ones, so the witness is the least over all pairs. The
    codes are int64, built 64 pairs at a time, so colors may be int32 or
    int64. This takes O(n^2 log n) time per row and O(n^2) memory.

    Given vertex permutations perms, it first checks exactly that each is a
    permutation with color[p][:, p] == color, and then compares only the
    rows of the smallest vertex of each orbit of the group they generate.
    That is sound: the generated group preserves the coloring, an element
    pi maps the multiset of (u, v) to that of (pi u, pi v), so every
    multiset of a class occurs in a representative row (see the module
    docstring). So the reduced comparison alone gives the full one's
    verdict and witness, on rejection too, and neither depends on perms.
    If perms is empty or any check on them fails, every row is compared.
    The result counts the rows compared.

    Returns a witness describing the first failure: for intersection
    numbers, the lexicographically smallest color pair (i, j) and then the
    smallest class on which p_ij varies, with a pair of that class where
    p_ij is smallest and one where it is largest, counted by an exact
    float32 product.
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

    del counts, on_diagonal, partner, unpaired
    rows = _orbit_representatives(color, perms)
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
        for lo in range(0, n, _SORT_BLOCK_ROWS):
            hi = min(n, lo + _SORT_BLOCK_ROWS)
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
