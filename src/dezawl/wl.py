"""Weisfeiler-Leman refinement: vertex color refinement (1-WL) and pair
refinement (2-WL) producing the coherent configuration of a graph.

An exact 2-WL round replaces the color of each pair (u, v) by its old
color and the multiset over w of (color(u, w), color(w, v)). Rounds only
split classes. Their stable coloring W, numbered by first occurrence in
row-major pair order, is the smallest coherent configuration in which the
arc set is a union of classes: the initial (diagonal, arc, non-arc)
classes are unions of classes of any such configuration, and each round
keeps that property because intersection numbers are well defined.

wl2 refines a uint64 key of each pair by hashed rounds (_hashed_round),
after Shervashidze et al. (JMLR 2011), numbering no key until it stops. The
first key is splitmix64 of _initial_key. A round hashes each key to seeded
weights x(key), y(key) in [1, p), forms h(u, v) = sum over w of
x(key(u, w)) y(key(w, v)) mod p, one float64 product in row blocks, and
sets each key to splitmix64(key * p + h) in uint64. p is the largest prime
with n (p - 1)^2 < 2^53. Two signatures of one class get one h with
probability at most 2 / (p - 1) (Schwartz, JACM 1980), which only delays a
split or makes a check reject. Three arguments make the result exact:

1. Exact arithmetic. The n terms of h are integers at most (p - 1)^2, so
   every partial sum, in any order, blocking or fused multiply-add, is an
   integer below 2^53, exact in float64, up to Graph's bound n <= 46340.
2. Accepting checks prove H = W, and rejections end. Rounds start from a
   coloring K that W refines, at first the initial one. By induction every
   key is then a function of the exact color W_t, as h is one of the
   multiset of (W_t(u, w), W_t(w, v)), which with W_t(u, v) makes
   W_{t+1}(u, v); so the partition H of the keys where the rounds stop is
   a coarsening of W. wl2 numbers H by first occurrence and, as a mixed key
   need not carry the old one, replaces H by its meet with K unless it
   refines K, in O(n^2). If the exact, independent verify_coherence
   accepts H, H is coherent and refines the initial coloring, so it is at
   least as fine as W, the coarsest such: H = W, with identical matrices,
   both numbered by first occurrence. Else rounds restart under the next
   seed from K', the meet of H and H^T for a transpose witness, or of H
   and p_ij (_intersection_counts) for an intersection witness (i, j).
   The counts of two classes of any coarsening of a coherent configuration
   are constant on each of its classes (Weisfeiler and Leman, 1968), and
   so is the transpose: W refines K'. The witness splits a class of H,
   which refines K, so K gains a class per rejection and wl2 ends after at
   most n^2 of them; a witness that splits no class raises RuntimeError.
3. Row 0 is enough when the automorphisms act transitively.
   graphs._transitive checks exactly that given vertex permutations (from
   wl2, g.automorphisms) preserve every entry and reach every vertex from
   0, as on graphs from cayley_graph and grid_graph. Every pi in the group
   they generate maps the multiset of (u, v) to that of (pi u, pi v), and
   some pi maps u to 0, so row 0 holds every (multiset, class): in
   verify_coherence it gives the full comparison's least varying (code,
   class), and other perms, or none, mean every row. Automorphisms that
   preserve g.adj preserve every W_t and fix every W class, so every K and
   key is invariant under them and every class meets row 0: a round
   splits a class iff row 0 of its new key, which it forms first and
   alone, does, wl2's trigger.

Colors are int32 ids, exact while n <= 46340; wl2 raises ValueError past
that before allocating. In units of 8 n^2 bytes, a round holds the key,
y(key) made in place, an eighth per row block, and the shifted words of
its splitmix64 pass once y is freed; the count rule sorts a copy of the
key. The renumbering frees the key it is handed, then holds the argsort
order and int32 ids (two units). wl2 peaks near 2.5; the tests bound it
by 3 on Gamma_16 and the 4 x 32 grid and by 4 on Gamma_32 less the edge
(0, 2), of rank n^2 / 2, where the recheck peaks with the coloring and
the compared pairs' colors and order (1.5 units for all rows), and by 4
there with one rejection, which builds K' in one int64 key in place, frees
the witness's counts before numbering it, and holds K' through the rounds.

wl1 is classical color refinement (Berkholz, Bonsma and Grohe, 2017): a
round keys each vertex by (color, sorted out-neighbor colors, sorted
in-neighbor colors), numbers the distinct keys in sorted order, and rounds
stop when the count does. A padded index matrix built once lists the
out-neighbors of each vertex, padded to the maximum degree D with the
sentinel N, the vertex count; a digraph adds one for in-neighbors (an
undirected graph's two multisets are equal, and (c, X, X) sorts as (c, X)
does). A key row holds the codes color + 1, each neighbor row sorted and
its sentinels' N + 1 overwritten by 0, as big-endian int32, so one
argsort of the rows' bytes ranks them as the tuples sort: the ids of the
tuple refinement the tests keep as a reference. A round holds the O(N D)
index matrices, keys and one sorted copy, and gathers 64 rows at a time.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .graphs import Graph, _row_blocks, _transitive


class CoherentConfiguration(NamedTuple):
    """A stable 2-WL coloring, the n x n int32 matrix color of ids
    0..rank-1, with the work wl2 did to reach it: the full rounds run, the
    colorings its rechecks rejected and the rows they compared."""

    color: np.ndarray
    rank: int
    rounds: int
    rejections: int
    recheck_rows: int


def _renumber_first_occurrence(key: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel the values of a 1-D integer array 0..r-1 in order of first
    occurrence, as int32 ids (r < 2^31). Sorts key in place, and drops its
    reference once the run starts are known, so a key the caller hands over
    is freed before the ids are built."""
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
    """adj + 2 adj^T off the diagonal and 4 on it, as one flat uint8 key:
    the diagonal, arc, reverse-arc and non-arc classes."""
    key = np.empty((g.n, g.n), dtype=np.uint8)
    np.multiply(g.adj.T, np.uint8(2), out=key)
    key += g.adj
    np.fill_diagonal(key, 4)
    return key.ravel()


def _is_prime(m: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, exact for odd m from 11 to
    3,215,031,751 (Jaeschke, Math. Comp. 1993)."""
    d = (m - 1) // ((m - 1) & (1 - m))  # the odd part of m - 1
    for a in (2, 3, 5, 7):
        e, x = d, pow(a, d, m)
        while e != m - 1 and x not in (1, m - 1):
            e, x = 2 * e, x * x % m
        if x != m - 1 and e % 2 == 0:
            return False
    return True


def _hash_prime(n: int) -> int:
    """The largest prime p with n (p - 1)^2 < 2^53, at least 440,863 for
    any n <= 46340: odd candidates down from the bound."""
    p = math.isqrt((2**53 - 1) // max(n, 1)) | 1
    while not _is_prime(p):
        p -= 2
    return p


def _finalize(z: np.ndarray) -> np.ndarray:
    """The splitmix64 output function, a bijection of uint64, on z in place."""
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    return z


def _splitmix64(start: int, size: int, p: int) -> np.ndarray:
    """Outputs start, ... start + size - 1 of splitmix64 from seed 0, mod
    p - 1 plus 1: seeded words without numpy.random's MBs of import."""
    z = np.arange(start + 1, start + size + 1, dtype=np.uint64)
    z = _finalize(z * np.uint64(0x9E3779B97F4A7C15))
    return z % np.uint64(p - 1) + np.uint64(1)


def _weights(key: np.ndarray, mult: np.uint64, p: int) -> np.ndarray:
    """floor(u (p - 1) / 2^52) + 1 in [1, p), u the top 52 bits of
    key * mult mod 2^64: a multiply-shift hash, made in place as float64."""
    w = np.empty(key.shape)
    bits = w.view(np.uint64)
    np.multiply(key, mult, out=bits)
    bits >>= np.uint64(12)
    bits |= np.uint64(0x4330000000000000)  # the float64 2^52 + u
    w -= 2.0**52
    w *= (p - 1) / 2**52
    np.floor(w, out=w)
    w += 1
    return w


def _hashed_round(key: np.ndarray, p: int, seed: int, trigger: bool = False) -> bool:
    """One hashed round on the n x n uint64 key, in place; False, the key
    unchanged, if trigger is set and row 0 splits no class of row 0."""
    mult_x, mult_y = _splitmix64(2 * seed, 2, 2**64) | np.uint64(1)  # odd
    y = _weights(key, mult_y, p)
    blocks = _row_blocks(len(key))
    if trigger:  # row 0 first and alone: a round that splits nothing forms one row
        blocks[:1] = [(0, 1), (1, blocks[0][1])]
    for lo, hi in blocks:
        rows = key[lo:hi]
        h = np.matmul(_weights(rows, mult_x, p), y).astype(np.int64) % p
        new = h.view(np.uint64)
        new += rows * np.uint64(p)
        if trigger and lo == 0 and len(set(new[0].tolist())) == len(set(rows[0].tolist())):
            return False
        rows[...] = new
    del y
    _finalize(key)
    return True


def _count(key: np.ndarray) -> int:
    """The number of distinct values of key, from a sorted copy."""
    s = np.sort(key, axis=None)
    return int(np.count_nonzero(s[1:] != s[:-1])) + min(s.size, 1)


def _meet(color: np.ndarray, other: np.ndarray) -> tuple[np.ndarray, int]:
    """The meet of the n x n pair coloring color and the nonnegative integer
    valued n x n array other, numbered by first occurrence, from one int64
    key built in place; other, if handed over, is freed before the
    renumbering."""
    key = [color.astype(np.int64)]
    key[0] *= int(other.max()) + 1
    np.add(key[0], other, out=key[0], casting="unsafe")  # float32 counts are integers
    del other
    ids, num = _renumber_first_occurrence(key.pop().reshape(-1))
    return ids.reshape(color.shape), num


def wl2(g: Graph) -> CoherentConfiguration:
    """Stable 2-WL pair coloring of g, verified coherent (module docstring).

    Hashed rounds stop when row 0 splits no class if graphs._transitive
    accepts the automorphisms g carries on g.adj, else when a round keeps
    the count of distinct keys; the recheck reads row 0 by the same rule.
    A rejected coloring is split by the recheck's witness, and the rounds
    restart from the split. g.n must be at most 46340 (ValueError
    otherwise). Raises RuntimeError if a witness splits no class.
    """
    n = g.n
    if n * n >= 2**31:
        raise ValueError(f"{n} vertices too many for int32 pair colors")
    trigger = _transitive(g.adj, g.automorphisms)
    p = _hash_prime(n)
    # Handed over to the renumbering, which frees it.
    keys = [_finalize(np.arange(5, dtype=np.uint64))[_initial_key(g).reshape(n, n)]]
    num = None if trigger else _count(keys[0])
    base = None  # the coloring K the rounds start from, None for the initial one
    rounds, seed, rejections, recheck_rows = 0, 0, 0, 0
    while True:
        split = _hashed_round(keys[0], p, seed, trigger)
        seed, rounds = seed + 1, rounds + split
        if not trigger:  # the count rule: compare the old count with the new
            split = num != (num := _count(keys[0]))
        if split:
            continue
        color, num = _renumber_first_occurrence(keys.pop().reshape(-1))
        color = color.reshape(n, n)
        # Does each class of H lie in one class of K? Else check their meet.
        start = _initial_key(g) if base is None else base.reshape(-1)
        del base
        first = np.empty(num, dtype=start.dtype)
        first[color.ravel()] = start
        if not np.array_equal(first[color.ravel()], start):
            color, num = _meet(color, start.reshape(n, n))
        del first, start
        check = verify_coherence(color, num, g.automorphisms)
        recheck_rows += check.rows
        if check.ok:
            break
        rejections += 1
        witness = check.witness
        base, count = _meet(color, _intersection_counts(color, *witness["colors"])
                            if witness["kind"] == "intersection" else color.T)
        if count <= num:
            raise RuntimeError(f"the recheck's witness splits no class: {witness}")
        del color
        num = count
        keys.append(_finalize(base.astype(np.uint64)))
    return CoherentConfiguration(color, num, rounds, rejections, recheck_rows)


def wl_rank(g: Graph) -> int:
    """Rank of the smallest coherent configuration in which the arc set of g
    is a union of classes."""
    return wl2(g).rank


class CoherenceResult(NamedTuple):
    ok: bool
    witness: Optional[dict] = None
    rows: int = 0  # rows u whose multisets were compared

    def __bool__(self) -> bool:
        return self.ok


# Rows that a coherence recheck or a 1-WL round gathers and sorts at a time.
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


def verify_coherence(
    color: np.ndarray, rank: int, perms: Sequence[Sequence[int]] = ()
) -> CoherenceResult:
    """Independent recheck that the n x n pair coloring color, of ids
    0..rank-1, is a coherent configuration.

    Checks that the diagonal is a union of classes, that the transpose of
    every class is a class, and, by an exact count independent of the
    refinement, that all intersection numbers are well defined: with the
    pairs listed class by class, the sorted multiset over w of the int64
    codes color(u, w) * rank + color(w, v) of each pair (u, v), built 64
    pairs at a time, must equal that of the pair before it in its class.
    The least code whose multiplicity differs between two pairs of a class
    differs between two consecutive ones, so the witness is the least over
    all pairs. Colors may be int32 or int64; O(n^2 log n) time per row and
    O(n^2) memory. It compares row 0 alone, with the same verdict and
    witness, if graphs._transitive accepts perms on color (module
    docstring, argument 3), else every row, and counts the rows.

    The witness of a failure names, for intersection numbers, the least
    color pair (i, j), then the least class on which p_ij varies, with a
    pair of that class where p_ij is smallest and one where it is largest,
    counted by an exact float32 product.
    """
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
    rows = [0] if _transitive(color, perms) else range(len(color))
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
    """Stable vertex coloring under color refinement, canonically numbered
    (module docstring)."""
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
    keys = np.empty((n, width), dtype=">i4")
    while True:
        code[:n] = colors + 1
        keys[:, 0] = code[:n]
        for lo in range(0, n, _SORT_BLOCK_ROWS):
            at = 1
            for index in indexes:
                row = code[index[lo:lo + _SORT_BLOCK_ROWS]]
                row.sort(axis=1)
                row[row > n] = 0
                keys[lo:lo + len(row), at:at + row.shape[1]] = row
                at += row.shape[1]
        # np.unique would hold three more copies of the keys; this holds one.
        flat = keys.view(key_type).ravel()
        order = flat.argsort()
        ranked = flat[order]
        starts = np.ones(n, dtype=bool)
        starts[1:] = ranked[1:] != ranked[:-1]
        del ranked
        colors[order] = np.cumsum(starts) - 1
        if num == (num := int(np.count_nonzero(starts))):
            return colors


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
