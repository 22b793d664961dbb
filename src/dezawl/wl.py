"""Weisfeiler-Leman refinement: vertex color refinement (1-WL) and pair
refinement (2-WL) producing the coherent configuration of a graph.

The 2-WL round replaces the color of each pair (u, v) by its old color
together with the sorted multiset over w of the color pairs
(color(u, w), color(w, v)). Rounds are synchronous; refinement only splits
classes, so at most n^2 rounds occur. Each round numbers the distinct
signatures 0, 1, ... in order of first occurrence in row-major pair order.
The ids therefore depend only on which signatures are equal, never on byte
order or on how signatures sort, so they are the same on every platform.
The signature tensor is built a block of rows u at a time, so a round holds
O(max(2^20, n^2)) tensor entries, n^2 new ids and the n + 1 entries of each
distinct signature: O(n^2 + rank * n) memory, which is O(n^2) when the new
rank is at most n. The stable coloring is the smallest coherent
configuration in which the arc set is a union of classes: the initial
(diagonal, arc, non-arc) classes are unions of classes of any such
configuration, and each round preserves that property because intersection
numbers are well defined there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import Graph


@dataclass
class PairColoring:
    """Coloring of V x V with contiguous color ids 0..num_colors-1."""

    n: int
    color: np.ndarray
    num_colors: int


@dataclass
class CoherentConfiguration:
    coloring: PairColoring
    rank: int


def _renumber_first_occurrence(flat: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel integer array values to 0..r-1 in order of first occurrence."""
    uniq, first_pos, inverse = np.unique(flat, return_index=True, return_inverse=True)
    order = np.argsort(first_pos, kind="stable")
    relabel = np.empty(len(uniq), dtype=np.int64)
    relabel[order] = np.arange(len(uniq))
    return relabel[inverse], len(uniq)


def initial_pair_coloring(g: Graph) -> PairColoring:
    """Diagonal, arc, reverse-arc and non-arc classes, degenerate cases
    collapsing to fewer colors."""
    n = g.n
    a = g.adj.astype(np.int64)
    code = a + 2 * a.T
    np.fill_diagonal(code, 4)
    flat, num = _renumber_first_occurrence(code.ravel())
    return PairColoring(n, flat.reshape(n, n), num)


# Caps the rows u of a 2-WL signature block at 2^20 // n^2, about 8 MB of int64
# while n <= 1024; a block always holds at least one row, n * (n + 1) entries.
_BLOCK_ENTRIES = 1 << 20


def _wl2_round(color: np.ndarray, num_colors: int) -> tuple[np.ndarray, int]:
    n = color.shape[0]
    rows = max(1, _BLOCK_ENTRIES // (n * n))
    scaled = color.astype(np.int64) * num_colors
    color_t = color.T.astype(np.int64)
    row_type = np.dtype((np.void, (n + 1) * 8))
    ids: dict[bytes, int] = {}
    new_ids: list[int] = []
    for u0 in range(0, n, rows):
        u1 = min(n, u0 + rows)
        # sig[u, v] = (color(u, v), sorted over w of the code of the pair
        # (color(u, w), color(w, v))), one contiguous row per pair.
        sig = np.empty((u1 - u0, n, n + 1), dtype=np.int64)
        sig[:, :, 0] = color[u0:u1]
        np.add(scaled[u0:u1, None, :], color_t[None, :, :], out=sig[:, :, 1:])
        sig[:, :, 1:].sort(axis=2)
        keys = sig.reshape(-1).view(row_type).tolist()
        new_ids += [ids.setdefault(key, len(ids)) for key in keys]
    return np.array(new_ids, dtype=np.int64).reshape(n, n), len(ids)


def wl2(g: Graph) -> CoherentConfiguration:
    """Stable 2-WL pair coloring of g, verified coherent before returning.

    Raises RuntimeError if the stabilized coloring fails the independent
    coherence recheck (an implementation fault, not a property of g).
    """
    init = initial_pair_coloring(g)
    color, num = init.color, init.num_colors
    if g.n > 0:
        while True:
            new_color, new_num = _wl2_round(color, num)
            if new_num == num:
                break
            color, num = new_color, new_num
    coloring = PairColoring(g.n, color, num)
    check = verify_coherence(coloring)
    if not check.ok:
        raise RuntimeError(f"2-WL produced an incoherent coloring: {check.witness}")
    return CoherentConfiguration(coloring, num)


def wl_rank(g: Graph) -> int:
    """Rank of the smallest coherent configuration in which the arc set of g
    is a union of classes."""
    return wl2(g).rank


@dataclass
class CoherenceResult:
    ok: bool
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_coherence(c: PairColoring) -> CoherenceResult:
    """Independent recheck that a pair coloring is a coherent configuration.

    Checks that the diagonal is a union of classes, that the transpose of
    every class is a class, and that all intersection numbers are well
    defined. The last check is an exact integer count, made one row u at a
    time and independently of the refinement: the sorted multiset over w of
    the codes color(u, w) * rank + color(w, v) of every pair (u, v) must equal
    that of the first pair of its class in row-major order. This takes
    O(n^3 log n) time and O(n^2 + rank * n) memory, which is O(n^2) when
    rank <= n, as for every Cayley graph. Returns a witness describing the
    first failure: for intersection numbers, the lexicographically smallest
    color pair (i, j) and then the smallest class on which p_ij varies.
    """
    n = c.n
    color = c.color
    if n == 0:
        return CoherenceResult(True)

    diag_colors = set(np.unique(np.diagonal(color)).tolist())
    off = color[~np.eye(n, dtype=bool)]
    if diag_colors & set(np.unique(off).tolist()):
        bad = sorted(diag_colors & set(np.unique(off).tolist()))[0]
        return CoherenceResult(False, {"kind": "diagonal", "color": int(bad)})

    for i in range(c.num_colors):
        partners = np.unique(color.T[color == i])
        if len(partners) != 1:
            return CoherenceResult(
                False,
                {"kind": "transpose", "color": int(i),
                 "partners": [int(x) for x in partners]},
            )

    rank = c.num_colors
    _, first = np.unique(color.ravel(), return_index=True)
    rep_row, rep_col = np.divmod(first, n)
    # reps[r] is the multiset of the first pair of class r, filled in the row
    # that pair lies in, before any other pair of the class is compared to it.
    reps = np.empty((rank, n), dtype=np.int64)
    worst = None  # smallest (code of (i, j), class) on which p_ij varies
    for u in range(n):
        multisets = np.sort(color[u] * np.int64(rank) + color.T, axis=1)
        new = np.flatnonzero(rep_row == u)
        reps[new] = multisets[rep_col[new]]
        differ = multisets != reps[color[u]]
        bad = np.flatnonzero(differ.any(axis=1))
        if len(bad):
            # At the first position where two sorted multisets differ, the
            # smaller entry is the smallest code whose multiplicities differ.
            at = differ[bad].argmax(axis=1)
            codes = np.minimum(multisets[bad, at], reps[color[u, bad], at])
            found = min(zip(codes.tolist(), color[u, bad].tolist()))
            worst = found if worst is None else min(worst, found)
    if worst is None:
        return CoherenceResult(True)
    code, r = worst
    i, j = divmod(code, rank)
    pairs = np.argwhere(color == r)
    vals = ((color == i).astype(np.int64) @ (color == j).astype(np.int64))[color == r]
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
    )


def configuration_to_json(c: CoherentConfiguration, run_length: bool = False) -> str:
    """Serialize a coherent configuration: n, rank and the color matrix in
    row-major order, run-length encoded as [color, count] pairs on request."""
    flat = [int(x) for x in c.coloring.color.ravel()]
    if run_length:
        encoded: list[list[int]] = []
        for value in flat:
            if encoded and encoded[-1][0] == value:
                encoded[-1][1] += 1
            else:
                encoded.append([value, 1])
        obj = {"n": c.coloring.n, "rank": c.rank, "colors_rle": encoded}
    else:
        obj = {"n": c.coloring.n, "rank": c.rank, "colors": flat}
    return json.dumps(obj, sort_keys=True) + "\n"


def wl1(g: Graph) -> list[int]:
    """Stable vertex coloring under color refinement, canonically numbered.

    Each round replaces a vertex color by (old color, sorted multiset of
    out-neighbor colors, sorted multiset of in-neighbor colors); for
    undirected graphs the two multisets coincide.
    """
    return _refine_vertex_colors([g.neighbors(u) for u in range(g.n)])


def _refine_vertex_colors(out_nbrs: list[list[int]]) -> list[int]:
    """wl1 of the digraph with the given out-neighbor lists."""
    n = len(out_nbrs)
    colors = [0] * n
    in_nbrs: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in out_nbrs[u]:
            in_nbrs[v].append(u)
    while True:
        sigs = [
            (
                colors[u],
                tuple(sorted(colors[v] for v in out_nbrs[u])),
                tuple(sorted(colors[v] for v in in_nbrs[u])),
            )
            for u in range(n)
        ]
        ordering = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new_colors = [ordering[s] for s in sigs]
        if len(ordering) == len(set(colors)):
            return new_colors
        colors = new_colors


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
    union = [g1.neighbors(u) for u in range(n)]
    union += [[v + n for v in g2.neighbors(u)] for u in range(n)]
    colors = _refine_vertex_colors(union)
    return sorted(colors[:n]) != sorted(colors[n:])
