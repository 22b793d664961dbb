"""Graph construction and combinatorial parameter verification.

A graph holds one n x n boolean adjacency matrix. Common-neighbor counts
for the Deza and divisible-design checks and the diameter's reachability
come from float32 BLAS products of 0/1 matrices taken in eight row blocks
(_row_blocks), so no n x n product is ever held. The counts come from the
blocks A[lo:hi] A[lo:]^T, which hold the pairs u <= v of rows lo to hi and
together cost about the flops of one symmetric product A A^T; each check
decides its verdict block by block, in row-major order of pairs. The
products are exact: every term is 0 or 1, so every partial sum is an
integer in [0, n], and float32 holds every integer below 2^24 exactly,
whatever order, blocking or fused multiply-add the BLAS uses; Graph
refuses n^2 >= 2^31 before it allocates the adjacency, so n < 2^24. Graphs
are treated as immutable once built; derived graphs are produced by copy.

cayley_graph and grid_graph record automorphisms that they know by
construction: the right translations of a generating set and the two
cyclic shifts. Carried automorphisms count only when _transitive accepts
them, checked exactly and acting transitively; then wl2 and its coherence
recheck read row 0 and integral_spectrum takes column 0.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .group import FamilyGroup, Group, _generated, cosets, subgroup_generated


class Graph:
    """Loopless graph or digraph on vertices 0..n-1; adj[u, v] is true iff
    (u, v) is an arc, and an undirected graph stores both arcs.

    automorphisms holds vertex permutations of the graph, one read-only
    intp row each, as recorded by the constructor that built it
    (cayley_graph, grid_graph), and () for every other graph, derived ones
    included. wl2 and integral_spectrum use them only if _transitive
    accepts them, and then they only shorten work.
    Raises ValueError for n < 0 and, before allocating adj, for
    n^2 >= 2^31, past the int32 pair colors of 2-WL.
    """

    def __init__(
        self,
        n: int,
        directed: bool = False,
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n * n >= 2**31:
            raise ValueError(f"{n} vertices too many: n^2 must be below 2^31")
        if labels is not None and len(labels) != n:
            raise ValueError("labels length does not match vertex count")
        self.n = n
        self.directed = directed
        self.adj = np.zeros((n, n), dtype=bool)
        self.labels = list(labels) if labels is not None else None
        self.automorphisms: Sequence[Sequence[int]] = ()

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        directed: bool = False,
        labels: Optional[Sequence[str]] = None,
    ) -> "Graph":
        g = cls(n, directed, labels)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range")
            if u == v:
                raise ValueError("loops are not allowed")
            if g.adj[u, v]:
                raise ValueError(f"duplicate edge {u} {v}")
            g.adj[u, v] = True
            if not directed:
                g.adj[v, u] = True
        return g

    def has_edge(self, u: int, v: int) -> bool:
        for x in (u, v):
            if not 0 <= x < self.n:
                raise ValueError(f"vertex {x} out of range for {self.n} vertices")
        return bool(self.adj[u, v])

    def neighbors(self, u: int) -> list[int]:
        return np.flatnonzero(self.adj[u]).tolist()

    def edge_count(self) -> int:
        arcs = int(np.count_nonzero(self.adj))
        return arcs if self.directed else arcs // 2

    def edges(self) -> list[tuple[int, int]]:
        """Arcs for digraphs; unordered pairs (u < v) for graphs; both in
        row-major order."""
        arcs = self.adj if self.directed else np.triu(self.adj, 1)
        return [(u, v) for u, v in np.argwhere(arcs).tolist()]

    def is_regular(self) -> Optional[int]:
        """The common degree, or None if degrees differ (or n = 0)."""
        degrees = self.adj.sum(axis=1)
        if self.n and (degrees == degrees[0]).all():
            return int(degrees[0])
        return None

    def without_edge(self, u: int, v: int) -> "Graph":
        """Copy with the edge (u, v) removed, both directions if undirected."""
        if not self.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge")
        g = Graph(self.n, self.directed, self.labels)
        g.adj = self.adj.copy()
        g.adj[u, v] = False
        if not self.directed:
            g.adj[v, u] = False
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.directed == other.directed
            and np.array_equal(self.adj, other.adj)
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        kind = "digraph" if self.directed else "graph"
        return f"Graph({kind}, n={self.n}, edges={self.edge_count()})"


class DezaParameters(NamedTuple):
    """Parameters (n, k, beta, alpha) with beta >= alpha.

    degenerate marks the single-common-neighbor-value case (alpha = beta).
    """

    n: int
    k: int
    beta: int
    alpha: int
    strictly: bool
    strongly_regular: bool
    degenerate: bool = False

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.beta, self.alpha)


class NotDezaVerdict(NamedTuple):
    """Why a graph is not Deza, with a witness vertex pair where applicable."""

    reason: str
    witness: Optional[tuple[int, int]] = None


class DDGParameters(NamedTuple):
    """Divisible design parameters (n, k, alpha, beta, m, l): alpha common
    neighbors within a class, beta across classes, m classes of size l."""

    n: int
    k: int
    alpha: int
    beta: int
    m: int
    l: int

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.n, self.k, self.alpha, self.beta, self.m, self.l)


class DDGFailure(NamedTuple):
    reason: str
    witness: Optional[tuple[int, int]] = None


def _read_only_rows(rows: np.ndarray) -> np.ndarray:
    """rows as a new read-only C-contiguous intp array."""
    out = np.array(rows, dtype=np.intp)
    out.setflags(write=False)
    return out


def _greedy_generators(g: Group) -> list[int]:
    """The elements, in index order, that the ones before them do not
    generate: a generating set of at most log2 n elements, since each one
    at least doubles the subgroup generated so far."""
    gens: list[int] = []
    h = g.mask([g.identity])
    while not h.all():
        gens.append(int(np.argmin(h)))
        h = _generated(g, g.mask(gens))
    return gens


def cayley_graph(g: Group, s: Iterable[int]) -> Graph:
    """Cayley (di)graph with vertex set g and arcs (x, sx) for s in S.

    Undirected iff S is inverse-closed. Raises ValueError if e is in S or
    an element of S is outside 0..order-1. The graph's automorphisms are
    the right translations x -> xt for t in a greedy generating set of g
    (_greedy_generators), each of which maps an arc (x, sx) to (xt, sxt):
    together they act transitively, whatever S is.
    """
    in_s = g.mask(s)
    if in_s[g.identity]:
        raise ValueError("connection set must not contain the identity")
    symmetric = np.array_equal(in_s[g.inv], in_s)
    graph = Graph(g.order, directed=not symmetric, labels=[g.name(x) for x in g.elements()])
    # Row t of the table is x -> tx, so this sets adj[x, tx] for t in S;
    # column t is x -> xt.
    graph.adj[np.arange(g.order), g.mult[in_s]] = True
    graph.automorphisms = _read_only_rows(g.mult[:, _greedy_generators(g)].T)
    return graph


def grid_graph(l: int, m: int) -> Graph:
    """The (l x m)-grid: vertices (i, j), numbered i * m + j, adjacent iff
    exactly one coordinate agrees (the line graph of the complete bipartite
    graph). Its automorphisms are the cyclic shifts i -> i + 1 mod l and
    j -> j + 1 mod m, which together act transitively."""
    if l < 1 or m < 1:
        raise ValueError("grid dimensions must be at least 1")
    labels = [f"({i},{j})" for i in range(l) for j in range(m)]
    g = Graph(l * m, directed=False, labels=labels)
    row, col = np.divmod(np.arange(l * m), m)
    np.equal(row[:, None], row, out=g.adj)
    g.adj ^= col[:, None] == col
    g.automorphisms = _read_only_rows([(row + 1) % l * m + col, row * m + (col + 1) % m])
    return g


def _transitive(color: np.ndarray, perms: Sequence[Sequence[int]]) -> bool:
    """Whether each of perms is a permutation of the vertices with
    color[p][:, p] == color exactly (rows then columns gathered with take)
    and a search from vertex 0 over them reaches every vertex; False on no
    vertices. The one decision behind wl2's row-0 trigger, the coherence
    recheck's one row and the spectrum's one column."""
    n = color.shape[0]
    if n == 0:
        return False
    gens = [np.asarray(p, dtype=np.intp) for p in perms]
    for p in gens:
        if (p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n))
                or not np.array_equal(color.take(p, axis=0).take(p, axis=1), color)):
            return False
    images = [p.tolist() for p in gens]
    seen, stack = {0}, [0]
    while stack:
        x = stack.pop()
        for image in images:
            if image[x] not in seen:
                seen.add(image[x])
                stack.append(image[x])
    return len(seen) == n


# Row blocks of each BLAS pass over n rows, here, in spectrum and in wl's
# hashed rounds: a call amortizes its packing of the right operand over n / 8.
_BLOCKS = 8


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """The bounds (lo, hi) of _BLOCKS consecutive blocks of ceil(n / _BLOCKS)
    rows that cover 0..n-1, the last one shorter; none for n = 0."""
    rows = max(1, -(-n // _BLOCKS))
    return [(lo, min(n, lo + rows)) for lo in range(0, n, rows)]


def diameter(g: Graph) -> Union[int, float]:
    """Maximum eccentricity over all vertices; inf if not strongly connected.

    After d steps, reach[u, v] is true iff a walk of at most d arcs leads
    from u to v. The first step gives I | A; each later one appends one arc
    with the float32 product reach A, whose entry (u, v) counts the reached
    in-neighbors of v and is exact (see the module docstring). Row u of
    reach A depends on row u of reach alone, so a step updates reach in
    place, in eight row blocks: it holds one block of reach as float32 and
    one of the product besides reach and the float32 A.
    The diameter is the first d at which every pair is reached; a step that
    reaches no new pair before then proves some pair unreachable. Each step
    costs one n x n x n product, so this is meant for graphs of small
    diameter: a long path is slower than a breadth-first search from every
    vertex.
    """
    a = g.adj.astype(np.float32)
    reach = np.eye(g.n, dtype=bool)
    d = 0
    while not reach.all():
        reached = np.count_nonzero(reach)
        if d == 0:
            reach |= g.adj
        else:
            for lo, hi in _row_blocks(g.n):
                rows = reach[lo:hi]
                rows |= (rows.astype(np.float32) @ a) > 0
        if np.count_nonzero(reach) == reached:
            return float("inf")
        d += 1
    return d


def _common_neighbor_blocks(g: Graph):
    """Yield (lo, counts, upper) for the eight row blocks lo:hi, in order:
    counts = A[lo:hi] A[lo:]^T as float32, so counts[i, j] counts the common
    out-neighbors of u = lo + i and v = lo + j, an exact integer in [0, n]
    (see the module docstring) that callers compare with ints directly;
    upper marks the pairs v > u and is a new array per block, which callers
    may overwrite. The float32 A lives in the generator alone and is freed
    when it is exhausted or closed.
    """
    a = g.adj.astype(np.float32)
    for lo, hi in _row_blocks(g.n):
        upper = np.arange(lo, g.n) > np.arange(lo, hi)[:, None]
        yield lo, a[lo:hi] @ a[lo:].T, upper


def _first_pair(mask: np.ndarray) -> tuple[int, int]:
    """The first true entry of a 2-D mask in row-major order."""
    u, v = divmod(int(np.argmax(mask)), mask.shape[1])
    return (u, v)


def _off_level(
    counts: np.ndarray, kinds: Sequence[np.ndarray], levels: list[Optional[int]]
) -> np.ndarray:
    """The pairs of one block of counts whose count differs from the level
    of their kind. kinds are disjoint masks of that block; levels[kind] is
    the count of the first pair of that kind, None until a block holds one,
    and is set here from the first pair of kinds[kind] when it is None.
    Called on the blocks in order, this keeps each level at the count of the
    first pair of its kind in row-major order.
    """
    off = np.zeros(counts.shape, dtype=bool)
    for kind, pairs in enumerate(kinds):
        if levels[kind] is None and pairs.any():
            levels[kind] = int(counts[_first_pair(pairs)])
        if levels[kind] is not None:
            off |= pairs & (counts != levels[kind])
    return off


def deza_parameters(g: Graph) -> Union[DezaParameters, NotDezaVerdict]:
    """Classify g by exact common-neighbor counts over all pairs.

    Returns DezaParameters when the graph is regular and at most two distinct
    common-neighbor counts occur; otherwise a NotDezaVerdict with a witness:
    the first pair, in row-major order of pairs u < v, that shows a third
    count. A strongly regular graph is one where the count depends only on
    adjacency; strictly Deza means diameter 2 and not strongly regular.
    The counts are read one row block at a time (module docstring).

    The counts settle the diameter whenever the smaller one, alpha, is at
    least 1: then every pair has a common neighbor, so every distance is at
    most 2. A graph that is not strongly regular is not complete, since the
    complete graph's non-adjacent level is vacuous, so some pair is not
    adjacent and the diameter is exactly 2. Only when alpha = 0 does diameter
    run; the float32 A of the counts is freed before it builds its own.
    """
    if g.directed:
        raise ValueError("Deza parameters are defined for undirected graphs")
    if g.n <= 1:
        return DezaParameters(g.n, 0, 0, 0, strictly=False,
                              strongly_regular=True, degenerate=True)
    k = g.is_regular()
    if k is None:
        degrees = g.adj.sum(axis=1)
        return NotDezaVerdict("not regular", (int(degrees.argmin()), int(degrees.argmax())))

    values: list[int] = []  # distinct counts in order of first occurrence
    # Strong regularity: the count is a function of adjacency alone, i.e.
    # constant on adjacent and on non-adjacent pairs (vacuous on no pairs).
    srg, levels = True, [None, None]
    for lo, counts, upper in _common_neighbor_blocks(g):
        if srg:
            adjacent = g.adj[lo:lo + len(counts), lo:]
            srg = not _off_level(counts, (upper & adjacent, upper & ~adjacent), levels).any()
        fresh = upper  # the pairs whose count is not in values yet
        for value in values:
            fresh &= counts != value
        while fresh.any():
            i, j = _first_pair(fresh)
            if len(values) == 2:
                return NotDezaVerdict("more than two common-neighbor counts",
                                      (lo + i, lo + j))
            values.append(int(counts[i, j]))
            fresh &= counts != values[-1]
    strictly = not srg and (min(values) > 0 or diameter(g) == 2)
    return DezaParameters(g.n, k, max(values), min(values), strictly=strictly,
                          strongly_regular=srg, degenerate=len(values) == 1)


def ddg_check(
    g: Graph, partition: Sequence[Sequence[int]]
) -> Union[DDGParameters, DDGFailure]:
    """Check the two-level common-neighbor condition for a class partition.

    Vertices in the same class must share alpha common neighbors, vertices in
    different classes beta. Classes must be equal-sized; a malformed
    partition (not covering every vertex exactly once) raises ValueError.
    For singleton classes alpha is vacuous and reported as 0. alpha and beta
    are the counts of the first within-class and between-class pair; the
    witness of a failure is the first pair u < v, in row-major order, whose
    count differs from the one of its kind. The counts are read one row
    block at a time (module docstring); a block is decided before the next
    is formed.
    """
    if g.directed:
        raise ValueError("divisible design check requires an undirected graph")
    seen = [0] * g.n
    class_of = np.zeros(g.n, dtype=np.int64)
    for i, cls in enumerate(partition):
        for v in cls:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            seen[v] += 1
            class_of[v] = i
    if any(c != 1 for c in seen):
        raise ValueError("classes do not partition the vertex set")

    k = g.is_regular()
    if k is None:
        return DDGFailure("not regular")
    sizes = {len(cls) for cls in partition}
    if len(sizes) != 1:
        return DDGFailure("classes have unequal sizes")

    levels: list[Optional[int]] = [None, None]  # within, between
    for lo, counts, upper in _common_neighbor_blocks(g):
        same = class_of[lo:lo + len(counts), None] == class_of[lo:]
        off = _off_level(counts, (upper & same, upper & ~same), levels)
        if off.any():
            i, j = _first_pair(off)
            kind = "within" if same[i, j] else "between"
            return DDGFailure(f"{kind}-class count not constant", (lo + i, lo + j))
    within, between = (level or 0 for level in levels)
    return DDGParameters(g.n, k, within, between, len(partition), sizes.pop())


def canonical_ddg_partition(g: Group, k: int) -> list[tuple[int, ...]]:
    """Right cosets of the subgroup A union cbA (a dihedral subgroup of
    order 2k); these are the 4 classes of the divisible design."""
    if not isinstance(g, FamilyGroup) or g.k != k:
        raise ValueError("group was not built by family_group(k)")
    cb = g.mul(g.c, g.b)
    d_sub = subgroup_generated(g, [g.a, cb])
    if d_sub.order != 2 * k:
        raise AssertionError("A union cbA does not have order 2k")
    return cosets(g, d_sub)


# Serialization: edge list (undirected only), DOT, and JSON.

def write_edgelist(g: Graph) -> str:
    """Header 'n m' then one 'u v' line per edge with u < v, 0-based."""
    if g.directed:
        raise ValueError("edge-list format is defined for undirected graphs")
    lines = [f"{g.n} {g.edge_count()}"]
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    """Inverse of write_edgelist. Graph.from_edges rejects an edge listed
    twice, in either orientation, so the header's count is the edge count."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header {lines[0]!r}, expected 'n m'")
    n, m = int(head[0]), int(head[1])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if len(edges) != m:
        raise ValueError(f"header claims {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges, directed=False)


def to_dot(g: Graph) -> str:
    kind, sep = ("digraph", "->") if g.directed else ("graph", "--")
    lines = [f"{kind} G {{"]
    if g.labels is not None:
        for v in range(g.n):
            lines.append(f'  {v} [label="{g.labels[v]}"];')
    for u, v in g.edges():
        lines.append(f"  {u} {sep} {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: Graph) -> str:
    obj = {
        "n": g.n,
        "directed": g.directed,
        "labels": g.labels,
        "edges": [[u, v] for u, v in g.edges()],
    }
    return json.dumps(obj, sort_keys=True) + "\n"


def graph_from_json(text: str) -> Graph:
    """Inverse of graph_to_json. A field of the wrong JSON type raises
    ValueError; a missing field raises KeyError."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("graph JSON must be an object")
    n, directed, edges, labels = obj["n"], obj["directed"], obj["edges"], obj.get("labels")
    valid = {
        "n": type(n) is int,
        "directed": type(directed) is bool,
        "edges": type(edges) is list and all(
            type(e) is list and len(e) == 2 and all(type(x) is int for x in e) for e in edges),
        "labels": labels is None or type(labels) is list and all(type(x) is str for x in labels),
    }
    for field_name, ok in valid.items():
        if not ok:
            raise ValueError(f"graph JSON field {field_name!r} has the wrong type")
    return Graph.from_edges(n, [(u, v) for u, v in edges], directed, labels)


def save_graph(g: Graph, fmt: str) -> str:
    if fmt == "edgelist":
        return write_edgelist(g)
    if fmt == "dot":
        return to_dot(g)
    if fmt == "json":
        return graph_to_json(g)
    raise ValueError(f"unknown format {fmt!r}")


def load_graph(text: str) -> Graph:
    """Parse JSON if the input looks like JSON, else the edge-list format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_json(text)
    return parse_edgelist(text)
