"""Shared fixtures: memoized family groups, graphs and closures so the
expensive objects are built once per session."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from dezawl import (
    Graph,
    Group,
    cayley_graph,
    connection_set,
    family_group,
    wl_closure,
    wl,
    wl2,
)


def cyclic_group(n: int) -> Group:
    mult = [[(i + j) % n for j in range(n)] for i in range(n)]
    inv = [(-i) % n for i in range(n)]
    return Group(mult, inv, 0, ["e"] + [f"g^{i}" for i in range(1, n)])


def elementary_abelian(m: int) -> Group:
    """C2^m with the elements as bit vectors and xor as the product."""
    n = 1 << m
    return Group([[a ^ b for b in range(n)] for a in range(n)], list(range(n)), 0)


def carrying(g: Graph, automorphisms=()) -> Graph:
    """A shallow copy of g that shares its adjacency and carries the given
    automorphisms, or none: the graph to hand wl2 or integral_spectrum to
    steer their transitivity decision."""
    h = copy.copy(g)
    h.automorphisms = automorphisms
    return h


def initial_coloring(g: Graph) -> tuple[np.ndarray, int]:
    """The diagonal, arc, reverse-arc and non-arc classes of g, numbered by
    first occurrence as wl2 numbers its colorings: the n x n matrix and its
    rank."""
    ids, num = wl._renumber_first_occurrence(wl._initial_key(g))
    return ids.reshape(g.n, g.n), num


def hashed_round(color: np.ndarray, seed: int) -> tuple[np.ndarray, int]:
    """One hashed 2-WL round from the pair coloring color, on its mixed key
    under the given seed, with the new keys numbered by first occurrence as
    exact_round numbers its signatures."""
    key = wl._finalize(color.astype(np.uint64))
    assert wl._hashed_round(key, wl._hash_prime(len(color)), seed)
    ids, num = wl._renumber_first_occurrence(key.reshape(-1))
    return ids.reshape(color.shape), num


def exact_round(color: np.ndarray, num_colors: int) -> tuple[np.ndarray, int]:
    """One exact 2-WL round, the reference the hashed rounds of wl2 are
    tested against: the color of each pair (u, v) becomes its old color and
    the sorted multiset over w of (color(u, w), color(w, v)), built one pair
    row at a time, and these signatures are numbered by first occurrence in
    row-major pair order."""
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


class _Cache:
    def __init__(self):
        self._groups = {}
        self._graphs = {}
        self._closures = {}
        self._configurations = {}

    def group(self, k: int):
        if k not in self._groups:
            self._groups[k] = family_group(k)
        return self._groups[k]

    def graph(self, k: int):
        if k not in self._graphs:
            g = self.group(k)
            self._graphs[k] = cayley_graph(g, connection_set(g, k))
        return self._graphs[k]

    def closure(self, k: int):
        if k not in self._closures:
            g = self.group(k)
            self._closures[k] = wl_closure(g, [connection_set(g, k)])
        return self._closures[k]

    def configuration(self, key, graph):
        if key not in self._configurations:
            self._configurations[key] = wl2(graph)
        return self._configurations[key]

    def all_closures(self):
        return dict(self._closures)

    def all_configurations(self):
        return dict(self._configurations)


@pytest.fixture(scope="session")
def cache():
    return _Cache()
