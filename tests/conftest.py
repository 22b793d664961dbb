"""Shared fixtures: memoized family groups, graphs and closures so the
expensive objects are built once per session."""

from __future__ import annotations

import pytest

from dezawl import (
    Group,
    cayley_graph,
    connection_set,
    family_group,
    wl_closure,
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
