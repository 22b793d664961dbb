"""Bad arguments to the library raise ValueError with a message naming the
fault, before any work; the messages are pinned so that a reworded guard
shows."""

from types import SimpleNamespace

import numpy as np
import pytest

from dezawl import (
    Graph,
    Group,
    IntegralSpectrum,
    SRingPartition,
    Subgroup,
    canonical_ddg_partition,
    ddg_check,
    family_group,
    graph_from_json,
    grid_graph,
    integral_spectrum,
    is_sring,
    make_section,
    save_graph,
    section_sring,
    simple_quantity,
    verify_square_identity,
    wl1_distinguishes,
)


def _arc():
    return Graph.from_edges(2, [(0, 1)], directed=True)


def _swapped_section():
    g = family_group(3)
    subs = g.standard_subgroups()
    return make_section(g, subs.l, subs.u)


def _huge_partition():
    """A stand-in partition of a group of order 46341 with axioms 1 and 2
    holding on its one class {e}, so is_sring reaches its order bound."""
    group = SimpleNamespace(order=46341, identity=0, inv=np.zeros(1, dtype=np.intp))
    return SimpleNamespace(group=group, classes=[(0,)], class_containing=lambda x: (0,))


def _section_with_split_lower():
    """U/L under the classes {e} and G - {e}: U = G is a union of them, and
    the family group's normal subgroup L is not."""
    g = family_group(3)
    p = SRingPartition(g, [[0], range(1, g.order)])
    whole = Subgroup(g, g.elements())
    return section_sring(p, make_section(g, whole, g.standard_subgroups().l))


@pytest.mark.parametrize("call,message", [
    (lambda: graph_from_json("[]"), "graph JSON must be an object"),
    (lambda: save_graph(grid_graph(2, 2), "xml"), "unknown format 'xml'"),
    (lambda: Graph(-1), "vertex count must be nonnegative"),
    (lambda: Graph(2, labels=["a"]), "labels length does not match vertex count"),
    (lambda: grid_graph(0, 3), "grid dimensions must be at least 1"),
    (lambda: ddg_check(_arc(), [[0], [1]]), "divisible design check requires an undirected"),
    (lambda: ddg_check(grid_graph(2, 2), [[0, 1], [2, 3, 99]]), "vertex 99 out of range"),
    (lambda: wl1_distinguishes(_arc(), Graph.from_edges(2, [(0, 1)])),
     "graphs must both be directed or both undirected"),
    (_swapped_section, "lower subgroup is not contained in the upper subgroup"),
    (lambda: simple_quantity(family_group(3), [24]), "element 24 out of range"),
    (lambda: Graph.from_edges(3, [(0, 3)]), r"arc \(0, 3\) out of range"),
    (lambda: Graph.from_edges(3, [(1, 1)]), "loops are not allowed"),
    (lambda: grid_graph(2, 2).without_edge(0, 3), r"\(0, 3\) is not an edge"),
    (lambda: canonical_ddg_partition(family_group(3), 4), "group was not built by family_group"),
    (lambda: verify_square_identity(family_group(3), 4, []), "group was not built by family_group"),
    (lambda: Group([], [], 0), "group must have at least one element"),
    (lambda: Group([[0]], [0], 0, names=["e", "x"]), "names length does not match group order"),
    (lambda: simple_quantity(family_group(3), [0]) + simple_quantity(family_group(4), [0]),
     "operands live over different groups"),
    (lambda: is_sring(_huge_partition()), "group order 46341 too large"),
    (_section_with_split_lower, "lower subgroup is not a union of classes"),
], ids=["graph-json-list", "save-format", "negative-order", "labels", "grid-size",
        "ddg-digraph", "ddg-vertex", "wl1-mixed", "section-swapped", "simple-quantity",
        "arc-range", "loop", "non-edge", "ddg-partition-group", "square-identity-group",
        "empty-group", "group-names", "group-ring-groups", "sring-order", "section-lower"])
def test_bad_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_empty_graph_has_the_empty_spectrum():
    assert integral_spectrum(Graph(0)) == IntegralSpectrum(())
