"""Bad arguments to the library raise ValueError with a message naming the
fault, before any work; the messages are pinned so that a reworded guard
shows."""

import pytest

from dezawl import (
    Graph,
    IntegralSpectrum,
    ddg_check,
    family_group,
    graph_from_json,
    grid_graph,
    integral_spectrum,
    make_section,
    save_graph,
    simple_quantity,
    wl1_distinguishes,
)


def _arc():
    return Graph.from_edges(2, [(0, 1)], directed=True)


def _swapped_section():
    g = family_group(3)
    subs = g.standard_subgroups()
    return make_section(g, subs.l, subs.u)


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
], ids=["graph-json-list", "save-format", "negative-order", "labels", "grid-size",
        "ddg-digraph", "ddg-vertex", "wl1-mixed", "section-swapped", "simple-quantity"])
def test_bad_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_empty_graph_has_the_empty_spectrum():
    assert integral_spectrum(Graph(0)) == IntegralSpectrum(())
