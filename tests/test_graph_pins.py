"""Exact outcomes of the graph layer, pinned and checked against a
pure-Python reference.

Every Deza verdict, divisible-design verdict, failure witness and diameter
of the seeded cases below was recorded once and is stored in
data/graph_pins.json; the sha256 digests pin whole reports and
serializations. A change to the graph representation must reproduce all of
them bit for bit, including which pair is reported as the witness when
several pairs fail. On cases from other seeds the results must equal those
of the pair-by-pair loops and breadth-first searches at the end of this file.

Regenerate the data file only for a deliberate change of outcome:

    PYTHONPATH=src python3 tests/test_graph_pins.py > tests/data/graph_pins.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from dezawl import (
    DDGParameters,
    DezaParameters,
    Graph,
    canonical_ddg_partition,
    cayley_graph,
    connection_set,
    ddg_check,
    deza_parameters,
    diameter,
    family_group,
)
from dezawl.cli import main

PINS_PATH = Path(__file__).resolve().parent / "data" / "graph_pins.json"


def _circulant(n, rng):
    s = {d for d in range(1, n // 2 + 1) if rng.random() < 0.35} or {1}
    return Graph.from_edges(n, [(u, (u + d) % n) for u in range(n) for d in s
                                if u < (u + d) % n or 2 * d != n])


def _disjoint_union(g1, g2):
    edges = g1.edges() + [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    return Graph.from_edges(g1.n + g2.n, edges, directed=g1.directed)


def _random_graph(n, p, rng, directed=False):
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and (directed or u < v)]
    return Graph.from_edges(n, [e for e in pairs if rng.random() < p], directed)


def _two_switch(g, rng):
    """Degree-preserving edge swap (a,b),(c,d) -> (a,d),(c,b)."""
    edges = g.edges()
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b):
            break
    dropped = {(a, b), (min(c, d), max(c, d))}
    kept = [e for e in edges if e not in dropped]
    return Graph.from_edges(g.n, kept + [(a, d), (c, b)])


def _family(k):
    g = family_group(k)
    return cayley_graph(g, connection_set(g, k))


def _random_cayley(k, rng):
    g = family_group(k)
    s = set()
    for x in g.elements():
        if x != g.identity and rng.random() < 0.2:
            s |= {x, g.inverse(x)}
    return cayley_graph(g, s)


def deza_cases(seed=20260101):
    """(case id, undirected graph) pairs, built from a fixed seed."""
    rng = random.Random(seed)
    for i in range(60):
        yield f"circulant-{i}", _circulant(rng.randrange(4, 33), rng)
    for i in range(20):
        n = rng.randrange(4, 17)
        a, b = _circulant(n, rng), _circulant(n, rng)
        if a.is_regular() == b.is_regular():
            yield f"two-circulants-{i}", _disjoint_union(a, b)
    for i in range(40):
        yield f"gnp-{i}", _random_graph(rng.randrange(1, 20), rng.random(), rng)
    for i in range(24):
        yield f"cayley-{i}", _random_cayley(3 + i % 3, rng)
    for k in (3, 4, 5, 6):
        yield f"family-{k}", _family(k)
        for i in range(6):
            yield f"family-{k}-switched-{i}", _two_switch(_family(k), rng)
    for n in range(4):
        yield f"empty-{n}", Graph(n)


def digraph_cases(seed=20260202):
    """Random digraphs and Cayley graphs of random connection sets; a set
    that happens to be inverse-closed gives an undirected Cayley graph."""
    rng = random.Random(seed)
    for i in range(40):
        yield f"digraph-{i}", _random_graph(rng.randrange(1, 16), rng.random(), rng, True)
    for i in range(10):
        g = family_group(3 + i % 2)
        s = {x for x in g.elements() if x != g.identity and rng.random() < 0.15} or {g.a}
        yield f"cayley-digraph-{i}", cayley_graph(g, s)


def _equal_partition(n, l, rng):
    vertices = list(range(n))
    rng.shuffle(vertices)
    return [vertices[i:i + l] for i in range(0, n, l)]


def ddg_cases(seed=20260303):
    """(case id, graph, partition) triples; the random partitions make
    within-class and between-class failures interleave in pair order."""
    rng = random.Random(seed)
    graphs = [(f"family-{k}", _family(k)) for k in (3, 4, 5)]
    graphs += [(f"family-{k}-switched-{i}", _two_switch(_family(k), rng))
               for k in (3, 4) for i in range(3)]
    graphs += [(f"circulant-{i}", _circulant(24, rng)) for i in range(4)]
    graphs.append(("gnp", _random_graph(24, 0.3, rng)))
    for name, graph in graphs:
        n = graph.n
        if name.startswith("family"):
            k = n // 8
            yield f"{name}-canonical", graph, canonical_ddg_partition(family_group(k), k)
        for l in (1, 2, 3, 4, 6, n // 2, n):
            if n % l == 0:
                yield f"{name}-l{l}", graph, _equal_partition(n, l, rng)
        yield f"{name}-unequal", graph, [list(range(5)), list(range(5, n))]


def _diameter_outcome(g):
    d = diameter(g)
    return [type(d).__name__, str(d)]


def _deza_outcome(result):
    if isinstance(result, DezaParameters):
        return ["deza", result.n, result.k, result.beta, result.alpha,
                result.strictly, result.strongly_regular, result.degenerate]
    return ["not_deza", result.reason, result.witness]


def _ddg_outcome(result):
    if isinstance(result, DDGParameters):
        return ["ddg", *result.as_tuple()]
    return ["ddg_failure", result.reason, result.witness]


def _plain(obj):
    """obj as stored in JSON; raises on numpy scalars, which must not leak."""
    return json.loads(json.dumps(obj))


def outcomes() -> dict:
    return {
        "deza": {name: _plain([_deza_outcome(deza_parameters(g)), _diameter_outcome(g)])
                 for name, g in deza_cases()},
        "digraph_diameter": {name: _plain(_diameter_outcome(g))
                             for name, g in digraph_cases()},
        "ddg": {name: _plain(_ddg_outcome(ddg_check(g, partition)))
                for name, g, partition in ddg_cases()},
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current():
    return outcomes()


@pytest.mark.parametrize("kind", ["deza", "digraph_diameter", "ddg"])
def test_outcomes_match_pins(kind, pins, current):
    assert list(current[kind]) == list(pins[kind])
    wrong = {name: (got, pins[kind][name]) for name, got in current[kind].items()
             if got != pins[kind][name]}
    assert not wrong


def test_pins_cover_every_verdict_kind(pins):
    deza_kinds = {o[0][1] if o[0][0] == "not_deza" else "deza" for o in pins["deza"].values()}
    assert deza_kinds == {"deza", "not regular", "more than two common-neighbor counts"}
    assert {o[1][0] for o in pins["deza"].values()} == {"int", "float"}
    assert {o[0] for o in pins["digraph_diameter"].values()} == {"int", "float"}
    ddg_kinds = {o[1] if o[0] == "ddg_failure" else "ddg" for o in pins["ddg"].values()}
    assert ddg_kinds == {"ddg", "not regular", "classes have unequal sizes",
                         "within-class count not constant",
                         "between-class count not constant"}


def test_digraphs_have_no_deza_parameters():
    digraphs = [g for _, g in digraph_cases() if g.directed]
    assert len(digraphs) >= 40
    for g in digraphs:
        with pytest.raises(ValueError):
            deza_parameters(g)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


DROP_EDGE_REPORTS = {
    (3, 0, 2): "4602a587c541dcb297167c6976c7f7f0338580327c36ad0c0ef255d2a5783878",
    (3, 6, 2): "89445946c47d2d215d016afb3e3fff4548eb90bce2364930d6205f08b82f6519",
    (3, 10, 14): "494ca339c1851dcab4e6f16ced2e8b13e4b4f2c6224f915429f94fe3a22e605d",
    (3, 23, 21): "a539c869a9b8c03407aa18f9e6b65187a51f50fe26384062250f81430fc84996",
    (4, 0, 2): "86940a32063ac3c835a4243c56a0e5e88dd38ea6640a81fb38e4dad488a1fd34",
    (4, 4, 14): "532337db55f8e950d4fb12d851ba1c4a1fb1153d56cb9581caf65cd481985ca4",
    (4, 15, 13): "5af40bd4653a0958a1d5ec4017179200baf2fbfbd09248e71a389764193dbdff",
    (4, 31, 29): "b344b8bf89d85f1f9cabc0162c5c6e66769283acc29e7a6b6fdcacc1677cb658",
}


@pytest.mark.parametrize("k,u,v", sorted(DROP_EDGE_REPORTS))
def test_drop_edge_report_is_pinned(k, u, v, tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify", "--k", str(k), "--json", str(path),
                 "--drop-edge", str(u), str(v)])
    assert code == 1
    assert _sha256(path.read_bytes()) == DROP_EDGE_REPORTS[(k, u, v)]


CONSTRUCT_K5 = {
    "edgelist": "9d920723800fb93c76bf74ba9ebc958fa6adc7ea0893e19f78af6baaad8795e7",
    "dot": "dacfdbe01b79d49f2595ee17da87be81c8a81acad30515b1b89c8ff826b99a6e",
    "json": "8579a5cfd874d9eb4e5792a0b11fbf94e301e0a8098d235162525af15cd63e08",
}


@pytest.mark.parametrize("fmt", sorted(CONSTRUCT_K5))
def test_construct_output_is_pinned(fmt, capsys):
    assert main(["construct", "--k", "5", "--format", fmt, "--out", "-"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == CONSTRUCT_K5[fmt]


SWEEP_3_TO_5 = "dfcc5170a00fae961eb0f4d360b37e8a1b7bda8f6d9638c8d8cfd5309da3aa77"


def test_sweep_csv_is_pinned(capsys):
    assert main(["sweep", "--from", "3", "--to", "5"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == SWEEP_3_TO_5


def _reference_diameter(g):
    """Maximum eccentricity by a breadth-first search from every vertex."""
    best = 0
    for src in range(g.n):
        dist = {src: 0}
        queue = [src]
        for u in queue:  # the loop also visits the vertices appended to queue
            for v in g.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if len(dist) < g.n:
            return float("inf")
        best = max(best, max(dist.values()))
    return best


def _reference_deza(g):
    """_deza_outcome of deza_parameters, by a walk over all pairs u < v."""
    n = g.n
    nbrs = [set(g.neighbors(u)) for u in range(n)]
    degrees = [len(x) for x in nbrs]
    if n <= 1:
        return ["deza", n, 0, 0, 0, False, True, True]
    if len(set(degrees)) > 1:
        return ["not_deza", "not regular",
                (degrees.index(min(degrees)), degrees.index(max(degrees)))]
    values, by_adjacency = [], {True: set(), False: set()}
    for u in range(n):
        for v in range(u + 1, n):
            c = len(nbrs[u] & nbrs[v])
            if c not in values:
                if len(values) == 2:
                    return ["not_deza", "more than two common-neighbor counts", (u, v)]
                values.append(c)
            by_adjacency[v in nbrs[u]].add(c)
    srg = all(len(x) <= 1 for x in by_adjacency.values())
    strictly = not srg and _reference_diameter(g) == 2
    return ["deza", n, degrees[0], max(values), min(values), strictly, srg,
            len(values) == 1]


def _reference_ddg(g, partition):
    """_ddg_outcome of ddg_check on a valid partition, by a walk over all
    pairs u < v."""
    nbrs = [set(g.neighbors(u)) for u in range(g.n)]
    if len({len(x) for x in nbrs}) != 1:
        return ["ddg_failure", "not regular", None]
    if len({len(cls) for cls in partition}) != 1:
        return ["ddg_failure", "classes have unequal sizes", None]
    class_of = {v: i for i, cls in enumerate(partition) for v in cls}
    level = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            kind = "within" if class_of[u] == class_of[v] else "between"
            c = len(nbrs[u] & nbrs[v])
            if level.setdefault(kind, c) != c:
                return ["ddg_failure", f"{kind}-class count not constant", (u, v)]
    return ["ddg", g.n, len(nbrs[0]), level.get("within", 0), level.get("between", 0),
            len(partition), len(partition[0])]


@pytest.mark.parametrize("seed", [1, 2])
def test_outcomes_equal_the_reference_loops(seed):
    for name, g in deza_cases(seed):
        assert _deza_outcome(deza_parameters(g)) == _reference_deza(g), name
        assert diameter(g) == _reference_diameter(g), name
    for name, g in digraph_cases(seed):
        assert diameter(g) == _reference_diameter(g), name
    for name, g, partition in ddg_cases(seed):
        assert _ddg_outcome(ddg_check(g, partition)) == _reference_ddg(g, partition), name


def dump(pins: dict) -> str:
    """pins as JSON text with one case per line."""
    kinds = [
        f" {json.dumps(kind)}: {{\n"
        + ",\n".join(f"  {json.dumps(name)}: {json.dumps(o)}" for name, o in cases.items())
        + "\n }"
        for kind, cases in pins.items()
    ]
    return "{\n" + ",\n".join(kinds) + "\n}\n"


if __name__ == "__main__":
    sys.stdout.write(dump(outcomes()))
