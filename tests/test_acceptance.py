"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (zero tolerance); the only floating point involved is
the candidate stage of the spectrum certification, whose output is certified
by exact integer nullities before any assertion here.
"""

import random

import pytest

from dezawl import (
    DDGParameters,
    DezaParameters,
    Graph,
    IntegralSpectrum,
    canonical_ddg_partition,
    cayley_graph,
    connection_set,
    ddg_check,
    deza_parameters,
    detect_wreath,
    diameter,
    expected_eigenvalues,
    family_group,
    grid_graph,
    integral_spectrum,
    is_sring,
    verify_coherence,
    verify_square_identity,
    wl1_distinguishes,
    wl_closure,
    wl_rank,
)


def _report(criterion: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}")
    assert not failures, f"{criterion}: " + "; ".join(failures)


def test_criterion_1_strictly_deza(cache):
    failures = []
    for k in range(3, 11):
        params = deza_parameters(cache.graph(k))
        expected = (8 * k, 2 * (k + 1), 2 * (k - 1), 2)
        if not isinstance(params, DezaParameters):
            failures.append(f"k={k}: not Deza ({params})")
        elif params.as_tuple() != expected:
            failures.append(f"k={k}: parameters {params.as_tuple()} != {expected}")
        elif not params.strictly or params.strongly_regular:
            failures.append(f"k={k}: not strictly Deza")
        elif diameter(cache.graph(k)) != 2:
            failures.append(f"k={k}: diameter != 2")
    _report("1 strictly-Deza certification", failures)


def test_criterion_2_square_identity():
    failures = []
    for k in range(3, 13):
        g = family_group(k)
        res = verify_square_identity(g, k)
        if not res.holds:
            failures.append(f"k={k}: discrepancy {res.discrepancy}")
    _report("2 connection-set square identity", failures)


def test_criterion_3_wl_rank_odd(cache):
    failures = []
    for k in (3, 5, 7, 9, 11):
        expected = 8 * k
        graph_rank = cache.configuration(("family", k), cache.graph(k)).rank
        closure_rank = cache.closure(k).rank
        if graph_rank != expected:
            failures.append(f"k={k}: 2-WL rank {graph_rank} != {expected}")
        if closure_rank != expected:
            failures.append(f"k={k}: closure rank {closure_rank} != {expected}")
    _report("3 WL-rank equals vertex count for odd k", failures)


def test_criterion_4_wl_rank_even_and_wreath(cache):
    failures = []
    for k in (4, 6, 8, 10):
        expected = 4 * k + 4
        graph_rank = cache.configuration(("family", k), cache.graph(k)).rank
        closure = cache.closure(k)
        if graph_rank != expected:
            failures.append(f"k={k}: 2-WL rank {graph_rank} != {expected}")
        if closure.rank != expected:
            failures.append(f"k={k}: closure rank {closure.rank} != {expected}")
        decomps = detect_wreath(closure)
        wanted = [
            w
            for w in decomps
            if w.section.lower.order == k
            and w.section.upper.order == 4 * k
            and w.rank_quotient == 8
            and w.rank_section == 4
        ]
        if not wanted:
            failures.append(f"k={k}: canonical wreath decomposition not found")
        for w in decomps:
            if closure.rank != w.rank_u + w.rank_quotient - w.rank_section:
                failures.append(f"k={k}: rank identity fails for {w.summary()}")
    _report("4 WL-rank 4k+4 and wreath structure for even k", failures)


def test_criterion_5_closure_trace(cache):
    from dezawl import closure_trace

    failures = []
    for k in (3, 4, 5, 6):
        trace = closure_trace(cache.group(k), k)
        for entry in trace.entries:
            if not entry.holds:
                failures.append(
                    f"k={k}: {entry.name} expected {entry.expected}"
                    f" observed {entry.observed}"
                )
    _report("5 closure trace singletons and cosets", failures)


def test_criterion_6_ddg_and_spectrum(cache):
    failures = []
    for k in range(3, 11):
        g = cache.group(k)
        gamma = cache.graph(k)
        result = ddg_check(gamma, canonical_ddg_partition(g, k))
        expected = (8 * k, 2 * (k + 1), 2 * (k - 1), 2, 4, 2 * k)
        if not isinstance(result, DDGParameters) or result.as_tuple() != expected:
            failures.append(f"k={k}: divisible design check failed ({result})")
        spec = integral_spectrum(gamma)
        if not isinstance(spec, IntegralSpectrum):
            failures.append(f"k={k}: spectrum not certified integral")
            continue
        if spec.eigenvalues() != expected_eigenvalues(k):
            failures.append(f"k={k}: eigenvalues {spec.eigenvalues()}")
        if sum(lam * m for lam, m in spec.pairs) != 0:
            failures.append(f"k={k}: trace identity fails")
        if sum(lam * lam * m for lam, m in spec.pairs) != 8 * k * 2 * (k + 1):
            failures.append(f"k={k}: walk identity fails")
    _report("6 divisible design and integral spectrum", failures)


def test_criterion_7_grid_comparison(cache):
    failures = []
    for k in range(3, 11):
        grid = grid_graph(4, 2 * k)
        family_params = deza_parameters(cache.graph(k))
        grid_params = deza_parameters(grid)
        if (
            not isinstance(grid_params, DezaParameters)
            or grid_params.as_tuple() != family_params.as_tuple()
        ):
            failures.append(f"k={k}: grid parameters differ")
        grid_rank = cache.configuration(("grid", k), grid).rank
        if grid_rank != 4:
            failures.append(f"k={k}: grid WL-rank {grid_rank} != 4")
        family_rank = cache.configuration(("family", k), cache.graph(k)).rank
        if family_rank == grid_rank:
            failures.append(f"k={k}: WL-rank does not separate the graphs")
    for k in (3, 4, 5):
        if wl1_distinguishes(cache.graph(k), grid_graph(4, 2 * k)):
            failures.append(f"k={k}: 1-WL unexpectedly distinguishes the graphs")
    _report("7 grid comparison and 1-WL blindness", failures)


def test_criterion_8_property_suites(cache):
    failures = []

    for k, closure in sorted(cache.all_closures().items()):
        check = is_sring(closure)
        if not check.ok:
            failures.append(f"closure k={k} violates axioms: {check.violations}")

    for key, conf in sorted(cache.all_configurations().items()):
        if not verify_coherence(conf.color, conf.rank).ok:
            failures.append(f"2-WL output {key} not coherent")

    rng = random.Random(2024)
    groups = [cache.group(3), cache.group(4)]  # orders 24 and 32
    for i in range(20):
        g = groups[i % 2]
        size = rng.randrange(1, 10)
        base = rng.sample([x for x in g.elements() if x != g.identity], size)
        sym = frozenset(base) | frozenset(g.inverse(x) for x in base)
        closure_rank = wl_closure(g, [sym]).rank
        gamma = cayley_graph(g, sym)
        graph_rank = wl_rank(gamma)
        if closure_rank != graph_rank:
            failures.append(
                f"random set #{i} over order {g.order}:"
                f" closure {closure_rank} != 2-WL {graph_rank}"
            )
        if not 2 <= graph_rank <= g.order:
            failures.append(f"random set #{i}: rank {graph_rank} out of bounds")

    g = cache.group(3)
    complete = cayley_graph(g, [x for x in g.elements() if x != g.identity])
    empty = cayley_graph(g, [])
    if wl_rank(complete) != 2:
        failures.append("complete Cayley graph rank != 2")
    if wl_rank(empty) != 2:
        failures.append("empty Cayley graph rank != 2")
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    if wl_rank(path) == 2:
        failures.append("non-complete non-empty graph reported rank 2")

    _report("8 property suites", failures)
