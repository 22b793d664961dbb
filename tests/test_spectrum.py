import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import carrying, elementary_abelian
from dezawl import graphs as graph_layer
from dezawl import spectrum
from dezawl import (
    Graph,
    IntegralSpectrum,
    NonIntegralVerdict,
    cayley_graph,
    connection_set,
    expected_eigenvalues,
    family_group,
    grid_graph,
    integer_rank,
    integral_spectrum,
    wl2,
)


def test_expected_eigenvalue_sets():
    assert expected_eigenvalues(3) == {8, 4, -4, 2, -2}
    assert expected_eigenvalues(4) == {10, 6, -6, 2, -2}
    assert expected_eigenvalues(5) == {12, 8, -8, 2, -2}


def test_expected_eigenvalues_rejects_small_k():
    with pytest.raises(ValueError):
        expected_eigenvalues(2)


def test_integer_rank_known_matrices():
    ones = [[1] * 4 for _ in range(4)]
    assert integer_rank(ones) == 1
    assert len(ones) - integer_rank(ones) == 3
    ident = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert integer_rank(ident) == 5
    zero = [[0] * 3 for _ in range(3)]
    assert len(zero) - integer_rank(zero) == 3
    # A(K3) + I has rank 1, so eigenvalue -1 of K3 has multiplicity 2
    k3_shift = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
    assert len(k3_shift) - integer_rank(k3_shift) == 2


def test_integer_rank_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(41)
    for _ in range(10):
        m = rng.integers(-4, 5, size=(8, 8))
        # force rank deficiency half the time
        if rng.random() < 0.5:
            m[3] = m[1] + 2 * m[2]
        expected = np.linalg.matrix_rank(m.astype(float))
        assert integer_rank(m.tolist()) == expected


def test_k2_spectrum():
    k2 = Graph.from_edges(2, [(0, 1)])
    spec = integral_spectrum(k2)
    assert isinstance(spec, IntegralSpectrum)
    assert spec.pairs == ((1, 1), (-1, 1))


# multiplicities frozen from the exact nullity oracle, cross-checked against
# a numeric eigendecomposition
FAMILY_SPECTRA = {
    3: ((8, 1), (4, 1), (2, 9), (-2, 11), (-4, 2)),
    4: ((10, 1), (6, 1), (2, 13), (-2, 15), (-6, 2)),
}


@pytest.mark.parametrize("k", [3, 4])
def test_family_graph_spectrum_certified(cache, k):
    spec = integral_spectrum(cache.graph(k))
    assert isinstance(spec, IntegralSpectrum)
    assert spec.pairs == FAMILY_SPECTRA[k]
    assert spec.eigenvalues() == expected_eigenvalues(k)
    n = 8 * k
    assert sum(m for _, m in spec.pairs) == n
    assert sum(lam * m for lam, m in spec.pairs) == 0
    assert sum(lam * lam * m for lam, m in spec.pairs) == n * 2 * (k + 1)


@pytest.mark.parametrize("k", [3, 4])
def test_exact_multiplicities_match_float_counts(cache, k):
    gamma = cache.graph(k)
    vals = np.linalg.eigvalsh(gamma.adj.astype(float))
    approx = {}
    for x in vals:
        approx[round(float(x))] = approx.get(round(float(x)), 0) + 1
    spec = integral_spectrum(gamma)
    assert dict(spec.pairs) == approx


@pytest.mark.parametrize("k", [11, 12])
def test_spectrum_invariants_at_top_of_range(k):
    g = family_group(k)
    gamma = cayley_graph(g, connection_set(g, k))
    spec = integral_spectrum(gamma)
    assert isinstance(spec, IntegralSpectrum)
    assert spec.eigenvalues() == expected_eigenvalues(k)
    assert sum(lam * m for lam, m in spec.pairs) == 0
    assert sum(lam * lam * m for lam, m in spec.pairs) == 8 * k * 2 * (k + 1)


def test_grid_graph_is_integral():
    spec = integral_spectrum(grid_graph(4, 6))
    assert isinstance(spec, IntegralSpectrum)
    # recorded for comparison: the grid lacks -(2k - 2)
    assert spec.eigenvalues() == {8, 4, 2, -2}


def test_perturbed_family_graph_fails_certification(cache):
    gamma = cache.graph(3)
    broken = gamma.without_edge(0, gamma.neighbors(0)[0])
    res = integral_spectrum(broken)
    assert isinstance(res, NonIntegralVerdict)
    assert res.residual_dimension > 0
    assert res.unmatched  # genuinely irrational eigenvalues were seen


def test_directed_graph_rejected():
    digraph = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    with pytest.raises(ValueError):
        integral_spectrum(digraph)


def test_empty_graph_spectrum():
    spec = integral_spectrum(Graph(4))
    assert spec.pairs == ((0, 4),)


def test_one_vertex_spectrum():
    """One vertex, which carries no automorphisms, is transitive: its one
    column is all the columns."""
    assert integral_spectrum(Graph(1)) == IntegralSpectrum(((0, 1),))


# ---------------------------------------------- cross-oracle: pure elimination

def _reference_spectrum(g):
    """integral_spectrum by elimination alone: float candidates, then one
    exact nullity per candidate from integer_rank."""
    floats = np.linalg.eigvalsh(g.adj.astype(np.float64))
    candidates, unmatched = set(), []
    for x in floats:
        if abs(x - round(float(x))) <= 1e-6:
            candidates.add(round(float(x)))
        else:
            unmatched.append(float(x))
    pairs = []
    for lam in sorted(candidates, reverse=True):
        shifted = [[int(v) for v in row] for row in g.adj.astype(np.int64)]
        for i in range(g.n):
            shifted[i][i] = -lam
        mult = g.n - integer_rank(shifted)
        if mult:
            pairs.append((lam, mult))
    total = sum(m for _, m in pairs)
    if total != g.n:
        return NonIntegralVerdict(tuple(pairs), g.n - total, tuple(unmatched))
    return IntegralSpectrum(tuple(pairs))


def _complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _complete_bipartite(n):
    return Graph.from_edges(2 * n, [(u, n + v) for u in range(n) for v in range(n)])


def _hypercube(d):
    return Graph.from_edges(1 << d, [(u, u ^ (1 << i)) for u in range(1 << d)
                                     for i in range(d) if u < u ^ (1 << i)])


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def _cocktail_party(m):
    return Graph.from_edges(2 * m, [(u, v) for u in range(2 * m) for v in range(u + 1, 2 * m)
                                    if v != u + m])


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _gnp(n, p, seed):
    rng = np.random.default_rng(seed)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])


INTEGRAL_CASES = {
    "grid4x6": lambda cache: grid_graph(4, 6),
    "grid4x8": lambda cache: grid_graph(4, 8),
    "k7": lambda cache: _complete(7),
    "k5_5": lambda cache: _complete_bipartite(5),
    "q4": lambda cache: _hypercube(4),
    "petersen": lambda cache: _petersen(),
    "cocktail_party4": lambda cache: _cocktail_party(4),
    **{f"gamma{k}": (lambda cache, k=k: cache.graph(k)) for k in range(3, 9)},
}

NON_INTEGRAL_CASES = {
    "c5": lambda cache: _cycle(5),
    "p4": lambda cache: _path(4),
    "gamma3_minus_edge": lambda cache: cache.graph(3).without_edge(
        0, cache.graph(3).neighbors(0)[0]),
    **{f"gnp12_seed{s}": (lambda cache, s=s: _gnp(12, 0.3, s)) for s in range(4)},
}


@pytest.mark.parametrize("name", sorted(INTEGRAL_CASES))
def test_integral_graphs_match_elimination(cache, name):
    g = INTEGRAL_CASES[name](cache)
    spec = integral_spectrum(g)
    assert isinstance(spec, IntegralSpectrum)
    assert spec == _reference_spectrum(g)


@pytest.mark.parametrize("name", sorted(NON_INTEGRAL_CASES))
def test_non_integral_graphs_match_elimination(cache, name):
    g = NON_INTEGRAL_CASES[name](cache)
    verdict = integral_spectrum(g)
    assert isinstance(verdict, NonIntegralVerdict)
    assert verdict == _reference_spectrum(g)
    assert verdict.residual_dimension > 0


def _certify(g, candidates):
    return spectrum._annihilator_multiplicities(g.adj, candidates, int(g.adj.sum(axis=1).max()))


def test_annihilator_gives_the_multiplicities(cache):
    assert _certify(cache.graph(3), [8, 4, 2, -2, -4]) == [1, 1, 9, 11, 2]
    # a candidate that is no eigenvalue gets multiplicity 0
    assert _certify(cache.graph(3), [8, 5, 4, 2, -2, -4]) == [1, 0, 1, 9, 11, 2]
    assert _certify(_petersen(), [3, 1, -2]) == [1, 5, 4]


@pytest.mark.parametrize("missing", [8, 4, 2, -2, -4])
def test_annihilator_rejects_a_missing_eigenvalue(cache, missing):
    candidates = [lam for lam in (8, 4, 2, -2, -4) if lam != missing]
    assert _certify(cache.graph(3), candidates) is None


def test_annihilator_refuses_a_column_that_is_not_every_column():
    """K2 with an isolated vertex, claimed transitive: (A - I)(A + I) kills
    column 0, but the traces read off it, 3 and -3, give eigenvalue -1 the
    multiplicity 3/2, so the trace solve refuses."""
    g = Graph.from_edges(3, [(0, 1)])
    assert spectrum._annihilator_multiplicities(g.adj, [1, -1], 1, transitive=True) is None


def test_annihilator_refuses_past_the_float_bound(cache):
    assert _certify(cache.graph(3), [8, 4, 2**53, 2, -2, -4]) is None
    # A first block past 2^53 is refused by the next product's check, and
    # alone by the zero test.
    assert _certify(cache.graph(3), [2**53, 8, 4, 2, -2, -4]) is None
    assert _certify(cache.graph(3), [2**53 + 1]) is None


def test_annihilator_certifies_far_candidates_whose_products_stay_exact(cache):
    """prod (D + |lambda|) over these candidates passes 2^53, but every
    product the annihilator runs stays below it, and the candidates that
    are no eigenvalues get multiplicity 0. After the whole spectrum the
    block is zero, so even a shift of 2^53 leaves the product exact."""
    far = [8, 4, 2, -2, -4] + [2**10 + i for i in range(5)]
    assert math.prod(8 + abs(lam) for lam in far) >= 2**53
    assert _certify(cache.graph(3), far) == [1, 1, 9, 11, 2, 0, 0, 0, 0, 0]
    assert _certify(cache.graph(3), [8, 4, 2, -2, -4, 2**53]) == [1, 1, 9, 11, 2, 0]


def test_spectrum_past_the_float_bound_goes_to_elimination(cache, monkeypatch):
    g = cache.graph(4)
    expected = integral_spectrum(g)
    bounds = _product_bounds(monkeypatch)
    integral_spectrum(g)
    peak = max(bounds)  # as the float bound, it refuses the product that reached it
    calls = []
    original = spectrum.integer_rank

    def counting(matrix):
        calls.append(len(matrix))
        return original(matrix)

    monkeypatch.setattr(spectrum, "integer_rank", counting)
    monkeypatch.setattr(spectrum, "_FLOAT_EXACT", peak + 1)
    assert integral_spectrum(g) == expected
    assert not calls
    monkeypatch.setattr(spectrum, "_FLOAT_EXACT", peak)
    assert integral_spectrum(g) == expected
    assert calls == [32] * 5


@pytest.mark.parametrize("blocks", [1, 3, 8, 40])
def test_block_width_does_not_change_the_result(cache, monkeypatch, blocks):
    """Columns per block are ceil(n / blocks): 40, 14, 5 and 1 at n = 40."""
    g = cache.graph(5)
    monkeypatch.setattr(graph_layer, "_BLOCKS", blocks)
    assert _certify(g, [12, 8, 2, -2, -8]) == [1, 1, 17, 19, 2]
    assert integral_spectrum(g) == _reference_spectrum(g)


def test_spectrum_peaks_below_one_float64_matrix(cache):
    """The certificate makes no n x n float64 copy of A: on Gamma_48
    (n = 384) its traced peak stays below 8 n^2 bytes. A float64 A with
    blocks of 64 columns beside it peaked at 13.8 n^2."""
    g = cache.graph(48)
    integral_spectrum(g)  # warm every lazy import first
    tracemalloc.start()
    try:
        integral_spectrum(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * g.n**2


# ------------------------------------------------ exact Krylov nomination

class _NoLinalg:
    """numpy as the spectrum module sees it, with every np.linalg routine
    raising."""

    def __getattr__(self, name):
        if name == "linalg":
            raise AssertionError("integral_spectrum reached np.linalg")
        return getattr(np, name)


def _max_degree(g):
    return int(g.adj.sum(axis=1).max())


def _nominate(g):
    return spectrum._krylov_candidates(g.adj, _max_degree(g))


def _distinct_eigenvalues(spec):
    return [lam for lam, _ in spec.pairs]


@pytest.mark.parametrize("name", sorted(INTEGRAL_CASES))
def test_integral_graphs_certify_without_linalg(cache, monkeypatch, name):
    g = INTEGRAL_CASES[name](cache)
    expected = _reference_spectrum(g)
    assert _nominate(g) == _distinct_eigenvalues(expected)
    monkeypatch.setattr(spectrum, "np", _NoLinalg())
    assert integral_spectrum(g) == expected


def test_gamma_128_certifies_without_linalg(monkeypatch):
    g = family_group(128)
    gamma = cayley_graph(g, connection_set(g, 128))
    monkeypatch.setattr(spectrum, "np", _NoLinalg())
    spec = integral_spectrum(gamma)
    assert spec.pairs == ((258, 1), (254, 1), (2, 509), (-2, 511), (-254, 2))


def _patched_nominator(monkeypatch, change):
    original = spectrum._krylov_candidates

    def patched(adj, max_degree):
        return change(original(adj, max_degree))

    monkeypatch.setattr(spectrum, "_krylov_candidates", patched)


NOMINATION_FAULTS = {
    "drop_first": lambda c: None if c is None else c[1:],
    "drop_last": lambda c: None if c is None else c[:-1],
    "add_non_eigenvalue": lambda c: None if c is None else sorted(set(c) | {1000}, reverse=True),
    "none": lambda c: None,
}


@pytest.mark.parametrize("fault", sorted(NOMINATION_FAULTS))
@pytest.mark.parametrize("name", ["gamma3", "gamma5", "petersen", "q4", "c5",
                                  "gamma3_minus_edge", "gnp12_seed1"])
def test_a_wrong_nomination_never_changes_the_verdict(cache, monkeypatch, fault, name):
    g = {**INTEGRAL_CASES, **NON_INTEGRAL_CASES}[name](cache)
    expected = _reference_spectrum(g)
    _patched_nominator(monkeypatch, NOMINATION_FAULTS[fault])
    assert integral_spectrum(g) == expected


def test_a_refused_nomination_goes_to_elimination(cache, monkeypatch):
    """With every product of a block refused, the annihilator refuses
    Gamma_4's true spectrum: it runs once, on the nominated set, and
    elimination gives the verdict."""
    g = cache.graph(4)
    expected = integral_spectrum(g)
    calls = []
    original = spectrum._annihilator_multiplicities

    def counting(adj, candidates, max_degree, transitive=False):
        calls.append(list(candidates))
        return original(adj, candidates, max_degree, transitive)

    eliminated = []
    original_rank = spectrum.integer_rank

    def counting_rank(matrix):
        eliminated.append(-matrix[0][0])
        return original_rank(matrix)

    monkeypatch.setattr(spectrum, "_annihilator_multiplicities", counting)
    monkeypatch.setattr(spectrum, "integer_rank", counting_rank)
    original_product = spectrum._adjacency_product

    def vectors_only(adj, x, max_degree, shift=0):
        return None if x.ndim == 2 else original_product(adj, x, max_degree, shift)

    monkeypatch.setattr(spectrum, "_adjacency_product", vectors_only)
    assert integral_spectrum(g) == expected
    assert calls == [[10, 6, 2, -2, -6]]
    assert eliminated == [10, 6, 2, -2, -6]


def _counting(monkeypatch):
    """The shapes of the operands x of every product of A, one per call of
    spectrum._adjacency_product, in call order."""
    products = []
    original = spectrum._adjacency_product

    def counting(adj, x, max_degree, shift=0):
        products.append(x.shape)
        return original(adj, x, max_degree, shift)

    monkeypatch.setattr(spectrum, "_adjacency_product", counting)
    return products


def _product_bounds(monkeypatch):
    """(D + |shift|) * max|x| for every product of A, in call order: the
    value that _adjacency_product checks against 2^53."""
    bounds = []
    original = spectrum._adjacency_product

    def recording(adj, x, max_degree, shift=0):
        bounds.append((max_degree + abs(shift)) * int(np.abs(x).max()))
        return original(adj, x, max_degree, shift)

    monkeypatch.setattr(spectrum, "_adjacency_product", recording)
    return bounds


@pytest.mark.parametrize("shift_sign", [1, -1])
@pytest.mark.parametrize("x_sign", [1, -1])
def test_a_product_is_refused_exactly_at_the_float_bound(shift_sign, x_sign):
    """(A - shift*I) x is refused when (D + |shift|) * max|x| is 2^53 and
    exact when it is 2^53 - 1, with max|x| taken by an entry of either
    sign. A swaps the two entries of x, so D = 1."""
    adj = np.array([[False, True], [True, False]])
    shift, top = shift_sign * 1023, x_sign * 2**43  # 1024 * 2^43 = 2^53
    assert spectrum._adjacency_product(adj, np.array([top, 1.0]), 1, shift) is None
    shift, top = shift_sign * 6360, x_sign * 1416003655831  # 6361 * top = 2^53 - 1
    x = [top, -x_sign * (2**40 + 1)]
    out = spectrum._adjacency_product(adj, np.array(x, dtype=np.float64), 1, shift)
    assert [int(v) for v in out] == [x[1] - shift * x[0], x[0] - shift * x[1]]


def test_annihilator_runs_one_product_fewer_per_block(cache, monkeypatch):
    g = cache.graph(5)  # n = 40, five candidates
    products = _counting(monkeypatch)
    monkeypatch.setattr(graph_layer, "_BLOCKS", 3)
    mults = spectrum._annihilator_multiplicities(g.adj, [12, 8, 2, -2, -8], _max_degree(g))
    assert mults == [1, 1, 17, 19, 2]
    assert products == [(40, 14)] * 8 + [(40, 12)] * 4  # 3 blocks, 4 products each
    assert spectrum._annihilator_multiplicities(g.adj, [], _max_degree(g)) is None


def test_past_512_vertices_blocks_are_an_eighth_wide(cache, monkeypatch):
    """At n = 8k = 576 the nomination takes 2L + 1 products of vectors, and
    the annihilator, on a copy of Gamma_72 that carries no translations,
    8 blocks of n // 8 = 72 columns, |C| - 1 = 4 products each."""
    g = carrying(cache.graph(72))
    products = _counting(monkeypatch)
    spec = integral_spectrum(g)
    assert spec.pairs == ((146, 1), (142, 1), (2, 285), (-2, 287), (-142, 2))
    assert products == [(576,)] * (2 * 5 + 1) + [(576, 72)] * (8 * 4)


def _count_products(monkeypatch, g):
    products = _counting(monkeypatch)
    nominated = spectrum._krylov_candidates(g.adj, _max_degree(g))
    return nominated, len(products)


@pytest.mark.parametrize("g", [_path(60), _cycle(61)], ids=["p60", "c61"])
def test_nomination_of_many_eigenvalues_stops_at_its_term_cap(monkeypatch, g):
    cap = 2 * _max_degree(g) + 1
    assert cap == 5  # D = 2: all of -2..2
    nominated, products = _count_products(monkeypatch, g)
    assert nominated is None
    # At most 2 cap + 2 terms s_0, s_1, ..., one product each after s_0.
    assert products <= 2 * cap + 1
    assert integral_spectrum(g) == _reference_spectrum(g)


def test_nomination_of_the_family_graph_takes_2L_plus_2_terms(cache, monkeypatch):
    nominated, products = _count_products(monkeypatch, cache.graph(15))
    assert nominated == [32, 28, 2, -2, -28]
    assert products == 2 * 5 + 1


def test_nomination_refuses_degrees_past_the_float64_bound(monkeypatch):
    """On one vertex u_0 is one entry below p, and the first product is
    refused once D * u_0 reaches 2^53."""
    bounds = _product_bounds(monkeypatch)
    one = np.zeros((1, 1), dtype=bool)
    assert spectrum._krylov_candidates(one, 1) == [0]
    u0 = bounds[0]  # D = 1
    assert 0 < u0 < spectrum._KRYLOV_PRIME
    bounds.clear()
    assert spectrum._krylov_candidates(one, -(-2**53 // u0)) is None
    assert len(bounds) == 1


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(st.integers(2, 5), st.data())
def test_cayley_graphs_of_c2m_nominate_their_distinct_eigenvalues(m, data):
    group = elementary_abelian(m)
    # Every element of C2^m is its own inverse, so any set without 0 is
    # inverse-closed.
    s = data.draw(st.sets(st.integers(1, group.order - 1)))
    g = cayley_graph(group, s)
    expected = _reference_spectrum(g)
    assert isinstance(expected, IntegralSpectrum)
    assert _nominate(g) == _distinct_eigenvalues(expected)
    # The graph carries the unit translations, which are automorphisms and
    # transitive even when S does not generate C2^m, so the one-column path
    # applies; a copy that carries none takes the eight blocks.
    assert np.array_equal(g.automorphisms, _unit_translations(m))
    assert integral_spectrum(g) == expected
    assert integral_spectrum(carrying(g)) == expected
    candidates, d = _distinct_eigenvalues(expected), _max_degree(g)
    assert (spectrum._annihilator_multiplicities(g.adj, candidates, d, transitive=True)
            == spectrum._annihilator_multiplicities(g.adj, candidates, d))


@pytest.mark.parametrize("seed, certified", [(0, True), (1, True), (2, False)])
def test_c2m_graphs_with_many_eigenvalues_are_all_nominated(seed, certified):
    """Cay(C2^7, S) for a random S of about 45 elements has 14 to 16
    distinct eigenvalues, the character sums sum_{s in S} (-1)^|s & t|,
    each as often as it occurs over t. All are nominated. The annihilator
    certifies them unless a product passes 2^53, as at seed 2 (16 factors)."""
    group = elementary_abelian(7)
    rng = np.random.default_rng(seed)
    s = {x for x in range(1, group.order) if rng.random() < 0.4}
    sums = [sum(1 - 2 * (bin(x & t).count("1") % 2) for x in s) for t in range(group.order)]
    distinct = sorted(set(sums), reverse=True)
    assert len(distinct) >= 14
    g = cayley_graph(group, s)
    assert _nominate(g) == distinct
    mults = _certify(g, distinct)
    assert mults == ([sums.count(lam) for lam in distinct] if certified else None)


@PROPERTY
@given(st.integers(1, 24), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_gnp_verdicts_equal_the_reference(n, p, seed):
    g = _gnp(n, p, seed)
    assert integral_spectrum(g) == _reference_spectrum(g)


def test_nomination_of_a_dense_random_graph_stops_at_its_square_cap(monkeypatch):
    """G(200, 0.5) has 19,752 arcs. At most 61 distinct integers have
    squares summing to that, against 2D + 1 = 241 integers in [-D, D], so
    the nomination gives up once L reaches 62: after 2 * 61 products, not
    the 401 it ran with the 2D + 1 cap alone."""
    g = _gnp(200, 0.5, 0)
    arcs = int(g.adj.sum())
    squares = sorted(x * x for x in range(-200, 201))
    assert sum(squares[:61]) <= arcs < sum(squares[:62])
    assert 2 * _max_degree(g) + 1 == 241
    nominated, products = _count_products(monkeypatch, g)
    assert nominated is None
    assert products == 2 * 61
    assert integral_spectrum(g) == _reference_spectrum(g)


# ------------------------------------ one column on transitive automorphisms

def _unit_translations(d):
    return [[u ^ (1 << i) for u in range(1 << d)] for i in range(d)]


# Petersen's rotation of both 5-cycles, and i -> 5 + 2i, 5 + i -> 2i (mod 5),
# which swaps the outer and inner cycles.
_PETERSEN_ROTATION = [(i + 1) % 5 for i in range(5)] + [5 + (i + 1) % 5 for i in range(5)]
_PETERSEN_SWAP = [5 + 2 * i % 5 for i in range(5)] + [2 * i % 5 for i in range(5)]


def _annihilator_widths(products):
    """The column counts of the annihilator's products, which are the 2-D
    ones; the nomination's are vectors."""
    return {shape[1] for shape in products if len(shape) == 2}


# Graphs that carry automorphisms acting transitively.
TRANSITIVE_CASES = {
    **{f"gamma{k}": (lambda cache, k=k: cache.graph(k)) for k in [*range(3, 17), 48]},
    **{f"grid4x{m}": (lambda cache, m=m: grid_graph(4, m)) for m in [3, 6, 9]},
    "q4": lambda cache: carrying(_hypercube(4), _unit_translations(4)),
    "petersen": lambda cache: carrying(_petersen(), [_PETERSEN_ROTATION, _PETERSEN_SWAP]),
}


@pytest.mark.parametrize("name", sorted(TRANSITIVE_CASES))
def test_one_column_gives_the_blocked_pairs(cache, monkeypatch, name):
    g = TRANSITIVE_CASES[name](cache)
    blocked = integral_spectrum(carrying(g))
    assert isinstance(blocked, IntegralSpectrum)
    products = _counting(monkeypatch)
    monkeypatch.setattr(spectrum, "np", _NoLinalg())
    assert integral_spectrum(g) == blocked
    assert _annihilator_widths(products) == {1}


def test_one_column_products_on_gamma_5(cache, monkeypatch):
    """On the translations Gamma_5 carries: 2L + 1 = 11 products of vectors
    for the nomination, then |C| - 1 = 4 products of column 0 alone."""
    products = _counting(monkeypatch)
    monkeypatch.setattr(spectrum, "np", _NoLinalg())
    spec = integral_spectrum(cache.graph(5))
    assert spec.pairs == ((12, 1), (8, 1), (2, 17), (-2, 19), (-8, 2))
    assert products == [(40,)] * 11 + [(40, 1)] * 4


def _repeated_entry(cache):
    perms = np.array(cache.graph(5).automorphisms)
    perms[0, 1] = perms[0, 0]
    return perms


FALLBACK_PERMS = {
    "repeated_entry": _repeated_entry,
    "wrong_length": lambda cache: cache.graph(5).automorphisms[:, :-1],
    "a_alone": lambda cache: cache.group(5).mult[:, [cache.group(5).a]].T,
}


@pytest.mark.parametrize("name", sorted(FALLBACK_PERMS))
def test_unusable_perms_take_the_eight_blocks(cache, monkeypatch, name):
    """Gamma_5 (n = 40) carrying perms that are no permutations or generate
    more than one orbit: the blocked path's 8 x 4 products of 5 columns."""
    g = cache.graph(5)
    expected = integral_spectrum(g)
    products = _counting(monkeypatch)
    assert integral_spectrum(carrying(g, FALLBACK_PERMS[name](cache))) == expected
    assert products == [(40,)] * 11 + [(40, 5)] * 32


def test_petersen_rotation_alone_takes_the_eight_blocks(monkeypatch):
    """The rotation is an automorphism with two orbits, the 5-cycles; the
    blocks of n = 10 are ceil(10 / 8) = 2 columns wide."""
    g = _petersen()
    expected = integral_spectrum(g)
    products = _counting(monkeypatch)
    assert integral_spectrum(carrying(g, [_PETERSEN_ROTATION])) == expected
    assert _annihilator_widths(products) == {2}


# Automorphisms that pass the exact check but generate more than one orbit.
NON_TRANSITIVE_CASES = {
    "petersen_rotation": lambda cache: carrying(_petersen(), [_PETERSEN_ROTATION]),
    "gamma5_a": lambda cache: carrying(cache.graph(5), FALLBACK_PERMS["a_alone"](cache)),
}


@pytest.mark.parametrize("name", sorted(NON_TRANSITIVE_CASES))
def test_automorphisms_that_are_not_transitive_count_for_nothing(cache, name):
    """The Petersen rotation alone, whose orbits are the two 5-cycles, and
    Gamma_5 (n = 40) carrying the right translation by a, of order 5, are
    automorphisms that do not act transitively: wl2 runs the rounds and
    rechecks every row, giving the coloring, and integral_spectrum the
    spectrum, of a copy that carries none."""
    g = NON_TRANSITIVE_CASES[name](cache)
    for p in np.asarray(g.automorphisms):
        assert np.array_equal(g.adj[p][:, p], g.adj)
    assert not graph_layer._transitive(g.adj, g.automorphisms)
    carried, plain = wl2(g), wl2(carrying(g))
    assert np.array_equal(carried.color, plain.color)
    assert (carried.rounds, carried.rejections) == (plain.rounds, plain.rejections)
    assert carried.recheck_rows == plain.recheck_rows == g.n
    assert integral_spectrum(g) == integral_spectrum(carrying(g))


@pytest.mark.parametrize("k", [5, 8])
def test_translations_of_gamma_are_no_automorphisms_without_an_edge(cache, monkeypatch, k):
    """On Gamma_k - (0, 2) the translations fail the automorphism check. With
    Gamma_k's own eigenvalues nominated, the blocked annihilator runs on the
    first block of n / 8 columns and refuses it, and elimination gives the
    verdict of the graph without them."""
    g = cache.graph(k).without_edge(0, 2)
    expected = _reference_spectrum(g)
    assert isinstance(expected, NonIntegralVerdict)
    _patched_nominator(monkeypatch, lambda c: sorted(expected_eigenvalues(k), reverse=True))
    products = _counting(monkeypatch)
    assert integral_spectrum(carrying(g, cache.graph(k).automorphisms)) == expected
    assert [shape for shape in products if len(shape) == 2] == [(8 * k, k)] * 4


def _dropped_with_translations(k):
    return lambda cache: carrying(cache.graph(k).without_edge(0, 2),
                                  cache.graph(k).automorphisms)


def _gamma5_carrying(name):
    return lambda cache: carrying(cache.graph(5), FALLBACK_PERMS[name](cache))


# TRANSITIVE_CASES and graphs whose carried automorphisms are unusable.
DECISION_CASES = {
    **TRANSITIVE_CASES,
    **{f"gamma5_{name}": _gamma5_carrying(name) for name in FALLBACK_PERMS},
    "petersen_rotation": lambda cache: carrying(_petersen(), [_PETERSEN_ROTATION]),
    **{f"gamma{k}_without_0_2": _dropped_with_translations(k) for k in [5, 8]},
}


@pytest.mark.parametrize("name", sorted(DECISION_CASES))
def test_wl2_and_the_spectrum_decide_transitivity_alike(cache, monkeypatch, name):
    """wl2 rechecks one row exactly when the annihilator's products are one
    column wide, and both exactly on the transitive cases. Gamma_k less an
    edge gets Gamma_k's eigenvalues nominated, so its annihilator runs."""
    g = DECISION_CASES[name](cache)
    one_row = wl2(g).recheck_rows == 1
    if name.endswith("_without_0_2"):
        k = g.n // 8
        _patched_nominator(monkeypatch, lambda c: sorted(expected_eigenvalues(k), reverse=True))
    products = _counting(monkeypatch)
    integral_spectrum(g)
    widths = _annihilator_widths(products)
    assert widths
    assert one_row == (widths == {1}) == (name in TRANSITIVE_CASES)
