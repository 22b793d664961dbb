import numpy as np
import pytest

from dezawl import spectrum
from dezawl import (
    Graph,
    IntegralSpectrum,
    NonIntegralVerdict,
    cayley_graph,
    connection_set,
    exact_nullity,
    expected_eigenvalues,
    family_group,
    grid_graph,
    integer_rank,
    integral_spectrum,
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
    assert exact_nullity(ones) == 3
    ident = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert integer_rank(ident) == 5
    zero = [[0] * 3 for _ in range(3)]
    assert exact_nullity(zero) == 3
    # A(K3) + I has rank 1, so eigenvalue -1 of K3 has multiplicity 2
    k3_shift = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
    assert exact_nullity(k3_shift) == 2


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


def test_spectrum_serialization_includes_identity_checks(cache):
    import json

    from dezawl import spectrum_to_json

    spec = integral_spectrum(cache.graph(3))
    doc = json.loads(spectrum_to_json(spec))
    assert doc["pairs"] == [[8, 1], [4, 1], [2, 9], [-2, 11], [-4, 2]]
    assert doc["n"] == 24
    assert doc["trace_is_zero"] is True
    assert doc["second_moment"] == 24 * 8


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
    a = g.adj.astype(np.float64)
    return spectrum._annihilator_multiplicities(a, candidates, int(g.adj.sum(axis=1).max()))


def test_annihilator_gives_the_multiplicities(cache):
    assert _certify(cache.graph(3), [8, 4, 2, -2, -4]) == [1, 1, 9, 11, 2]
    # a candidate that is no eigenvalue gets multiplicity 0
    assert _certify(cache.graph(3), [8, 5, 4, 2, -2, -4]) == [1, 0, 1, 9, 11, 2]
    assert _certify(_petersen(), [3, 1, -2]) == [1, 5, 4]


@pytest.mark.parametrize("missing", [8, 4, 2, -2, -4])
def test_annihilator_rejects_a_missing_eigenvalue(cache, missing):
    candidates = [lam for lam in (8, 4, 2, -2, -4) if lam != missing]
    assert _certify(cache.graph(3), candidates) is None


def test_annihilator_refuses_past_the_float_bound(cache):
    # prod (D + |lambda|) over these candidates is at least 2^53
    far = [8, 4, 2, -2, -4] + [2**10 + i for i in range(5)]
    assert _certify(cache.graph(3), far) is None
    assert _certify(cache.graph(3), [8, 4, 2, -2, -4, 2**53]) is None


def test_spectrum_past_the_float_bound_goes_to_elimination(cache, monkeypatch):
    g = cache.graph(4)
    expected = integral_spectrum(g)
    calls = []
    original = spectrum.integer_rank

    def counting(matrix):
        calls.append(len(matrix))
        return original(matrix)

    monkeypatch.setattr(spectrum, "integer_rank", counting)
    # the bound prod (D + |lambda|) for Gamma_4: D = 10, spectrum {10, 6, 2, -2, -6}
    bound = 20 * 16 * 12 * 12 * 16
    monkeypatch.setattr(spectrum, "_FLOAT_EXACT", bound + 1)
    assert integral_spectrum(g) == expected
    assert not calls
    monkeypatch.setattr(spectrum, "_FLOAT_EXACT", bound)
    assert integral_spectrum(g) == expected
    assert calls == [32] * 5


@pytest.mark.parametrize("width", [1, 5, 64])
def test_block_width_does_not_change_the_result(cache, monkeypatch, width):
    g = cache.graph(5)
    monkeypatch.setattr(spectrum, "_BLOCK_COLUMNS", width)
    assert _certify(g, [12, 8, 2, -2, -8]) == [1, 1, 17, 19, 2]
    assert integral_spectrum(g) == _reference_spectrum(g)
