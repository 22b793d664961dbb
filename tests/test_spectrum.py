import numpy as np
import pytest

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
