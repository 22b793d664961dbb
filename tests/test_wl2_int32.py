"""2-WL on int32 colors: the first-occurrence renumbering against a dict
reference, the color dtype with and without rejections, the int32 size
bound, and the traced peak memory of wl2."""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import initial_coloring
from dezawl import grid_graph, verify_coherence, wl2
from dezawl import wl

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
KEYS = st.integers(0, 2**62 - 1)


def _reference_first_occurrence(values: list[int]) -> list[int]:
    ids: dict[int, int] = {}
    return [ids.setdefault(v, len(ids)) for v in values]


def _check_renumbering(values: list[int]) -> None:
    key = np.array(values, dtype=np.int64)
    ids, num = wl._renumber_first_occurrence(key)
    expected = _reference_first_occurrence(values)
    assert ids.dtype == np.int32
    assert ids.tolist() == expected
    assert num == len(set(values))
    # The key is sorted in place.
    assert key.tolist() == sorted(values)


@pytest.mark.parametrize(
    "values",
    [[], [7], [5] * 9, list(range(20, 0, -1)), [2**62 - 1, 0, 2**62 - 1, 1, 0]],
    ids=["empty", "one", "all-equal", "all-distinct", "extremes"],
)
def test_renumbering_edge_cases(values):
    _check_renumbering(values)


@PROPERTY
@given(st.lists(st.one_of(st.integers(0, 5), KEYS), max_size=300))
def test_renumbering_matches_first_occurrence_reference(values):
    _check_renumbering(values)


@PROPERTY
@given(st.lists(KEYS, min_size=1, max_size=30), st.integers(1, 20), st.randoms())
def test_renumbering_of_repeated_pools(pool, size, rnd):
    _check_renumbering([rnd.choice(pool) for _ in range(size * len(pool))])


def test_colors_are_int32_on_every_path(cache, monkeypatch):
    gamma = cache.graph(5)
    assert initial_coloring(gamma)[0].dtype == np.int32
    hashed = wl2(gamma)
    assert hashed.rejections == 0
    assert hashed.color.dtype == np.int32
    monkeypatch.setattr(wl, "_hash_prime", lambda n: 2)  # every weight 1
    split = wl2(gamma)  # by the recheck's witnesses alone
    assert split.rejections > 0
    assert split.color.dtype == np.int32
    assert np.array_equal(split.color, hashed.color)


def test_recheck_accepts_int32_and_int64_alike(cache):
    gamma = cache.graph(4)
    conf = wl2(gamma)
    for color, rank in (initial_coloring(gamma), (conf.color, conf.rank)):
        assert verify_coherence(color.astype(np.int64), rank) == verify_coherence(color, rank)


def test_pair_count_bound_raises_before_reading_the_graph():
    # n^2 >= 2^31 from n = 46341; the stand-in has no adjacency to read.
    for n in (46341, 10**6):
        with pytest.raises(ValueError, match="int32 pair colors"):
            wl2(SimpleNamespace(n=n))
    assert 46340 ** 2 < 2**31 <= 46341 ** 2


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _family_without_edge(cache):
    """Gamma_32 with the edge (0, 2) removed (n = 256) and its stable 2-WL
    coloring, of rank n^2 / 2."""
    graph = cache.graph(32).without_edge(0, 2)
    conf = cache.configuration(("drop", 32), graph)
    assert conf.rank == graph.n ** 2 // 2
    return graph, conf


@pytest.mark.parametrize(
    "name, units", [("gamma16", 3), ("grid4x32", 3), ("drop32", 4)],
    ids=["gamma16", "grid4x32", "drop32"],
)
def test_wl2_peak_memory_is_at_most_four_int64_matrices(cache, name, units):
    """The traced peak of wl2, result included, stays within 3 * 8 n^2 bytes;
    on Gamma_32 less the edge (0, 2), which carries no automorphisms and has
    rank n^2 / 2, the full-row recheck sets the peak, within 4 (module
    docstring)."""
    if name == "gamma16":
        graph = cache.graph(16)
    elif name == "grid4x32":
        graph = grid_graph(4, 32)
    else:
        graph = _family_without_edge(cache)[0]
    wl2(graph)  # warm every lazy import and cache first
    peak = _traced_peak(lambda: wl2(graph))
    assert peak <= units * 8 * graph.n ** 2, peak / (8 * graph.n ** 2)


def test_wl2_peak_memory_with_a_rejection_is_at_most_four_int64_matrices(cache, monkeypatch):
    """A trigger forced to fire on the first round stops Gamma_32 less the
    edge (0, 2) on its initial coloring, which the full-row recheck rejects;
    the split by its witness, built in place, and the rounds from it, which
    hold the split, stay within 4 * 8 n^2 bytes too."""
    graph, conf = _family_without_edge(cache)
    real = wl._hashed_round

    def false_stop(key, p, seed, trigger):
        if seed == 0:
            return not trigger  # the key unchanged, so the count rule stops
        return real(key, p, seed, trigger)

    monkeypatch.setattr(wl, "_hashed_round", false_stop)
    result = []
    peak = _traced_peak(lambda: result.append(wl2(graph)))
    assert result[0].rejections == 1
    assert np.array_equal(result[0].color, conf.color)
    assert peak <= 4 * 8 * graph.n ** 2, peak / (8 * graph.n ** 2)


def test_full_recheck_peak_memory_at_rank_half_n_squared(cache):
    """The full-row recheck of a coherent coloring of rank n^2 / 2 holds no
    table indexed by class and frees its class counts before the comparison:
    it stays below 3 * 8 n^2 bytes, where one rank x n int64 table alone is
    4 n^3 bytes."""
    graph, conf = _family_without_edge(cache)
    result = []
    peak = _traced_peak(lambda: result.append(verify_coherence(conf.color, conf.rank)))
    assert result[0].ok and result[0].rows == graph.n
    assert peak < 3 * 8 * graph.n ** 2, peak / (8 * graph.n ** 2)
