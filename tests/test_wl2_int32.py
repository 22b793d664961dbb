"""2-WL on int32 colors: the first-occurrence renumbering against a dict
reference, the color dtype on every path, the int32 and float32 size
bounds, and the traced peak memory of wl2."""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dezawl import grid_graph, initial_pair_coloring, verify_coherence, wl2
from dezawl import wl
from dezawl.verify import _grid_shifts, _right_translations

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


def _family_with_translations(cache, k):
    g = cache.group(k)
    return cache.graph(k), _right_translations(g, [g.a, g.b, g.c, g.d])


def test_colors_are_int32_on_every_path(cache, monkeypatch):
    gamma, perms = _family_with_translations(cache, 5)
    assert initial_pair_coloring(gamma).color.dtype == np.int32
    hashed = wl2(gamma, perms)
    assert hashed.path == "hashed"
    assert hashed.coloring.color.dtype == np.int32
    monkeypatch.setattr(wl, "_HASH_MAX_N", 0)
    exact = wl2(gamma, perms)
    assert exact.path == "exact"
    assert exact.coloring.color.dtype == np.int32
    assert np.array_equal(exact.coloring.color, hashed.coloring.color)


def test_recheck_accepts_int32_and_int64_alike(cache):
    gamma, perms = _family_with_translations(cache, 4)
    init = initial_pair_coloring(gamma)
    conf = wl2(gamma, perms)
    for coloring in (init, conf.coloring):
        wide = wl.PairColoring(coloring.n, coloring.color.astype(np.int64),
                               coloring.num_colors)
        assert verify_coherence(wide) == verify_coherence(coloring)


def test_pair_count_bound_raises_before_reading_the_graph():
    # n^2 >= 2^31 from n = 46341; the stand-in has no adjacency to read.
    for n in (46341, 10**6):
        with pytest.raises(ValueError, match="int32 pair colors"):
            wl2(SimpleNamespace(n=n))
        with pytest.raises(ValueError, match="int32 pair colors"):
            initial_pair_coloring(SimpleNamespace(n=n))
    assert 46340 ** 2 < 2**31 <= 46341 ** 2


def test_witness_counts_refuse_float32_inexact_sizes():
    # A zero-stride view of shape (2^24, 2^24) costs no memory.
    huge = np.broadcast_to(np.int32(0), (2**24, 2**24))
    with pytest.raises(ValueError, match="float32"):
        wl._intersection_counts(huge, 0, 0)


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["gamma16", "grid4x32"])
def test_wl2_peak_memory_is_at_most_four_int64_matrices(cache, name):
    """The traced peak of wl2, result included, stays within 4 * 8 n^2 bytes
    (module docstring)."""
    if name == "gamma16":
        graph, perms = _family_with_translations(cache, 16)
    else:
        graph, perms = grid_graph(4, 32), _grid_shifts(4, 32)
    wl2(graph, perms)  # warm every lazy import and cache first
    peak = _traced_peak(lambda: wl2(graph, perms))
    assert peak <= 4 * 8 * graph.n ** 2, peak / (8 * graph.n ** 2)


def test_exact_round_peak_memory_is_below_four_int64_matrices(cache, monkeypatch):
    """One exact round on the stable coloring of Gamma_33 (n = 264, 264
    colors, so most ids are not cached small ints), one row u per block:
    the ids go into a preallocated int32 array, not a Python list, and the
    codes are built from the int32 coloring block by block. The round keeps
    the coloring, ids included."""
    graph, perms = _family_with_translations(cache, 33)
    conf = wl2(graph, perms)
    color, rank = conf.coloring.color, conf.rank
    assert rank == graph.n == 264
    monkeypatch.setattr(wl, "_BLOCK_ENTRIES", 1)
    wl._wl2_round(color, rank)  # warm every lazy import and cache first
    result = []
    peak = _traced_peak(lambda: result.append(wl._wl2_round(color, rank)))
    new, num = result[0]
    assert num == rank
    assert new.dtype == np.int32 and np.array_equal(new, color)
    assert peak < 4 * 8 * graph.n ** 2, peak / (8 * graph.n ** 2)
