import json
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import cyclic_group, elementary_abelian
from dezawl import (
    SRingPartition,
    Subgroup,
    cayley_graph,
    closure_trace,
    connection_set,
    detect_wreath,
    family_group,
    is_sring,
    make_section,
    section_sring,
    subgroup_generated,
    wl_closure,
    wl_rank,
)
from dezawl.group import _generated
from dezawl.sring import SRingCheck, _radical
from test_group_reference import reference_generated


def test_singleton_partition_is_sring():
    g = family_group(3)
    p = SRingPartition(g, [[x] for x in g.elements()])
    assert is_sring(p).ok
    assert p.rank == 24


def test_rank_two_partition_is_sring():
    g = family_group(3)
    rest = [x for x in g.elements() if x != g.identity]
    p = SRingPartition(g, [[g.identity], rest])
    assert is_sring(p).ok
    assert p.rank == 2


def test_identity_must_be_alone():
    c5 = cyclic_group(5)
    p = SRingPartition(c5, [[0, 1], [2, 3, 4]])
    check = is_sring(p)
    assert not check.ok
    assert any(v.axiom == 1 for v in check.violations)


def test_classes_must_be_inverse_closed():
    c5 = cyclic_group(5)
    p = SRingPartition(c5, [[0], [1], [2, 3, 4]])
    check = is_sring(p)
    assert not check.ok
    assert any(v.axiom == 2 for v in check.violations)


def test_products_must_be_constant_on_classes():
    # in C7 the class {g, g^6} squares to 2e + g^2 + g^5, splitting the
    # candidate class {g^2, ..., g^5}
    c7 = cyclic_group(7)
    p = SRingPartition(c7, [[0], [1, 6], [2, 3, 4, 5]])
    check = is_sring(p)
    assert not check.ok
    assert check.violations[0].axiom == 3


def test_a_check_is_true_exactly_when_it_passes():
    """SRingCheck is truthy when the partition is an S-ring and falsy when it
    is not, whatever violations it lists; a passing check lists none."""
    c5 = cyclic_group(5)
    passing = is_sring(SRingPartition(c5, [[x] for x in range(5)]))
    failing = is_sring(SRingPartition(c5, [[0, 1], [2, 3, 4]]))
    assert passing and passing.ok and list(passing.violations) == []
    assert not failing and not failing.ok
    assert [v.axiom for v in failing.violations] == [1, 2, 2]
    assert SRingCheck(True).violations == ()


def test_partition_validation():
    c5 = cyclic_group(5)
    with pytest.raises(ValueError):
        SRingPartition(c5, [[0, 1], [1, 2, 3, 4]])
    with pytest.raises(ValueError):
        SRingPartition(c5, [[0], [1, 2]])


def test_partition_rejects_an_empty_class():
    with pytest.raises(ValueError, match="empty class"):
        SRingPartition(family_group(3), [[0], [], range(1, 24)])


def test_closure_k3_is_all_singletons(cache):
    closure = cache.closure(3)
    assert closure.rank == 24
    assert all(len(cls) == 1 for cls in closure.classes)


def test_closure_k4_is_the_explicit_wreath_partition(cache):
    g = cache.group(4)
    closure = cache.closure(4)
    assert closure.rank == 20
    subs = g.standard_subgroups()
    cda = g.mul(g.mul(g.c, g.d), g.a)
    expected = [(x,) for x in subs.u.elements]
    for rep in (g.a, g.c, g.d, cda):
        expected.append(tuple(sorted(g.mul(x, rep) for x in subs.l.elements)))
    assert closure == SRingPartition(g, expected)


@pytest.mark.parametrize("k,expected", [(5, 40), (6, 28), (48, 196), (65, 520)])
def test_closure_rank_values(cache, k, expected):
    assert cache.closure(k).rank == expected


def test_closure_rejects_marked_elements_out_of_range():
    g = family_group(3)
    for bad in (-1, g.order):
        with pytest.raises(ValueError, match="out of range"):
            wl_closure(g, [[bad]])


def test_class_containing_rejects_elements_out_of_range():
    g = family_group(3)
    p = SRingPartition(g, [[x] for x in g.elements()])
    for bad in (-1, g.order):
        with pytest.raises(ValueError, match="out of range"):
            p.class_containing(bad)


def test_partition_rejects_elements_out_of_range():
    g = family_group(3)
    for bad in (-1, g.order):
        with pytest.raises(ValueError, match="out of range"):
            SRingPartition(g, [[x] for x in g.elements()] + [[bad]])


def test_partition_names_a_repeated_and_a_missing_element():
    g = family_group(3)
    with pytest.raises(ValueError, match="element a appears in two classes"):
        SRingPartition(g, [[0, 8], range(8, 24), range(1, 8)])
    with pytest.raises(ValueError, match="element a not covered"):
        SRingPartition(g, [[0], range(1, 8), range(9, 24)])


def test_is_union_of_classes_rejects_elements_out_of_range():
    """class_of[-1] would be the class of element n-1."""
    g = family_group(3)
    p = SRingPartition(g, [[x] for x in g.elements()])
    for bad in ([-1, g.order - 1], [g.order]):
        with pytest.raises(ValueError, match="out of range"):
            p.is_union_of_classes(bad)


def test_class_of_is_a_read_only_intp_vector():
    p = SRingPartition(family_group(3), [[0], range(1, 24)])
    assert p.class_of.dtype == np.intp
    assert p.class_of.tolist() == [0] + [1] * 23
    with pytest.raises(ValueError, match="read-only"):
        p.class_of[0] = 1


def test_radical_rejects_elements_out_of_range():
    g = family_group(3)
    for bad in (-1, g.order):
        with pytest.raises(ValueError, match="out of range"):
            _radical(g, g.mask([bad]))


def test_closure_rejects_groups_past_the_int32_code_bound():
    """Class codes reach r^2 <= n^2, so n = 46341 (n^2 > 2^31) is refused
    before any table is read."""
    huge = SimpleNamespace(order=46341)
    with pytest.raises(ValueError, match="too large"):
        wl_closure(huge, [])


def test_closure_with_no_marked_sets_is_rank_two():
    for g in (cyclic_group(5), cyclic_group(8), family_group(3)):
        closure = wl_closure(g, [])
        assert closure.rank == 2
        assert is_sring(closure).ok


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_closure_output_is_always_an_sring(cache, k):
    assert is_sring(cache.closure(k)).ok


def test_closure_of_random_marked_sets_is_an_sring():
    rng = random.Random(31)
    g = family_group(3)
    for _ in range(4):
        marked = [rng.sample(range(g.order), rng.randrange(1, 6))]
        closure = wl_closure(g, marked)
        assert is_sring(closure).ok
        assert closure.is_union_of_classes(marked[0])


def test_closure_monotone_under_extra_marked_sets():
    rng = random.Random(37)
    g = family_group(4)
    for _ in range(4):
        base = [rng.sample(range(g.order), 4)]
        extra = base + [rng.sample(range(g.order), 3)]
        coarse = wl_closure(g, base)
        fine = wl_closure(g, extra)
        # fine refines coarse iff each fine class meets one coarse class
        pairs = set(zip(fine.class_of.tolist(), coarse.class_of.tolist()))
        assert len(pairs) == fine.rank


def test_closure_idempotent(cache):
    g = cache.group(4)
    closure = cache.closure(4)
    again = wl_closure(g, [cls for cls in closure.classes])
    assert again == closure


def test_radical_of_coset_contains_l(cache):
    g = cache.group(4)
    subs = g.standard_subgroups()
    lc = [g.mul(x, g.c) for x in subs.l.elements]
    rad = _radical(g, g.mask(lc))
    assert rad[list(subs.l.elements)].all()
    assert np.array_equal(rad, subs.l.mask)  # exact for a coset of a normal subgroup


def test_radical_edge_cases():
    g = family_group(3)
    assert np.count_nonzero(_radical(g, g.mask([g.identity]))) == 1
    assert np.count_nonzero(_radical(g, g.mask(g.elements()))) == g.order
    assert np.count_nonzero(_radical(g, g.mask([]))) == g.order


@pytest.mark.parametrize("g", [family_group(3), family_group(4), elementary_abelian(4),
                               cyclic_group(12)], ids=["family3", "family4", "c2^4", "c12"])
def test_radical_equals_the_two_sided_stabilizer(g):
    rng = random.Random(g.order)
    subsets = [[], [g.identity], list(g.elements())]
    subsets += [rng.sample(range(g.order), rng.randrange(1, g.order)) for _ in range(20)]
    for xs in subsets:
        x = set(xs)
        expected = [h for h in g.elements()
                    if {g.mul(v, h) for v in x} == x == {g.mul(h, v) for v in x}]
        assert np.flatnonzero(_radical(g, g.mask(xs))).tolist() == expected


@pytest.mark.parametrize("g", [family_group(k) for k in range(3, 9)] + [elementary_abelian(5)],
                         ids=[f"family{k}" for k in range(3, 9)] + ["c2^5"])
def test_squaring_closure_equals_subgroup_generated(g):
    rng = random.Random(g.order)
    for size in [0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 5, g.order // 2]:
        gens = rng.sample(range(g.order), size)
        closed = _generated(g, g.mask(gens))
        assert tuple(np.flatnonzero(closed).tolist()) == reference_generated(g, gens)


def test_section_sring_rank_4_for_u_over_l(cache):
    g = cache.group(4)
    closure = cache.closure(4)
    subs = g.standard_subgroups()
    sec = make_section(g, subs.u, subs.l)
    induced = section_sring(closure, sec)
    assert induced.rank == 4
    assert all(len(cls) == 1 for cls in induced.classes)


def test_section_sring_rank_8_for_g_over_l_k6(cache):
    g = cache.group(6)
    closure = cache.closure(6)
    subs = g.standard_subgroups()
    whole = subgroup_generated(g, list(g.elements()))
    induced = section_sring(closure, make_section(g, whole, subs.l))
    assert induced.rank == 8


def test_section_sring_of_singleton_partition_is_singleton():
    g = family_group(3)
    p = SRingPartition(g, [[x] for x in g.elements()])
    whole = subgroup_generated(g, list(g.elements()))
    trivial = subgroup_generated(g, [])
    induced = section_sring(p, make_section(g, whole, trivial))
    assert induced.rank == g.order


def test_section_sring_rejects_non_closed_subgroups(cache):
    g = cache.group(4)
    closure = cache.closure(4)
    # b lies inside the coset class Lc, so <b> is not a union of classes
    b_sub = subgroup_generated(g, [g.b])
    trivial = subgroup_generated(g, [])
    sec = make_section(g, b_sub, trivial)
    with pytest.raises(ValueError):
        section_sring(closure, sec)


def test_detect_wreath_k4(cache):
    decomps = detect_wreath(cache.closure(4))
    shapes = [
        (w.section.lower.order, w.section.upper.order,
         w.rank_u, w.rank_quotient, w.rank_section)
        for w in decomps
    ]
    assert (4, 16, 16, 8, 4) in shapes
    for w in decomps:
        assert 20 == w.rank_u + w.rank_quotient - w.rank_section


def test_detect_wreath_empty_for_odd_k(cache):
    assert detect_wreath(cache.closure(3)) == []
    assert detect_wreath(cache.closure(5)) == []


def test_detect_wreath_empty_for_rank_two_sring():
    g = family_group(3)
    rest = [x for x in g.elements() if x != g.identity]
    p = SRingPartition(g, [[g.identity], rest])
    assert detect_wreath(p) == []


def test_closure_trace_k3_all_hold_and_all_singletons(cache):
    trace = closure_trace(cache.group(3), 3)
    assert trace.all_hold
    assert trace.all_classes_singletons
    names = {e.name for e in trace.entries}
    assert names == {
        "cb_is_singleton",
        "ca_is_singleton",
        "da_inverse_is_singleton",
        "a_squared_is_singleton",
        "a1_elements_are_singletons",
    }


@pytest.mark.parametrize("k", [4, 8])
def test_closure_trace_even_k_pattern(cache, k):
    trace = closure_trace(cache.group(k), k)
    assert trace.all_hold
    assert not trace.all_classes_singletons
    by_name = {e.name: e for e in trace.entries}
    assert by_name["da_is_singleton"].holds
    for label in ("Lc", "La", "Ld", "Lcda"):
        assert by_name[f"coset_{label}_is_class_union"].holds
    # Lc is in fact a single class, not just a union
    lc = by_name["coset_Lc_is_class_union"]
    assert lc.observed == lc.expected


def test_closure_trace_serializes(cache):
    doc = closure_trace(cache.group(4), 4).to_dict()
    assert doc["k"] == 4
    assert doc["all_hold"] is True
    assert all(
        set(entry) == {"name", "expected", "observed", "holds"}
        for entry in doc["assertions"]
    )


# closure_trace(k).to_dict() and the summary() of each detect_wreath result
# at k = 3 and 4, key order included: every assertion holds and observes
# exactly the names it expects.
TRACE_PINS = {
    3: (24, True, [
        ("cb_is_singleton", ["bc"]),
        ("ca_is_singleton", ["ac"]),
        ("da_inverse_is_singleton", ["a^2d"]),
        ("a_squared_is_singleton", ["a^2"]),
        ("a1_elements_are_singletons", ["a", "a^2", "e"]),
    ]),
    4: (20, False, [
        ("cb_is_singleton", ["bc"]),
        ("ca_is_singleton", ["ac"]),
        ("da_inverse_is_singleton", ["a^3d"]),
        ("a_squared_is_singleton", ["a^2"]),
        ("a1_elements_are_singletons", ["a^2", "e"]),
        ("da_is_singleton", ["ad"]),
        ("coset_Lc_is_class_union", ["a^2b", "a^2c", "b", "c"]),
        ("coset_La_is_class_union", ["a", "a^3", "a^3bc", "abc"]),
        ("coset_Ld_is_class_union", ["a^2bcd", "a^2d", "bcd", "d"]),
        ("coset_Lcda_is_class_union", ["a^3bd", "a^3cd", "abd", "acd"]),
    ]),
}
WREATH_PINS = {
    3: [],
    4: [
        {"lower_order": 2, "upper_order": 16, "rank_u": 16, "rank_quotient": 12,
         "rank_section": 8},
        {"lower_order": 4, "upper_order": 16, "rank_u": 16, "rank_quotient": 8,
         "rank_section": 4},
    ],
}


@pytest.mark.parametrize("k", [3, 4])
def test_trace_and_wreath_outputs_are_pinned(cache, k):
    rank, singles, entries = TRACE_PINS[k]
    expected = {
        "k": k, "rank": rank, "all_hold": True, "all_classes_singletons": singles,
        "assertions": [{"name": name, "expected": names, "observed": names, "holds": True}
                       for name, names in entries],
    }
    doc = closure_trace(cache.group(k), k).to_dict()
    assert json.dumps(doc) == json.dumps(expected)
    summaries = [w.summary() for w in detect_wreath(cache.closure(k))]
    assert json.dumps(summaries) == json.dumps(WREATH_PINS[k])


@pytest.mark.parametrize("k", [64, 65])
@pytest.mark.parametrize("build", ["closure", "trace"])
def test_closure_peak_below_one_and_a_half_tables(cache, build, k):
    """The closure reads the multiplication table as it is: on Gamma_64 and
    Gamma_65 the traced peak of wl_closure and of closure_trace stays below
    1.5 units of 4 n^2 bytes, one int32 table. A copy of the table with its
    columns permuted by inversion peaked at 1.80 (k = 64) and 2.25 (k = 65)
    units."""
    g = cache.group(k)
    run = {"closure": lambda: wl_closure(g, [connection_set(g, k)]),
           "trace": lambda: closure_trace(g, k)}[build]
    run()  # warm every lazy import first
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 4 * g.order**2


def test_closure_rank_matches_wl2_at_k12():
    g = family_group(12)
    s = connection_set(g, 12)
    assert wl_closure(g, [s]).rank == wl_rank(cayley_graph(g, s)) == 52
