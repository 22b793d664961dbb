import random

import numpy as np
import pytest

from conftest import cyclic_group
from dezawl import (
    Group,
    Subgroup,
    cosets,
    family_group,
    is_normal,
    make_section,
    subgroup_generated,
)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_family_group_order_and_distinct_normal_forms(k):
    g = family_group(k)
    assert g.order == 8 * k
    assert len(set(g.names)) == g.order


def test_k_below_three_rejected():
    with pytest.raises(ValueError):
        family_group(2)


def test_b_conjugation_inverts_a():
    g = family_group(3)
    bab = g.mul(g.mul(g.b, g.a), g.b)
    assert bab == g.inverse(g.a)
    assert g.name(bab) == "a^2"


def test_c_and_d_central_exhaustive_k5():
    g = family_group(5)
    for z in (g.c, g.d):
        for x in g.elements():
            assert g.mul(z, x) == g.mul(x, z)


def test_element_names_follow_grammar():
    g = family_group(3)
    assert g.name(g.identity) == "e"
    assert g.name(g.a) == "a"
    assert g.name(g.b) == "b"
    assert g.name(g.element(2, 1, 1, 0)) == "a^2bc"
    assert g.name(g.element(0, 0, 1, 1)) == "cd"
    assert g.name(g.element(1, 1, 0, 1)) == "abd"


@pytest.mark.parametrize("k", [3, 8])
def test_associativity_exhaustive_up_to_order_64(k):
    assert family_group(k).check_associativity()


def test_associativity_sampled_for_larger_orders():
    # order 96, beyond the exhaustive range
    assert family_group(12).check_associativity(samples=2000)


def test_subgroup_generated_by_a_is_cyclic_of_order_k():
    g = family_group(3)
    sub = subgroup_generated(g, [g.a])
    assert sub.order == 3
    assert all(g.name(x) in ("e", "a", "a^2") for x in sub.elements)


def test_subgroup_l_has_order_k_for_k4():
    g = family_group(4)
    a_sq = g.element(2)
    cb = g.mul(g.c, g.b)
    sub = subgroup_generated(g, [a_sq, cb])
    assert sub.order == 4


def test_generators_span_whole_group():
    g = family_group(5)
    sub = subgroup_generated(g, [g.a, g.b, g.c, g.d])
    assert sub.order == g.order


def _is_normal_by_conjugation(g, h):
    members = set(h.elements)
    return all(
        g.mul(g.mul(x, y), g.inverse(x)) in members
        for x in g.elements()
        for y in members
    )


@pytest.mark.parametrize("k", [3, 4, 5])
def test_l_is_normal(k):
    g = family_group(k)
    subs = g.standard_subgroups()
    assert is_normal(g, subs.l)
    assert _is_normal_by_conjugation(g, subs.l)


def test_subgroup_b_is_not_normal():
    g = family_group(3)
    b_sub = subgroup_generated(g, [g.b])
    assert not is_normal(g, b_sub)
    # independent oracle: a b a^-1 = a^2 b falls outside <b>
    conj = g.mul(g.mul(g.a, g.b), g.inverse(g.a))
    assert g.name(conj) == "a^2b"
    assert not _is_normal_by_conjugation(g, b_sub)


def test_whole_group_is_normal_in_itself():
    g = family_group(3)
    whole = subgroup_generated(g, list(g.elements()))
    assert is_normal(g, whole)


def test_section_u_over_l_has_order_4():
    g = family_group(4)
    subs = g.standard_subgroups()
    sec = make_section(g, subs.u, subs.l)
    assert sec.quotient.order == 4


def test_section_g_over_l_has_order_8():
    g = family_group(4)
    subs = g.standard_subgroups()
    whole = subgroup_generated(g, list(g.elements()))
    sec = make_section(g, whole, subs.l)
    assert sec.quotient.order == 8


def test_section_by_trivial_subgroup_recovers_group_order():
    g = family_group(3)
    whole = subgroup_generated(g, list(g.elements()))
    trivial = subgroup_generated(g, [])
    sec = make_section(g, whole, trivial)
    assert sec.quotient.order == g.order


def test_section_projection_is_homomorphism_with_kernel_l():
    g = family_group(4)
    subs = g.standard_subgroups()
    sec = make_section(g, subs.u, subs.l)
    proj = sec.projection
    q = sec.quotient
    for x in subs.u.elements:
        for y in subs.u.elements:
            assert proj[g.mul(x, y)] == q.mul(proj[x], proj[y])
    kernel = {x for x in subs.u.elements if proj[x] == proj[g.identity]}
    assert kernel == set(subs.l.elements)


def test_section_requires_normal_lower_subgroup():
    g = family_group(3)
    h = subgroup_generated(g, [g.a, g.b])  # H, in which <b> is not normal
    b_sub = subgroup_generated(g, [g.b])
    with pytest.raises(ValueError):
        make_section(g, h, b_sub)


def test_section_normality_matches_conjugation_by_hand():
    """make_section raises exactly when some x * y * x^-1 with x in U and
    y in L leaves L, for L <= U generated by random elements."""
    rng = random.Random(11)
    outcomes = set()
    for k in (3, 4, 6):
        g = family_group(k)
        for _ in range(20):
            lower_gens = rng.sample(range(g.order), rng.randrange(0, 3))
            upper_gens = lower_gens + rng.sample(range(g.order), rng.randrange(0, 4))
            l_sub = subgroup_generated(g, lower_gens)
            u_sub = subgroup_generated(g, upper_gens)
            normal = all(g.conjugate(x, y) in l_sub
                         for x in u_sub.elements for y in l_sub.elements)
            outcomes.add((normal, u_sub.order < g.order))
            if normal:
                sec = make_section(g, u_sub, l_sub)
                assert sec.quotient.order == u_sub.order // l_sub.order
            else:
                with pytest.raises(ValueError, match="not normal"):
                    make_section(g, u_sub, l_sub)
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_cosets_partition_group():
    rng = random.Random(7)
    g = family_group(4)
    for _ in range(5):
        gens = rng.sample(range(g.order), 2)
        h = subgroup_generated(g, gens)
        cs = cosets(g, h)
        assert len(cs) == g.order // h.order
        assert all(len(c) == h.order for c in cs)
        seen = sorted(x for c in cs for x in c)
        assert seen == list(g.elements())


def test_name_rejects_elements_out_of_range():
    g = family_group(3)
    for bad in (-1, g.order):
        with pytest.raises(ValueError, match="out of range"):
            g.name(bad)


def test_subgroup_generated_rejects_elements_out_of_range():
    g = family_group(3)
    for bad in (-1, g.order):
        with pytest.raises(ValueError, match="out of range"):
            subgroup_generated(g, [g.a, bad])


def test_group_validation_rejects_bad_identity():
    mult = [[0, 1], [1, 1]]  # not a group table
    with pytest.raises(ValueError):
        Group(mult, [0, 1], 0)


C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def _with_entry(table, x, y, value):
    table = [row[:] for row in table]
    table[x][y] = value
    return table


@pytest.mark.parametrize("mult,inv,identity,match", [
    ([[0, 1, 2], [1, 2], [2, 0, 1]], [0, 2, 1], 0, "mult table is ragged"),
    ([row + [0] for row in C3], [0, 2, 1], 0, "mult table has shape"),
    (C3, [0, 2], 0, "inv table has shape"),
    (_with_entry(C3, 1, 1, -1), [0, 2, 1], 0, "mult entry -1 out of range"),
    (_with_entry(C3, 1, 1, 3), [0, 2, 1], 0, "mult entry 3 out of range"),
    (C3, [0, 2, 1], 3, "identity 3 out of range"),
    (C3, [0, 2, 1], -1, "identity -1 out of range"),
    # row 0 is the identity map but column 0 is not: a left identity only
    ([[0, 1], [0, 1]], [0, 1], 0, "identity 0 is not two-sided"),
    (C3, [0, 2, -1], 0, "inv entry -1 out of range"),
    (C3, [0, 2, 3], 0, "inv entry 3 out of range"),
    # 1 * 2 = e but 2 * 1 = 1: a right inverse only (the table is no group)
    ([[0, 1, 2], [1, 1, 0], [2, 1, 2]], [0, 2, 1], 0,
     "inv\\[1\\]=2 is not a two-sided inverse"),
    # 2^32 narrowed to int32 would wrap to 0, the trivial group's table
    (np.array([[2**32]]), np.array([0]), 0, "mult entry 4294967296 out of range"),
    # a Python int past int32 must not raise OverflowError while narrowing
    (C3, [0, 2, 2**31], 0, "inv entry 2147483648 out of range"),
], ids=["ragged", "wrong_shape", "inv_wrong_shape", "entry_minus_one", "entry_n",
        "identity_n", "identity_minus_one", "identity_one_sided", "inv_minus_one",
        "inv_n", "inverse_one_sided", "entry_wraps_in_int32", "inv_past_int32"])
def test_group_validation_errors(mult, inv, identity, match):
    with pytest.raises(ValueError, match=match):
        Group(mult, inv, identity)


@pytest.mark.parametrize("elements,match", [
    ([1], "must contain the identity"),
    ([0, 1], "not closed under inverse at g\\^1"),
    ([0, 1, 3], "not closed under product at g\\^1\\*g\\^1"),
    ([0, 4], "element 4 out of range"),
])
def test_subgroup_check_errors(elements, match):
    with pytest.raises(ValueError, match=match):
        Subgroup(cyclic_group(4), elements, check=True)


def test_tables_are_read_only_int32_arrays():
    g = family_group(3)
    n = g.order
    assert g.mult.nbytes == 4 * n * n
    for table in (g.mult, g.inv):
        assert table.dtype == np.int32
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        g.mult[1, 2] = 0


def test_group_copies_the_callers_tables():
    """An int32 table is narrowed without a cast, but Group still copies it,
    so the caller's arrays stay writable and later writes do not reach g."""
    mult, inv = np.array(C3, dtype=np.int32), np.array([0, 2, 1], dtype=np.int32)
    g = Group(mult, inv, 0)
    mult[1, 1] = 0
    inv[1] = 1
    assert g.mult[1, 1] == 2 and g.inv[1] == 2


def test_subgroup_mask_and_section_projection_are_read_only():
    g = family_group(3)
    subs = g.standard_subgroups()
    sec = make_section(g, subs.u, subs.l)
    assert subs.u.mask.dtype == bool and sec.projection.dtype == np.intp
    for vector in (subs.u.mask, sec.projection):
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 0


def test_subgroup_membership_is_false_outside_the_group():
    """mask[-1] would be element n-1, which lies in the whole group."""
    g = family_group(3)
    whole = subgroup_generated(g, list(g.elements()))
    for sub in (whole, g.standard_subgroups().a):
        assert -1 not in sub
        assert g.order not in sub
    assert g.order - 1 in whole


def test_subgroups_compare_by_elements():
    g = family_group(4)
    subs = g.standard_subgroups()
    forward = Subgroup(g, subs.l.elements)
    backward = Subgroup(g, reversed(subs.l.elements))
    assert forward == backward == subs.l
    assert hash(forward) == hash(backward)
    assert forward != subs.u
    assert subs.a1 <= subs.a
    assert not subs.a <= subs.a1
    assert subs.a <= subs.a


@pytest.mark.parametrize("k", [3, 4, 16])
def test_standard_subgroups_are_built_once_and_frozen(k):
    g = family_group(k)
    subs = g.standard_subgroups()
    assert g.standard_subgroups() is subs
    assert subs == g._build_standard_subgroups()
    with pytest.raises(AttributeError):
        subs.a = subs.c


def test_one_standard_subgroup_build_per_certificate(monkeypatch):
    from dezawl.verify import verify_family
    from dezawl.group import FamilyGroup

    builds = []
    original = FamilyGroup._build_standard_subgroups

    def counting(self):
        builds.append(self.k)
        return original(self)

    monkeypatch.setattr(FamilyGroup, "_build_standard_subgroups", counting)
    assert verify_family(16).verdict == "pass"
    assert builds == [16]
