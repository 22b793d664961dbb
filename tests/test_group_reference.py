"""The array group layer against pure-Python references.

subgroup_generated closes by squaring, is_normal and make_section test
normality by one gather of conjugates, cosets and the quotient table are
gathers on the multiplication table, and FamilyGroup builds its table by
array arithmetic on the normal form. The functions below are the loops
they replaced: a breadth-first orbit closure, bitmask coset comparisons,
a coset-by-coset quotient build and the nested loop over (i, j, l, m).
Both must agree on random generator sets, the empty set included, over
family groups, C2^5 and table-built cyclic, dihedral and direct-product
groups, and on every family table for k = 3..12. The squaring closure
returns the whole group once it holds more than half of it; generator sets
on both sides of that cut, up to an index-two subgroup and beyond, must
give the orbit closure's subgroup.
"""

from __future__ import annotations

import random

import pytest

from conftest import cyclic_group, elementary_abelian
from dezawl import (
    Group,
    cosets,
    family_group,
    is_normal,
    make_section,
    subgroup_generated,
)
from test_sring_pins import _dihedral, _direct, _relabel


def reference_generated(g: Group, gens) -> tuple[int, ...]:
    """Smallest subgroup containing gens, by an orbit closure under products."""
    seen = {g.identity}
    frontier = [g.identity]
    gen_list = sorted(set(int(x) for x in gens))
    for x in gen_list:
        if x not in seen:
            seen.add(x)
            frontier.append(x)
    while frontier:
        x = frontier.pop()
        for y in gen_list:
            for z in (g.mul(x, y), g.mul(y, x)):
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
    return tuple(sorted(seen))


def reference_normalizes(g: Group, xs, h) -> bool:
    """True iff xH = Hx for every x in xs, as bitmasks."""
    for x in xs:
        left = 0
        right = 0
        for y in h:
            left |= 1 << g.mul(x, y)
            right |= 1 << g.mul(y, x)
        if left != right:
            return False
    return True


def reference_cosets(g: Group, h) -> list[tuple[int, ...]]:
    """Right cosets Hx as sorted tuples, ordered by minimal element."""
    seen = [False] * g.order
    out = []
    for x in g.elements():
        if seen[x]:
            continue
        coset = sorted(g.mul(y, x) for y in h)
        for z in coset:
            seen[z] = True
        out.append(tuple(coset))
    return out


def reference_section(g: Group, u, l):
    """(projection, representatives, quotient mult, inv, identity, names)
    of U/L, built coset by coset; ValueError unless L is normal in U."""
    if not reference_normalizes(g, u, l):
        raise ValueError("lower subgroup is not normal in the upper subgroup")
    projection = [-1] * g.order
    reps: list[int] = []
    for x in u:
        if projection[x] >= 0:
            continue
        coset = sorted(g.mul(y, x) for y in l)
        for z in coset:
            projection[z] = len(reps)
        reps.append(coset[0])
    order = sorted(range(len(reps)), key=lambda i: reps[i])
    relabel = [0] * len(reps)
    for new_id, old_id in enumerate(order):
        relabel[old_id] = new_id
    reps = [reps[i] for i in order]
    for x in u:
        projection[x] = relabel[projection[x]]
    q = len(reps)
    qmult = [[projection[g.mul(reps[i], reps[j])] for j in range(q)] for i in range(q)]
    qinv = [projection[g.inverse(reps[i])] for i in range(q)]
    return (projection, tuple(reps), qmult, qinv, projection[g.identity],
            [g.name(r) for r in reps])


def reference_family_table(k: int):
    """(mult, inv) of D_2k x C2 x C2 by the nested loop over normal forms."""
    def idx(i, j, l, m):
        return ((i % k) * 2 + j % 2) * 4 + (l % 2) * 2 + m % 2

    n = 8 * k
    mult = [[0] * n for _ in range(n)]
    inv = [0] * n
    for i1 in range(k):
        for j1 in range(2):
            for l1 in range(2):
                for m1 in range(2):
                    x = idx(i1, j1, l1, m1)
                    inv[x] = idx(i1 if j1 else -i1, j1, l1, m1)
                    for i2 in range(k):
                        for j2 in range(2):
                            for l2 in range(2):
                                for m2 in range(2):
                                    y = idx(i2, j2, l2, m2)
                                    i3 = i1 - i2 if j1 else i1 + i2
                                    mult[x][y] = idx(i3, j1 + j2, l1 + l2, m1 + m2)
    return mult, inv


def group_cases(seed: int):
    """(name, group) pairs; the seed fixes the relabelling."""
    rng = random.Random(seed)
    for k in range(3, 11):
        yield f"family{k}", family_group(k)
    yield "c2^5", elementary_abelian(5)
    yield from {
        "c8": cyclic_group(8),
        "c9": cyclic_group(9),
        "c12": cyclic_group(12),
        "d8": _dihedral(4),
        "d12": _dihedral(6),
        "c2xc4": _direct(cyclic_group(2), cyclic_group(4)),
        "d6xc2": _direct(_dihedral(3), cyclic_group(2)),
        "d10_relabelled": _relabel(_dihedral(5), rng),
    }.items()


def _generator_sets(g: Group, rng: random.Random):
    yield []
    for size in (1, 1, 2, 2, 3):
        yield rng.sample(range(g.order), size)


@pytest.mark.parametrize("seed", [0, 1])
def test_group_layer_equals_the_loop_references(seed):
    rng = random.Random(1000 + seed)
    normal_outcomes = set()
    for name, g in group_cases(seed):
        for gens in _generator_sets(g, rng):
            h = subgroup_generated(g, gens)
            assert h.elements == reference_generated(g, gens), (name, gens)
            whole = range(g.order)
            assert is_normal(g, h) == reference_normalizes(g, whole, h.elements), (name, gens)
            assert cosets(g, h) == reference_cosets(g, h.elements), (name, gens)

            u = subgroup_generated(g, gens + rng.sample(range(g.order), rng.randrange(0, 3)))
            try:
                expected = reference_section(g, u.elements, h.elements)
            except ValueError:
                normal_outcomes.add(False)
                with pytest.raises(ValueError, match="not normal"):
                    make_section(g, u, h)
                continue
            normal_outcomes.add(True)
            sec = make_section(g, u, h)
            q = sec.quotient
            assert (sec.projection.tolist(), sec.representatives, q.mult.tolist(),
                    q.inv.tolist(), q.identity, q.names) == expected, (name, gens)
    assert normal_outcomes == {True, False}


LAGRANGE_GROUPS = {
    **{f"c{n}": cyclic_group(n) for n in (1, 2, 7, 12, 16)},
    **{f"c2^{m}": elementary_abelian(m) for m in (1, 3, 5)},
    **{f"family{k}": family_group(k) for k in range(3, 9)},
}


@pytest.mark.parametrize("name", sorted(LAGRANGE_GROUPS))
def test_generated_subgroups_across_the_lagrange_cut(name):
    """The even indices form an index-two subgroup of every even-order
    group here (for C_n with n odd they generate C_n): its square holds
    exactly n/2 elements, so the cut must not fire on it, while one more
    element, or any set above n/2, generates the whole group."""
    g = LAGRANGE_GROUPS[name]
    n = g.order
    rng = random.Random(n)
    evens = list(range(0, n, 2))
    sets = [[], [g.identity], evens, evens + [n - 1]]
    for size in sorted({1, 2, 3, n // 2, n // 2 + 1, n - 1, n} & set(range(n + 1))):
        sets += [rng.sample(range(n), size) for _ in range(3)]
    for gens in sets:
        h = subgroup_generated(g, gens)
        assert h.elements == reference_generated(g, gens), (name, gens)
        if 2 * len(set(gens) | {g.identity}) > n:
            assert h.order == n


@pytest.mark.parametrize("k", range(3, 13))
def test_family_table_equals_the_nested_loop(k):
    g = family_group(k)
    mult, inv = reference_family_table(k)
    assert g.mult.tolist() == mult
    assert g.inv.tolist() == inv
    assert g.identity == 0
