"""Exact outcomes of the generalized wreath search, pinned and checked
against a pure-Python reference.

Every decomposition that detect_wreath returns on the seeded S-rings below
was recorded once and is stored in data/wreath_pins.json: the lower and
upper element tuples, the three ranks of the rank identity and a sha256 of
the quotient table of U/L, in the order detect_wreath returns them. The
cases are closures of Gamma_k, closures of random inverse-closed connection
sets over family groups and over table-built cyclic, dihedral and
direct-product groups, and the S-rings {e}, H#, G minus H over C2^m with H
of index 2. A change to the search must reproduce every list exactly. On
cases from other seeds the result must equal that of the subgroup
enumeration at the end of this file, and every induced partition of a
section must equal that of the count-list loop there.

Regenerate the data file only for a deliberate change of outcome:

    PYTHONPATH=src python3 tests/test_wreath_pins.py > tests/data/wreath_pins.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import cyclic_group, elementary_abelian
import dezawl.sring
from dezawl import (
    Group,
    SRingPartition,
    Subgroup,
    WreathDecomposition,
    connection_set,
    detect_wreath,
    family_group,
    is_normal,
    make_section,
    section_sring,
    subgroup_generated,
    wl_closure,
)
from dezawl.group import Section, _generated
from dezawl.sring import _minimal_normal_s_subgroup
from test_sring_pins import _dihedral, _direct, _relabel

PINS_PATH = Path(__file__).resolve().parent / "data" / "wreath_pins.json"


def index_two_sring(m: int) -> SRingPartition:
    """{e}, H#, G minus H over C2^m, with H the vectors whose top bit is 0."""
    g = elementary_abelian(m)
    half = 1 << (m - 1)
    return SRingPartition(g, [[0], range(1, half), range(half, 2 * half)])


def _random_closure(g: Group, rng: random.Random) -> SRingPartition:
    """The closure of a random inverse-closed connection set of g."""
    density = rng.choice((0.04, 0.08, 0.15, 0.3))
    s: set[int] = set()
    for x in g.elements():
        if x != g.identity and rng.random() < density:
            s |= {x, g.inv[x]}
    if not s:
        x = rng.randrange(g.order)
        s = {x, g.inv[x]} - {g.identity}
    return wl_closure(g, [sorted(s)])


def wreath_cases(seed: int = 0):
    """(name, S-ring) pairs; seed 0 gives the pinned set."""
    rng = random.Random(seed)
    if seed == 0:
        for k in range(3, 13):
            g = family_group(k)
            yield f"gamma{k}", wl_closure(g, [connection_set(g, k)])
        for m in (3, 4, 5):
            yield f"c2^{m}_index_two", index_two_sring(m)
    for k in (3, 4, 5, 6, 8, 10):
        g = family_group(k)
        for i in range(7 if k < 8 else 6):
            yield f"family{k}_random_{i}", _random_closure(g, rng)
    groups = {
        "c8": cyclic_group(8),
        "c12": cyclic_group(12),
        "c16": cyclic_group(16),
        "d8": _dihedral(4),
        "d12": _dihedral(6),
        "d16": _dihedral(8),
        "c2xc4": _direct(cyclic_group(2), cyclic_group(4)),
        "c4xc4": _direct(cyclic_group(4), cyclic_group(4)),
        "d6xc2": _direct(_dihedral(3), cyclic_group(2)),
        "d8xc2": _direct(_dihedral(4), cyclic_group(2)),
        "d10_relabelled": _relabel(_dihedral(5), rng),
    }
    for gname, g in groups.items():
        for i in range(3):
            yield f"{gname}_random_{i}", _random_closure(g, rng)


def _table_sha(q: Group) -> str:
    doc = json.dumps([q.mult.tolist(), q.inv.tolist(), q.identity, q.names],
                     separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def _outcome(decompositions: list[WreathDecomposition]) -> list:
    return [[list(w.section.lower.elements), list(w.section.upper.elements),
             w.rank_u, w.rank_quotient, w.rank_section, _table_sha(w.section.quotient)]
            for w in decompositions]


def outcomes(seed: int = 0) -> dict:
    return {name: _outcome(detect_wreath(p)) for name, p in wreath_cases(seed)}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def test_pinned_decompositions_are_reproduced(pins):
    current = outcomes()
    assert list(current) == list(pins)
    wrong = {name: (got, pins[name]) for name, got in current.items() if got != pins[name]}
    assert not wrong


def test_pins_cover_wreaths_and_their_absence(pins):
    found = [name for name, ws in pins.items() if ws]
    assert len(found) >= 30
    assert len(pins) - len(found) >= 10
    assert any(len(ws) > 3 for ws in pins.values())
    assert pins["c2^5_index_two"] and all(
        len(lower) == len(upper) == 16 for lower, upper, *_ in pins["c2^5_index_two"])


def test_index_two_sring_over_c2_7_has_one_decomposition():
    """Every subgroup of the 64-element radical H (2,825 of them) would be
    enumerated by a join closure; only U = L = H qualifies."""
    (w,) = detect_wreath(index_two_sring(7))
    assert w.section.lower.elements == w.section.upper.elements == tuple(range(64))
    assert (w.rank_u, w.rank_quotient, w.rank_section) == (2, 2, 1)


def _reference_is_union(p: SRingPartition, subset) -> bool:
    """is_union_of_classes by a set comparison per class."""
    s = set(subset)
    return all(set(cls) <= s or not s.intersection(cls) for cls in p.classes)


def _reference_section_sring(p: SRingPartition, s: Section) -> SRingPartition:
    """section_sring by a count list per coset over the classes inside U."""
    if not _reference_is_union(p, s.upper.elements):
        raise ValueError("upper subgroup is not a union of classes")
    if not _reference_is_union(p, s.lower.elements):
        raise ValueError("lower subgroup is not a union of classes")
    inner = [cid for cid, cls in enumerate(p.classes)
             if all(x in s.upper for x in cls)]
    q = s.quotient.order
    counts = [[0] * len(inner) for _ in range(q)]
    pos = {cid: i for i, cid in enumerate(inner)}
    for cid in inner:
        for x in p.classes[cid]:
            counts[s.projection[x]][pos[cid]] += 1
    buckets: dict[tuple[int, ...], list[int]] = {}
    for coset in range(q):
        buckets.setdefault(tuple(counts[coset]), []).append(coset)
    return SRingPartition(s.quotient, buckets.values())


def _reference_detect_wreath(p: SRingPartition) -> list:
    """_outcome of detect_wreath, by a join closure over every subgroup of
    every class radical and subgroup_generated at every step."""
    g = p.group
    n = g.order
    full = (1 << n) - 1
    ident = 1 << g.identity

    def elements(mask):
        return [x for x in range(n) if mask >> x & 1]

    def generated(mask):
        return sum(1 << x for x in subgroup_generated(g, elements(mask)).elements)

    class_masks = [sum(1 << x for x in cls) for cls in p.classes]
    rad_masks = []
    for cls in p.classes:
        rad_masks.append(sum(1 << h for h in range(n)
                             if all(g.mult[v][h] in cls and g.mult[h][v] in cls for v in cls)))

    candidates: set[int] = set()
    for rmask in set(rad_masks):
        if rmask in (ident, full):
            continue
        subs = {ident} | {generated(1 << x) for x in elements(rmask)}
        frontier = list(subs)
        while frontier:
            a = frontier.pop()
            for b in list(subs):
                j = generated(a | b)
                if j not in subs:
                    subs.add(j)
                    frontier.append(j)
        candidates |= subs - {ident}

    def a_closure(mask):
        while True:
            h = generated(mask)
            grown = h
            for cmask in class_masks:
                if cmask & h:
                    grown |= cmask
            if grown == h:
                return h
            mask = grown

    whole = Subgroup(g, g.elements(), check=False)
    found = []
    for lmask in sorted(candidates):
        l_sub = Subgroup(g, elements(lmask), check=False)
        if not _reference_is_union(p, l_sub.elements) or not is_normal(g, l_sub):
            continue
        covered = 0
        for cmask, rmask in zip(class_masks, rad_masks):
            if lmask & ~rmask == 0:
                covered |= cmask
        u0 = a_closure((full & ~covered) | lmask)
        if u0 == full:
            continue
        uppers = {u0}
        frontier = [u0]
        while frontier:
            u = frontier.pop()
            for cmask in class_masks:
                if cmask & ~u:
                    v = a_closure(u | cmask)
                    if v != full and v not in uppers:
                        uppers.add(v)
                        frontier.append(v)
        for umask in sorted(uppers, key=lambda m: (m.bit_count(), m)):
            u_sub = Subgroup(g, elements(umask), check=False)
            sec = make_section(g, u_sub, l_sub)
            rank_u = sum(1 for cls in p.classes if set(cls) <= set(u_sub.elements))
            rank_quotient = _reference_section_sring(p, make_section(g, whole, l_sub)).rank
            rank_section = _reference_section_sring(p, sec).rank
            assert p.rank == rank_u + rank_quotient - rank_section
            found.append(WreathDecomposition(sec, rank_u, rank_quotient, rank_section))
    found.sort(key=lambda w: (w.section.lower.order, w.section.upper.order,
                              w.section.lower.elements, w.section.upper.elements))
    return _outcome(found)


@pytest.mark.parametrize("seed", [1, 2])
def test_decompositions_equal_the_reference_search(seed):
    for name, p in wreath_cases(seed):
        assert _outcome(detect_wreath(p)) == _reference_detect_wreath(p), name


# The two S-ring facts detect_wreath searches by: subgroups generated by
# unions of classes are unions of classes, and so are the M_X.

@pytest.mark.parametrize("seed", [1, 2])
def test_generated_union_of_classes_is_a_union_of_classes(seed):
    rng = random.Random(f"generated-{seed}")
    for name, p in wreath_cases(seed):
        g = p.group
        for _ in range(6):
            chosen = rng.sample(p.classes, rng.randint(1, min(3, p.rank)))
            h = _generated(g, g.mask([x for cls in chosen for x in cls]))
            Subgroup(g, np.flatnonzero(h).tolist())  # validates closure
            assert p.is_union_of_classes(np.flatnonzero(h).tolist()), name


@pytest.mark.parametrize("seed", [1, 2])
def test_minimal_normal_s_subgroups(seed):
    """Every M_X is a normal subgroup holding X and a union of classes, and
    it lies inside every M_Y that holds X."""
    for name, p in wreath_cases(seed):
        g = p.group
        minimal = [_minimal_normal_s_subgroup(p, g.mask(cls)) for cls in p.classes]
        for cls, m in zip(p.classes, minimal):
            sub = Subgroup(g, np.flatnonzero(m).tolist())
            assert set(cls) <= set(sub.elements), name
            assert is_normal(g, sub) and p.is_union_of_classes(sub.elements), name
            for other in minimal:
                if other[list(cls)].all():
                    assert not (m & ~other).any(), name


@pytest.mark.parametrize("seed", [1, 2])
def test_section_partitions_equal_the_reference_loop(seed, monkeypatch):
    """Every section detect_wreath projects onto, as a partition."""
    visited = []

    def recording(p, s):
        visited.append((p, s))
        return section_sring(p, s)

    monkeypatch.setattr(dezawl.sring, "section_sring", recording)
    for _, p in wreath_cases(seed):
        detect_wreath(p)
    assert len(visited) >= 100
    for p, s in visited:
        assert section_sring(p, s) == _reference_section_sring(p, s)


def dump(pins: dict) -> str:
    """pins as JSON text with one case per line."""
    return ("{\n" + ",\n".join(f" {json.dumps(name)}: {json.dumps(o)}"
                               for name, o in pins.items()) + "\n}\n")


if __name__ == "__main__":
    sys.stdout.write(dump(outcomes()))
