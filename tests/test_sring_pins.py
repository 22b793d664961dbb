"""Exact outcomes of the S-ring axiom check, pinned and checked against a
pure-Python reference.

The full violations list (axiom, detail) that is_sring returns on each
seeded partition below was recorded once and is stored in
data/sring_pins.json. The cases are closures of Gamma_k with two classes
merged or one class split, random inverse-closed partitions of small
table-built groups (which reach axiom 3), and raw random partitions (which
reach axioms 1 and 2). A change to the axiom check must reproduce every
list exactly, including which product, class and element are named when
several coefficients differ. On cases from other seeds the result must
equal that of the loop over ordered class pairs at the end of this file.

is_sring decides axiom 3 by one sorted multiset per element. A second
reference, the one bincount per class that it replaced, must give the same
outcome on every inverse-closed merge of two classes of the closures at
k = 4, 6, 8, 16 and on random inverse-closed partitions of small groups.

Regenerate the data file only for a deliberate change of outcome:

    PYTHONPATH=src python3 tests/test_sring_pins.py > tests/data/sring_pins.json
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclic_group, elementary_abelian
from dezawl import Group, SRingPartition, connection_set, family_group, is_sring, wl_closure

PINS_PATH = Path(__file__).resolve().parent / "data" / "sring_pins.json"


def _dihedral(m: int) -> Group:
    """D_2m with element r^i s^j at index i + m*j."""
    def mul(a, b):
        i, j = a % m, a // m
        p, q = b % m, b // m
        return ((i + (-p if j else p)) % m) + m * (j ^ q)

    n = 2 * m
    mult = [[mul(a, b) for b in range(n)] for a in range(n)]
    inv = [row.index(0) for row in mult]
    names = [("r^%d" % (a % m)) + ("s" if a >= m else "") for a in range(n)]
    return Group(mult, inv, 0, names)


def _direct(g1: Group, g2: Group) -> Group:
    """g1 x g2 with (a, b) at index a*|g2| + b."""
    n2 = g2.order
    n = g1.order * n2
    mult = [[g1.mult[a // n2][b // n2] * n2 + g2.mult[a % n2][b % n2]
             for b in range(n)] for a in range(n)]
    inv = [g1.inv[a // n2] * n2 + g2.inv[a % n2] for a in range(n)]
    names = [f"({g1.name(a // n2)},{g2.name(a % n2)})" for a in range(n)]
    return Group(mult, inv, g1.identity * n2 + g2.identity, names)


def _relabel(g: Group, rng: random.Random) -> Group:
    """g with its elements renumbered by a random permutation, so the
    identity and the class representatives sit at other indices."""
    perm = list(range(g.order))
    rng.shuffle(perm)
    back = {p: x for x, p in enumerate(perm)}
    mult = [[perm[g.mult[back[a]][back[b]]] for b in range(g.order)]
            for a in range(g.order)]
    inv = [perm[g.inv[back[a]]] for a in range(g.order)]
    names = [g.name(back[a]) for a in range(g.order)]
    return Group(mult, inv, perm[g.identity], names)


def _inverse_closed(g: Group, blocks: int, rng: random.Random) -> SRingPartition:
    """{e} plus the pairs {x, x^-1} dealt at random into at most `blocks`
    classes: axioms 1 and 2 hold, so only axiom 3 can fail."""
    pairs = sorted({tuple(sorted((x, g.inv[x]))) for x in g.elements() if x != g.identity})
    dealt: dict[int, list[int]] = {}
    for pair in pairs:
        dealt.setdefault(rng.randrange(blocks), []).extend(pair)
    return SRingPartition(g, [[g.identity], *dealt.values()])


def _raw(g: Group, blocks: int, rng: random.Random) -> SRingPartition:
    """Elements dealt at random into at most `blocks` classes."""
    dealt: dict[int, list[int]] = {}
    for x in g.elements():
        dealt.setdefault(rng.randrange(blocks), []).append(x)
    return SRingPartition(g, dealt.values())


def _closure_variants(k: int, rng: random.Random):
    """The closure of Gamma_k with two classes merged or one class split."""
    g = family_group(k)
    classes = [list(c) for c in wl_closure(g, [connection_set(g, k)]).classes]
    ident = next(i for i, c in enumerate(classes) if c == [g.identity])
    inverse = {tuple(sorted(g.inv[x] for x in c)): i for i, c in enumerate(classes)}
    others = [i for i in range(len(classes)) if i != ident]

    def merged(*ids):
        keep = [c for i, c in enumerate(classes) if i not in ids]
        return SRingPartition(g, keep + [[x for i in ids for x in classes[i]]])

    def inverse_id(i):
        return inverse[tuple(classes[i])]

    yield "merge_identity", merged(ident, rng.choice(others))
    yield "merge_two", merged(*rng.sample(others, 2))
    unpaired = [i for i in others if inverse_id(i) != i]
    if unpaired:
        i = rng.choice(unpaired)
        yield "merge_with_inverse", merged(i, inverse_id(i))
    x, y = rng.sample(others, 2)
    yield "merge_inverse_closed", merged(*{x, inverse_id(x), y, inverse_id(y)})
    selfinv = [i for i in others if inverse_id(i) == i]
    if len(selfinv) >= 2:
        yield "merge_self_inverse", merged(*rng.sample(selfinv, 2))
    splittable = [i for i in others if len(classes[i]) > 1]
    for j, i in enumerate(rng.sample(splittable, min(2, len(splittable)))):
        cls = classes[i][:]
        rng.shuffle(cls)
        cut = rng.randrange(1, len(cls))
        keep = [c for t, c in enumerate(classes) if t != i]
        yield f"split_{j}", SRingPartition(g, keep + [cls[:cut], cls[cut:]])


def sring_cases(seed: int = 0):
    """(name, partition) pairs; seed 0 gives the pinned set."""
    rng = random.Random(seed)
    for k in (3, 4, 5, 6):
        for name, p in _closure_variants(k, rng):
            yield f"gamma{k}_{name}", p
    groups = {
        "c8": cyclic_group(8),
        "c9": cyclic_group(9),
        "c12": cyclic_group(12),
        "d8": _dihedral(4),
        "d12": _dihedral(6),
        "c2xc4": _direct(cyclic_group(2), cyclic_group(4)),
        "d6xc2": _direct(_dihedral(3), cyclic_group(2)),
        "d10_relabelled": _relabel(_dihedral(5), rng),
    }
    for gname, g in groups.items():
        for i in range(4):
            yield f"{gname}_inverse_closed_{i}", _inverse_closed(g, rng.randrange(2, 5), rng)
    for gname in ("c8", "d8", "d6xc2", "d10_relabelled"):
        for i in range(2):
            yield f"{gname}_raw_{i}", _raw(groups[gname], rng.randrange(2, 6), rng)


def _outcome(check) -> list:
    return [[v.axiom, v.detail] for v in check.violations]


def outcomes(seed: int = 0) -> dict:
    return {name: _outcome(is_sring(p)) for name, p in sring_cases(seed)}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def test_pinned_violations_are_reproduced(pins):
    assert outcomes() == pins


def test_pins_cover_every_axiom(pins):
    failing = [v for v in pins.values() if v]
    assert len(failing) >= 50
    axioms = {axiom for v in failing for axiom, _ in v}
    assert axioms == {1, 2, 3}
    assert any(len(v) > 1 for v in failing)


@pytest.mark.parametrize("k", range(3, 11))
def test_closure_is_an_sring(cache, k):
    assert is_sring(cache.closure(k)).ok


def _reference_is_sring(p: SRingPartition) -> list:
    """_outcome of is_sring, by a convolution dict per ordered class pair."""
    g = p.group
    violations = []
    if p.class_containing(g.identity) != (g.identity,):
        violations.append([1, "the identity is not a class on its own"])
    for cls in p.classes:
        if tuple(sorted(g.inv[x] for x in cls)) not in p.classes:
            violations.append([2, f"inverse of class {{{', '.join(g.name(x) for x in cls)}}}"
                                  " is not a class"])
    if violations:
        return violations
    for cx in p.classes:
        for cy in p.classes:
            conv: dict[int, int] = {}
            for x in cx:
                for y in cy:
                    z = g.mult[x][y]
                    conv[z] = conv.get(z, 0) + 1
            for cls in p.classes:
                first = conv.get(cls[0], 0)
                for z in cls[1:]:
                    if conv.get(z, 0) != first:
                        return [[3, f"product of classes starting at {g.name(cx[0])},"
                                    f" {g.name(cy[0])} has coefficients {first} and"
                                    f" {conv.get(z, 0)} inside one class"
                                    f" ({g.name(cls[0])} vs {g.name(z)})"]]
    return []


@pytest.mark.parametrize("seed", [1, 2])
def test_outcomes_equal_the_reference_loop(seed):
    for name, p in sring_cases(seed):
        assert _outcome(is_sring(p)) == _reference_is_sring(p), name


def _bincount_axiom3(p: SRingPartition) -> list:
    """_outcome of is_sring for a partition satisfying axioms 1 and 2, by
    one bincount per class X over the pairs (x, y), x in X, y in G, keyed by
    class(y) * |G| + xy: the coefficient row of X*Y for every class Y at
    once, each coefficient compared with the one at the first element of
    its class."""
    g = p.group
    n, r = g.order, p.rank
    first = np.array([cls[0] for cls in p.classes], dtype=np.intp)[p.class_of]
    offset = p.class_of * n
    for cx in p.classes:
        coeff = np.bincount(
            (g.mult[list(cx)] + offset).ravel(), minlength=r * n
        ).reshape(r, n)
        bad = coeff != coeff[:, first]
        if bad.any():
            cy = int(np.flatnonzero(bad.any(axis=1))[0])
            z = min(np.flatnonzero(bad[cy]).tolist(), key=lambda z: (p.class_of[z], z))
            z0 = p.class_containing(z)[0]
            return [[3, f"product of classes starting at {g.name(cx[0])},"
                        f" {g.name(p.classes[cy][0])} has coefficients"
                        f" {coeff[cy, z0]} and {coeff[cy, z]} inside one class"
                        f" ({g.name(z0)} vs {g.name(z)})"]]
    return []


def _merged_closures(cache):
    """(name, partition): the closure of Gamma_k, k = 4, 6, 8, 16, with two
    classes other than {e} merged wherever the union is inverse-closed, so
    that axioms 1 and 2 hold and axiom 3 decides."""
    for k in (4, 6, 8, 16):
        g = cache.group(k)
        classes = [c for c in cache.closure(k).classes if c != (g.identity,)]
        for i, j in combinations(range(len(classes)), 2):
            union = tuple(sorted(classes[i] + classes[j]))
            if tuple(sorted(g.inv[list(union)].tolist())) != union:
                continue
            rest = [c for t, c in enumerate(classes) if t not in (i, j)]
            yield f"gamma{k}_merge_{i}_{j}", SRingPartition(g, [[g.identity], union, *rest])


def test_merged_closures_equal_the_bincount_reference(cache):
    cases = list(_merged_closures(cache))
    assert len(cases) == 1296
    for name, p in cases:
        assert _outcome(is_sring(p)) == _bincount_axiom3(p), name


PROPERTY_GROUPS = {
    "c7": cyclic_group(7),
    "c12": cyclic_group(12),
    "c70": cyclic_group(70),
    "c2^3": elementary_abelian(3),
    "c2^7": elementary_abelian(7),
    "d8": _dihedral(4),
    "d12": _dihedral(6),
    "c2xc4": _direct(cyclic_group(2), cyclic_group(4)),
    "d6xc2": _direct(_dihedral(3), cyclic_group(2)),
    "d10_relabelled": _relabel(_dihedral(5), random.Random(0)),
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(PROPERTY_GROUPS)), st.data())
def test_random_inverse_closed_partitions_equal_the_bincount_reference(name, data):
    g = PROPERTY_GROUPS[name]
    pairs = sorted({tuple(sorted((x, int(g.inv[x])))) for x in g.elements()
                    if x != g.identity})
    blocks = data.draw(st.integers(1, len(pairs)))
    dealt = data.draw(st.lists(st.integers(0, blocks - 1),
                               min_size=len(pairs), max_size=len(pairs)))
    classes: dict[int, list[int]] = {}
    for pair, block in zip(pairs, dealt):
        classes.setdefault(block, []).extend(pair)
    p = SRingPartition(g, [[g.identity], *classes.values()])
    assert _outcome(is_sring(p)) == _bincount_axiom3(p)


def dump(pins: dict) -> str:
    """pins as JSON text with one case per line."""
    return ("{\n" + ",\n".join(f" {json.dumps(name)}: {json.dumps(o)}"
                               for name, o in pins.items()) + "\n}\n")


if __name__ == "__main__":
    sys.stdout.write(dump(outcomes()))
