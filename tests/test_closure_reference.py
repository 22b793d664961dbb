"""The S-ring closure against a pure-Python worklist reference.

wl_closure refines by synchronous array rounds. _Refiner below is the
worklist refinement it replaced: it splits one class at a time, along the
inverse map and along the coefficient fibers of every product of two class
sums, until a full pass splits nothing. Both compute the coarsest S-ring in
which the marked sets are unions of classes, so their partitions must be
equal on every case: random marked sets over family groups and over
table-built cyclic, dihedral and direct-product groups, some of them not
inverse-closed, no marked set at all, and a marked set holding the identity.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Sequence

import pytest

from conftest import cyclic_group
from dezawl import Group, SRingPartition, family_group, wl_closure
from test_sring_pins import _dihedral, _direct, _relabel


class _Refiner:
    """Worklist-driven partition refinement toward the minimal S-ring."""

    def __init__(self, group: Group, marked: Sequence[frozenset[int]]):
        self.g = group
        n = group.order
        sigs: dict[tuple, list[int]] = {}
        for x in range(n):
            sig = (
                x == group.identity,
                tuple(x in m for m in marked),
                tuple(group.inv[x] in m for m in marked),
            )
            sigs.setdefault(sig, []).append(x)
        self.classes: dict[int, list[int]] = {}
        self.class_of = [0] * n
        self.next_id = 0
        for sig in sorted(sigs):
            cid = self.next_id
            self.next_id += 1
            self.classes[cid] = sorted(sigs[sig])
            for x in sigs[sig]:
                self.class_of[x] = cid
        self.queue: deque[int] = deque()
        self.queued: set[int] = set()

    def _enqueue(self, cid: int) -> None:
        if cid not in self.queued:
            self.queued.add(cid)
            self.queue.append(cid)

    def _split(self, cid: int, parts: list[list[int]]) -> None:
        del self.classes[cid]
        self.queued.discard(cid)
        for part in parts:
            nid = self.next_id
            self.next_id += 1
            part.sort()
            self.classes[nid] = part
            for x in part:
                self.class_of[x] = nid
            self._enqueue(nid)

    def _refine_by_inverses(self) -> bool:
        """Split classes so that the class of the inverse is constant."""
        changed = False
        inv = self.g.inv
        for cid in list(self.classes):
            cls = self.classes.get(cid)
            if cls is None:
                continue
            buckets: dict[int, list[int]] = {}
            for x in cls:
                buckets.setdefault(self.class_of[inv[x]], []).append(x)
            if len(buckets) > 1:
                self._split(cid, list(buckets.values()))
                changed = True
        return changed

    def _refine_by_product(self, cx: int, cy: int) -> bool:
        """Split classes along the coefficient fibers of class_sum(cx) *
        class_sum(cy), intersected with the current classes."""
        xs = self.classes.get(cx)
        ys = self.classes.get(cy)
        if xs is None or ys is None:
            return False
        mult = self.g.mult
        conv: dict[int, int] = {}
        for x in xs:
            row = mult[x]
            for y in ys:
                z = row[y]
                conv[z] = conv.get(z, 0) + 1
        touched: dict[int, dict[int, list[int]]] = {}
        for z, c in conv.items():
            touched.setdefault(self.class_of[z], {}).setdefault(c, []).append(z)
        changed = False
        for cid, buckets in touched.items():
            cls = self.classes[cid]
            in_support = sum(len(b) for b in buckets.values())
            if in_support < len(cls):
                buckets.setdefault(0, []).extend(
                    z for z in cls if z not in conv
                )
            if len(buckets) > 1:
                self._split(cid, list(buckets.values()))
                changed = True
        return changed

    def run(self) -> None:
        for cid in list(self.classes):
            self._enqueue(cid)
        while True:
            while self.queue:
                cid = self.queue.popleft()
                self.queued.discard(cid)
                if cid not in self.classes:
                    continue
                self._refine_by_inverses()
                for other in list(self.classes):
                    if cid not in self.classes:
                        break
                    self._refine_by_product(cid, other)
                    self._refine_by_product(other, cid)
            # Fixed point is declared only when a full pass splits nothing.
            changed = self._refine_by_inverses()
            for cx in list(self.classes):
                for cy in list(self.classes):
                    changed |= self._refine_by_product(cx, cy)
            if not changed:
                break

    def partition(self) -> SRingPartition:
        return SRingPartition(self.g, self.classes.values())


def reference_closure(g: Group, marked: list[list[int]]) -> SRingPartition:
    refiner = _Refiner(g, [frozenset(m) for m in marked])
    refiner.run()
    return refiner.partition()


def _random_marked(g: Group, rng: random.Random) -> list[list[int]]:
    """A random inverse-closed set and, in about 30% of the cases, a second
    random set that is not closed under inverses."""
    density = rng.choice((0.05, 0.1, 0.2, 0.4))
    s: set[int] = set()
    for x in g.elements():
        if x != g.identity and rng.random() < density:
            s |= {x, g.inv[x]}
    marked = [sorted(s)]
    if rng.random() < 0.3:
        involutions = {x for x in g.elements() if g.inv[x] == x}
        if len(involutions) < g.order:
            x = rng.choice([x for x in g.elements() if x not in involutions])
            extra = set(rng.sample(range(g.order), rng.randrange(0, 4)))
            marked.append(sorted((extra | {x}) - {g.inv[x]}))
    return marked


def closure_cases(seed: int):
    """(name, group, marked sets) triples drawn from the seed."""
    rng = random.Random(seed)
    for k in (3, 4, 5, 6, 8, 10):
        g = family_group(k)
        for i in range(3):
            yield f"family{k}_random_{i}", g, _random_marked(g, rng)
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
        "d10_relabelled": _relabel(_dihedral(5), rng),
    }
    for gname, g in groups.items():
        for i in range(2):
            yield f"{gname}_random_{i}", g, _random_marked(g, rng)
        yield f"{gname}_unmarked", g, []
        yield f"{gname}_with_identity", g, [
            [g.identity] + rng.sample([x for x in g.elements() if x != g.identity], 2)
        ]


def test_cases_reach_sets_that_are_not_inverse_closed():
    cases = [c for seed in (0, 1) for c in closure_cases(seed)]
    skew = [name for name, g, marked in cases
            if any({g.inv[x] for x in m} != set(m) for m in marked)]
    assert len(skew) >= 8


@pytest.mark.parametrize("seed", [0, 1])
def test_closure_equals_the_worklist_reference(seed):
    for name, g, marked in closure_cases(seed):
        assert wl_closure(g, marked) == reference_closure(g, marked), name
