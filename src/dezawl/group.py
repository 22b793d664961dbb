"""Finite groups as explicit multiplication tables.

Elements are plain integers indexing into the parent group's element list.
All set-valued results use sorted index order, so outputs are deterministic.
Groups, subgroups and sections are immutable once constructed and safe to
share between workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


class Group:
    """Finite group given by 0-based multiplication and inverse tables."""

    def __init__(
        self,
        mult: Sequence[Sequence[int]],
        inv: Sequence[int],
        identity: int,
        names: Optional[Sequence[str]] = None,
    ) -> None:
        n = len(mult)
        if n == 0:
            raise ValueError("group must have at least one element")
        self.order = n
        self.mult = [list(row) for row in mult]
        self.inv = list(inv)
        self.identity = int(identity)
        if names is None:
            names = [str(i) for i in range(n)]
        if len(names) != n:
            raise ValueError("names length does not match group order")
        self.names = [str(s) for s in names]
        self._validate_tables()

    def _validate_tables(self) -> None:
        n = self.order
        for i, row in enumerate(self.mult):
            if len(row) != n:
                raise ValueError(f"mult row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not 0 <= x < n:
                    raise ValueError(f"mult entry {x} out of range")
        if len(self.inv) != n:
            raise ValueError("inv table length does not match order")
        e = self.identity
        for x in range(n):
            if self.mult[e][x] != x or self.mult[x][e] != x:
                raise ValueError(f"identity {e} is not two-sided at element {x}")
            y = self.inv[x]
            if not 0 <= y < n:
                raise ValueError(f"inv entry {y} out of range")
            if self.mult[x][y] != e or self.mult[y][x] != e:
                raise ValueError(f"inv[{x}]={y} is not a two-sided inverse")

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def elements(self) -> range:
        return range(self.order)

    def name(self, a: int) -> str:
        return self.names[a]

    def conjugate(self, g: int, x: int) -> int:
        """Return g * x * g^-1."""
        return self.mult[self.mult[g][x]][self.inv[g]]

    def check_associativity(self, samples: int = 1000, seed: int = 0) -> bool:
        """Verify associativity, exhaustively up to order 64, sampled above.

        Returns True on success and raises ValueError on the first violating
        triple, so a silent False is never produced.
        """
        n = self.order
        if n <= 64:
            triples: Iterable[tuple[int, int, int]] = (
                (x, y, z) for x in range(n) for y in range(n) for z in range(n)
            )
        else:
            rng = random.Random(seed)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(samples)
            )
        for x, y, z in triples:
            if self.mult[self.mult[x][y]][z] != self.mult[x][self.mult[y][z]]:
                raise ValueError(f"associativity fails at ({x}, {y}, {z})")
        return True

    def __repr__(self) -> str:
        return f"Group(order={self.order})"


class Subgroup:
    """Subgroup stored as a sorted index tuple plus a membership bitmap."""

    def __init__(self, parent: Group, elements: Iterable[int], check: bool = True):
        self.parent = parent
        elems = sorted(set(int(x) for x in elements))
        self.elements = tuple(elems)
        mask = 0
        for x in elems:
            if not 0 <= x < parent.order:
                raise ValueError(f"element {x} out of range")
            mask |= 1 << x
        self.bitmask = mask
        if check:
            self._validate()

    def _validate(self) -> None:
        g = self.parent
        if g.identity not in self:
            raise ValueError("subgroup must contain the identity")
        for x in self.elements:
            if g.inv[x] not in self:
                raise ValueError(f"subgroup not closed under inverse at {g.name(x)}")
            for y in self.elements:
                if g.mult[x][y] not in self:
                    raise ValueError(
                        f"subgroup not closed under product at {g.name(x)}*{g.name(y)}"
                    )

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return bool(self.bitmask >> x & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and self.bitmask == other.bitmask

    def __hash__(self) -> int:
        return hash((id(self.parent), self.bitmask))

    def __le__(self, other: "Subgroup") -> bool:
        return self.bitmask & ~other.bitmask == 0

    def __repr__(self) -> str:
        shown = ", ".join(self.parent.name(x) for x in self.elements[:6])
        tail = ", ..." if self.order > 6 else ""
        return f"Subgroup(order={self.order}, {{{shown}{tail}}})"


@dataclass
class Section:
    """A quotient U/L together with the projection map from U.

    ``projection[x]`` is the quotient element index for x in U and -1 outside.
    Coset representatives are the minimal element index per coset.
    """

    upper: Subgroup
    lower: Subgroup
    quotient: Group
    projection: list[int]
    representatives: tuple[int, ...]

    def project(self, x: int) -> int:
        q = self.projection[x]
        if q < 0:
            raise ValueError(f"element {x} is not in the upper subgroup")
        return q


def subgroup_generated(g: Group, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup of g containing gens (orbit closure under products)."""
    seen = {g.identity}
    frontier = [g.identity]
    gen_list = sorted(set(int(x) for x in gens))
    for x in gen_list:
        if x not in seen:
            seen.add(x)
            frontier.append(x)
    mult = g.mult
    while frontier:
        x = frontier.pop()
        for y in gen_list:
            for z in (mult[x][y], mult[y][x]):
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
    return Subgroup(g, seen, check=False)


def is_normal(g: Group, h: Subgroup) -> bool:
    """True iff xH = Hx for every x in g."""
    mult = g.mult
    for x in g.elements():
        left = 0
        right = 0
        for y in h.elements:
            left |= 1 << mult[x][y]
            right |= 1 << mult[y][x]
        if left != right:
            return False
    return True


def cosets(g: Group, h: Subgroup, side: str = "right") -> list[tuple[int, ...]]:
    """Cosets of h in g as sorted tuples, ordered by minimal element."""
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    seen = [False] * g.order
    out = []
    for x in g.elements():
        if seen[x]:
            continue
        if side == "right":
            coset = sorted(g.mult[y][x] for y in h.elements)
        else:
            coset = sorted(g.mult[x][y] for y in h.elements)
        for z in coset:
            seen[z] = True
        out.append(tuple(coset))
    return out


def make_section(g: Group, u: Subgroup, l: Subgroup) -> Section:
    """Quotient group U/L with its projection map.

    Raises ValueError unless l <= u and l is normal in u.
    """
    if not l <= u:
        raise ValueError("lower subgroup is not contained in the upper subgroup")
    # x * l * x^-1 lies in l iff x * l = l * x, both sets of |l| elements.
    # Both cosets of every x in u come from one gather over the rows of l:
    # l * x is column x, and x * l = (l * x^-1)^-1 as l is closed under inverses.
    inv = np.array(g.inv, dtype=np.intp)
    rows_l = np.array([g.mult[y] for y in l.elements], dtype=np.intp)
    upper = np.array(u.elements, dtype=np.intp)
    at = np.arange(len(upper))[:, None]
    in_right = np.zeros((len(upper), g.order), dtype=bool)  # [i, z]: z in l * upper[i]
    in_right[at, rows_l[:, upper].T] = True
    if not in_right[at, inv[rows_l[:, inv[upper]]].T].all():
        raise ValueError("lower subgroup is not normal in the upper subgroup")

    projection = [-1] * g.order
    reps: list[int] = []
    for x in u.elements:
        if projection[x] >= 0:
            continue
        coset = sorted(g.mult[y][x] for y in l.elements)
        rep_index = len(reps)
        for z in coset:
            projection[z] = rep_index
        reps.append(coset[0])

    # Renumber cosets by minimal representative for a deterministic quotient.
    order = sorted(range(len(reps)), key=lambda i: reps[i])
    relabel = [0] * len(reps)
    for new_id, old_id in enumerate(order):
        relabel[old_id] = new_id
    reps = [reps[i] for i in order]
    for x in u.elements:
        projection[x] = relabel[projection[x]]

    q = len(reps)
    qmult = [[0] * q for _ in range(q)]
    for i in range(q):
        for j in range(q):
            qmult[i][j] = projection[g.mult[reps[i]][reps[j]]]
    qinv = [projection[g.inv[reps[i]]] for i in range(q)]
    qid = projection[g.identity]
    qnames = [g.name(r) for r in reps]
    quotient = Group(qmult, qinv, qid, qnames)
    return Section(u, l, quotient, projection, tuple(reps))


def _family_name(i: int, j: int, l: int, m: int) -> str:
    if i == 0 and j == 0 and l == 0 and m == 0:
        return "e"
    parts = []
    if i == 1:
        parts.append("a")
    elif i > 1:
        parts.append(f"a^{i}")
    if j:
        parts.append("b")
    if l:
        parts.append("c")
    if m:
        parts.append("d")
    return "".join(parts)


class FamilyGroup(Group):
    """The group (C_k x| C_2) x C_2 x C_2, i.e. D_2k x C2 x C2.

    Generators a (order k), b, c, d (order 2) with b a b = a^-1 and c, d
    central. Elements are carried in the normal form a^i b^j c^l d^m,
    indexed lexicographically by (i, j, l, m).
    """

    def __init__(self, k: int) -> None:
        if k < 3:
            raise ValueError(f"k must be at least 3, got {k}")
        self.k = k
        n = 8 * k

        def idx(i: int, j: int, l: int, m: int) -> int:
            return ((i % k) * 2 + j % 2) * 4 + (l % 2) * 2 + m % 2

        mult = [[0] * n for _ in range(n)]
        inv = [0] * n
        names = [""] * n
        for i1 in range(k):
            for j1 in range(2):
                for l1 in range(2):
                    for m1 in range(2):
                        x = idx(i1, j1, l1, m1)
                        names[x] = _family_name(i1, j1, l1, m1)
                        # (a^i b^j)^-1 = a^i b if j = 1, else a^-i.
                        inv[x] = idx(i1 if j1 else -i1, j1, l1, m1)
                        for i2 in range(k):
                            for j2 in range(2):
                                for l2 in range(2):
                                    for m2 in range(2):
                                        y = idx(i2, j2, l2, m2)
                                        i3 = i1 - i2 if j1 else i1 + i2
                                        mult[x][y] = idx(i3, j1 + j2, l1 + l2, m1 + m2)
        super().__init__(mult, inv, idx(0, 0, 0, 0), names)
        self.a = idx(1, 0, 0, 0)
        self.b = idx(0, 1, 0, 0)
        self.c = idx(0, 0, 1, 0)
        self.d = idx(0, 0, 0, 1)
        self._idx = idx

    def element(self, i: int, j: int = 0, l: int = 0, m: int = 0) -> int:
        """Index of a^i b^j c^l d^m."""
        return self._idx(i, j, l, m)

    def standard_subgroups(self) -> "StandardSubgroups":
        """The named subgroups used throughout the verification pipeline."""
        a, b, c = self.a, self.b, self.c
        sub_a = subgroup_generated(self, [a])
        sub_c = subgroup_generated(self, [c])
        sub_h = subgroup_generated(self, [a, b])
        a_sq = self.element(2)
        sub_a1 = subgroup_generated(self, [a_sq])
        cb = self.mul(c, b)
        sub_l = subgroup_generated(self, [a_sq, cb])
        ca = self.mul(c, a)
        da = self.mul(self.d, a)
        sub_u = subgroup_generated(self, list(sub_l.elements) + [ca, da])
        return StandardSubgroups(sub_a, sub_a1, sub_c, sub_h, sub_l, sub_u)


@dataclass
class StandardSubgroups:
    """Named subgroups of a FamilyGroup: A = <a>, A1 = <a^2>, C = <c>,
    H = <a, b>, L = A1 <cb>, U = <L, ca, da>."""

    a: Subgroup
    a1: Subgroup
    c: Subgroup
    h: Subgroup
    l: Subgroup
    u: Subgroup


def family_group(k: int) -> FamilyGroup:
    """Build the order-8k group D_2k x C2 x C2 in normal form.

    Raises ValueError for k < 3.
    """
    return FamilyGroup(k)
