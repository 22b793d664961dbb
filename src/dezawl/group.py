"""Finite groups as explicit multiplication tables.

Elements are plain integers indexing into the parent group's element list.
The multiplication table mult[x, y] = xy is one read-only n x n np.int32
array of 4 n^2 bytes and inv[x] = x^-1 one read-only np.int32 vector; the
entries are element indices below n, so int32 holds them exactly for any
table that fits in memory. Subgroups, cosets, normality and quotients are
gathers on them. A subgroup is a read-only boolean mask over the group,
and a section's projection a read-only np.intp vector. All set-valued
results use sorted index order, so outputs are deterministic. Groups,
subgroups and sections are immutable once constructed and safe to share
between workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


def _read_only(table, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The table as a new read-only np.int32 array of the given shape.

    Raises ValueError unless every entry lies in 0..n-1, n = shape[0]. The
    range is checked before narrowing, so an entry such as 2^32 is refused
    and never wraps to a valid index. The result is always a copy, so the
    caller's array is never frozen.
    """
    try:
        arr = np.asarray(table)
    except ValueError:
        raise ValueError(f"{what} table is ragged") from None
    if arr.shape != shape:
        raise ValueError(f"{what} table has shape {arr.shape}, expected {shape}")
    n = shape[0]
    if not 0 <= arr.min() <= arr.max() < n:
        bad = (arr < 0) | (arr >= n)
        raise ValueError(f"{what} entry {arr[bad][0]} out of range")
    arr = np.array(arr, dtype=np.int32)
    arr.setflags(write=False)
    return arr


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
        self.mult = _read_only(mult, (n, n), "mult")
        self.inv = _read_only(inv, (n,), "inv")
        self.identity = int(identity)
        if names is None:
            names = [str(i) for i in range(n)]
        if len(names) != n:
            raise ValueError("names length does not match group order")
        self.names = [str(s) for s in names]
        self._validate_tables()

    def _validate_tables(self) -> None:
        n, e, mult, inv = self.order, self.identity, self.mult, self.inv
        if not 0 <= e < n:
            raise ValueError(f"identity {e} out of range")
        x = np.arange(n)
        bad = (mult[e] != x) | (mult[:, e] != x)
        if bad.any():
            raise ValueError(f"identity {e} is not two-sided at element {np.argmax(bad)}")
        bad = (mult[x, inv] != e) | (mult[inv, x] != e)
        if bad.any():
            x = int(np.argmax(bad))
            raise ValueError(f"inv[{x}]={inv[x]} is not a two-sided inverse")

    def mul(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def elements(self) -> range:
        return range(self.order)

    def name(self, a: int) -> str:
        if not 0 <= a < self.order:
            raise ValueError(f"element {a} out of range")
        return self.names[a]

    def conjugate(self, g: int, x: int) -> int:
        """Return g * x * g^-1."""
        return int(self.mult[self.mult[g, x], self.inv[g]])

    def mask(self, xs: Iterable[int]) -> np.ndarray:
        """Boolean membership mask of the elements xs.

        Raises ValueError for an index outside 0..order-1, so -1 never wraps.
        """
        xs = [int(x) for x in xs]
        bad = [x for x in xs if not 0 <= x < self.order]
        if bad:
            raise ValueError(f"element {bad[0]} out of range")
        mask = np.zeros(self.order, dtype=bool)
        mask[xs] = True
        return mask

    def check_associativity(self, samples: int = 1000, seed: int = 0) -> bool:
        """Verify associativity, exhaustively up to order 64, sampled above.

        Returns True on success and raises ValueError on the first violating
        triple, so a silent False is never produced.
        """
        n = self.order
        if n <= 64:
            x, y, z = np.indices((n, n, n)).reshape(3, -1)
        else:
            rng = random.Random(seed)
            x, y, z = np.array([[rng.randrange(n) for _ in range(3)] for _ in range(samples)],
                               dtype=np.intp).reshape(-1, 3).T
        bad = self.mult[self.mult[x, y], z] != self.mult[x, self.mult[y, z]]
        if bad.any():
            t = int(np.argmax(bad))
            raise ValueError(f"associativity fails at ({x[t]}, {y[t]}, {z[t]})")
        return True

    def __repr__(self) -> str:
        return f"Group(order={self.order})"


class Subgroup:
    """Subgroup stored as a sorted index tuple plus a read-only boolean
    membership mask over the parent group."""

    def __init__(self, parent: Group, elements: Iterable[int], check: bool = True):
        self.parent = parent
        self.mask = parent.mask(elements)
        self.mask.setflags(write=False)
        self.elements = tuple(np.flatnonzero(self.mask).tolist())
        if check:
            self._validate()

    def _validate(self) -> None:
        g, inside = self.parent, self.mask
        if not inside[g.identity]:
            raise ValueError("subgroup must contain the identity")
        h = np.flatnonzero(inside)
        bad = ~inside[g.inv[h]]
        if bad.any():
            x = h[np.argmax(bad)]
            raise ValueError(f"subgroup not closed under inverse at {g.name(x)}")
        bad = ~inside[g.mult[np.ix_(h, h)]]
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(
                f"subgroup not closed under product at {g.name(h[i])}*{g.name(h[j])}"
            )

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.parent.order and bool(self.mask[x])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((id(self.parent), self.elements))

    def __le__(self, other: "Subgroup") -> bool:
        return not (self.mask & ~other.mask).any()

    def __repr__(self) -> str:
        shown = ", ".join(self.parent.name(x) for x in self.elements[:6])
        tail = ", ..." if self.order > 6 else ""
        return f"Subgroup(order={self.order}, {{{shown}{tail}}})"


@dataclass
class Section:
    """A quotient U/L together with the projection map from U.

    ``projection`` is a read-only np.intp vector over the group: the
    quotient element index for x in U and -1 outside. Coset representatives
    are the minimal element index per coset.
    """

    upper: Subgroup
    lower: Subgroup
    quotient: Group
    projection: np.ndarray
    representatives: tuple[int, ...]


def _generated(g: Group, mask: np.ndarray) -> np.ndarray:
    """Mask of the subgroup generated by the mask.

    H = {e} u mask is replaced by H*H, one gather of |H|^2 products, until
    its size stops changing. H*H contains H because e is in H, so the
    final H is closed under products and, being finite and containing e,
    a subgroup; every step doubles the word length reached, so there are
    O(log |H|) steps.

    As soon as H holds more than n/2 elements the whole group is returned
    without another gather. H lies in the generated subgroup throughout,
    whose order divides n by Lagrange's theorem, and a divisor of n above
    n/2 is n itself.
    """
    n = g.order
    h = mask.copy()
    h[g.identity] = True
    size = np.count_nonzero(h)
    while 2 * size <= n:
        idx = np.flatnonzero(h)
        h = np.zeros_like(h)
        h[g.mult[idx[:, None], idx]] = True
        grown = np.count_nonzero(h)
        if grown == size:
            return h
        size = grown
    return np.ones(n, dtype=bool)


def subgroup_generated(g: Group, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup of g containing gens, by the squaring closure.

    Raises ValueError for a generator outside 0..order-1.
    """
    return Subgroup(g, np.flatnonzero(_generated(g, g.mask(gens))).tolist(), check=False)


def _normalizes(g: Group, xs: np.ndarray, h: Subgroup) -> bool:
    """True iff x h x^-1 lies in h for every x in xs, by one gather of the
    conjugates. |x h x^-1| = |h|, so then x h x^-1 = h, that is xh = hx."""
    conj = g.mult[g.mult[xs[:, None], np.flatnonzero(h.mask)], g.inv[xs, None]]
    return bool(h.mask.take(conj).all())


def is_normal(g: Group, h: Subgroup) -> bool:
    """True iff xH = Hx for every x in g."""
    return _normalizes(g, np.arange(g.order), h)


def cosets(g: Group, h: Subgroup) -> list[tuple[int, ...]]:
    """Right cosets Hx of h in g as sorted tuples, ordered by minimal element.

    Column x of the sorted table mult[H, G] is Hx, and each coset is kept
    once, at the column of its minimal element.
    """
    cols = g.mult[h.mask]
    cols.sort(axis=0)
    own = cols[0] == np.arange(g.order)
    return [tuple(c) for c in cols[:, own].T.tolist()]


def make_section(g: Group, u: Subgroup, l: Subgroup) -> Section:
    """Quotient group U/L with its projection map.

    Raises ValueError unless l <= u and l is normal in u.
    """
    if not l <= u:
        raise ValueError("lower subgroup is not contained in the upper subgroup")
    upper = np.flatnonzero(u.mask)
    if not _normalizes(g, upper, l):
        raise ValueError("lower subgroup is not normal in the upper subgroup")
    # The coset Lx of x in U is column x of mult[L, U]; its representative
    # is its minimal element, and cosets are numbered by representative.
    mins = g.mult[np.ix_(l.elements, upper)].min(axis=0)
    reps = upper[mins == upper]
    projection = np.full(g.order, -1, dtype=np.intp)
    projection[upper] = np.searchsorted(reps, mins)
    projection.setflags(write=False)
    quotient = Group(
        projection.take(g.mult[reps[:, None], reps]),
        projection.take(g.inv[reps]),
        projection[g.identity],
        [g.name(r) for r in reps],
    )
    return Section(u, l, quotient, projection, tuple(reps.tolist()))


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
        # x = 8i + 4j + 2l + m. The product has exponent i1 + i2, or i1 - i2
        # when j1 = 1, and b, c, d bits j1 + j2, l1 + l2, m1 + m2 mod 2.
        # The int32 table is built in place: the bits low1 ^ low2 are added
        # for one column residue t = low2 = y mod 8 at a time, so no n x n
        # XOR temporary is formed.
        x = np.arange(8 * k, dtype=np.int32)
        i, low = x >> 3, x & 7
        sign = 1 - 2 * (low >> 2)
        mult = np.multiply.outer(sign, i)
        mult += i[:, None]
        mult %= k
        mult *= 8
        for t in range(8):
            mult[:, t::8] += (low ^ t)[:, None]
        # (a^i b^j)^-1 = a^i b if j = 1, else a^-i.
        inv = -sign * i % k * 8 + low
        names = [_family_name(i1, j1, l1, m1) for i1 in range(k)
                 for j1 in range(2) for l1 in range(2) for m1 in range(2)]
        super().__init__(mult, inv, 0, names)
        self.a = self.element(1)
        self.b = self.element(0, 1)
        self.c = self.element(0, 0, 1)
        self.d = self.element(0, 0, 0, 1)
        self._standard: Optional[StandardSubgroups] = None

    def element(self, i: int, j: int = 0, l: int = 0, m: int = 0) -> int:
        """Index of a^i b^j c^l d^m."""
        return (i % self.k) * 8 + (j % 2) * 4 + (l % 2) * 2 + m % 2

    def standard_subgroups(self) -> "StandardSubgroups":
        """The named subgroups used throughout the verification pipeline,
        built on the first call and shared by every later one."""
        if self._standard is None:
            self._standard = self._build_standard_subgroups()
        return self._standard

    def _build_standard_subgroups(self) -> "StandardSubgroups":
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


@dataclass(frozen=True)
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
