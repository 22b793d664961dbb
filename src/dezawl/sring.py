"""Schur-ring partitions of a finite group and their closure machinery.

An S-ring over G is given by a partition of G such that {e} is a class,
the inverse of every class is a class, and for every pair of classes X, Y
the convolution product of their class sums has a constant coefficient on
each class.

wl_closure computes the coarsest such partition in which the given marked
sets are unions of classes, by synchronous rounds on one class vector.  The
initial classes are the signatures (z = e, z in M, z^-1 in M for each
marked set M).  A round gives every z the key

    (class(z), class(z^-1), the multiset of (class(x), class(y)) over xy = z)

and the new classes are the key classes.  The key keeps class(z), so each
round refines the last, and the rounds stop when the number of classes
stays the same, that is when a round splits nothing.

The fixed point is an S-ring.  The multiset of z counts, for every pair
of classes (X, Y), the solutions of xy = z with x in X and y in Y, which is
the coefficient of z in the product of the class sums of X and Y.  A stable
partition keeps it constant on each class: axiom 3.  {e} is a class from
the start.  class(z^-1) is constant on each class C, so C^-1 lies in one
class D; the same holds for D, and D^-1 contains C, so D^-1 = C and
C^-1 = D: the partition is inverse-closed.

The fixed point is the minimal one.  Call a partition Q admissible if it
satisfies the axioms and has the marked sets as unions of classes.  Every
current class is a union of Q-classes, by induction over the rounds.  The
initial classes are intersections of the marked sets, their inverses,
their complements and {e}, all unions of Q-classes.  If each current class
is a union of Q-classes, its class sum lies in the span of Q, a ring, so
every product of two class sums has a coefficient constant on each
Q-class (the Schur-Wielandt principle), and class(z^-1) is constant on each
Q-class because Q is inverse-closed.  So the key is constant on Q-classes
and every split is forced.  Every admissible partition therefore refines
the fixed point, which is itself admissible, so it is the unique coarsest
one.  The 2-WL pair refinement in the wl module computes the same rank by
an unrelated algorithm and serves as a cross-oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .group import Group, Section, Subgroup, _generated, is_normal, make_section
from .groupring import connection_set


class SRingPartition:
    """Partition of a group, candidate or verified S-ring.

    Classes are sorted element tuples in canonical order (size, then
    minimal element); class_of is a read-only np.intp vector mapping each
    element index to its class id.
    """

    def __init__(self, group: Group, classes: Iterable[Iterable[int]]):
        self.group = group
        canon = sorted(
            (tuple(sorted(set(int(x) for x in cls))) for cls in classes),
            key=lambda t: (len(t), t),
        )
        if canon and not canon[0]:
            raise ValueError("empty class")
        self.classes: tuple[tuple[int, ...], ...] = tuple(canon)
        members = [x for cls in canon for x in cls]
        covered = group.mask(members)
        twice = np.bincount(members, minlength=group.order) > 1
        if twice.any():
            raise ValueError(f"element {group.name(np.argmax(twice))} appears in two classes")
        if not covered.all():
            raise ValueError(f"element {group.name(np.argmin(covered))} not covered")
        self.class_of = np.empty(group.order, dtype=np.intp)
        self.class_of[members] = np.repeat(np.arange(len(canon)), [len(c) for c in canon])
        self.class_of.setflags(write=False)

    @property
    def rank(self) -> int:
        return len(self.classes)

    def class_containing(self, x: int) -> tuple[int, ...]:
        if not 0 <= x < self.group.order:
            raise ValueError(f"element {x} out of range")
        return self.classes[self.class_of[x]]

    def is_union_of_classes(self, subset: Iterable[int]) -> bool:
        """True iff every class meeting the subset lies inside it.

        Raises ValueError for an element outside 0..order-1.
        """
        met = np.bincount(self.class_of[self.group.mask(subset)], minlength=self.rank)
        sizes = np.bincount(self.class_of, minlength=self.rank)
        return bool(((met == 0) | (met == sizes)).all())

    def refines(self, other: "SRingPartition") -> bool:
        """True iff every class of self lies inside a class of other, that
        is iff there are as many distinct (own id, other id) pairs as
        classes of self."""
        if self.group is not other.group:
            raise ValueError("partitions live over different groups")
        pairs = self.class_of * other.rank + other.class_of
        return len(set(pairs.tolist())) == self.rank

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SRingPartition):
            return NotImplemented
        return self.group is other.group and self.classes == other.classes

    def __repr__(self) -> str:
        return f"SRingPartition(rank={self.rank}, |G|={self.group.order})"


@dataclass(frozen=True)
class SRingViolation:
    axiom: int
    detail: str


@dataclass
class SRingCheck:
    ok: bool
    violations: list[SRingViolation] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def is_sring(p: SRingPartition) -> SRingCheck:
    """Validate the three S-ring axioms on a candidate partition.

    Axioms 1 and 2 are checked first and every violation of them is listed.
    Axiom 3 is then checked as one sorted multiset per element. The
    coefficient of z in the product of the class sums of X and Y is
    #{x in X : x^-1 z in Y}, so every such product is constant on each
    class exactly when the multiset {(class(x), class(x^-1 z)) : x in G} is
    the same for z as for the first element of z's class.  Writing
    x = w^-1, the codes class(w^-1) * r + class(wz), over r classes, are
    read from column z of the multiplication table; they are built 64
    elements z at a time, each row is sorted, and the row of the first
    element of a class (its minimum, so reached no later than the others)
    is stored for the rest of the class to be compared with. That is
    O(n^2 log n) time and one r x n int32 table of stored rows plus one
    block. The codes stay below r^2 <= n^2, exact in int32 while
    n^2 < 2^31; larger groups raise ValueError.

    Mathematically this is the stability test of one wl_closure round, so
    it is kept independent of wl_closure, which it rechecks: it uses no
    _sorted_rows and no _class_ids, it reads pairs (x, x^-1 z) from the
    columns of the table rather than pairs (z y^-1, y) from permuted rows,
    and it compares each row with its first element's row instead of
    renumbering keys.

    The first violation in the order (X, Y, class, element), classes in
    canonical order and elements ascending, is the one reported. For a
    rejected z, the first position where its sorted row and the row of its
    first element differ holds, in the smaller of the two entries, the
    least code X * r + Y, that is the least pair (X, Y), whose coefficient
    differs; the least (code, class, element) over the rejected elements
    names the violation.
    """
    g = p.group
    violations: list[SRingViolation] = []

    if p.class_containing(g.identity) != (g.identity,):
        violations.append(
            SRingViolation(1, "the identity is not a class on its own")
        )

    all_classes = set(p.classes)
    for cls in p.classes:
        inv_set = tuple(sorted(g.inv[list(cls)].tolist()))
        if inv_set not in all_classes:
            violations.append(
                SRingViolation(
                    2,
                    f"inverse of class {{{', '.join(g.name(x) for x in cls)}}}"
                    " is not a class",
                )
            )

    if violations:
        return SRingCheck(False, violations)

    n = g.order
    if n * n >= 2**31:
        raise ValueError(f"group order {n} too large for int32 class codes")
    r = p.rank
    cls = p.class_of.astype(np.int32)
    left = cls[g.inv] * np.int32(r)
    first = np.array([c[0] for c in p.classes], dtype=np.intp)[p.class_of]

    def rows(zs: np.ndarray) -> np.ndarray:
        """Row i: the sorted codes class(w^-1) * r + class(w zs[i]) over w."""
        codes = cls[g.mult.T[zs]]
        codes += left
        codes.sort(axis=1)
        return codes

    stored = np.empty((r, n), dtype=np.int32)
    rejected: list[tuple[int, int, int]] = []  # (least differing code, class, z)
    for lo in range(0, n, 64):
        zs = np.arange(lo, min(lo + 64, n))
        block = rows(zs)
        own = first[zs] == zs
        stored[cls[zs[own]]] = block[own]
        differ = block != stored[cls[zs]]
        bad = np.flatnonzero(differ.any(axis=1))
        if bad.size:
            at = differ[bad].argmax(axis=1)
            codes = np.minimum(block[bad, at], stored[cls[zs[bad]], at])
            rejected += zip(codes.tolist(), cls[zs[bad]].tolist(), zs[bad].tolist())
    if not rejected:
        return SRingCheck(True, [])
    code, _, z = min(rejected)
    z0 = int(first[z])
    row, row0 = rows(np.array([z, z0]))
    cx, cy = divmod(code, r)
    return SRingCheck(False, [SRingViolation(
        3,
        f"product of classes starting at {g.name(p.classes[cx][0])},"
        f" {g.name(p.classes[cy][0])} has coefficients"
        f" {np.count_nonzero(row0 == code)} and {np.count_nonzero(row == code)}"
        f" inside one class ({g.name(z0)} vs {g.name(z)})",
    )])


def _class_ids(keys: Iterable) -> np.ndarray:
    """int32 class ids of the keys, numbered by first occurrence."""
    ids: dict = {}
    return np.fromiter((ids.setdefault(key, len(ids)) for key in keys), dtype=np.int32)


def _sorted_rows(quot: np.ndarray, cls: np.ndarray, rank: int):
    """The bytes of each row z of the codes cls[z y^-1] * rank + cls[y],
    sorted. Rows are built 64 at a time, so no n x n array of codes is
    held next to quot and the keys."""
    for lo in range(0, len(quot), 64):
        codes = cls[quot[lo:lo + 64]]
        codes *= rank
        codes += cls
        codes.sort(axis=1)
        yield from map(bytes, codes)


def wl_closure(g: Group, marked: Sequence[Iterable[int]]) -> SRingPartition:
    """The coarsest S-ring partition of g in which every marked set is a
    union of classes, by the synchronous rounds of the module docstring,
    which also proves the result the minimum and not merely some admissible
    partition.

    quot[z, y] = z y^-1 is one n x n int32 copy of the multiplication
    table with its columns permuted in place, so (z y^-1, y) runs over the
    pairs with product z. With r classes, a round writes the codes
    cls[z y^-1] * r + cls[y] 64 rows at a time and sorts each row in place.
    The key of z is its sorted row with the pair (cls[z], cls[z^-1]), and
    keys are numbered by first occurrence. Each round but the last adds a
    class, so there are at most n rounds, each O(n^2 log n) time. Memory is
    O(n^2) int32: quot and one row of codes per distinct key. The codes
    stay below r^2 <= n^2, exact in int32 while n^2 < 2^31; larger groups
    raise ValueError, as does a marked element outside 0..order-1.
    """
    n = g.order
    if n * n >= 2**31:
        raise ValueError(f"group order {n} too large for int32 class codes")
    inv = g.inv
    member = np.zeros((n, len(marked)), dtype=bool)
    for i, m in enumerate(marked):
        member[:, i] = g.mask(m)
    cls = _class_ids(zip(
        np.arange(n) == g.identity, map(bytes, member), map(bytes, member[inv])
    ))
    quot = g.mult.astype(np.int32)
    for row in quot:
        row[:] = row[inv]
    rank = int(cls.max()) + 1
    while True:
        keys = zip(cls.tolist(), cls[inv].tolist(), _sorted_rows(quot, cls, rank))
        cls = _class_ids(keys)
        grown = int(cls.max()) + 1
        if grown == rank:
            break
        rank = grown
    classes: list[list[int]] = [[] for _ in range(rank)]
    for x, c in enumerate(cls.tolist()):
        classes[c].append(x)
    return SRingPartition(g, classes)


def _radical(g: Group, in_x: np.ndarray) -> np.ndarray:
    """Mask of {h : Xh = hX = X} for the set X with membership mask in_x:
    h passes when every xh and every hx lies in X, since |Xh| = |hX| = |X|."""
    xs = np.flatnonzero(in_x)
    return in_x[g.mult[xs, :]].all(axis=0) & in_x[g.mult[:, xs]].all(axis=1)


def radical(g: Group, x: Iterable[int]) -> Subgroup:
    """The subgroup of two-sided stabilizers {h : Xh = hX = X}.

    It is {e} for X = {e} and the whole group for X = G or X empty.
    detect_wreath computes the radical of each class by the same helper.
    Raises ValueError for an element outside 0..order-1.
    """
    members = np.flatnonzero(_radical(g, g.mask(x)))
    return Subgroup(g, members.tolist(), check=False)


def section_sring(p: SRingPartition, s: Section) -> SRingPartition:
    """The induced partition of U/L from the classes of p inside U.

    Two cosets of L belong to the same induced class iff every class of p
    inside U meets them in the same number of elements; this is exactly the
    basic-set partition of the projected span. Requires U and L to be
    unions of classes of p.
    """
    if not p.is_union_of_classes(s.upper.elements):
        raise ValueError("upper subgroup is not a union of classes")
    if not p.is_union_of_classes(s.lower.elements):
        raise ValueError("lower subgroup is not a union of classes")
    # counts[coset, class]: the elements of the class in the coset.  U is a
    # union of classes, so a class outside U has an all-zero column.
    upper = np.flatnonzero(s.upper.mask)
    counts = np.zeros((s.quotient.order, p.rank), dtype=np.intp)
    np.add.at(counts, (s.projection[upper], p.class_of[upper]), 1)
    buckets: dict[bytes, list[int]] = {}
    for coset, row in enumerate(counts):
        buckets.setdefault(row.tobytes(), []).append(coset)
    return SRingPartition(s.quotient, buckets.values())


@dataclass
class WreathDecomposition:
    """A section U/L realizing the generalized wreath structure, together
    with the three ranks entering the rank identity
    rank = rank_u + rank_quotient - rank_section."""

    section: Section
    rank_u: int
    rank_quotient: int
    rank_section: int

    def summary(self) -> dict:
        return {
            "lower_order": self.section.lower.order,
            "upper_order": self.section.upper.order,
            "rank_u": self.rank_u,
            "rank_quotient": self.rank_quotient,
            "rank_section": self.rank_section,
        }


def detect_wreath(p: SRingPartition) -> list[WreathDecomposition]:
    """All nontrivial generalized wreath decompositions of a valid S-ring.

    A pair (U, L) qualifies when both are unions of classes, L is normal in
    the whole group, {e} < L <= U < G, and L lies in the radical of every
    class outside U. Candidate L are found inside class radicals (any valid
    L sits inside the radical of some class outside U), so S-rings whose
    classes all have trivial radical are rejected without any enumeration.

    Candidates inside a radical R (neither {e} nor G) come from the normal
    closures N_X of the classes X inside R: those N_X that lie in R, and
    every join of them. A union-of-classes normal subgroup L with
    {e} < L <= R contains N_X for each class X inside L and is covered by
    those classes, so it is the join of those N_X, all of which lie in R;
    conversely every such join is a normal subgroup inside R. After the
    union-of-classes and normality filters the candidates are therefore
    exactly the union-of-classes normal subgroups {e} < L <= R, the same
    set as filtering every subgroup of R, without enumerating the
    subgroups of R (there are exponentially many on elementary abelian
    radicals).

    For each L, the upper groups U are the smallest union-of-classes
    subgroup holding L and every class whose radical misses L, and every
    union-of-classes subgroup grown from it by adding classes, short of G.
    Subgroups are closed by repeated squaring on the group's multiplication
    table. Sets are boolean masks, kept in dicts keyed by their bytes, so
    the search order does not matter: the results are sorted at the end.
    The rank identity is asserted for every decomposition found.
    """
    g = p.group
    n = g.order
    mult, inv = g.mult, g.inv

    cls = np.zeros((p.rank, n), dtype=bool)
    cls[p.class_of, np.arange(n)] = True
    rad = np.array([_radical(g, row) for row in cls])

    def normal_closure(row: np.ndarray) -> np.ndarray:
        """The smallest normal subgroup containing the row's elements: the
        subgroup generated by their conjugates y x y^-1."""
        conj = np.zeros(n, dtype=bool)
        conj[mult[mult[:, np.flatnonzero(row)], inv[:, None]]] = True
        return _generated(g, conj)

    def inside(mask: np.ndarray) -> np.ndarray:
        """Which classes lie inside the mask."""
        return ~(cls & ~mask).any(axis=1)

    radicals: dict[bytes, np.ndarray] = {}
    for row in rad:
        radicals.setdefault(row.tobytes(), row)
    normal: dict[int, np.ndarray] = {}
    candidates: dict[bytes, np.ndarray] = {}
    for r in radicals.values():
        if not 1 < np.count_nonzero(r) < n:  # the radical is {e} or G
            continue
        gens: dict[bytes, np.ndarray] = {}
        for cid in np.flatnonzero(inside(r)).tolist():
            if cid not in normal:
                normal[cid] = normal_closure(cls[cid])
            nc = normal[cid]
            if not (nc & ~r).any() and np.count_nonzero(nc) > 1:
                gens.setdefault(nc.tobytes(), nc)
        joins = dict(gens)
        frontier = list(gens.values())
        while frontier:
            a = frontier.pop()
            for b in gens.values():
                j = _generated(g, a | b)
                if joins.setdefault(j.tobytes(), j) is j:
                    frontier.append(j)
        candidates.update(joins)

    def a_closure(mask: np.ndarray) -> np.ndarray:
        """Smallest union-of-classes subgroup containing the mask."""
        h = _generated(g, mask)
        while True:
            grown = cls[cls[:, h].any(axis=1)].any(axis=0)
            if np.array_equal(grown, h):
                return h
            h = _generated(g, grown)

    results: list[WreathDecomposition] = []
    whole = Subgroup(g, g.elements(), check=False)
    for lm in candidates.values():
        l_elems = np.flatnonzero(lm).tolist()
        if not p.is_union_of_classes(l_elems):
            continue
        l_sub = Subgroup(g, l_elems, check=False)
        if not is_normal(g, l_sub):
            continue
        covered = cls[~(lm & ~rad).any(axis=1)].any(axis=0)
        u0 = a_closure(~covered | lm)
        if np.count_nonzero(u0) == n:
            continue
        uppers = {u0.tobytes(): u0}
        frontier = [u0]
        while frontier:
            um = frontier.pop()
            for cid in np.flatnonzero(~inside(um)).tolist():
                v = a_closure(um | cls[cid])
                if np.count_nonzero(v) < n and uppers.setdefault(v.tobytes(), v) is v:
                    frontier.append(v)
        rank_quotient = section_sring(p, make_section(g, whole, l_sub)).rank
        for um in uppers.values():
            u_sub = Subgroup(g, np.flatnonzero(um).tolist(), check=False)
            sec = make_section(g, u_sub, l_sub)
            rank_u = int(np.count_nonzero(inside(um)))
            rank_section = section_sring(p, sec).rank
            if p.rank != rank_u + rank_quotient - rank_section:
                raise RuntimeError(
                    "wreath rank identity fails for |L|="
                    f"{l_sub.order}, |U|={u_sub.order}"
                )
            results.append(
                WreathDecomposition(sec, rank_u, rank_quotient, rank_section)
            )
    results.sort(
        key=lambda w: (w.section.lower.order, w.section.upper.order,
                       w.section.lower.elements, w.section.upper.elements)
    )
    return results


@dataclass
class TraceAssertion:
    name: str
    expected: tuple[str, ...]
    observed: tuple[str, ...]
    holds: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": list(self.expected),
            "observed": list(self.observed),
            "holds": self.holds,
        }


@dataclass
class ClosureTrace:
    """Outcome of the forced-singleton and coset assertions on the closure
    of the family graph's connection set."""

    k: int
    rank: int
    entries: list[TraceAssertion]
    all_classes_singletons: bool

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "rank": self.rank,
            "all_hold": self.all_hold,
            "all_classes_singletons": self.all_classes_singletons,
            "assertions": [e.to_dict() for e in self.entries],
        }


def closure_trace(g, k: int) -> ClosureTrace:
    """Assert the singleton classes forced by the closure of the connection
    set: {cb}, {ca}, {da^-1}, {a^2}, all of A1, and for even k also {da}
    and the four cosets of L outside U as unions of classes."""
    s = connection_set(g, k)
    closure = wl_closure(g, [s])
    subs = g.standard_subgroups()

    def names(xs):
        return tuple(sorted(g.name(x) for x in xs))

    entries: list[TraceAssertion] = []

    def singleton(name: str, x: int) -> None:
        cls = closure.class_containing(x)
        entries.append(
            TraceAssertion(name, (g.name(x),), names(cls), cls == (x,))
        )

    cb = g.mul(g.c, g.b)
    ca = g.mul(g.c, g.a)
    da = g.mul(g.d, g.a)
    da_inv = g.mul(g.d, g.inverse(g.a))
    a_sq = g.element(2)
    singleton("cb_is_singleton", cb)
    singleton("ca_is_singleton", ca)
    singleton("da_inverse_is_singleton", da_inv)
    singleton("a_squared_is_singleton", a_sq)

    a1 = subs.a1.elements
    a1_union = sorted({y for x in a1 for y in closure.class_containing(x)})
    entries.append(
        TraceAssertion(
            "a1_elements_are_singletons",
            names(a1),
            names(a1_union),
            all(closure.class_containing(x) == (x,) for x in a1),
        )
    )

    if k % 2 == 0:
        singleton("da_is_singleton", da)
        cda = g.mul(g.mul(g.c, g.d), g.a)
        for label, rep in (("Lc", g.c), ("La", g.a), ("Ld", g.d), ("Lcda", cda)):
            coset = sorted(g.mul(x, rep) for x in subs.l.elements)
            observed = sorted({y for x in coset for y in closure.class_containing(x)})
            entries.append(
                TraceAssertion(
                    f"coset_{label}_is_class_union",
                    names(coset),
                    names(observed),
                    closure.is_union_of_classes(coset),
                )
            )

    singles = all(len(cls) == 1 for cls in closure.classes)
    return ClosureTrace(k, closure.rank, entries, singles)
