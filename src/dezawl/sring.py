"""Schur-ring partitions of a finite group and their closure machinery.

An S-ring over G is given by a partition of G such that {e} is a class,
the inverse of every class is a class, and for every pair of classes X, Y
the convolution product of their class sums has a constant coefficient on
each class.

wl_closure computes the coarsest such partition in which the given marked
sets are unions of classes, by refinement from an initial partition.  Call
a partition admissible if it satisfies the axioms and has the marked sets
as unions of classes.  The refinement maintains, for every admissible Q,
the invariant that each current class is a union of classes of Q: the
initial classes are intersections of the marked sets, their inverses,
their complements and {e}, all unions of Q-classes; splitting along the
map x -> class(x^-1) intersects classes with inverses of unions of
Q-classes; and splitting along a coefficient fiber of a product of two
class sums intersects them with a fiber that is a union of Q-classes by
the Schur-Wielandt principle.  Each split is therefore forced, every
admissible partition refines the fixed point, and since the fixed point
itself is admissible it is the unique coarsest one.  The 2-WL pair
refinement in the wl module computes the same rank by an unrelated
algorithm and serves as a cross-oracle in the test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .group import Group, Section, Subgroup, is_normal, make_section
from .groupring import connection_set


class SRingPartition:
    """Partition of a group, candidate or verified S-ring.

    Classes are sorted element tuples in canonical order (size, then
    minimal element); class_of maps an element index to its class id.
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
        self.class_of = [-1] * group.order
        for cid, cls in enumerate(self.classes):
            for x in cls:
                if not 0 <= x < group.order:
                    raise ValueError(f"element {x} out of range")
                if self.class_of[x] != -1:
                    raise ValueError(f"element {group.name(x)} appears in two classes")
                self.class_of[x] = cid
        if any(c == -1 for c in self.class_of):
            missing = next(x for x in group.elements() if self.class_of[x] == -1)
            raise ValueError(f"element {group.name(missing)} not covered")

    @property
    def rank(self) -> int:
        return len(self.classes)

    def class_containing(self, x: int) -> tuple[int, ...]:
        return self.classes[self.class_of[x]]

    def is_union_of_classes(self, subset: Iterable[int]) -> bool:
        s = set(subset)
        return all(set(self.classes[self.class_of[x]]) <= s for x in s)

    def refines(self, other: "SRingPartition") -> bool:
        """True iff every class of self lies inside a class of other."""
        if self.group is not other.group:
            raise ValueError("partitions live over different groups")
        return all(
            len({other.class_of[x] for x in cls}) == 1 for cls in self.classes
        )

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
    Axiom 3 is then checked in Schur-Wielandt form: the convolution of every
    ordered pair of class sums must be constant on each class. For each class
    X, one bincount over the pairs (x, y), x in X, y in G, keyed by
    class(y) * |G| + xy, gives the coefficient row of X*Y for every class Y
    at once; every coefficient is compared with the one at the first element
    of its class. The check is exact and shares no code with the refinement
    in wl_closure. The first violation in the order (X, Y, class, element),
    classes in canonical order and elements ascending, is the one reported.
    """
    g = p.group
    violations: list[SRingViolation] = []

    if p.class_containing(g.identity) != (g.identity,):
        violations.append(
            SRingViolation(1, "the identity is not a class on its own")
        )

    all_classes = set(p.classes)
    for cls in p.classes:
        inv_set = tuple(sorted(g.inv[x] for x in cls))
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
    r = p.rank
    mult = np.asarray(g.mult, dtype=np.int64)
    class_of = np.asarray(p.class_of, dtype=np.int64)
    # first[z]: the first element of the class of z, against which the
    # coefficient at z is compared.
    first = np.array([cls[0] for cls in p.classes], dtype=np.int64)[class_of]
    offset = class_of * n
    for cx in p.classes:
        coeff = np.bincount(
            (mult[list(cx)] + offset).ravel(), minlength=r * n
        ).reshape(r, n)
        bad = coeff != coeff[:, first]
        if bad.any():
            cy = int(np.flatnonzero(bad.any(axis=1))[0])
            z = min(np.flatnonzero(bad[cy]).tolist(), key=lambda z: (p.class_of[z], z))
            z0 = p.class_containing(z)[0]
            return SRingCheck(False, [SRingViolation(
                3,
                f"product of classes starting at {g.name(cx[0])},"
                f" {g.name(p.classes[cy][0])} has coefficients"
                f" {coeff[cy, z0]} and {coeff[cy, z]} inside one class"
                f" ({g.name(z0)} vs {g.name(z)})",
            )])
    return SRingCheck(True, [])


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


def wl_closure(g: Group, marked: Sequence[Iterable[int]]) -> SRingPartition:
    """The coarsest S-ring partition of g in which every marked set is a
    union of classes (see the module docstring for why the result is the
    minimum and not merely some admissible partition)."""
    marked_sets = [frozenset(int(x) for x in m) for m in marked]
    for m in marked_sets:
        for x in m:
            if not 0 <= x < g.order:
                raise ValueError(f"marked element {x} out of range")
    refiner = _Refiner(g, marked_sets)
    refiner.run()
    return refiner.partition()


def _radical(mult: np.ndarray, in_x: np.ndarray) -> np.ndarray:
    """Mask of {h : Xh = hX = X} for the set X with membership mask in_x:
    h passes when every xh and every hx lies in X, since |Xh| = |hX| = |X|."""
    xs = np.flatnonzero(in_x)
    return in_x[mult[xs, :]].all(axis=0) & in_x[mult[:, xs]].all(axis=1)


def radical(g: Group, x: Iterable[int]) -> Subgroup:
    """The subgroup of two-sided stabilizers {h : Xh = hX = X}.

    It is {e} for X = {e} and the whole group for X = G or X empty.
    detect_wreath computes the radical of each class by the same helper.
    """
    in_x = np.zeros(g.order, dtype=bool)
    in_x[[int(v) for v in x]] = True
    members = np.flatnonzero(_radical(np.asarray(g.mult), in_x))
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


def _as_int(mask: np.ndarray) -> int:
    """The boolean mask as an int bitmask (bit x set iff mask[x])."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _as_mask(bits: int, n: int) -> np.ndarray:
    """The int bitmask as a boolean mask of length n."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").astype(bool)


def _generated(mult: np.ndarray, identity: int, mask: np.ndarray) -> np.ndarray:
    """Mask of the subgroup generated by the mask.

    H = {e} u mask is replaced by H*H, one gather of |H|^2 products, until
    its size stops changing. H*H contains H because e is in H, so the
    final H is closed under products and, being finite and containing e,
    a subgroup; every step doubles the word length reached, so there are
    O(log |H|) steps.
    """
    h = mask.copy()
    h[identity] = True
    size = np.count_nonzero(h)
    while True:
        idx = np.flatnonzero(h)
        h = np.zeros_like(h)
        h[mult[np.ix_(idx, idx)]] = True
        grown = np.count_nonzero(h)
        if grown == size:
            return h
        size = grown


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
    Subgroups are closed by repeated squaring on one integer copy of the
    multiplication table, and sets are kept as boolean masks with int
    bitmasks as set keys. The rank identity is asserted for every
    decomposition found.
    """
    g = p.group
    n = g.order
    mult = np.asarray(g.mult, dtype=np.intp)
    inv = np.asarray(g.inv, dtype=np.intp)
    full_mask = (1 << n) - 1
    identity_mask = 1 << g.identity

    cls = np.zeros((p.rank, n), dtype=bool)
    cls[p.class_of, np.arange(n)] = True
    rad = np.array([_radical(mult, row) for row in cls])

    def generated(mask: np.ndarray) -> np.ndarray:
        return _generated(mult, g.identity, mask)

    def normal_closure(row: np.ndarray) -> np.ndarray:
        """The smallest normal subgroup containing the row's elements: the
        subgroup generated by their conjugates y x y^-1."""
        conj = np.zeros(n, dtype=bool)
        conj[mult[mult[:, np.flatnonzero(row)], inv[:, None]]] = True
        return generated(conj)

    def inside(mask: np.ndarray) -> np.ndarray:
        """Which classes lie inside the mask."""
        return ~(cls & ~mask).any(axis=1)

    radicals: dict[int, np.ndarray] = {}
    for row in rad:
        radicals.setdefault(_as_int(row), row)
    normal: dict[int, int] = {}
    candidate_masks: set[int] = set()
    for rmask, r in radicals.items():
        if rmask == identity_mask or rmask == full_mask:
            continue
        gens = set()
        for cid in np.flatnonzero(inside(r)).tolist():
            if cid not in normal:
                normal[cid] = _as_int(normal_closure(cls[cid]))
            if normal[cid] & ~rmask == 0 and normal[cid] != identity_mask:
                gens.add(normal[cid])
        joins = set(gens)
        frontier = list(gens)
        while frontier:
            a = frontier.pop()
            for b in gens:
                j = _as_int(generated(_as_mask(a | b, n)))
                if j not in joins:
                    joins.add(j)
                    frontier.append(j)
        candidate_masks |= joins

    def a_closure(mask: np.ndarray) -> int:
        """Smallest union-of-classes subgroup containing the mask."""
        h = generated(mask)
        while True:
            grown = cls[cls[:, h].any(axis=1)].any(axis=0)
            if np.array_equal(grown, h):
                return _as_int(h)
            h = generated(grown)

    results: list[WreathDecomposition] = []
    whole = Subgroup(g, g.elements(), check=False)
    for lmask in sorted(candidate_masks):
        lm = _as_mask(lmask, n)
        l_elems = np.flatnonzero(lm).tolist()
        if not p.is_union_of_classes(l_elems):
            continue
        l_sub = Subgroup(g, l_elems, check=False)
        if not is_normal(g, l_sub):
            continue
        covered = cls[~(lm & ~rad).any(axis=1)].any(axis=0)
        u0 = a_closure(~covered | lm)
        if u0 == full_mask:
            continue
        uppers = {u0}
        frontier = [u0]
        while frontier:
            um = _as_mask(frontier.pop(), n)
            for cid in np.flatnonzero(~inside(um)).tolist():
                v = a_closure(um | cls[cid])
                if v != full_mask and v not in uppers:
                    uppers.add(v)
                    frontier.append(v)
        rank_quotient = section_sring(p, make_section(g, whole, l_sub)).rank
        for umask in sorted(uppers, key=lambda m: (m.bit_count(), m)):
            um = _as_mask(umask, n)
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
