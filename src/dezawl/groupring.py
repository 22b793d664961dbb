"""Exact integer group-ring arithmetic and the family connection set.

A GroupRingElement is a sparse formal sum of group elements with integer
coefficients. Products are convolutions computed exactly; Python integers
never overflow, so no range guard is needed.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional

from .group import FamilyGroup, Group


class GroupRingElement:
    """Sparse integer-coefficient formal sum over a group.

    Zero coefficients are never stored.
    """

    __slots__ = ("group", "coeffs")

    def __init__(self, group: Group, coeffs: Optional[Mapping[int, int]] = None):
        self.group = group
        self.coeffs: dict[int, int] = {}
        if coeffs:
            for x, c in coeffs.items():
                if c != 0:
                    self.coeffs[int(x)] = int(c)

    def __getitem__(self, x: int) -> int:
        return self.coeffs.get(x, 0)

    def support(self) -> frozenset[int]:
        return frozenset(self.coeffs)

    def _check_same_group(self, other: "GroupRingElement") -> None:
        if self.group is not other.group:
            raise ValueError("operands live over different groups")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_same_group(other)
        out = dict(self.coeffs)
        for x, c in other.coeffs.items():
            v = out.get(x, 0) + c
            if v:
                out[x] = v
            else:
                out.pop(x, None)
        return GroupRingElement(self.group, out)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.group, {x: -c for x, c in self.coeffs.items()})

    def scaled(self, factor: int) -> "GroupRingElement":
        if factor == 0:
            return GroupRingElement(self.group)
        return GroupRingElement(
            self.group, {x: factor * c for x, c in self.coeffs.items()}
        )

    def __mul__(self, other):
        if isinstance(other, GroupRingElement):
            return multiply(self, other)
        if isinstance(other, int):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.group is other.group and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for x in sorted(self.coeffs):
            c = self.coeffs[x]
            name = self.group.name(x)
            terms.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(terms)


def simple_quantity(group: Group, x: Iterable[int]) -> GroupRingElement:
    """The formal sum of the elements of x, each with coefficient 1."""
    coeffs = {}
    for g in x:
        if not 0 <= g < group.order:
            raise ValueError(f"element {g} out of range")
        coeffs[int(g)] = 1
    return GroupRingElement(group, coeffs)


def multiply(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """Convolution product: coefficient of g is sum over uv = g of x_u y_v."""
    x._check_same_group(y)
    mult = x.group.mult
    vs = list(y.coeffs)
    out: dict[int, int] = {}
    for u, cu in x.coeffs.items():
        for g, cv in zip(mult[u, vs].tolist(), y.coeffs.values()):
            out[g] = out.get(g, 0) + cu * cv
    return GroupRingElement(x.group, {g: c for g, c in out.items() if c != 0})


def coefficient_fibers(xi: GroupRingElement) -> dict[int, frozenset[int]]:
    """Group the elements of G by their coefficient in xi.

    The fiber of 0 (the complement of the support) is included whenever it is
    nonempty, so the fibers always partition the group.
    """
    fibers: dict[int, set[int]] = {}
    for x, c in xi.coeffs.items():
        fibers.setdefault(c, set()).add(x)
    rest = set(xi.group.elements()) - set(xi.coeffs)
    if rest:
        fibers.setdefault(0, set()).update(rest)
    return {c: frozenset(s) for c, s in fibers.items()}


def connection_set(g: Group, k: int) -> frozenset[int]:
    """The inverse-closed connection set S of size 2(k+1).

    S = b(A minus {a^-1}) union c(A union {b}) union {db, dcba^-1}.
    Requires g to be the FamilyGroup for the same k.
    """
    if not isinstance(g, FamilyGroup) or g.k != k:
        raise ValueError("group was not built by family_group(k)")
    a, b, c, d = g.a, g.b, g.c, g.d
    a_inv = g.inverse(a)
    a_pows = [g.element(i) for i in range(k)]
    s: set[int] = set()
    for x in a_pows:
        if x != a_inv:
            s.add(g.mul(b, x))
    for x in a_pows:
        s.add(g.mul(c, x))
    s.add(g.mul(c, b))
    s.add(g.mul(d, b))
    s.add(g.mul(g.mul(g.mul(d, c), b), a_inv))
    return frozenset(s)


class SquareIdentityResult(NamedTuple):
    """Outcome of the closed-form check of S^2, with the first discrepancy
    (element name, convolution coefficient, closed-form coefficient)."""

    holds: bool
    discrepancy: Optional[tuple[str, int, int]]


def verify_square_identity(
    g: Group, k: int, s: Optional[Iterable[int]] = None
) -> SquareIdentityResult:
    """Check S^2 = 2(k+1)e + 2(k-1)(A# + cbA) + 2(b+c)A + 2dCH exactly.

    The left side is the convolution of the connection set sum with itself;
    the right side is assembled independently from the subgroups A, C, H.
    An explicit s overrides the connection set (used for negative controls).
    """
    if not isinstance(g, FamilyGroup) or g.k != k:
        raise ValueError("group was not built by family_group(k)")
    if s is None:
        s = connection_set(g, k)
    s_bar = simple_quantity(g, s)
    lhs = multiply(s_bar, s_bar)

    subs = g.standard_subgroups()
    a_bar = simple_quantity(g, subs.a.elements)
    c_bar = simple_quantity(g, subs.c.elements)
    h_bar = simple_quantity(g, subs.h.elements)
    e = simple_quantity(g, [g.identity])
    a_sharp = a_bar - e
    cb = simple_quantity(g, [g.mul(g.c, g.b)])
    b_plus_c = simple_quantity(g, [g.b]) + simple_quantity(g, [g.c])
    d_elt = simple_quantity(g, [g.d])

    rhs = (
        e.scaled(2 * (k + 1))
        + (a_sharp + multiply(cb, a_bar)).scaled(2 * (k - 1))
        + multiply(b_plus_c, a_bar).scaled(2)
        + multiply(d_elt, multiply(c_bar, h_bar)).scaled(2)
    )

    if lhs == rhs:
        return SquareIdentityResult(True, None)
    for x in sorted(set(lhs.coeffs) | set(rhs.coeffs)):
        if lhs[x] != rhs[x]:
            return SquareIdentityResult(False, (g.name(x), lhs[x], rhs[x]))
    raise AssertionError("unreachable: elements differ but no coefficient does")
