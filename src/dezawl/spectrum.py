"""Exact integral-spectrum certification.

Candidate eigenvalues are only nominated; the certificate itself is exact.
The nomination is untrusted: a candidate set that misses an eigenvalue
makes the annihilator below refuse (P != 0), and a candidate that is no
eigenvalue gets multiplicity 0 and is dropped. A wrong nomination can
therefore only send integral_spectrum on to its next path, never change
its result.

The nomination needs no eigensolver (Wiedemann, IEEE Trans. Inf. Theory
1986). With p = 2^31 - 1 and v, w vectors of entries in [1, p) drawn from
the fixed-seed splitmix64 generator, it forms u_0 = v, u_{j+1} = A u_j mod p
and s_j = w . u_j mod p, finds the minimal polynomial of the sequence (s_j)
over GF(p) by Berlekamp-Massey (Massey, IEEE Trans. Inf. Theory 1969), and
nominates the integers lambda in [-D, D], D the maximum degree, at which
that polynomial vanishes mod p, provided there are exactly as many as its
degree L. It divides the minimal polynomial of A, and for almost every v, w
equals it. The products A u_j follow the exactness rule below, and s_j is
summed in Python integers, never as a float64 dot product. The sequence
stops once it holds 2L + 2 terms, L the current linear complexity. L never
exceeds the number of distinct eigenvalues, and those of an integral A are
distinct integers in [-D, D] whose squares sum to at most tr A^2, the arc
count. So the sequence is abandoned as soon as L exceeds the smaller of
2D + 1 and the largest L whose L smallest squares of distinct integers,
0, 1, 1, 4, 4, ..., sum to at most the arc count: about (12 tr A^2)^(1/3).
It takes at most twice that cap plus 2 terms, even on non-integral input.

Given a candidate set C, integral_spectrum proves that the product
P = prod_{lambda in C} (A - lambda*I) is the zero matrix. A is real
symmetric, hence diagonalizable, so its minimal polynomial has simple
roots, namely its distinct eigenvalues; P = 0 means that polynomial divides
prod (x - lambda), so every eigenvalue of A lies in C. Writing
A = sum lambda*E_lambda with E_lambda the orthogonal projection onto the
lambda-eigenspace, of rank m_lambda (0 when lambda is no eigenvalue), gives
tr p(A) = sum m_lambda p(lambda) for every polynomial p. Taking the Newton
basis p_j = prod_{i<j} (x - lambda_i), j < |C|, these |C| equations are the
Vandermonde system sum m_lambda lambda^j = tr(A^j) after a unit-triangular
change of basis; they are triangular in the m_lambda, and the unique
solution, found by exact integer back substitution, is the vector of
multiplicities, i.e. of the nullities of A - lambda*I.

P is applied to eight blocks of columns of the identity, one factor at a
time, with float64 matrix products, so the working set is a few n x n/8
float64 blocks, not n x n; the partial products p_j(A) on the same blocks
give the traces. The first factor needs no product: its block is A's own
columns with lambda_0 subtracted on the diagonal, so a block takes |C| - 1
products.

On a vertex-transitive graph one column decides everything (Godsil and
Royle, Algebraic Graph Theory, 2001, ch. 3). integral_spectrum reads the
automorphisms the graph carries (Graph.automorphisms), so every graph built
by cayley_graph or grid_graph qualifies; if graphs._transitive accepts
them (each a permutation with A[p][:, p] = A, the group they generate
transitive), only the column block (0, 1) is taken:
- every q(A) commutes with the permutation matrix P_s of each s in that
  group, so if s(0) = v then P(A) e_v = P(A) P_s e_0 = P_s P(A) e_0, and
  P(A) = 0 iff P(A) e_0 = 0;
- likewise p_j(A)_vv = p_j(A)_00 for every v, so tr p_j(A) = n p_j(A)_00,
  and the trace equations and their solution are unchanged.
Transitivity is enough; the graph need not be a Cayley graph (the Petersen
graph is not). This takes |C| - 1 products of one column, O(|C| n^2) work
against O(|C| n^3), under the same exactness rule. Any graph whose carried
automorphisms _transitive refuses, or that carries none, takes the eight
blocks, with the same result.

Exactness has one rule, checked as each product runs. Every product of A
is one call of _adjacency_product(adj, x, D, shift). It converts the
boolean adjacency to float64 in eight row blocks, so only the eigvalsh
fallback below builds an n x n float64 A, and it returns (A - shift*I) x
only if (D + |shift|) * max|x| < 2^53, else None. For an exact integer x
this is sound: row i of A has at most D ones, so every partial sum of
(A x)_ij, and that sum less shift * x_ij, is an integer of absolute value
at most (D + |shift|) * max|x| < 2^53, which float64 holds exactly,
whatever order BLAS sums in, with or without FMA. Each x is exact: the Krylov
vector reduced mod p (entries below p < 2^31), an earlier checked product,
or the annihilator's first block, whose entries a_ij and a_ii - lambda_0
come from no product. Rounding is monotone and 2^53 is a float, so entries
that round below 2^53 are exact, and a larger lambda_0 is caught before a
trace is used: if |C| = 1 by the zero test, exact anyway, and else by the
rule on the next product, as D + |lambda_1| >= 1. In the one exception,
D = lambda_1 = 0, A = 0 makes every later block exactly 0, and lambda_1's
trace equation asks lambda_0 to divide n * fl(lambda_0), which for
fl(lambda_0) != lambda_0 needs n >= 2^53.

When the nomination fails or the annihilator refuses it (a product is
refused, P is not zero, or the solution is not a vector of non-negative
integers), numpy's eigvalsh nominates instead: its eigenvalues within
CANDIDATE_TOLERANCE of an integer are the candidates, and the others are
reported as unmatched. Their multiplicities are computed as exact nullities
of A - lambda*I over the rationals by integer row elimination
(cross-multiplication with per-row gcd reduction, which preserves rank),
and the dimension they leave unexplained is reported. The annihilator is
not tried again on the float candidates. For an integral graph they are
its distinct eigenvalues, which the annihilator has already refused unless
the Krylov sequence failed: for an unlucky v, w (probability about L/p), or
when D * max|u_j| reached 2^53.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional

import numpy as np

from .graphs import Graph, _row_blocks, _transitive
from .wl import _splitmix64

CANDIDATE_TOLERANCE = 1e-6

# Integers up to 2^53 in absolute value are exact in float64.
_FLOAT_EXACT = 2**53

# The Krylov nomination works modulo this prime.
_KRYLOV_PRIME = 2**31 - 1


class IntegralSpectrum(NamedTuple):
    """Certified integer eigenvalues with exact multiplicities, in
    decreasing eigenvalue order. Multiplicities sum to the vertex count."""

    pairs: tuple[tuple[int, int], ...]

    def eigenvalues(self) -> set[int]:
        return {lam for lam, _ in self.pairs}


class NonIntegralVerdict(NamedTuple):
    """Certified part of the spectrum plus the dimension that could not be
    attributed to any integer eigenvalue."""

    certified: tuple[tuple[int, int], ...]
    residual_dimension: int
    unmatched: tuple[float, ...]


def integer_rank(matrix: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, computed exactly.

    Row elimination uses cross-multiplication (row <- pivot*row -
    factor*pivot_row) followed by division of each row by its gcd; both
    operations preserve the row space up to nonzero scaling.
    """
    m = [row[:] for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank_count = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = -1
        best = 0
        for r in range(pivot_row, n_rows):
            v = abs(m[r][col])
            if v and (pivot < 0 or v < best):
                pivot, best = r, v
        if pivot < 0:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        prow = m[pivot_row]
        pval = prow[col]
        for r in range(pivot_row + 1, n_rows):
            row = m[r]
            f = row[col]
            if f == 0:
                continue
            for c in range(col, n_cols):
                row[c] = pval * row[c] - f * prow[c]
            g = 0
            for c in range(col, n_cols):
                g = gcd(g, row[c])
                if g == 1:
                    break
            if g > 1:
                for c in range(col, n_cols):
                    row[c] //= g
        pivot_row += 1
        rank_count += 1
        if pivot_row == n_rows:
            break
    return rank_count


def _adjacency_product(
    adj: np.ndarray, x: np.ndarray, max_degree: int, shift: int = 0
) -> Optional[np.ndarray]:
    """(A - shift*I) x in float64, for the 0/1 matrix A = adj of maximum row
    sum max_degree and an exact integer-valued float64 vector or block x,
    with adj converted to float64 in eight row blocks. None unless
    (max_degree + |shift|) * max|x| < 2^53, which makes every partial sum
    an exact integer (module docstring)."""
    if (max_degree + abs(shift)) * int(max(x.max(), -x.min())) >= _FLOAT_EXACT:
        return None
    out = np.empty(x.shape)
    for lo, hi in _row_blocks(adj.shape[0]):
        rows = out[lo:hi]
        np.matmul(adj[lo:hi].astype(np.float64), x, out=rows)
        if shift:
            rows -= shift * x[lo:hi]
    return out


def _annihilator_multiplicities(
    adj: np.ndarray, candidates: list[int], max_degree: int, transitive: bool = False
) -> Optional[list[int]]:
    """Exact multiplicities of the distinct integers `candidates` as
    eigenvalues of the symmetric 0/1 matrix adj (maximum row sum
    max_degree), or None when the certificate of the module docstring does
    not go through: a product is refused as inexact, prod (A - lambda*I) is
    not zero, or the solved multiplicities are not non-negative integers.
    transitive says that automorphisms of adj, checked by the caller, act
    transitively on the vertices; then column 0 alone is taken and its
    diagonal entry stands for all n."""
    c = len(candidates)
    if c == 0:
        return None  # the empty product is I, never zero
    n = adj.shape[0]
    blocks, weight = ([(0, 1)], n) if transitive else (_row_blocks(n), 1)
    traces = [0] * c
    for start, stop in blocks:
        # p_0(A) = I on these columns has trace len(rows); p_1(A) = A - lambda_0 I
        # is A's own columns, converted to float64, with no product.
        block = adj[:, start:stop].astype(np.float64)
        rows = np.arange(start, stop)
        cols = np.arange(len(rows))
        traces[0] += weight * len(rows)
        block[rows, cols] -= candidates[0]
        for j in range(1, c):
            traces[j] += weight * sum(int(x) for x in block[rows, cols].tolist())
            block = _adjacency_product(adj, block, max_degree, candidates[j])
            if block is None:
                return None
        if block.any():
            return None
    # Equation j: sum_{i >= j} m_i * p_j(lambda_i) = traces[j], since
    # p_j(lambda_i) = 0 for i < j; solved from j = c - 1 down.
    mults = [0] * c
    for j in range(c - 1, -1, -1):
        rest = traces[j]
        for i in range(j + 1, c):
            rest -= mults[i] * _newton(candidates, j, candidates[i])
        m, remainder = divmod(rest, _newton(candidates, j, candidates[j]))
        if remainder or m < 0:
            return None
        mults[j] = m
    return mults


def _newton(candidates: list[int], j: int, x: int) -> int:
    """p_j(x) = prod_{i<j} (x - candidates[i])."""
    value = 1
    for lam in candidates[:j]:
        value *= x - lam
    return value


def _krylov_candidates(adj: np.ndarray, max_degree: int) -> Optional[list[int]]:
    """Distinct integers, decreasing, nominated as the eigenvalues of the
    symmetric 0/1 matrix adj (maximum row sum max_degree) by the
    Krylov sequence s_j = w . A^j v mod p and Berlekamp-Massey, or None when
    the nomination fails: L passes the most distinct eigenvalues an integral
    A can have, a product is refused as inexact, or the minimal polynomial
    lacks L integer roots (module docstring). Untrusted: only the
    annihilator certifies."""
    p = _KRYLOV_PRIME
    n = adj.shape[0]
    # cap: the most distinct eigenvalues an integral A can have (module
    # docstring), from the squares 0, 1, 1, 4, 4, ... of distinct integers.
    arcs = int(np.count_nonzero(adj))
    cap = squares = 0
    while cap < 2 * max_degree + 1 and squares + ((cap + 1) // 2) ** 2 <= arcs:
        squares += ((cap + 1) // 2) ** 2
        cap += 1
    words = _splitmix64(0, 2 * n, p).reshape(2, n)
    w = words[0].tolist()
    u = words[1].astype(np.float64)
    # Berlekamp-Massey over GF(p): conn is the connection polynomial of
    # linear complexity length, prev the one before the last length change,
    # prev_disc that change's discrepancy and shift the terms since it.
    s: list[int] = []
    conn, prev = [1], [1]
    length, shift, prev_disc = 0, 1, 1
    while len(s) < 2 * length + 2:
        if s:
            u = _adjacency_product(adj, u, max_degree)
            if u is None:
                return None
            np.fmod(u, p, out=u)
        s.append(sum(map(int.__mul__, w, u.astype(np.int64).tolist())) % p)
        i = len(s) - 1
        disc = sum(c * s[i - j] for j, c in enumerate(conn)) % p
        if disc == 0:
            shift += 1
            continue
        coef = disc * pow(prev_disc, -1, p) % p
        new = conn + [0] * (len(prev) + shift - len(conn))
        for j, b in enumerate(prev):
            new[j + shift] = (new[j + shift] - coef * b) % p
        if 2 * length <= i:
            prev, prev_disc, length, shift = conn, disc, i + 1 - length, 1
            if length > cap:
                return None
        else:
            shift += 1
        conn = new
    # The minimal polynomial is x^L + conn[1] x^(L-1) + ... + conn[L].
    coeffs = (conn + [0] * length)[:length + 1]
    lams = np.arange(max_degree, -max_degree - 1, -1, dtype=np.int64)
    x = lams % p
    value = np.zeros_like(x)
    for c in coeffs:
        value *= x  # below p^2 < 2^62
        value += c
        value %= p
    roots = lams[value == 0].tolist()
    return roots if len(roots) == length else None


def integral_spectrum(g: Graph):
    """Certify that all adjacency eigenvalues of g are integers.

    Returns an IntegralSpectrum with exact multiplicities, or a
    NonIntegralVerdict when the certified multiplicities do not account for
    every dimension. Multiplicities come from the annihilating-polynomial
    certificate (see the module docstring: A symmetric, so diagonalizable;
    prod over the candidates of (A - lambda*I) = 0, checked in float64
    products that each prove their own exactness; the trace equations
    solved exactly), or else from exact integer elimination, one nullity per
    candidate. NonIntegralVerdict only ever comes from elimination.

    The automorphisms g carries only shorten the certificate. Each is
    checked exactly to be an automorphism of g; if all are and the group
    they generate is transitive, the annihilator takes column 0 alone
    (module docstring), as it does on every Cayley graph and grid.
    Otherwise it takes all eight column blocks; the result is the same
    either way.

    The candidates are the exact Krylov nomination. eigvalsh runs only when
    that nomination fails or the annihilator refuses it; its
    integer-rounded eigenvalues then go to elimination, which also reports
    the unmatched floats.
    """
    if g.directed:
        raise ValueError("spectrum certification requires an undirected graph")
    n = g.n
    if n == 0:
        return IntegralSpectrum(())

    max_degree = int(g.adj.sum(axis=1).max())
    nominated = _krylov_candidates(g.adj, max_degree)
    if nominated is not None:
        mults = _annihilator_multiplicities(
            g.adj, nominated, max_degree, _transitive(g.adj, g.automorphisms))
        if mults is not None:
            return IntegralSpectrum(tuple((lam, m) for lam, m in zip(nominated, mults) if m > 0))

    floats = np.linalg.eigvalsh(g.adj.astype(np.float64))
    candidates: set[int] = set()
    unmatched: list[float] = []
    for x in floats:
        r = round(float(x))
        if abs(x - r) <= CANDIDATE_TOLERANCE:
            candidates.add(int(r))
        else:
            unmatched.append(float(x))
    ordered = sorted(candidates, reverse=True)

    # One list of A - lambda*I, its (zero) diagonal overwritten for each
    # lambda; integer_rank works on a copy.
    shifted = g.adj.astype(np.int8).tolist()
    pairs = []
    for lam in ordered:
        for i in range(n):
            shifted[i][i] = -lam
        mult = n - integer_rank(shifted)
        if mult > 0:
            pairs.append((lam, mult))

    total = sum(m for _, m in pairs)
    if total != n:
        return NonIntegralVerdict(tuple(pairs), n - total, tuple(unmatched))
    return IntegralSpectrum(tuple(pairs))


def expected_eigenvalues(k: int) -> set[int]:
    """Eigenvalue set {2(k+1), 2(k-1), -2(k-1), 2, -2} of the family graph;
    the five values are pairwise distinct for every k >= 3."""
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    return {2 * (k + 1), 2 * (k - 1), -2 * (k - 1), 2, -2}
