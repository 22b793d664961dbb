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
equals it. Two bounds keep the sequence exact. The products A u_j are
float64, and every entry of u_j is below p, so each row sum is an integer
below D * p < 2^53 (nomination is refused from D = 2^22 on). And s_j is
summed in Python integers, never as a float64 dot product. The sequence
stops once it holds 2L + 2 terms, L the current linear complexity, and is
abandoned as soon as L exceeds the number of distinct candidates the
certificate could accept: at most 2D + 1, and fewer when the product
prod (D + |lambda|) over the smallest factors reaches 2^53. So it takes at
most twice that number plus two terms, a few dozen matrix-vector products,
even on non-integral input.

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

P is applied to blocks of max(64, n // 8) columns of the identity
(_BLOCK_COLUMNS), one factor at a time, with float64 matrix products; the
partial products p_j(A) on the same blocks give the traces. The first
factor needs no product: its block is A's own columns with lambda_0
subtracted on the diagonal, so a block takes |C| - 1 products. Every entry
of every partial product is an integer bounded by prod (D + |lambda|),
because each factor has absolute row sums at most D + |lambda|. While that
bound is below 2^53 every float64 operation, whatever order BLAS sums in,
acts on integers it represents exactly, so the products, the zero test and
the traces are exact.

No n x n float64 copy of A is made on the certificate's path. Every
product of A, in the nomination and in the annihilator, goes through
_adjacency_product, which converts max(64, n // 8) rows of the boolean
adjacency to float64 at a time; each row of a block product sums the same
integer terms as the full product would, so both exactness arguments
above hold unchanged. Only the eigvalsh fallback below builds a float64 A.

When the nomination fails or the annihilator refuses it (the bound is
reached, P is not zero, or the solution is not a vector of non-negative
integers), numpy's eigvalsh nominates instead: its eigenvalues within
CANDIDATE_TOLERANCE of an integer are the candidates, and the others are
reported as unmatched. Their multiplicities are computed as exact nullities
of A - lambda*I over the rationals by integer row elimination
(cross-multiplication with per-row gcd reduction, which preserves rank),
and the dimension they leave unexplained is reported. The annihilator is
not tried again on the float candidates. For an integral graph they are
its distinct eigenvalues, which the Krylov sequence misses only for an
unlucky v, w (probability about L/p) or whose factors D + |lambda|
multiply past the entry bound, in which case the annihilator refuses them
as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from .graphs import _BLOCK_ROWS, Graph
from .wl import _splitmix64

CANDIDATE_TOLERANCE = 1e-6

# Fewest columns of the identity per block the annihilator is applied to,
# which takes max(_BLOCK_COLUMNS, n // 8): the working set is a few n x n/8
# float64 blocks, not n x n, and the number of blocks, each of which
# converts all of A to float64 once per product, stays at most 8 at large n.
_BLOCK_COLUMNS = 64

# Integers up to 2^53 in absolute value are exact in float64.
_FLOAT_EXACT = 2**53

# The Krylov nomination works modulo this prime. Its sequence entries are
# below it, so a float64 product sums at most D of them exactly while
# D < _KRYLOV_MAX_DEGREE: D * p < 2^22 * 2^31 = 2^53.
_KRYLOV_PRIME = 2**31 - 1
_KRYLOV_MAX_DEGREE = 2**22


@dataclass(frozen=True)
class IntegralSpectrum:
    """Certified integer eigenvalues with exact multiplicities, in
    decreasing eigenvalue order. Multiplicities sum to the vertex count."""

    pairs: tuple[tuple[int, int], ...]

    def eigenvalues(self) -> set[int]:
        return {lam for lam, _ in self.pairs}


@dataclass(frozen=True)
class NonIntegralVerdict:
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


def exact_nullity(matrix: list[list[int]]) -> int:
    return len(matrix) - integer_rank(matrix)


def _adjacency_product(adj: np.ndarray, x: np.ndarray, shift: int = 0) -> np.ndarray:
    """(A - shift*I) x in float64, for the 0/1 matrix A = adj and a float64
    vector or block x, with max(64, n // 8) rows of adj converted to float64
    at a time. Exact while every partial sum is an integer below 2^53 (module
    docstring)."""
    n = adj.shape[0]
    out = np.empty(x.shape)
    step = max(_BLOCK_ROWS, n // 8)
    for lo in range(0, n, step):
        rows = out[lo:lo + step]
        np.matmul(adj[lo:lo + step].astype(np.float64), x, out=rows)
        if shift:
            rows -= shift * x[lo:lo + step]
    return out


def _annihilator_multiplicities(
    adj: np.ndarray, candidates: list[int], max_degree: int
) -> Optional[list[int]]:
    """Exact multiplicities of the distinct integers `candidates` as
    eigenvalues of the symmetric 0/1 matrix adj (maximum row sum
    max_degree), or None when the certificate of the module docstring does
    not go through: the entry bound reaches 2^53, prod (A - lambda*I) is not
    zero, or the solved multiplicities are not non-negative integers."""
    bound = 1
    for lam in candidates:
        bound *= max_degree + abs(lam)
        if bound >= _FLOAT_EXACT:
            return None
    n = adj.shape[0]
    c = len(candidates)
    if c == 0:
        return None  # the empty product is I, never zero
    traces = [0] * c
    width = max(_BLOCK_COLUMNS, n // 8)
    for start in range(0, n, width):
        # p_0(A) = I on these columns has trace len(rows); p_1(A) = A - lambda_0 I
        # is A's own columns, converted to float64, with no product.
        block = adj[:, start:start + width].astype(np.float64)
        rows = np.arange(start, start + block.shape[1])
        cols = np.arange(len(rows))
        traces[0] += len(rows)
        block[rows, cols] -= candidates[0]
        for j in range(1, c):
            traces[j] += sum(int(x) for x in block[rows, cols].tolist())
            block = _adjacency_product(adj, block, candidates[j])
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


def _candidate_cap(max_degree: int) -> int:
    """Most distinct integers in [-D, D], D = max_degree, that one candidate
    set accepted by _annihilator_multiplicities can hold: the factors
    D + |lambda| taken smallest first while their product stays below 2^53."""
    cap, bound = 0, 1
    for t in range(2 * max_degree + 1):
        bound *= max_degree + (t + 1) // 2  # |lambda| = 0, 1, 1, 2, 2, ...
        if bound >= _FLOAT_EXACT:
            break
        cap += 1
    return cap


def _krylov_candidates(adj: np.ndarray, max_degree: int) -> Optional[list[int]]:
    """Distinct integers, decreasing, nominated as the eigenvalues of the
    symmetric 0/1 matrix adj (maximum row sum max_degree) by the
    Krylov sequence s_j = w . A^j v mod p and Berlekamp-Massey, or None when
    the nomination fails (module docstring). Untrusted: only the
    annihilator certifies."""
    if max_degree >= _KRYLOV_MAX_DEGREE:
        return None
    p = _KRYLOV_PRIME
    n = adj.shape[0]
    words = (_splitmix64(0, 2 * n) % np.uint64(p - 1) + np.uint64(1)).reshape(2, n)
    w = words[0].tolist()
    u = words[1].astype(np.float64)
    cap = _candidate_cap(max_degree)
    # Berlekamp-Massey over GF(p): conn is the connection polynomial of
    # linear complexity length, prev the one before the last length change,
    # prev_disc that change's discrepancy and shift the terms since it.
    s: list[int] = []
    conn, prev = [1], [1]
    length, shift, prev_disc = 0, 1, 1
    while len(s) < 2 * length + 2:
        if s:
            u = _adjacency_product(adj, u)
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
    prod over the candidates of (A - lambda*I) = 0, checked exactly in
    float64 while prod (D + |lambda|) < 2^53; the trace equations solved
    exactly), or else from exact integer elimination, one nullity per
    candidate. NonIntegralVerdict only ever comes from elimination.

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
        mults = _annihilator_multiplicities(g.adj, nominated, max_degree)
        if mults is not None:
            return _certified(nominated, mults)

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
    # lambda; exact_nullity works on a copy.
    shifted = g.adj.astype(np.int8).tolist()
    pairs = []
    for lam in ordered:
        for i in range(n):
            shifted[i][i] = -lam
        mult = exact_nullity(shifted)
        if mult > 0:
            pairs.append((lam, mult))

    total = sum(m for _, m in pairs)
    if total != n:
        return NonIntegralVerdict(tuple(pairs), n - total, tuple(unmatched))
    return IntegralSpectrum(tuple(pairs))


def _certified(candidates: list[int], mults: list[int]) -> IntegralSpectrum:
    """The certified pairs, candidates of multiplicity 0 dropped."""
    return IntegralSpectrum(tuple((lam, m) for lam, m in zip(candidates, mults) if m > 0))


def expected_eigenvalues(k: int) -> set[int]:
    """Eigenvalue set {2(k+1), 2(k-1), -2(k-1), 2, -2} of the family graph;
    the five values are pairwise distinct for every k >= 3."""
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    return {2 * (k + 1), 2 * (k - 1), -2 * (k - 1), 2, -2}
