"""Exact integral-spectrum certification.

Floating point only nominates: the eigenvalues numpy computes that lie
within CANDIDATE_TOLERANCE of an integer form the candidate set C. The
certificate itself is exact.

When every float was matched to a candidate, integral_spectrum proves that
the product P = prod_{lambda in C} (A - lambda*I) is the zero matrix. A is
real symmetric, hence diagonalizable, so its minimal polynomial has simple
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

P is applied to blocks of _BLOCK_COLUMNS columns of the identity, one
factor at a time, with float64 matrix products; the partial products
p_j(A) on the same blocks give the traces. Every entry of every partial
product is an integer bounded by prod (D + |lambda|), D the maximum degree,
because each factor has absolute row sums at most D + |lambda|. While that
bound is below 2^53 every float64 operation, whatever order BLAS sums in,
acts on integers it represents exactly, so the products, the zero test and
the traces are exact.

When a float is unmatched, the bound is reached, P is not zero, or the
solution is not a vector of non-negative integers, the multiplicities are
instead computed as exact nullities of A - lambda*I over the rationals by
integer row elimination (cross-multiplication with per-row gcd reduction,
which preserves rank), and the dimension they leave unexplained is reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from .graphs import Graph

CANDIDATE_TOLERANCE = 1e-6

# Columns of the identity per block the annihilator is applied to: the
# working set is n * _BLOCK_COLUMNS floats, not n * n.
_BLOCK_COLUMNS = 64

# Integers up to 2^53 in absolute value are exact in float64.
_FLOAT_EXACT = 2**53


@dataclass(frozen=True)
class IntegralSpectrum:
    """Certified integer eigenvalues with exact multiplicities, in
    decreasing eigenvalue order. Multiplicities sum to the vertex count."""

    pairs: tuple[tuple[int, int], ...]

    def eigenvalues(self) -> set[int]:
        return {lam for lam, _ in self.pairs}

    def multiplicity(self, lam: int) -> int:
        for value, mult in self.pairs:
            if value == lam:
                return mult
        return 0

    def to_dict(self) -> dict:
        n = sum(m for _, m in self.pairs)
        trace_sum = sum(lam * m for lam, m in self.pairs)
        second_moment = sum(lam * lam * m for lam, m in self.pairs)
        return {
            "pairs": [[lam, mult] for lam, mult in self.pairs],
            "n": n,
            "trace_sum": trace_sum,
            "trace_is_zero": trace_sum == 0,
            "second_moment": second_moment,
        }


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


def _annihilator_multiplicities(
    a: np.ndarray, candidates: list[int], max_degree: int
) -> Optional[list[int]]:
    """Exact multiplicities of the distinct integers `candidates` as
    eigenvalues of the symmetric 0/1 matrix a (float64, maximum row sum
    max_degree), or None when the certificate of the module docstring does
    not go through: the entry bound reaches 2^53, prod (A - lambda*I) is not
    zero, or the solved multiplicities are not non-negative integers."""
    bound = 1
    for lam in candidates:
        bound *= max_degree + abs(lam)
        if bound >= _FLOAT_EXACT:
            return None
    n = a.shape[0]
    c = len(candidates)
    traces = [0] * c
    for start in range(0, n, _BLOCK_COLUMNS):
        rows = np.arange(start, min(start + _BLOCK_COLUMNS, n))
        cols = np.arange(len(rows))
        block = np.zeros((n, len(rows)))
        block[rows, cols] = 1.0
        for j, lam in enumerate(candidates):
            traces[j] += sum(int(x) for x in block[rows, cols].tolist())
            block = a @ block - lam * block
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


def integral_spectrum(g: Graph):
    """Certify that all adjacency eigenvalues of g are integers.

    Returns an IntegralSpectrum with exact multiplicities, or a
    NonIntegralVerdict when the certified multiplicities do not account for
    every dimension. Multiplicities come from the annihilating-polynomial
    certificate (see the module docstring: A symmetric, so diagonalizable;
    prod over the candidates of (A - lambda*I) = 0, checked exactly in
    float64 while prod (D + |lambda|) < 2^53; the trace equations solved
    exactly), and from exact integer elimination, one nullity per
    candidate, whenever a float matches no integer or the certificate does
    not go through. NonIntegralVerdict only ever comes from elimination.
    """
    if g.directed:
        raise ValueError("spectrum certification requires an undirected graph")
    n = g.n
    if n == 0:
        return IntegralSpectrum(())

    a = g.adj.astype(np.float64)
    floats = np.linalg.eigvalsh(a)
    candidates: set[int] = set()
    unmatched: list[float] = []
    for x in floats:
        r = round(float(x))
        if abs(x - r) <= CANDIDATE_TOLERANCE:
            candidates.add(int(r))
        else:
            unmatched.append(float(x))
    ordered = sorted(candidates, reverse=True)

    if not unmatched:
        mults = _annihilator_multiplicities(a, ordered, int(g.adj.sum(axis=1).max()))
        if mults is not None:
            return IntegralSpectrum(
                tuple((lam, m) for lam, m in zip(ordered, mults) if m > 0)
            )

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


def spectrum_to_json(spec: IntegralSpectrum) -> str:
    """JSON form: decreasing (eigenvalue, multiplicity) pairs plus the
    trace-identity checks."""
    return json.dumps(spec.to_dict(), sort_keys=True) + "\n"


def expected_eigenvalues(k: int) -> set[int]:
    """Eigenvalue set {2(k+1), 2(k-1), -2(k-1), 2, -2} of the family graph;
    the five values are pairwise distinct for every k >= 3."""
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    return {2 * (k + 1), 2 * (k - 1), -2 * (k - 1), 2, -2}
