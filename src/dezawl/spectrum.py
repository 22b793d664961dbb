"""Exact integral-spectrum certification.

Eigenvalue candidates come from a numeric eigendecomposition; every
candidate integer eigenvalue is then certified by computing the nullity of
A - lambda*I exactly over the rationals, using integer row elimination
(cross-multiplication with per-row gcd reduction, which preserves rank).
Floating point alone cannot certify integrality; the exact nullities can.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

import numpy as np

from .graphs import Graph

CANDIDATE_TOLERANCE = 1e-6


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


def integral_spectrum(g: Graph):
    """Certify that all adjacency eigenvalues of g are integers.

    Returns an IntegralSpectrum whose multiplicities were certified by exact
    nullity computations, or a NonIntegralVerdict when the certified
    multiplicities do not account for every dimension.
    """
    if g.directed:
        raise ValueError("spectrum certification requires an undirected graph")
    n = g.n
    if n == 0:
        return IntegralSpectrum(())

    floats = np.linalg.eigvalsh(g.adj.astype(np.float64))
    candidates: set[int] = set()
    unmatched: list[float] = []
    for x in floats:
        r = round(float(x))
        if abs(x - r) <= CANDIDATE_TOLERANCE:
            candidates.add(int(r))
        else:
            unmatched.append(float(x))

    # One list of A - lambda*I, its (zero) diagonal overwritten for each
    # lambda; exact_nullity works on a copy.
    shifted = g.adj.astype(np.int8).tolist()
    pairs = []
    for lam in sorted(candidates, reverse=True):
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
