"""Exact maximal linear-sum assignment on rectangular score matrices.

scipy's ``linear_sum_assignment`` (a shortest-augmenting-path solver after
Crouse 2016) finds the optimal total.  A greedy pass then fixes the
tie-break.  The tie contract has one definition: the result is the
lexicographically smallest row-sorted pair list among all assignments whose
total is >= optimum - 1e-9.  The tolerance is measured from the optimum
alone, so near-ties do not chain: two assignments within 1e-9 of each other
are not both ties unless both are within 1e-9 of the optimum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEntry, ValidationError

_TIE_TOL = 1e-9


@dataclass(frozen=True)
class Assignment:
    pairs: tuple[tuple[int, int], ...]
    objective: float


def _max_total(matrix: np.ndarray) -> float:
    """Optimal assignment total of a (validated) score matrix."""
    # imported here: scipy.optimize adds ~0.4 s to every command's start-up
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(matrix, maximize=True)
    return float(matrix[rows, cols].sum())


def _lex_smallest_pairs(matrix: np.ndarray, optimum: float) -> list[tuple[int, int]]:
    """Row-sorted pair list of the lexicographically smallest optimum.

    Greedily fixes pairs in ascending (row, col) order, keeping a candidate
    only if the best completion on the remaining submatrix still reaches the
    running target.  Rows may be skipped only when more rows than columns
    remain (m > n).
    """
    m, n = matrix.shape
    size = min(m, n)
    rows = list(range(m))
    cols = list(range(n))
    target = optimum
    pairs: list[tuple[int, int]] = []

    for pos in range(size):
        need = size - pos - 1
        chosen = None
        for ri, r in enumerate(rows):
            if len(rows) - ri - 1 < need:
                break  # skipping r would leave too few rows
            rest_rows = rows[ri + 1 :]
            if need:
                # cheap upper bound: best columns per remaining row
                row_best = np.sort(np.max(matrix[np.ix_(rest_rows, cols)], axis=1))
                ub_rest = float(row_best[-need:].sum())
            else:
                ub_rest = 0.0
            for c in cols:
                if matrix[r, c] + ub_rest < target - _TIE_TOL:
                    continue
                if need:
                    rest_cols = [x for x in cols if x != c]
                    best_rest = _max_total(matrix[np.ix_(rest_rows, rest_cols)])
                else:
                    best_rest = 0.0
                if matrix[r, c] + best_rest >= target - _TIE_TOL:
                    chosen = (ri, r, c)
                    break
            if chosen:
                break
        assert chosen is not None, "optimal completion must exist"
        ri, r, c = chosen
        pairs.append((r, c))
        rows = rows[ri + 1 :]
        cols.remove(c)
        target -= matrix[r, c]
    return pairs


def solve_max(matrix) -> Assignment:
    """Injective row->column matching of size min(m, n) maximizing the total."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"assignment needs a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteEntry("score matrix contains NaN/Inf entries")
    optimum = _max_total(a)
    pairs = _lex_smallest_pairs(a, optimum)
    objective = float(sum(a[r, c] for r, c in pairs))
    return Assignment(tuple(pairs), objective)


def mean_assigned(matrix, assignment: Assignment) -> float:
    """Arithmetic mean of the matrix entries over the assigned pairs."""
    a = np.asarray(matrix, dtype=float)
    return float(sum(a[r, c] for r, c in assignment.pairs) / len(assignment.pairs))
