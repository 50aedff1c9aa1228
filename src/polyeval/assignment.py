"""Exact maximal linear-sum assignment on rectangular score matrices.

scipy's ``linear_sum_assignment`` (a shortest-augmenting-path solver after
Crouse 2016) finds the optimal total.  Only its compiled extension
``scipy/optimize/_lsap`` is loaded, under this package's own name
``polyeval._lsap``, so ``scipy`` and ``scipy.optimize`` stay unloaded and a
later ``import scipy.optimize`` loads its own copy as usual.  The public
``from scipy.optimize import linear_sum_assignment`` is the fallback when the
extension cannot be loaded alone.  Importing all of ``scipy.optimize`` would
add about 0.5 s to the start-up of every command that assigns (2-vCPU x86
host, scipy 1.17); the extension alone loads in about 0.015 s.

The set score is ``optimum``: the exact total of one solve's pairs, rounded
once (``math.fsum``), so it is one number however the entries are added.
The tie contract fixes only ``solve_max``'s pairs: the lexicographically
smallest row-sorted pair list among all assignments whose exact total is
>= optimum - 1e-9.  The tolerance is measured from the optimum alone, so
near-ties do not chain: two assignments within 1e-9 of each other are not
both ties unless both are within 1e-9 of the optimum.

Any other assignment lacks at least one of the solver's pairs, so the
optimum is unique when forbidding each solver pair in turn drops the best
total below optimum - 1e-9 (Burkard, Dell'Amico & Martello, *Assignment
Problems*, 2009).  Then the solver's pairs are the contract's answer and
``Assignment.unique`` is true; otherwise a greedy pass fixes the tie-break.
"""
from __future__ import annotations

import contextlib
import functools
import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import PolyevalError, ValidationError

if TYPE_CHECKING:  # numpy is imported by the functions that make arrays
    import numpy as np

_TIE_TOL = 1e-9


class Assignment(NamedTuple):
    pairs: tuple[tuple[int, int], ...]
    objective: float  # optimum(matrix); the pairs reach it within 1e-9
    unique: bool  # no other assignment is within 1e-9 of the optimum


@functools.cache
def _solver():
    """scipy's ``linear_sum_assignment``, loaded on the first call from its
    extension alone as ``polyeval._lsap``, or else by the public import."""
    scipy = importlib.util.find_spec("scipy")
    paths = [Path(scipy.submodule_search_locations[0], "optimize", f"_lsap{suffix}")
             for suffix in importlib.machinery.EXTENSION_SUFFIXES] if scipy else []
    path = next((path for path in paths if path.is_file()), None)
    if path is not None:
        spec = importlib.util.spec_from_file_location(f"{__package__}._lsap", path)
        with contextlib.suppress(ImportError):
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[spec.name] = module
            return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def _solve(matrix: np.ndarray):
    """The solver's optimal (rows, cols) index arrays, rows ascending; -inf
    marks a forbidden pair, and None is returned when every assignment uses
    one."""
    try:
        return _solver()(matrix, maximize=True)
    except ValueError:  # "cost matrix is infeasible"
        return None


def _is_unique(matrix: np.ndarray, pairs, threshold: float) -> bool:
    """True when every assignment without one of ``pairs`` (an optimal
    assignment) totals less than ``threshold``."""
    forbidden = matrix.copy()
    for r, c in pairs:
        forbidden[r, c] = -math.inf
        best = _solve(forbidden)
        if best is not None and math.fsum(forbidden[best].tolist()) >= threshold:
            return False
        forbidden[r, c] = matrix[r, c]
    return True


def _lex_smallest_pairs(matrix: np.ndarray, witness: list[tuple[int, int]],
                        threshold: float) -> list[tuple[int, int]]:
    """Row-sorted pair list of the lexicographically smallest assignment
    whose total reaches ``threshold``.

    Greedily fixes pairs in ascending (row, col) order.  ``witness`` is an
    assignment that reaches the threshold and begins with the pairs fixed so
    far; a candidate is kept when it is the witness's next pair, or when the
    solver's best completion on the remaining submatrix reaches the
    threshold, which makes that completion the witness.  So the witness's
    next pair is always left to keep.  Rows may be skipped only when more
    rows than columns remain (m > n).  The scan stops at or before the
    witness's next row, which has at least ``need`` rows after it, so each
    finite submatrix it solves has a full matching.
    """
    import numpy as np

    m, n = matrix.shape
    size = len(witness)
    rows = list(range(m))
    cols = list(range(n))

    for pos in range(size):
        need = size - pos - 1
        chosen = None
        for ri, r in enumerate(rows):
            rest_rows = rows[ri + 1 :]
            for c in cols:
                if (r, c) == witness[pos]:
                    chosen = ri
                    break
                rest = []
                if need:
                    rest_cols = [x for x in cols if x != c]
                    best = _solve(matrix[np.ix_(rest_rows, rest_cols)])
                    rest = [(rest_rows[i], rest_cols[j]) for i, j in zip(*best)]
                candidate = [*witness[:pos], (r, c), *rest]
                if math.fsum(matrix[p] for p in candidate) >= threshold:
                    chosen, witness = ri, candidate
                    break
            if chosen is not None:
                break
        if chosen is None:
            raise PolyevalError("tie-break found no assignment that reaches the optimum")
        rows = rows[chosen + 1 :]
        cols.remove(witness[pos][1])
    return witness


def _solved(matrix):
    """The matrix as a checked float array, the solver's (rows, cols) and
    their exact total."""
    import numpy as np

    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"assignment needs a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise PolyevalError("score matrix contains NaN/Inf entries")
    rows, cols = _solve(a)
    return a, rows, cols, math.fsum(a[rows, cols].tolist())


def optimum(matrix) -> float:
    """The maximal total of an injective row->column matching of size
    min(m, n), from one solve."""
    return _solved(matrix)[3]


def solve_max(matrix) -> Assignment:
    """Injective row->column matching of size min(m, n) maximizing the total,
    with its pairs fixed by the tie contract."""
    a, rows, cols, total = _solved(matrix)
    threshold = total - _TIE_TOL
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    unique = _is_unique(a, pairs, threshold)
    if not unique:
        pairs = _lex_smallest_pairs(a, pairs, threshold)
    return Assignment(tuple(pairs), total, unique)
