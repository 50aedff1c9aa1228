"""Exact maximal linear-sum assignment on rectangular score matrices.

scipy's ``linear_sum_assignment`` (a shortest-augmenting-path solver after
Crouse 2016) finds the optimal total.  Only its compiled extension
``scipy/optimize/_lsap`` is loaded, registered as ``scipy.optimize._lsap``
so that a later ``import scipy.optimize`` reuses it, also as its ``_lsap``
attribute.  When ``scipy.optimize`` is already loaded its extension is
used, and the public ``from scipy.optimize import linear_sum_assignment``
is the fallback when the extension cannot be loaded alone.  Importing all
of ``scipy.optimize`` would add about 0.5 s to the start-up of every
command that assigns (2-vCPU x86 host, scipy 1.17); the extension alone
loads in about 0.015 s.

The tie contract has one definition: the result is the lexicographically
smallest row-sorted pair list among all assignments whose total is
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

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import NonFiniteEntry, ValidationError

if TYPE_CHECKING:  # numpy is imported by the functions that make arrays
    import numpy as np

_TIE_TOL = 1e-9
_LSAP = "scipy.optimize._lsap"


@dataclass(frozen=True)
class Assignment:
    pairs: tuple[tuple[int, int], ...]
    objective: float
    unique: bool  # no other assignment is within 1e-9 of the optimum


def _load_lsap():
    """scipy's compiled solver module loaded alone, or None if it cannot be."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    folder = Path(scipy.submodule_search_locations[0]) / "optimize"
    paths = [folder / f"_lsap{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        return None
    spec = importlib.util.spec_from_file_location(_LSAP, path)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return None
    sys.modules[_LSAP] = module
    sys.meta_path.insert(0, _LinkLsap)
    return module


class _LinkLsap:
    """Meta path finder that gives a later ``import scipy.optimize`` its
    ``_lsap`` attribute.  The package reuses the extension registered in
    ``sys.modules``, but the import system sets a parent's attribute only
    for a child it loads itself."""

    @staticmethod
    def find_spec(name, path=None, target=None):
        if name != "scipy.optimize":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None and spec.loader is not None:
            exec_module = spec.loader.exec_module

            def exec_and_link(module):
                exec_module(module)
                if "_lsap" not in vars(module):
                    module._lsap = sys.modules[_LSAP]

            spec.loader.exec_module = exec_and_link
        return spec


@functools.cache
def _solver():
    """scipy's ``linear_sum_assignment``, loaded on the first call; the
    extension already loaded by ``scipy.optimize`` is reused."""
    module = sys.modules.get(_LSAP) or _load_lsap()
    if module is not None:
        return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def _max_total(matrix: np.ndarray) -> float:
    """Optimal assignment total of a score matrix; -inf marks a forbidden
    pair, and -inf is returned when every assignment uses one."""
    try:
        rows, cols = _solver()(matrix, maximize=True)
    except ValueError:  # "cost matrix is infeasible"
        return -math.inf
    return float(matrix[rows, cols].sum())


def _is_unique(matrix: np.ndarray, pairs, optimum: float) -> bool:
    """True when every assignment without one of ``pairs`` (an optimal
    assignment) totals less than optimum - 1e-9."""
    forbidden = matrix.copy()
    for r, c in pairs:
        forbidden[r, c] = -math.inf
        if _max_total(forbidden) >= optimum - _TIE_TOL:
            return False
        forbidden[r, c] = matrix[r, c]
    return True


def _lex_smallest_pairs(matrix: np.ndarray, optimum: float) -> list[tuple[int, int]]:
    """Row-sorted pair list of the lexicographically smallest optimum.

    Greedily fixes pairs in ascending (row, col) order, keeping a candidate
    only if the best completion on the remaining submatrix still reaches the
    running target.  Rows may be skipped only when more rows than columns
    remain (m > n).
    """
    import numpy as np

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
    import numpy as np

    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"assignment needs a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteEntry("score matrix contains NaN/Inf entries")
    rows, cols = _solver()(a, maximize=True)
    optimum = float(a[rows, cols].sum())
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    unique = _is_unique(a, pairs, optimum)
    if not unique:
        pairs = _lex_smallest_pairs(a, optimum)
    objective = float(sum(a[r, c] for r, c in pairs))
    return Assignment(tuple(pairs), objective, unique)


def mean_assigned(matrix, assignment: Assignment) -> float:
    """Arithmetic mean of the matrix entries over the assigned pairs."""
    import numpy as np

    a = np.asarray(matrix, dtype=float)
    return float(sum(a[r, c] for r, c in assignment.pairs) / len(assignment.pairs))
