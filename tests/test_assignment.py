import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyeval.assignment import optimum, solve_max
from polyeval.errors import PolyevalError, ValidationError


def assignments(matrix):
    """(total, row-sorted pairs) of every injective row->column mapping of
    size min(m, n)."""
    a = np.asarray(matrix, dtype=float)
    m, n = a.shape
    if m <= n:
        row_sets = [tuple(range(m))]
    else:
        row_sets = list(itertools.combinations(range(m), n))
    return [
        (sum(a[r, c] for r, c in zip(rows, perm)), tuple(zip(rows, perm)))
        for rows in row_sets
        for perm in itertools.permutations(range(n), len(rows))
    ]


def brute_force(matrix):
    """Exhaustive oracle of the optimum over injective row->column mappings
    of size min(m, n)."""
    return max(total for total, _ in assignments(matrix))


def assert_optimal(a, res):
    """``res.pairs`` form an injective matching of size min(m, n), total
    ``res.objective`` and ``optimum(a)`` exactly, and reach the brute-force
    maximum."""
    m, n = a.shape
    rows = {r for r, _ in res.pairs}
    cols = {c for _, c in res.pairs}
    assert len(rows) == len(cols) == len(res.pairs) == min(m, n)
    assert rows <= set(range(m)) and cols <= set(range(n))
    total = math.fsum(a[p] for p in res.pairs)
    assert total == res.objective == optimum(a)
    assert total == pytest.approx(brute_force(a), abs=1e-9)


def test_single_cell():
    res = solve_max([[5.0]])
    assert res.pairs == ((0, 0),)
    assert res.objective == 5.0
    assert res.objective / len(res.pairs) == 5.0


def test_diagonal_dominant():
    eye = np.eye(3)
    res = solve_max(eye)
    assert res.pairs == ((0, 0), (1, 1), (2, 2))
    assert res.objective == pytest.approx(3.0, abs=1e-12)
    assert res.objective / len(res.pairs) == pytest.approx(1.0, abs=1e-12)


def test_rectangular_fixture():
    matrix = [[0.9, 0.1, 0.2], [0.2, 0.8, 0.1]]
    res = solve_max(matrix)
    assert res.pairs == ((0, 0), (1, 1))
    assert res.objective == pytest.approx(1.7, abs=1e-12)
    assert res.objective / len(res.pairs) == pytest.approx(0.85, abs=1e-12)
    # six-mapping enumeration agrees
    assert brute_force(matrix) == pytest.approx(res.objective, abs=1e-9)


def test_matches_brute_force_on_seeded_grids():
    rng = np.random.default_rng(42)
    for trial in range(300):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        if trial % 2 == 0:
            a = rng.integers(0, 16, size=(m, n)) / 8.0  # dyadic grid with ties
        else:
            a = rng.random((m, n))
        assert_optimal(a, solve_max(a))


def tie_dense_matrix(data, m, n):
    """An m x n matrix over {0, 1, 2}, half the time with near-ties.

    A near-tie moves each entry by -d, 0 or +d with d = 4e-10 / min(m, n),
    so every assignment total stays within 4e-10 of an integer: totals that
    differ by less than the 1e-9 tie tolerance are exactly those with the
    same integer part, and ``unique`` has one right answer.  (With
    +-5e-10 per entry, seven entries could move a total by 3.5e-9 and ties
    would stop being transitive.)
    """
    cells = st.lists(st.sampled_from([0, 1, 2]), min_size=m * n, max_size=m * n)
    a = np.array(data.draw(cells), dtype=float).reshape(m, n)
    if data.draw(st.booleans()):
        signs = st.lists(st.sampled_from([-1, 0, 1]), min_size=m * n, max_size=m * n)
        a += np.array(data.draw(signs)).reshape(m, n) * 4e-10 / min(m, n)
    return a


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("n", range(1, 8))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_matches_brute_force_on_tie_dense_matrices(m, n, data):
    a = tie_dense_matrix(data, m, n)
    assert_optimal(a, solve_max(a))


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("n", range(1, 8))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_unique_exactly_when_one_assignment_reaches_the_optimum(m, n, data):
    a = tie_dense_matrix(data, m, n)
    totals = [total for total, _ in assignments(a)]
    best = max(totals)
    assert solve_max(a).unique == (sum(t >= best - 1e-9 for t in totals) == 1)


def boundary_oracle(matrix):
    """Exhaustive oracle for ``unique`` at the tie boundary: whether exactly
    one assignment's exact total reaches the exact total of the solver's
    pairs minus 1e-9."""
    from scipy.optimize import linear_sum_assignment

    def exact(pairs):
        return math.fsum(matrix[r, c] for r, c in pairs)

    rows, cols = linear_sum_assignment(matrix, maximize=True)
    threshold = exact(zip(rows.tolist(), cols.tolist())) - 1e-9
    return sum(exact(pairs) >= threshold for _, pairs in assignments(matrix)) == 1


@settings(max_examples=400, deadline=None)
@given(data=st.data(), m=st.integers(1, 6), n=st.integers(1, 6))
def test_matches_brute_force_at_the_tie_boundary(data, m, n):
    # 0.25, 0.5 or 0.75 plus 0 to 4 steps of 5e-10: unlike tie_dense_matrix,
    # many totals lie exactly 1e-9 below the optimum, where float rounding
    # decides whether an assignment is a tie
    base = data.draw(st.lists(st.sampled_from([0.25, 0.5, 0.75]),
                              min_size=m * n, max_size=m * n))
    steps = data.draw(st.lists(st.integers(0, 4), min_size=m * n, max_size=m * n))
    a = (np.array(base) + np.array(steps) * 5e-10).reshape(m, n)
    assert solve_max(a).unique == boundary_oracle(a)


def test_transpose_objective_equal():
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = rng.random((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        assert solve_max(a).objective == pytest.approx(
            solve_max(a.T).objective, abs=1e-9
        )


def test_row_permutation_permutes_pairs():
    rng = np.random.default_rng(13)
    for _ in range(40):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        a = rng.random((m, n))  # continuous entries: ties have measure zero
        perm = rng.permutation(m)
        res = solve_max(a)
        res_p = solve_max(a[perm])
        assert res_p.objective == pytest.approx(res.objective, abs=1e-9)
        mapping = {int(orig): new for new, orig in enumerate(perm)}
        expected = tuple(sorted((mapping[r], c) for r, c in res.pairs))
        assert res_p.pairs == expected


def test_constant_shift_property():
    rng = np.random.default_rng(23)
    for _ in range(40):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.integers(0, 16, size=(m, n)) / 4.0  # exact dyadic arithmetic
        shift = 0.5
        res = solve_max(a)
        res_s = solve_max(a + shift)
        assert res_s.objective == pytest.approx(
            res.objective + shift * min(m, n), abs=1e-9
        )
        # ties are common on this grid, so the pairs may differ; any
        # optimum of the shifted matrix is an optimum of the original
        assert math.fsum(a[p] for p in res_s.pairs) == res.objective


def test_invalid_inputs():
    for solve in (solve_max, optimum):
        with pytest.raises(PolyevalError, match="contains NaN/Inf entries"):
            solve([[1.0, float("nan")]])
        with pytest.raises(PolyevalError, match="contains NaN/Inf entries"):
            solve([[float("inf")]])
        with pytest.raises(ValidationError):
            solve(np.zeros((0, 3)))
