import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyeval.assignment import solve_max
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
    """Exhaustive oracle for the tie contract: the optimum over injective
    row->column mappings, then the lexicographically smallest row-sorted pair
    list among mappings whose total is within 1e-9 of it."""
    candidates = assignments(matrix)
    best_total = max(total for total, _ in candidates)
    pairs, total = min(
        (pairs, total) for total, pairs in candidates if total >= best_total - 1e-9
    )
    return total, pairs


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
    assert brute_force(matrix)[0] == pytest.approx(res.objective, abs=1e-9)


def test_matches_brute_force_on_seeded_grids():
    rng = np.random.default_rng(42)
    for trial in range(300):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        if trial % 2 == 0:
            a = rng.integers(0, 16, size=(m, n)) / 8.0  # dyadic grid with ties
        else:
            a = rng.random((m, n))
        res = solve_max(a)
        expect_total, expect_pairs = brute_force(a)
        assert res.objective == pytest.approx(expect_total, abs=1e-9)
        assert res.pairs == expect_pairs  # includes the tie-break contract


def tie_dense_matrix(data, m, n):
    """An m x n matrix over {0, 1, 2}, half the time with near-ties.

    A near-tie moves each entry by -d, 0 or +d with d = 4e-10 / min(m, n),
    so every assignment total stays within 4e-10 of an integer: totals that
    differ by less than the 1e-9 tie tolerance are exactly those with the
    same integer part, and the tie-break has one right answer.  (With
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
    res = solve_max(a)
    expect_total, expect_pairs = brute_force(a)
    assert res.objective == pytest.approx(expect_total, abs=1e-9)
    assert res.pairs == expect_pairs


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
    """Exhaustive oracle for the tie contract at its boundary: the
    lexicographically smallest row-sorted pair list among assignments whose
    exact total reaches the exact total of the solver's pairs minus 1e-9,
    and whether it is the only one."""
    from scipy.optimize import linear_sum_assignment

    def exact(pairs):
        return math.fsum(matrix[r, c] for r, c in pairs)

    rows, cols = linear_sum_assignment(matrix, maximize=True)
    threshold = exact(zip(rows.tolist(), cols.tolist())) - 1e-9
    ties = sorted(pairs for _, pairs in assignments(matrix) if exact(pairs) >= threshold)
    return ties[0], len(ties) == 1


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
    res = solve_max(a)
    assert (res.pairs, res.unique) == boundary_oracle(a)


def test_tie_break_prefers_lexicographically_smallest():
    ones = np.ones((3, 3))
    assert solve_max(ones).pairs == ((0, 0), (1, 1), (2, 2))
    # two optima: (0,0),(1,1) and (0,1),(1,0); the first is lexicographically smaller
    tied = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert solve_max(tied).pairs == ((0, 0), (1, 1))
    # tall matrix: rows may be skipped; smaller rows win when tied
    wide = np.zeros((3, 2))
    assert solve_max(wide).pairs == ((0, 0), (1, 1))


def test_near_ties_are_measured_from_the_optimum():
    # totals 0.6e-9, 1.2e-9 and 1.8e-9: with the optimum at 1.8e-9, 1.2e-9 is
    # a tie and 0.6e-9 is not, although 0.6e-9 is within 1e-9 of 1.2e-9
    a = np.array([[0, 6, 12], [6, 6, 0]]) * 1e-10
    assert solve_max(a).pairs == ((0, 1), (1, 0))
    assert brute_force(a)[1] == ((0, 1), (1, 0))


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
        assert res_s.pairs == res.pairs


def test_invalid_inputs():
    with pytest.raises(PolyevalError, match="contains NaN/Inf entries"):
        solve_max([[1.0, float("nan")]])
    with pytest.raises(PolyevalError, match="contains NaN/Inf entries"):
        solve_max([[float("inf")]])
    with pytest.raises(ValidationError):
        solve_max(np.zeros((0, 3)))
