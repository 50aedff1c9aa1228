import math

import numpy as np
import pytest

from polyeval.core import LABEL_SETS
from polyeval.errors import PolyevalError, ValidationError
from polyeval.stats import (
    chi_square_proportions,
    cohen_kappa,
    gwet_ac1,
    mcnemar,
    paired_t_bonferroni,
    resolve_and_repeat,
)


def chi2_sf_df1(x):
    """Independent one-degree chi-square tail via the error function."""
    return math.erfc(math.sqrt(x / 2.0))


def pairs_from_counts(a, b, c, d):
    return (
        [(True, True)] * a + [(True, False)] * b + [(False, True)] * c
        + [(False, False)] * d
    )


# --- label sets ---------------------------------------------------------------


def test_binarize_reasonability_mapping():
    assert LABEL_SETS["reasonability"] == {
        "always_likely": True, "sometimes_possible": True,
        "never_farfetched": False, "invalid_nonsense": False,
    }


def test_binarize_novelty_mapping():
    assert LABEL_SETS["novelty"] == {
        "new_detailed": True, "new_simple": True, "purely_repetitive": False,
    }
    assert set(LABEL_SETS) == {"reasonability", "novelty"}


# --- agreement ------------------------------------------------------------------


def test_perfect_agreement_all_positive():
    pairs = pairs_from_counts(10, 0, 0, 0)
    assert gwet_ac1(pairs) == 1.0


def test_skewed_table_ac1_vs_kappa():
    # prevalence skew: chance-corrected agreement diverges sharply
    pairs = pairs_from_counts(90, 4, 4, 2)
    ac1 = gwet_ac1(pairs)
    kappa = cohen_kappa(pairs)
    assert ac1 == pytest.approx(0.910, abs=1e-3)
    assert kappa == pytest.approx(0.291, abs=1e-3)
    assert ac1 > 3 * kappa


def test_ac1_chance_level_balanced():
    pairs = pairs_from_counts(25, 25, 25, 25)
    assert gwet_ac1(pairs) == pytest.approx(0.0, abs=1e-12)
    assert cohen_kappa(pairs) == pytest.approx(0.0, abs=1e-12)


def test_kappa_hand_case():
    pairs = pairs_from_counts(45, 5, 5, 45)
    assert cohen_kappa(pairs) == pytest.approx(0.8, abs=1e-12)
    assert gwet_ac1(pairs) == pytest.approx(0.8, abs=1e-12)  # balanced marginals


def test_kappa_degenerate_marginals():
    with pytest.raises(PolyevalError, match="chance agreement is 1; kappa undefined"):
        cohen_kappa(pairs_from_counts(10, 0, 0, 0))


def test_perfect_agreement_mixed_marginals_kappa_one():
    assert cohen_kappa(pairs_from_counts(6, 0, 0, 4)) == 1.0
    assert gwet_ac1(pairs_from_counts(6, 0, 0, 4)) == 1.0


def test_balanced_marginals_make_ac1_equal_kappa():
    rng = np.random.default_rng(4)
    for _ in range(50):
        # symmetric tables: both marginals 0.5
        a = int(rng.integers(0, 20))
        b = int(rng.integers(0, 20))
        pairs = pairs_from_counts(a, b, b, a)
        if a + b == 0 or (b == 0 and a > 0):
            continue  # degenerate kappa cases
        assert gwet_ac1(pairs) == pytest.approx(cohen_kappa(pairs), abs=1e-12)


def test_agreement_bounded_above_by_one():
    rng = np.random.default_rng(6)
    for _ in range(100):
        counts = rng.integers(0, 10, size=4)
        if counts.sum() == 0:
            continue
        pairs = pairs_from_counts(*counts.tolist())
        assert gwet_ac1(pairs) <= 1.0 + 1e-12


# --- mcnemar -------------------------------------------------------------------


def test_mcnemar_symmetric_discordance():
    result = mcnemar(pairs_from_counts(3, 6, 6, 2))
    assert result.statistic == 0.0
    assert result.p_value == pytest.approx(1.0, abs=1e-12)


def test_mcnemar_hand_case_with_oracle():
    result = mcnemar(pairs_from_counts(10, 10, 2, 10))
    assert result.statistic == pytest.approx(64 / 12, abs=1e-4)
    assert result.statistic == pytest.approx(5.3333, abs=1e-4)
    assert result.p_value == pytest.approx(chi2_sf_df1(64 / 12), rel=1e-9)
    assert result.p_value == pytest.approx(0.0209, abs=5e-4)
    assert result.b == 10 and result.c == 2
    assert result.discordance == pytest.approx(12 / 32, abs=1e-12)


def test_mcnemar_swap_invariance_and_monotonicity():
    base = mcnemar(pairs_from_counts(5, 9, 3, 5))
    swap = mcnemar([(y, x) for x, y in pairs_from_counts(5, 9, 3, 5)])
    assert base.statistic == swap.statistic
    assert base.p_value == swap.p_value
    # |b - c| grows with b + c fixed -> p shrinks
    ps = [
        mcnemar(pairs_from_counts(0, b, 12 - b, 0)).p_value for b in range(6, 13)
    ]
    assert ps == sorted(ps, reverse=True)


def test_mcnemar_no_discordant_pairs():
    with pytest.raises(PolyevalError, match="all pairs agree"):
        mcnemar(pairs_from_counts(5, 0, 0, 5))


# --- 100-repeat resolution protocol ----------------------------------------------


def test_no_disagreement_matches_single_run():
    side_x = [(True, True)] * 12 + [(False, False)] * 4
    side_y = [(False, False)] * 12 + [(True, True)] * 4
    report = resolve_and_repeat(side_x, side_y, repeats=100, seed=5)
    single = mcnemar([(True, False)] * 12 + [(False, True)] * 4)
    assert set(report.p_values) == {single.p_value}
    assert report.significant == (single.p_value < 0.05)
    assert report.mean_rate_x == pytest.approx(0.75, abs=1e-12)
    assert report.mean_rate_y == pytest.approx(0.25, abs=1e-12)


def test_repeat_protocol_deterministic():
    side_x = [(True, False)] * 3 + [(True, True)] * 10 + [(False, False)] * 5
    side_y = [(False, False)] * 3 + [(False, True)] * 10 + [(True, False)] * 5
    a = resolve_and_repeat(side_x, side_y, repeats=50, seed=9)
    b = resolve_and_repeat(side_x, side_y, repeats=50, seed=9)
    assert a == b
    c = resolve_and_repeat(side_x, side_y, repeats=50, seed=10)
    assert a != c  # seed drives the resolution draws


def independent_simulation(side_x, side_y, repeats, seed, alpha=0.05):
    """Re-derive the documented protocol with an independent McNemar tail."""
    outcomes = []
    for repeat in range(repeats):
        rng = np.random.default_rng([seed, repeat])
        b = c = 0
        for (xa, xb), (ya, yb) in zip(side_x, side_y):
            x = xa if xa == xb else (xa, xb)[rng.integers(2)]
            y = ya if ya == yb else (ya, yb)[rng.integers(2)]
            if x and not y:
                b += 1
            elif y and not x:
                c += 1
        outcomes.append(chi2_sf_df1((b - c) ** 2 / (b + c)) < alpha)
    return outcomes


def test_engineered_99_of_100_is_not_significant():
    # b = 14 agreed X-only positives; six items whose second-side annotators
    # disagree; the test stays significant unless all six resolve discordant
    side_x = [(True, True)] * 30 + [(True, True)] * 14 + [(False, False)] * 6
    side_y = [(True, True)] * 30 + [(False, False)] * 14 + [(True, False)] * 6
    report = resolve_and_repeat(side_x, side_y, repeats=100, seed=0)
    oracle = independent_simulation(side_x, side_y, repeats=100, seed=0)
    assert [p < 0.05 for p in report.p_values] == oracle
    assert sum(oracle) == 99
    assert report.significant is False


def test_repeat_protocol_validation():
    with pytest.raises(ValidationError):
        resolve_and_repeat([(True, True)], [], repeats=10)
    with pytest.raises(ValidationError):
        resolve_and_repeat([(True, True)], [(False, False)], repeats=0)


# --- proportions chi-square -------------------------------------------------------


def test_equal_proportions_score_zero():
    statistic, p = chi_square_proportions([30, 30], [60, 60])
    assert statistic == 0.0
    assert p == pytest.approx(1.0, abs=1e-12)


def test_proportions_hand_case():
    # pooled p = 168/200 = 0.84; chi-square = 675/56
    statistic, p = chi_square_proportions([93, 75], [100, 100])
    assert statistic == pytest.approx(675 / 56, abs=1e-9)
    assert p == pytest.approx(chi2_sf_df1(675 / 56), rel=1e-9)
    assert p < 0.001


def test_proportions_validation():
    with pytest.raises(ValidationError):
        chi_square_proportions([5], [10])
    with pytest.raises(ValidationError):
        chi_square_proportions([11, 5], [10, 10])
    statistic, p = chi_square_proportions([10, 10], [10, 10])  # pooled p = 1
    assert (statistic, p) == (0.0, 1.0)


# --- paired t with bonferroni ------------------------------------------------------


def t_sf_two_sided_oracle(t, df):
    import mpmath

    return float(2 * mpmath.quad(
        lambda u: mpmath.gamma((df + 1) / 2)
        / (mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / 2))
        * (1 + u * u / df) ** (-(df + 1) / 2),
        [abs(t), mpmath.inf],
    ))


def test_paired_t_matches_density_integration():
    xs = [0.82, 0.71, 0.93, 0.65, 0.88, 0.79, 0.90]
    ys = [0.78, 0.70, 0.85, 0.62, 0.81, 0.82, 0.84]
    (result,) = paired_t_bonferroni({"x": xs, "y": ys}, m=1)
    diffs = np.array(xs) - np.array(ys)
    t = diffs.mean() / (diffs.std(ddof=1) / math.sqrt(len(diffs)))
    assert result.t == pytest.approx(t, abs=1e-12)
    assert result.p_value == pytest.approx(t_sf_two_sided_oracle(t, 6), rel=1e-8)
    assert result.p_adjusted == result.p_value  # m = 1


def test_bonferroni_caps_at_one():
    rng = np.random.default_rng(2)
    vectors = {name: rng.normal(size=6).tolist() for name in "abcd"}
    results = paired_t_bonferroni(vectors)
    assert len(results) == 6  # all unordered pairs
    for r in results:
        assert r.p_adjusted == min(1.0, r.p_value * 6)
        assert r.p_adjusted <= 1.0


def test_identical_vectors_zero_variance():
    with pytest.raises(PolyevalError, match="constant differences between 'x' and 'y'"):
        paired_t_bonferroni({"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]})
    with pytest.raises(PolyevalError, match="constant differences between 'x' and 'y'"):
        paired_t_bonferroni({"x": [2.0, 3.0, 4.0], "y": [1.0, 2.0, 3.0]})


def test_paired_t_validation():
    with pytest.raises(ValidationError):
        paired_t_bonferroni({"x": [1.0, 2.0]})
    with pytest.raises(ValidationError):
        paired_t_bonferroni({"x": [1.0, 2.0], "y": [1.0]})
    # above 1e308, p * m could overflow
    for m in (0, int(1e308) + 1, math.inf, math.nan):
        with pytest.raises(ValidationError, match=r"m must be in \[1, 1e308\]"):
            paired_t_bonferroni({"x": [1.0, 2.0, 4.0], "y": [1.0, 3.0, 3.0]}, m=m)
