"""Annotation agreement and significance testing.

Human judgments arrive as 3-4 way labels from two annotators; each task's
``LABEL_SETS`` table binarizes them to positive/negative judgments, one
(A, B) pair per item.  The pairs feed chance-corrected agreement
coefficients, and the paired system comparison runs McNemar's test with
random resolution of annotator disagreement, repeated for stability.
"""
from polyeval import (
    LABEL_SETS,
    chi_square_proportions,
    cohen_kappa,
    gwet_ac1,
    mcnemar,
    paired_t_bonferroni,
    resolve_and_repeat,
)

table = [
    ("i1", "always_likely", "sometimes_possible"),
    ("i2", "sometimes_possible", "sometimes_possible"),
    ("i3", "never_farfetched", "invalid_nonsense"),
    ("i4", "always_likely", "always_likely"),
]
labels = LABEL_SETS["reasonability"]
pairs = [(labels[a], labels[b]) for _, a, b in table]
print("binarized pairs:", pairs)

# With skewed label prevalence (mostly positives), kappa collapses while the
# skew-robust coefficient stays informative:
skewed = [(True, True)] * 90 + [(True, False)] * 4 + [(False, True)] * 4 + [(False, False)] * 2
print(f"skewed table : AC1 = {gwet_ac1(skewed):.3f}, kappa = {cohen_kappa(skewed):.3f}")

# Matched-pairs comparison of two systems on the same items:
paired = [(True, True)] * 10 + [(True, False)] * 10 + [(False, True)] * 2 + [(False, False)] * 10
result = mcnemar(paired)
print(f"mcnemar      : chi2 = {result.statistic:.4f}, p = {result.p_value:.4f}, "
      f"discordance = {result.discordance:.3f}")

# When the two annotators disagree on an item, one of their judgments is
# picked at random; repeating 100 times and requiring significance every
# time guards against resolution luck.
side_x = [(True, True)] * 20 + [(True, False)] * 6
side_y = [(False, False)] * 20 + [(False, True)] * 6
report = resolve_and_repeat(side_x, side_y, repeats=100, seed=0)
print(f"100 repeats  : mean rates {report.mean_rate_x:.3f} vs {report.mean_rate_y:.3f}, "
      f"significant in every repeat: {report.significant}")

statistic, p = chi_square_proportions([93, 75], [100, 100])
print(f"proportions  : chi2 = {statistic:.3f}, p = {p:.5f}")

tests = paired_t_bonferroni(
    {
        "model_a": [0.82, 0.71, 0.93, 0.65, 0.88, 0.79],
        "model_b": [0.78, 0.70, 0.85, 0.62, 0.81, 0.82],
        "model_c": [0.60, 0.55, 0.70, 0.50, 0.66, 0.61],
    }
)
print("paired t-tests with multiple-comparison correction:")
for t in tests:
    print(f"  {t.name_x} vs {t.name_y}: t = {t.t:+.3f}, adjusted p = {t.p_adjusted:.4f}")
