"""Annotation-analysis statistics: binary label conversion, chance-corrected
agreement (Gwet AC1, Cohen's kappa), McNemar's matched-pairs test with the
100-repeat disagreement-resolution protocol, a two-proportion chi-square
test, and Bonferroni-corrected paired t-tests.

Tail probabilities come from the regularized incomplete gamma/beta functions;
no table lookups or external services.
"""
from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple, Sequence

from .core import LABEL_SETS
from .errors import PolyevalError, ValidationError


def binarize(items: Sequence[tuple[str, str, str]]) -> list[tuple[str, bool, bool]]:
    """Convert paired annotator labels, one ``(item_id, label_a, label_b)``
    per item, to positive/negative judgments.

    All labels must come from a single task's label set.
    """
    if not items:
        raise ValidationError("annotation table is empty")
    tasks = set()
    for _, label_a, label_b in items:
        for label in (label_a, label_b):
            found = [task for task, labels in LABEL_SETS.items() if label in labels]
            if not found:
                raise ValidationError(f"unknown annotation label {label!r}")
            tasks.add(found[0])
    if len(tasks) > 1:
        raise ValidationError(f"table mixes label sets: {sorted(tasks)}")
    labels = LABEL_SETS[tasks.pop()]
    return [
        (item_id, labels[label_a], labels[label_b])
        for item_id, label_a, label_b in items
    ]


def _agreement_counts(pairs: Sequence[tuple[bool, bool]]) -> tuple[int, int, int, int]:
    a = sum(1 for x, y in pairs if x and y)
    b = sum(1 for x, y in pairs if x and not y)
    c = sum(1 for x, y in pairs if not x and y)
    d = sum(1 for x, y in pairs if not x and not y)
    return a, b, c, d


def gwet_ac1(pairs: Sequence[tuple[bool, bool]]) -> float:
    """Chance-corrected agreement robust to prevalence skew.

    Chance agreement is 2*pi*(1-pi) with pi the mean of the two annotators'
    positive rates, which stays <= 0.5, so the coefficient is always defined.
    """
    if not pairs:
        raise ValidationError("no items to compute agreement over")
    a, b, c, d = _agreement_counts(pairs)
    n = a + b + c + d
    observed = (a + d) / n
    pi = ((a + b) + (a + c)) / (2 * n)
    expected = 2 * pi * (1 - pi)
    return (observed - expected) / (1 - expected)


def cohen_kappa(pairs: Sequence[tuple[bool, bool]]) -> float:
    """Cohen's kappa; undefined when both marginals are degenerate."""
    if not pairs:
        raise ValidationError("no items to compute agreement over")
    a, b, c, d = _agreement_counts(pairs)
    n = a + b + c + d
    observed = (a + d) / n
    p_x = (a + b) / n
    p_y = (a + c) / n
    expected = p_x * p_y + (1 - p_x) * (1 - p_y)
    if expected == 1.0:
        raise PolyevalError("chance agreement is 1; kappa undefined")
    return (observed - expected) / (1 - expected)


def _chi2_sf(statistic: float, df: int) -> float:
    """Upper tail of the chi-square distribution."""
    # imported here: scipy.special adds ~0.35 s to every command's start-up
    from scipy.special import gammaincc

    return float(gammaincc(df / 2.0, statistic / 2.0))


def _t_sf_two_sided(t: float, df: int) -> float:
    # imported here: scipy.special adds ~0.35 s to every command's start-up
    from scipy.special import betainc

    return float(betainc(df / 2.0, 0.5, df / (df + t * t)))


class McNemarResult(NamedTuple):
    statistic: float
    p_value: float
    b: int  # first-side-only positives
    c: int  # second-side-only positives
    discordance: float  # (b + c) / N


def mcnemar(paired: Sequence[tuple[bool, bool]]) -> McNemarResult:
    """Binary matched-pairs test on (side_x, side_y) judgments.

    Uses the plain (uncorrected) statistic (b - c)^2 / (b + c) with a
    one-degree chi-square tail.
    """
    if not paired:
        raise ValidationError("no paired judgments")
    _, b, c, _ = _agreement_counts(paired)
    if b + c == 0:
        raise PolyevalError("all pairs agree; McNemar's test is undefined")
    statistic = (b - c) ** 2 / (b + c)
    return McNemarResult(
        statistic=statistic,
        p_value=_chi2_sf(statistic, df=1),
        b=b,
        c=c,
        discordance=(b + c) / len(paired),
    )


class RepeatReport(NamedTuple):
    mean_rate_x: float
    mean_rate_y: float
    mean_discordance: float
    significant: bool  # True only when every repeat is significant
    repeats: int
    alpha: float
    p_values: tuple[float, ...]


def resolve_and_repeat(
    side_x: Sequence[tuple[bool, bool]],
    side_y: Sequence[tuple[bool, bool]],
    repeats: int = 100,
    seed: int = 0,
    alpha: float = 0.05,
) -> RepeatReport:
    """McNemar with random resolution of annotator disagreement, repeated.

    Each side holds per-item (annotator_a, annotator_b) judgments for the two
    systems under comparison, aligned by position.  Per repeat, every item
    whose annotators disagree independently resolves to a random annotator's
    judgment; significance is declared only if every repeat's test is
    significant at alpha.  The repeat streams derive from (seed, repeat), so
    the whole report is a pure function of its inputs.
    """
    import numpy as np

    if len(side_x) != len(side_y):
        raise ValidationError("both sides must annotate the same items")
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    rates_x = []
    rates_y = []
    discordances = []
    p_values = []
    for repeat in range(repeats):
        rng = np.random.default_rng([seed, repeat])
        resolved = []
        for (xa, xb), (ya, yb) in zip(side_x, side_y):
            x = xa if xa == xb else (xa, xb)[rng.integers(2)]
            y = ya if ya == yb else (ya, yb)[rng.integers(2)]
            resolved.append((x, y))
        result = mcnemar(resolved)
        rates_x.append(sum(1 for x, _ in resolved if x) / len(resolved))
        rates_y.append(sum(1 for _, y in resolved if y) / len(resolved))
        discordances.append(result.discordance)
        p_values.append(result.p_value)
    return RepeatReport(
        mean_rate_x=sum(rates_x) / repeats,
        mean_rate_y=sum(rates_y) / repeats,
        mean_discordance=sum(discordances) / repeats,
        significant=all(p < alpha for p in p_values),
        repeats=repeats,
        alpha=alpha,
        p_values=tuple(p_values),
    )


def chi_square_proportions(
    successes: Sequence[int], trials: Sequence[int]
) -> tuple[float, float]:
    """Pooled chi-square test that k groups share one success proportion."""
    if len(successes) != len(trials) or len(trials) < 2:
        raise ValidationError("need success/trial counts for at least two groups")
    for s, t in zip(successes, trials):
        if t < 1 or s < 0 or s > t:
            raise ValidationError(f"invalid group counts {s}/{t}")
    pooled = sum(successes) / sum(trials)
    if pooled in (0.0, 1.0):
        return 0.0, 1.0
    statistic = 0.0
    for s, t in zip(successes, trials):
        expected_s = t * pooled
        expected_f = t * (1 - pooled)
        statistic += (s - expected_s) ** 2 / expected_s
        statistic += ((t - s) - expected_f) ** 2 / expected_f
    df = len(trials) - 1
    return statistic, _chi2_sf(statistic, df)


class PairedT(NamedTuple):
    name_x: str
    name_y: str
    t: float
    p_value: float
    p_adjusted: float


def paired_t_bonferroni(
    vectors: Mapping[str, Sequence[float]] | Sequence[tuple[str, Sequence[float]]],
    m: int | None = None,
) -> list[PairedT]:
    """Two-sided paired t-tests over all vector pairs, Bonferroni-adjusted.

    ``m`` defaults to the number of comparisons and is at most 1e308, so
    that ``p * m`` is a float; adjusted p-values are capped at 1.  Constant
    difference vectors are rejected rather than scored.
    """
    import numpy as np

    items = list(vectors.items()) if isinstance(vectors, Mapping) else list(vectors)
    if len(items) < 2:
        raise ValidationError("need at least two score vectors")
    pairs = list(itertools.combinations(range(len(items)), 2))
    if m is None:
        m = len(pairs)
    if not 1 <= m <= 1e308:
        raise ValidationError(f"m must be in [1, 1e308], got {m}")
    results = []
    for i, j in pairs:
        name_x, xs = items[i]
        name_y, ys = items[j]
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValidationError(
                f"vectors {name_x!r} and {name_y!r} must have equal length >= 2"
            )
        diffs = np.asarray(xs, dtype=float) - np.asarray(ys, dtype=float)
        sd = float(diffs.std(ddof=1))
        if sd == 0.0:
            raise PolyevalError(
                f"constant differences between {name_x!r} and {name_y!r}"
            )
        n = len(diffs)
        t = float(diffs.mean()) / (sd / n**0.5)
        p = _t_sf_two_sided(abs(t), n - 1)
        results.append(PairedT(name_x, name_y, t, p, min(1.0, p * m)))
    return results
