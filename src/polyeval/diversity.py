"""Diversity measurement: semantic output clustering, B-cubed agreement
against gold clusterings, and corpus n-gram uniqueness statistics.
"""
from __future__ import annotations

from collections import Counter
from itertools import compress
from typing import Mapping, NamedTuple, Sequence

from .core import Example, validate_clustering
from .dataio import EmbeddingStore
from .errors import PolyevalError, ValidationError


def cluster_greedy(
    outputs: Sequence[str],
    store: EmbeddingStore,
    tau: float = 0.8,
    example_id: str | None = None,
) -> list[list[int]]:
    """Single-link greedy grouping of outputs by embedding cosine.

    Outputs are scanned in order; each joins the first existing cluster that
    contains a member with cosine >= tau, otherwise it opens a new cluster.
    Deterministic given the input order, the store, and tau.  A missing
    embedding names ``example_id`` when one is given.

    The cosine is the dot product of the unit vectors (a zero vector stays
    as it is).  All of them come from one ``np.vecdot`` over every pair of
    outputs, which calls the same per-pair BLAS ddot as ``np.dot``, so each
    ``>= tau`` decision is the one a per-pair ``np.dot`` makes
    (``test_cluster_greedy_equals_per_pair_loop`` pins it at the boundary).
    """
    import numpy as np

    if not 0.0 < tau < 1.0:
        raise ValidationError(f"tau must be in (0, 1), got {tau}")
    if not outputs:
        return []
    found = [store.lookup_with_norm(text, example_id) for text in outputs]
    norms = np.array([norm if norm > 0 else 1.0 for _, norm in found])
    units = np.array([vector for vector, _ in found]) / norms[:, None]
    close = (np.vecdot(units[:, None, :], units[None, :, :]) >= tau).tolist()
    # the first cluster with a close member is the one of least index
    labels: list[int] = []
    clusters: list[list[int]] = []
    for i, row in enumerate(close):
        label = min(compress(labels, row), default=len(clusters))
        if label == len(clusters):
            clusters.append([])
        clusters[label].append(i)
        labels.append(label)
    return clusters


def _element_map(clusters: Sequence[Sequence[int]]) -> dict[int, frozenset[int]]:
    mapping: dict[int, frozenset[int]] = {}
    for group in clusters:
        members = frozenset(group)
        for element in group:
            mapping[element] = members
    return mapping


def bcubed(
    predicted: Sequence[Sequence[int]], gold: Sequence[Sequence[int]]
) -> tuple[float, float, float]:
    """Element-averaged B-cubed precision, recall, and their harmonic mean.

    For each element, precision is the fraction of its predicted cluster that
    shares its gold cluster; recall is the fraction of its gold cluster that
    shares its predicted cluster.
    """
    pred_map = _element_map(predicted)
    gold_map = _element_map(gold)
    if set(pred_map) != set(gold_map):
        raise PolyevalError(
            "predicted and gold clusterings cover different index sets"
        )
    if not pred_map:
        raise ValidationError("cannot score empty clusterings")
    precisions = []
    recalls = []
    for element in pred_map:
        overlap = len(pred_map[element] & gold_map[element])
        precisions.append(overlap / len(pred_map[element]))
        recalls.append(overlap / len(gold_map[element]))
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f1


class DiversityReport(NamedTuple):
    avg_clusters: float
    pct_unique: float  # mean % of outputs that sit alone in their cluster
    avg_words: float
    n_examples: int


def diversity_report(
    outputs_by_example: Mapping[str, Sequence[str]],
    clusterings: Mapping[str, Sequence[Sequence[int]]],
) -> DiversityReport:
    """Cluster-count and uniqueness summary over per-example clusterings."""
    if not outputs_by_example:
        raise ValidationError("no examples to report on")
    cluster_counts = []
    unique_pcts = []
    total_words = 0
    total_outputs = 0
    for example_id in sorted(outputs_by_example):
        outputs = outputs_by_example[example_id]
        clusters = validate_clustering(
            clusterings[example_id], len(outputs), example_id
        )
        cluster_counts.append(len(clusters))
        singles = sum(1 for group in clusters if len(group) == 1)
        unique_pcts.append(100.0 * singles / len(outputs))
        total_words += sum(len(text.split()) for text in outputs)
        total_outputs += len(outputs)
    return DiversityReport(
        avg_clusters=sum(cluster_counts) / len(cluster_counts),
        pct_unique=sum(unique_pcts) / len(unique_pcts),
        avg_words=total_words / total_outputs,
        n_examples=len(cluster_counts),
    )


def _text_grams(text: str) -> tuple[int, frozenset[str], frozenset[tuple[str, str]]]:
    """The word count, unigram types and bigram types of a text, lowercased."""
    words = text.lower().split()
    return len(words), frozenset(words), frozenset(zip(words, words[1:]))


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def ngram_uniqueness(examples: Sequence[Example]) -> dict[str, dict]:
    """Corpus statistics per inference type plus a macro-averaged overall row.

    Words and per-example inference counts cover every example; the
    between-inference uniqueness percentages (U1%, U2%) and the unique-string
    rate (UL%) cover only multi-inference examples, whose count is reported
    separately.  Reference strings are kept as given (no deduplication).
    """
    if not examples:
        raise ValidationError("no examples to report on")
    by_type: dict[str, list[Example]] = {}
    for example in examples:
        by_type.setdefault(example.inference_type.value, []).append(example)

    # each distinct text once: grams[text][0] is its word count, and
    # grams[text][n] its set of n-gram types for n = 1, 2
    grams = {text: _text_grams(text)
             for text in dict.fromkeys(ref for ex in examples for ref in ex.references)}
    table: dict[str, dict] = {}
    for itype in sorted(by_type):
        members = by_type[itype]
        inferences = [ref for ex in members for ref in ex.references]
        poly = [ex for ex in members if len(ex.references) >= 2]
        poly_refs = [ref for ex in poly for ref in ex.references]
        # % of an example's n-gram types that occur in exactly one of its
        # inferences; an example without an n-gram gives none
        unique_pcts: dict[int, list[float]] = {1: [], 2: []}
        for ex in poly:
            for n, pcts in unique_pcts.items():
                occurrence = Counter(g for ref in ex.references for g in grams[ref][n])
                if occurrence:
                    unique = sum(1 for count in occurrence.values() if count == 1)
                    pcts.append(100.0 * unique / len(occurrence))
        counts = [len(ex.references) for ex in members]
        poly_counts = [len(ex.references) for ex in poly]
        table[itype] = {
            "examples": len(members),
            "words": sum(grams[t][0] for t in inferences) / len(inferences),
            "inferences_total": len(inferences),
            "inferences_distinct": len(set(inferences)),
            "inferences_mean": sum(counts) / len(counts),
            "inferences_min": min(poly_counts) if poly_counts else min(counts),
            "inferences_max": max(poly_counts) if poly_counts else max(counts),
            "u1_count": len(set().union(*(grams[t][1] for t in inferences))),
            "u2_count": len(set().union(*(grams[t][2] for t in inferences))),
            "poly_examples": len(poly),
            "u1_pct": _mean(unique_pcts[1]),
            "u2_pct": _mean(unique_pcts[2]),
            "ul_pct": (
                100.0 * len(set(poly_refs)) / len(poly_refs) if poly_refs else None
            ),
        }

    rows = list(table.values())
    overall = {
        "examples": sum(r["examples"] for r in rows),
        "inferences_total": sum(r["inferences_total"] for r in rows),
        "inferences_distinct": sum(r["inferences_distinct"] for r in rows),
    }
    for key in (
        "words",
        "inferences_mean",
        "u1_count",
        "u2_count",
        "u1_pct",
        "u2_pct",
        "ul_pct",
    ):
        values = [r[key] for r in rows if r[key] is not None]
        overall[key] = _mean(values)
    overall["poly_examples"] = sum(r["poly_examples"] for r in rows)
    table["_overall"] = overall
    return table
