"""Diversity measurement: semantic output clustering, B-cubed agreement
against gold clusterings, and corpus n-gram uniqueness statistics.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

from .core import Example
from .dataio import EmbeddingStore
from .errors import PolyevalError, ValidationError
from .scoring import validate_clustering


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


@dataclass(frozen=True)
class DiversityReport:
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


def _tokens(text: str) -> list[str]:
    return text.lower().split()


def _ngram_types(text: str, n: int) -> set[tuple[str, ...]]:
    toks = _tokens(text)
    return {tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def _pct_unique_ngrams(inferences: Sequence[str], n: int) -> float | None:
    """% of n-gram types that occur in exactly one inference of the example."""
    per_inference = [_ngram_types(text, n) for text in inferences]
    occurrence = Counter(g for types in per_inference for g in types)
    if not occurrence:
        return None
    unique = sum(1 for count in occurrence.values() if count == 1)
    return 100.0 * unique / len(occurrence)


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

    table: dict[str, dict] = {}
    for itype in sorted(by_type):
        members = by_type[itype]
        inferences = [ref for ex in members for ref in ex.references]
        poly = [ex for ex in members if len(ex.references) >= 2]
        poly_refs = [ref for ex in poly for ref in ex.references]
        u1_pcts = [
            v for ex in poly if (v := _pct_unique_ngrams(ex.references, 1)) is not None
        ]
        u2_pcts = [
            v for ex in poly if (v := _pct_unique_ngrams(ex.references, 2)) is not None
        ]
        counts = [len(ex.references) for ex in members]
        poly_counts = [len(ex.references) for ex in poly]
        table[itype] = {
            "examples": len(members),
            "words": sum(len(_tokens(t)) for t in inferences) / len(inferences),
            "inferences_total": len(inferences),
            "inferences_distinct": len(set(inferences)),
            "inferences_mean": sum(counts) / len(counts),
            "inferences_min": min(poly_counts) if poly_counts else min(counts),
            "inferences_max": max(poly_counts) if poly_counts else max(counts),
            "u1_count": len({g for t in inferences for g in _ngram_types(t, 1)}),
            "u2_count": len({g for t in inferences for g in _ngram_types(t, 2)}),
            "poly_examples": len(poly),
            "u1_pct": _mean(u1_pcts),
            "u2_pct": _mean(u2_pcts),
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
