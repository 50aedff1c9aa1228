"""Per-pair scoring functions behind a uniform metric interface.

A metric is any callable ``metric(candidate, reference) -> float``.  Two are
built in (sentence BLEU and embedding cosine); externally computed scores
(e.g. from a contextual-encoder metric) are injected through a sidecar file
of per-example score matrices.
"""
from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import normalize_text
from .dataio import EmbeddingStore, read_jsonl
from .errors import (
    EmptyText,
    MissingExternalScores,
    NonFiniteEntry,
    PolyevalError,
    ValidationError,
    ZeroNormVector,
)

METRIC_IDS = ("bleu", "embed_cosine", "external")

Metric = Callable[[str, str], float]


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenization used by the n-gram metrics."""
    tokens = text.lower().split()
    if not tokens:
        raise EmptyText(f"text has no tokens: {text!r}")
    return tokens


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate: str, reference: str) -> float:
    """Sentence-level BLEU in [0, 1].

    Geometric mean of modified (clipped) n-gram precisions for n = 1..4 with
    uniform weights, times the brevity penalty exp(min(0, 1 - |r|/|c|)).
    For n >= 2 a zero precision is smoothed to (matches + 1) / (possible + 1);
    unigram precision is never smoothed, so disjoint texts score 0.
    """
    cand = tokenize(candidate)
    ref = tokenize(reference)
    log_sum = 0.0
    for n in range(1, 5):
        possible = max(len(cand) - n + 1, 0)
        if possible == 0:
            matches = 0
        else:
            ref_counts = _ngram_counts(ref, n)
            matches = sum(
                min(count, ref_counts[gram])
                for gram, count in _ngram_counts(cand, n).items()
            )
        if matches > 0:
            precision = matches / possible
        elif n >= 2:
            precision = (matches + 1) / (possible + 1)
        else:
            return 0.0
        log_sum += 0.25 * math.log(precision)
    brevity = math.exp(min(0.0, 1.0 - len(ref) / len(cand)))
    return brevity * math.exp(log_sum)


def exact_match(candidate: str, reference: str) -> float:
    """1.0 when the normalized strings are equal, else 0.0."""
    return 1.0 if normalize_text(candidate) == normalize_text(reference) else 0.0


def embed_cosine(candidate: str, reference: str, store: EmbeddingStore) -> float:
    """Cosine similarity between the stored vectors of the two texts."""
    u = store.lookup(candidate)
    v = store.lookup(reference)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ZeroNormVector(
            f"zero-norm embedding for {(candidate if nu == 0.0 else reference)!r}"
        )
    return float(np.dot(u, v) / (nu * nv))


def make_metric(metric_id: str, embeddings: EmbeddingStore | None = None) -> Metric:
    """Resolve a metric id to a pair-scoring callable."""
    if metric_id == "bleu":
        return bleu
    if metric_id in ("embed", "embed_cosine"):
        if embeddings is None:
            raise ValidationError("embed_cosine metric requires an embedding store")
        return lambda c, r: embed_cosine(c, r, embeddings)
    if metric_id == "exact":
        return exact_match
    raise ValidationError(f"unknown metric id {metric_id!r}")


def score_matrix(
    outputs: Sequence[str], references: Sequence[str], metric: Metric
) -> np.ndarray:
    """|outputs| x |references| matrix of metric values."""
    if not outputs or not references:
        raise ValidationError("score_matrix needs nonempty outputs and references")
    matrix = np.empty((len(outputs), len(references)), dtype=float)
    for i, out in enumerate(outputs):
        for j, ref in enumerate(references):
            try:
                matrix[i, j] = metric(out, ref)
            except PolyevalError as exc:
                raise type(exc)(f"{exc} (at output {i}, reference {j})") from exc
    return matrix


class ExternalScoreSidecar:
    """Preloaded outputs x references score matrices keyed by example_id."""

    def __init__(self, scores: dict[str, np.ndarray]):
        self._scores = scores

    def __contains__(self, example_id: str) -> bool:
        return example_id in self._scores

    def matrix_for(self, example_id: str, n_outputs: int, n_references: int) -> np.ndarray:
        try:
            matrix = self._scores[example_id]
        except KeyError:
            raise MissingExternalScores(
                f"no external scores for example {example_id!r}"
            ) from None
        if matrix.shape != (n_outputs, n_references):
            raise ValidationError(
                f"example {example_id!r}: external score matrix is {matrix.shape}, "
                f"expected {(n_outputs, n_references)}"
            )
        return matrix


def load_external_scores(path: str | Path) -> ExternalScoreSidecar:
    scores: dict[str, np.ndarray] = {}
    for lineno, record in read_jsonl(path):
        example_id = str(record.get("example_id", "")).strip()
        if not example_id:
            raise ValidationError(f"{path}:{lineno}: score row missing example_id")
        if example_id in scores:
            raise ValidationError(
                f"{path}:{lineno}: duplicate score row for example {example_id!r}"
            )
        matrix = np.asarray(record.get("scores", []), dtype=float)
        if matrix.ndim != 2 or matrix.size == 0:
            raise ValidationError(
                f"{path}:{lineno}: scores must be a nonempty 2-D row-major array"
            )
        if not np.all(np.isfinite(matrix)):
            raise NonFiniteEntry(f"{path}:{lineno}: non-finite external score")
        matrix.setflags(write=False)
        scores[example_id] = matrix
    return ExternalScoreSidecar(scores)
