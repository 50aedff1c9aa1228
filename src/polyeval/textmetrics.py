"""Per-pair scoring functions behind a uniform metric interface.

A metric is any callable ``metric(candidate, reference) -> float``.  Two are
built in (sentence BLEU and embedding cosine); externally computed scores
(e.g. from a contextual-encoder metric) are injected through a sidecar file
of per-example score matrices.

A metric may also carry a per-text ``prepare(text)`` and a per-pair
``compare(prepared_candidate, prepared_reference)``, with
``metric(c, r) == compare(prepare(c), prepare(r))``.  ``score_matrix`` then
prepares each distinct text once per matrix; both built-in metrics do.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import example_id_of, normalize_text
from .dataio import EmbeddingStore, float_array, load_keyed
from .errors import (
    EmptyText,
    MissingExternalScores,
    PolyevalError,
    ValidationError,
    ZeroNormVector,
)

Metric = Callable[[str, str], float]


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenization used by the n-gram metrics."""
    tokens = text.lower().split()
    if not tokens:
        raise EmptyText(f"text has no tokens: {text!r}")
    return tokens


_BleuProfile = tuple[int, list[Counter]]


def _bleu_profile(text: str) -> _BleuProfile:
    """Token count and n-gram counts (n = 1..4) of one text."""
    tokens = tokenize(text)
    grams = [Counter(zip(*(tokens[i:] for i in range(n)))) for n in range(1, 5)]
    return len(tokens), grams


def _bleu_compare(candidate: _BleuProfile, reference: _BleuProfile) -> float:
    cand_len, cand_grams = candidate
    ref_len, ref_grams = reference
    log_sum = 0.0
    for n, cand_counts, ref_counts in zip(range(1, 5), cand_grams, ref_grams):
        possible = max(cand_len - n + 1, 0)
        matches = sum(
            min(cand_counts[gram], ref_counts[gram])
            for gram in cand_counts.keys() & ref_counts.keys()
        )
        if matches > 0:
            precision = matches / possible
        elif n >= 2:
            precision = (matches + 1) / (possible + 1)
        else:
            return 0.0
        log_sum += 0.25 * math.log(precision)
    brevity = math.exp(min(0.0, 1.0 - ref_len / cand_len))
    return brevity * math.exp(log_sum)


def bleu(candidate: str, reference: str) -> float:
    """Sentence-level BLEU in [0, 1].

    Geometric mean of modified (clipped) n-gram precisions for n = 1..4 with
    uniform weights, times the brevity penalty exp(min(0, 1 - |r|/|c|)).
    For n >= 2 a zero precision is smoothed to (matches + 1) / (possible + 1);
    unigram precision is never smoothed, so disjoint texts score 0.
    """
    return _bleu_compare(_bleu_profile(candidate), _bleu_profile(reference))


bleu.prepare, bleu.compare = _bleu_profile, _bleu_compare


def exact_match(candidate: str, reference: str) -> float:
    """1.0 when the normalized strings are equal, else 0.0."""
    return 1.0 if normalize_text(candidate) == normalize_text(reference) else 0.0


_Embedded = tuple[str, np.ndarray, float]


def _embedding(text: str, store: EmbeddingStore) -> _Embedded:
    """The text, its stored vector and the vector's norm."""
    vector = store.lookup(text)
    return text, vector, float(np.linalg.norm(vector))


def _cosine(candidate: _Embedded, reference: _Embedded) -> float:
    cand_text, u, nu = candidate
    ref_text, v, nv = reference
    if nu == 0.0 or nv == 0.0:
        raise ZeroNormVector(
            f"zero-norm embedding for {(cand_text if nu == 0.0 else ref_text)!r}"
        )
    return float(np.dot(u, v) / (nu * nv))


def embed_cosine(candidate: str, reference: str, store: EmbeddingStore) -> float:
    """Cosine similarity between the stored vectors of the two texts."""
    return _cosine(_embedding(candidate, store), _embedding(reference, store))


def make_metric(metric_id: str, embeddings: EmbeddingStore | None = None) -> Metric:
    """Resolve a metric id to a pair-scoring callable."""
    if metric_id == "bleu":
        return bleu
    if metric_id in ("embed", "embed_cosine"):
        if embeddings is None:
            raise ValidationError("embed_cosine metric requires an embedding store")
        metric = functools.partial(embed_cosine, store=embeddings)
        metric.prepare = functools.partial(_embedding, store=embeddings)
        metric.compare = _cosine
        return metric
    if metric_id == "exact":
        return exact_match
    raise ValidationError(f"unknown metric id {metric_id!r}")


def score_matrix(
    outputs: Sequence[str], references: Sequence[str], metric: Metric
) -> np.ndarray:
    """|outputs| x |references| matrix of metric values.

    Each distinct text is prepared once, at its first use in row-major order,
    so a failure names the same cell as calling the metric pair by pair.
    """
    if not outputs or not references:
        raise ValidationError("score_matrix needs nonempty outputs and references")
    prepare = getattr(metric, "prepare", lambda text: text)
    compare = getattr(metric, "compare", metric)
    prepared: dict[str, object] = {}
    matrix = np.empty((len(outputs), len(references)), dtype=float)
    for i, out in enumerate(outputs):
        for j, ref in enumerate(references):
            try:
                for text in (out, ref):
                    if text not in prepared:
                        prepared[text] = prepare(text)
                matrix[i, j] = compare(prepared[out], prepared[ref])
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
    """Score matrices keyed by example_id, rows outputs and columns references."""
    def parse(record: dict) -> tuple[str, np.ndarray]:
        return example_id_of(record), float_array(record.get("scores"), 2, "scores")

    return ExternalScoreSidecar(load_keyed(path, parse, "example"))
