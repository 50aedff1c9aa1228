"""Per-pair scoring functions behind a uniform metric interface.

A metric is any callable ``metric(candidate, reference) -> float``.  Two are
built in (sentence BLEU and embedding cosine); externally computed scores
(e.g. from a contextual-encoder metric) are injected through a sidecar file
of per-example score matrices.

A metric may also carry a per-text ``prepare(text)`` and a per-pair
``compare(prepared_candidate, prepared_reference)``, with
``metric(c, r) == compare(prepare(c), prepare(r))``, and a
``compare_matrix`` that compares all prepared pairs of a matrix at once.
``score_matrix`` prepares each distinct text once per matrix; both
built-in metrics carry all three.

BLEU follows Papineni et al., "BLEU: a method for automatic evaluation of
machine translation" (ACL 2002), at sentence level with add-one smoothing
for n >= 2.  Its matrix is filled in one pass over an inverted index
(Zobel & Moffat, "Inverted files for text search engines", ACM Computing
Surveys 2006): each text is profiled once as one ``Counter`` of its 1- to
4-grams, each reference gram is indexed once as gram -> [(reference, order,
count)], and each candidate walks only the grams it shares with the index,
adding its clipped count ``min(c, rc)`` to the per-order match counts of
every reference that holds the gram.  Pairs that share no gram are never
visited.  The match counts are Python ints, so they are exact whatever the
order of summation, and the float tail (the precisions, ``math.log`` and
``math.exp``) runs per cell in the same scalar order as a pairwise
computation, so every cell is bit-identical to it.  Per-pair ``bleu`` is the
1 x 1 case of the same function.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .core import FORMATS, check_shape, example_id_of, normalize_text
from .dataio import EmbeddingStore, float_array, load_keyed
from .errors import PolyevalError, ValidationError

if TYPE_CHECKING:  # numpy is imported by the functions that make arrays
    import numpy as np

Metric = Callable[[str, str], float]


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenization used by the n-gram metrics."""
    tokens = text.lower().split()
    if not tokens:
        raise ValidationError(f"text has no tokens: {text!r}")
    return tokens


_BleuProfile = tuple[int, Counter]


def _bleu_profile(text: str) -> _BleuProfile:
    """Token count and the counts of all 1- to 4-grams of one text.

    A gram is a tuple of tokens, so its length is its order.
    """
    tokens = tokenize(text)
    t1, t2, t3 = tokens[1:], tokens[2:], tokens[3:]
    return len(tokens), Counter(
        [*zip(tokens), *zip(tokens, t1), *zip(tokens, t1, t2), *zip(tokens, t1, t2, t3)])


def _bleu_score(cand_len: int, ref_len: int, matches: Sequence[int]) -> float:
    """BLEU of one pair from its clipped match counts for n = 1..4."""
    log_sum = 0.0
    for n, match in enumerate(matches, 1):
        possible = max(cand_len - n + 1, 0)
        if match > 0:
            precision = match / possible
        elif n >= 2:
            precision = (match + 1) / (possible + 1)
        else:
            return 0.0
        log_sum += 0.25 * math.log(precision)
    brevity = math.exp(min(0.0, 1.0 - ref_len / cand_len))
    return brevity * math.exp(log_sum)


def _bleu_matrix(
    candidates: Sequence[_BleuProfile], references: Sequence[_BleuProfile]
) -> list[list[float]]:
    """``bleu`` of every (candidate, reference) pair, over an inverted index.

    The index maps each reference gram to its ``(slot, count)`` postings,
    where slot ``4 * j + n - 1`` holds reference j's matches of order n.  A
    cell with no unigram match is 0.0, as ``_bleu_score`` would return.
    """
    index: dict[tuple[str, ...], list[tuple[int, int]]] = {}
    for j, (_, grams) in enumerate(references):
        for gram, count in grams.items():
            index.setdefault(gram, []).append((4 * j + len(gram) - 1, count))
    rows = []
    for cand_len, grams in candidates:
        matches = [0] * (4 * len(references))
        for gram in grams.keys() & index.keys():
            count = grams[gram]
            for slot, ref_count in index[gram]:
                matches[slot] += count if count < ref_count else ref_count
        rows.append([_bleu_score(cand_len, ref_len, matches[4 * j:4 * j + 4])
                     if matches[4 * j] else 0.0
                     for j, (ref_len, _) in enumerate(references)])
    return rows


def _bleu_compare(candidate: _BleuProfile, reference: _BleuProfile) -> float:
    return _bleu_matrix([candidate], [reference])[0][0]


def bleu(candidate: str, reference: str) -> float:
    """Sentence-level BLEU in [0, 1].

    Geometric mean of modified (clipped) n-gram precisions for n = 1..4 with
    uniform weights, times the brevity penalty exp(min(0, 1 - |r|/|c|)).
    For n >= 2 a zero precision is smoothed to (matches + 1) / (possible + 1);
    unigram precision is never smoothed, so disjoint texts score 0.
    """
    return _bleu_compare(_bleu_profile(candidate), _bleu_profile(reference))


bleu.prepare, bleu.compare = _bleu_profile, _bleu_compare
bleu.compare_matrix = _bleu_matrix


def exact_match(candidate: str, reference: str) -> float:
    """1.0 when the normalized strings are equal, else 0.0."""
    return 1.0 if normalize_text(candidate) == normalize_text(reference) else 0.0


_Embedded = "tuple[str, np.ndarray, float]"


def _embedding(text: str, store: EmbeddingStore) -> _Embedded:
    """The text, its stored vector and the vector's norm."""
    return (text, *store.lookup_with_norm(text))


def _cosine(candidate: _Embedded, reference: _Embedded) -> float:
    cand_text, u, nu = candidate
    ref_text, v, nv = reference
    if nu == 0.0 or nv == 0.0:
        raise PolyevalError(
            f"zero-norm embedding for {(cand_text if nu == 0.0 else ref_text)!r}"
        )
    return float(u.dot(v) / (nu * nv))


def _cosine_matrix(
    candidates: Sequence[_Embedded], references: Sequence[_Embedded]
) -> np.ndarray | None:
    """``_cosine`` of every pair as one matrix, or None if a norm is zero.

    ``np.vecdot`` calls the same per-pair BLAS ddot as ``u.dot(v)``, and the
    division is the same IEEE operation, so every cell is bit-identical to
    ``_cosine`` (pinned by ``test_vecdot_equals_per_pair_dot``); a matrix
    product or ``einsum`` sums in another order.
    """
    import numpy as np

    nu = np.array([norm for _, _, norm in candidates])
    nv = np.array([norm for _, _, norm in references])
    if not (nu.all() and nv.all()):
        return None
    u = np.array([vector for _, vector, _ in candidates])
    v = np.array([vector for _, vector, _ in references])
    return np.vecdot(u[:, None, :], v[None, :, :]) / np.multiply.outer(nu, nv)


def embed_cosine(candidate: str, reference: str, store: EmbeddingStore) -> float:
    """Cosine similarity between the stored vectors of the two texts."""
    return _cosine(_embedding(candidate, store), _embedding(reference, store))


def make_metric(metric_id: str, embeddings: EmbeddingStore | None = None) -> Metric:
    """Resolve a metric id to a pair-scoring callable."""
    if metric_id == "bleu":
        return bleu
    if metric_id == "embed":
        if embeddings is None:
            raise ValidationError("embed metric requires an embedding store")
        metric = functools.partial(embed_cosine, store=embeddings)
        metric.prepare = functools.partial(_embedding, store=embeddings)
        metric.compare = _cosine
        metric.compare_matrix = _cosine_matrix
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

    A metric may also carry ``compare_matrix(prepared_outputs,
    prepared_references)``, which returns every cell at once as rows of
    floats or an array, or None if one would fail.  Both built-in metrics
    do: BLEU over an inverted n-gram index (``_bleu_matrix``), the embedding
    cosine with one ``np.vecdot`` (``_cosine_matrix``).  When a prepare
    fails or ``compare_matrix`` returns None, the pair-by-pair loop runs and
    raises the error of the first failing cell; a text whose prepare failed
    is not prepared again.  Hypothesis properties in
    ``tests/test_textmetrics.py`` pin both paths of both metrics to pairwise
    reference implementations, failures included.
    """
    import numpy as np

    if not outputs or not references:
        raise ValidationError("score_matrix needs nonempty outputs and references")
    prepare = getattr(metric, "prepare", lambda text: text)
    compare = getattr(metric, "compare", metric)
    compare_matrix = getattr(metric, "compare_matrix", None)
    prepared: dict[str, object] = {}  # each text's prepared form or its error

    def prepared_form(text: str) -> object:
        if text not in prepared:
            try:
                prepared[text] = prepare(text)
            except PolyevalError as exc:
                prepared[text] = exc
        return prepared[text]

    if compare_matrix is not None:
        rows = [prepared_form(out) for out in outputs]
        columns = [prepared_form(ref) for ref in references]
        if not any(isinstance(form, PolyevalError) for form in (*rows, *columns)):
            matrix = compare_matrix(rows, columns)
            if matrix is not None:
                return np.asarray(matrix, dtype=float)
    matrix = np.empty((len(outputs), len(references)), dtype=float)
    for i, out in enumerate(outputs):
        for j, ref in enumerate(references):
            try:
                forms = prepared_form(out), prepared_form(ref)
                for form in forms:
                    if isinstance(form, PolyevalError):
                        raise form
                matrix[i, j] = compare(*forms)
            except PolyevalError as exc:
                raise type(exc)(f"{exc} (at output {i}, reference {j})") from exc
    return matrix


class ExternalScoreSidecar:
    """Preloaded outputs x references score matrices keyed by example_id."""

    def __init__(self, scores: dict[str, np.ndarray]):
        self._scores = scores

    def matrix_for(self, example_id: str, n_outputs: int, n_references: int) -> np.ndarray:
        try:
            matrix = self._scores[example_id]
        except KeyError:
            raise PolyevalError(
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
        check_shape(record, FORMATS["external_scores"])
        return example_id_of(record), float_array(record["scores"], "scores")

    return ExternalScoreSidecar(load_keyed(path, parse, "example"))
