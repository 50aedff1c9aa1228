"""Per-pair scoring functions behind a uniform metric interface.

A metric is any callable ``metric(candidate, reference) -> float``.  Two are
built in (sentence BLEU and embedding cosine); externally computed scores
(e.g. from a contextual-encoder metric) are injected through a sidecar file
of per-example score matrices.

A metric may also carry a per-text ``prepare(text)`` and a
``compare_matrix`` of prepared candidates and references, with
``metric(c, r) == compare_matrix([prepare(c)], [prepare(r)])[0][0]``, so
each built-in metric (both carry the two) states its comparison once.

BLEU follows Papineni et al., "BLEU: a method for automatic evaluation of
machine translation" (ACL 2002), at sentence level with add-one smoothing
for n >= 2.  Its matrix is read off one trie (Fredkin, "Trie memory",
CACM 1960) of the references' 1- to 4-grams: each text is tokenized once,
each node is one reference n-gram holding its count in every reference, and
each candidate walks the trie from every token position, stopping at the
first miss, and counts the c times it reaches each node, so it builds no
n-grams of its own.  The clipped count ``min(c, rc)`` is added to the
per-order match count of every reference that holds the node's gram rc
times; pairs that share no gram are never visited, and a reference gram
with a token no candidate holds is left out of the trie.  The match counts
are Python ints, so they are exact whatever the order of summation, and the
float tail (the precisions, ``math.log`` and ``math.exp``) runs per cell in
the same scalar order as a pairwise computation, so every cell is
bit-identical to it.  Per-pair ``bleu`` is the 1 x 1 case of the same
function.
"""
from __future__ import annotations

import functools
import math
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


def _bleu_tokens(text: str) -> list[str]:
    """A text's tokens, the form ``_bleu_matrix`` compares."""
    return tokenize(text)


@functools.lru_cache(maxsize=1024)
def _bleu_orders(cand_len: int) -> tuple[tuple[int, float], ...]:
    """For n = 1..4, a candidate's count of n-grams and the add-one smoothed
    log term of an order with no match."""
    return tuple((possible, 0.25 * math.log(1 / (possible + 1)))
                 for possible in (max(cand_len - n + 1, 0) for n in range(1, 5)))


def _bleu_matrix(
    candidates: Sequence[list[str]], references: Sequence[list[str]]
) -> list[list[float]]:
    """``bleu`` of every (candidate, reference) pair, over a trie of the
    references' 1- to 4-grams.

    A node is ``[children, counts, hits]``: ``counts`` maps slot
    ``4 * j + n - 1`` to the count in reference j of the node's n-gram, and
    ``hits`` counts the current candidate's occurrences of it.  A gram with a
    token no candidate holds is never reached, so the trie stops there.  A
    cell with no unigram match is 0.0.
    """
    vocabulary = set().union(*candidates)
    root: dict = {}
    for j, tokens in enumerate(references):
        for i in range(len(tokens)):
            children = root
            for slot, token in enumerate(tokens[i:i + 4], 4 * j):
                if token not in vocabulary:
                    break
                node = children.get(token)
                if node is None:
                    node = children[token] = [{}, {}, 0]
                counts = node[1]
                counts[slot] = counts.get(slot, 0) + 1
                children = node[0]
    ref_lens = [len(tokens) for tokens in references]
    rows = []
    for tokens in candidates:
        reached = []
        for i in range(len(tokens)):
            children = root
            for token in tokens[i:i + 4]:
                node = children.get(token)
                if node is None:
                    break
                if not node[2]:
                    reached.append(node)
                node[2] += 1
                children = node[0]
        matches = [0] * (4 * len(references))
        for node in reached:
            count, node[2] = node[2], 0
            for slot, ref_count in node[1].items():
                matches[slot] += count if count < ref_count else ref_count
        cand_len = len(tokens)
        orders = _bleu_orders(cand_len)
        row = []
        for j, ref_len in enumerate(ref_lens):
            if not matches[4 * j]:
                row.append(0.0)
                continue
            log_sum = 0.0
            for match, (possible, smoothed) in zip(matches[4 * j:4 * j + 4], orders):
                log_sum += 0.25 * math.log(match / possible) if match else smoothed
            brevity = math.exp(min(0.0, 1.0 - ref_len / cand_len))
            row.append(brevity * math.exp(log_sum))
        rows.append(row)
    return rows


def bleu(candidate: str, reference: str) -> float:
    """Sentence-level BLEU in [0, 1].

    Geometric mean of modified (clipped) n-gram precisions for n = 1..4 with
    uniform weights, times the brevity penalty exp(min(0, 1 - |r|/|c|)).
    For n >= 2 a zero precision is smoothed to (matches + 1) / (possible + 1);
    unigram precision is never smoothed, so disjoint texts score 0.
    """
    return _bleu_matrix([_bleu_tokens(candidate)], [_bleu_tokens(reference)])[0][0]


bleu.prepare, bleu.compare_matrix = _bleu_tokens, _bleu_matrix


def exact_match(candidate: str, reference: str) -> float:
    """1.0 when the normalized strings are equal, else 0.0."""
    return 1.0 if normalize_text(candidate) == normalize_text(reference) else 0.0


_Embedded = "tuple[str, np.ndarray, float]"


def _embedding(text: str, store: EmbeddingStore) -> _Embedded:
    """The text, its stored vector and the vector's norm."""
    return (text, *store.lookup_with_norm(text))


def _cosine_matrix(
    candidates: Sequence[_Embedded], references: Sequence[_Embedded]
) -> np.ndarray:
    """Cosine of every (candidate, reference) pair; a zero norm raises, naming
    the first zero-norm candidate, else the first zero-norm reference.

    ``np.vecdot`` calls the same per-pair BLAS ddot as ``u.dot(v)``, so every
    cell is bit-identical to ``u.dot(v) / (nu * nv)`` (pinned by
    ``test_vecdot_equals_per_pair_dot``); a matrix product or ``einsum``
    sums in another order.
    """
    import numpy as np

    nu = np.array([norm for _, _, norm in candidates])
    nv = np.array([norm for _, _, norm in references])
    if not (nu.all() and nv.all()):
        text = next(text for text, _, norm in (*candidates, *references) if norm == 0.0)
        raise PolyevalError(f"zero-norm embedding for {text!r}")
    u = np.array([vector for _, vector, _ in candidates])
    v = np.array([vector for _, vector, _ in references])
    return np.vecdot(u[:, None, :], v[None, :, :]) / np.multiply.outer(nu, nv)


def _embed_cosine(candidate: str, reference: str, store: EmbeddingStore) -> float:
    """Cosine similarity between the stored vectors of the two texts."""
    return float(_cosine_matrix(
        [_embedding(candidate, store)], [_embedding(reference, store)])[0][0])


def make_metric(metric_id: str, embeddings: EmbeddingStore | None = None) -> Metric:
    """Resolve a metric id to a pair-scoring callable."""
    if metric_id == "bleu":
        return bleu
    if metric_id == "embed":
        if embeddings is None:
            raise ValidationError("embed metric requires an embedding store")
        metric = functools.partial(_embed_cosine, store=embeddings)
        metric.prepare = functools.partial(_embedding, store=embeddings)
        metric.compare_matrix = _cosine_matrix
        return metric
    raise ValidationError(f"unknown metric id {metric_id!r}")


def score_matrix(
    outputs: Sequence[str], references: Sequence[str], metric: Metric
) -> np.ndarray:
    """|outputs| x |references| matrix of metric values.

    Each distinct text is prepared once, outputs then references, and the
    matrix is one ``compare_matrix`` call (BLEU: ``_bleu_matrix``, over a
    trie of reference n-grams; embedding cosine: ``_cosine_matrix``, one
    ``np.vecdot``); a plain callable is called once per cell.  When a
    prepare or the matrix fails, each cell is compared alone in row-major
    order, a failed prepare raising its kept error first, so the error names
    the same cell as calling the metric pair by pair.  Hypothesis properties
    in ``tests/test_textmetrics.py`` pin both metrics to pairwise reference
    implementations, failures included.
    """
    import numpy as np

    if not outputs or not references:
        raise ValidationError("score_matrix needs nonempty outputs and references")

    def plain(rows: list, columns: list) -> list[list[float]]:
        return [[metric(out, ref) for ref in columns] for out in rows]

    compare_matrix = getattr(metric, "compare_matrix", plain)
    # a plain callable compares the texts themselves
    prepare = None if compare_matrix is plain else getattr(metric, "prepare", None)
    prepared: dict[str, object] = {}  # each text's prepared form or its error
    for text in dict.fromkeys((*outputs, *references)):
        try:
            prepared[text] = text if prepare is None else prepare(text)
        except PolyevalError as exc:
            prepared[text] = exc

    def compare(rows: list, columns: list):
        for form in (*rows, *columns):
            if isinstance(form, PolyevalError):
                raise form
        return compare_matrix(rows, columns)

    rows, columns = [prepared[out] for out in outputs], [prepared[ref] for ref in references]
    try:
        return np.asarray(compare(rows, columns), dtype=float)
    except PolyevalError:
        for i, row in enumerate(rows):
            for j, column in enumerate(columns):
                try:
                    compare([row], [column])
                except PolyevalError as exc:
                    raise type(exc)(f"{exc} (at output {i}, reference {j})") from exc
        raise


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
