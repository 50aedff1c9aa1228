"""The evaluation engine: one set scorer, one top-1 scorer, coverage
moderation and reference-count weighting.

``polyagg`` scores a set of outputs: score matrix, optional max-pooling of
output rows into cluster rows, one canonical order of rows and columns, then
bipartite or maximum matching.  A bipartite score is ``assignment.optimum``
over min(m, n), one solve; the canonical order makes both matchings
independent of the order of the outputs and the references.
``top1_select`` applies the paper's top-1 rules.  Both take their scores
from the metric or from an external sidecar.

Per-example scoring is pure.  Both strategies, top-1 selection and set
scoring, give one ``ExampleScore`` per example, and one reducer turns them into
the corpus figures.  The reducer sums the contributions in example_id order,
so the figures do not depend on the order the examples come in.
"""
from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .assignment import optimum
from .core import (
    Example,
    EvalConfig,
    GenerationMode,
    GenerationSet,
    InferenceType,
    validate_clustering,
)
from .errors import PolyevalError, ValidationError
from .textmetrics import ExternalScoreSidecar, Metric, score_matrix

if TYPE_CHECKING:  # numpy is imported by the functions that make arrays
    import numpy as np


def coverage(n_outs: int, n_refs: int, cap: bool = True) -> float:
    """Output/reference count ratio, clamped to 1.0 unless uncapped."""
    if n_outs < 1 or n_refs < 1:
        raise ValidationError("coverage needs n_outs >= 1 and n_refs >= 1")
    ratio = n_outs / n_refs
    return min(1.0, ratio) if cap else ratio


def _example_matrix(
    outputs: Sequence[str],
    references: Sequence[str],
    metric: Metric | None,
    external: ExternalScoreSidecar | None,
    example_id: str,
) -> np.ndarray:
    """outputs x references scores: from the external sidecar when one is
    given, otherwise computed with the metric (a failure names the example)."""
    if external is not None:
        return external.matrix_for(example_id, len(outputs), len(references))
    try:
        return score_matrix(outputs, references, metric)
    except PolyevalError as exc:
        raise type(exc)(f"{exc} (example {example_id!r})") from exc


def top1_select(
    outputs: Sequence[str],
    references: Sequence[str],
    metric: Metric | None,
    selection: str = "maximum",
    *,
    external: ExternalScoreSidecar | None = None,
    example_id: str = "?",
) -> float:
    """Single-inference score.

    maximum: best score over all (output, reference) pairs.
    order:   best score over references for the first output only.

    Scores come from ``external`` (keyed by ``example_id``) when given.
    """
    if not outputs:
        raise ValidationError("top1_select needs at least one output")
    if selection == "order" and external is None:
        outputs = outputs[:1]  # the metric need not score the other rows
    matrix = _example_matrix(outputs, references, metric, external, example_id)
    if selection == "order":
        return float(matrix[0].max())
    if selection == "maximum":
        return float(matrix.max())
    raise ValidationError(f"unknown selection {selection!r}")


def polyagg(
    outputs: Sequence[str],
    references: Sequence[str],
    metric: Metric | None = None,
    matching: str = "bipartite",
    *,
    clusters: Sequence[Sequence[int]] | None = None,
    external: ExternalScoreSidecar | None = None,
    example_id: str = "?",
) -> float:
    """Score a set of outputs against a set of references.

    bipartite: at most one output claims each reference (the assignment
               optimum), so rephrasings of one idea cannot cover a diverse
               reference set.
    maximum:   every output keeps its best reference; references may repeat.

    With ``clusters``, at most one representative per cluster is used: each
    cluster row holds its best member's score per reference, so the optimum
    over that matrix is the exact optimum over all (representative choice,
    mapping) combinations.  Scores come from ``external`` (keyed by
    ``example_id``) when given.

    Rows (clusters by their text-sorted members) are ordered by output text
    and columns by (reference text, column values), so the score does not
    depend on the order of distinct outputs or of the references.
    """
    if clusters is not None:
        clusters = validate_clustering(clusters, len(outputs), example_id)
    matrix = _example_matrix(outputs, references, metric, external, example_id)
    text = outputs.__getitem__
    if clusters is None:
        matrix = matrix[sorted(range(len(outputs)), key=text)]
    else:
        import numpy as np

        groups = sorted((sorted(group, key=text) for group in clusters),
                        key=lambda group: text(group[0]))
        starts = list(itertools.accumulate(map(len, groups[:-1]), initial=0))
        matrix = np.maximum.reduceat(matrix[list(itertools.chain(*groups))], starts, axis=0)
    columns = matrix.T.tolist()
    matrix = matrix[:, sorted(range(len(references)),
                              key=lambda j: (references[j], columns[j]))]
    if matching == "bipartite":
        return optimum(matrix) / min(matrix.shape)
    if matching == "maximum":
        return float(matrix.max(axis=1).mean())
    raise ValidationError(f"unknown matching {matching!r}")


class ExampleScore(NamedTuple):
    example_id: str
    inference_type: InferenceType
    score: float  # top-1 score, or set score under the matching mode
    coverage: float  # 1.0 for a top-1 score
    n_outs: int
    n_refs: int
    weight: int  # n_refs for a set score, 1 for a top-1 score

    @property
    def contribution(self) -> float:
        return self.score * self.coverage * self.weight


class CorpusScore(NamedTuple):
    """Weighted corpus result.

    ``overall`` is the sum of example contributions divided by the total
    weight (the reference count for set scores, the example count for top-1
    scores); ``per_type`` applies the same formula within each inference type
    and ``macro`` averages those per-type values.
    """

    overall: float
    per_type: dict[str, float]
    macro: float
    n_examples: int
    n_references: int
    example_scores: tuple[ExampleScore, ...]


def _weighted_mean(scores: Sequence[ExampleScore]) -> float:
    return sum(s.contribution for s in scores) / sum(s.weight for s in scores)


def _aggregate(example_scores: list[ExampleScore]) -> CorpusScore:
    if not example_scores:
        raise ValidationError("no examples to report on")
    example_scores = sorted(example_scores, key=lambda s: s.example_id)
    per_type: dict[str, float] = {}
    for itype in sorted({s.inference_type.value for s in example_scores}):
        per_type[itype] = _weighted_mean(
            [s for s in example_scores if s.inference_type.value == itype]
        )
    return CorpusScore(
        overall=_weighted_mean(example_scores),
        per_type=per_type,
        macro=sum(per_type.values()) / len(per_type),
        n_examples=len(example_scores),
        n_references=sum(s.n_refs for s in example_scores),
        example_scores=tuple(example_scores),
    )


def select_outputs(generation_set: GenerationSet, top_k: int) -> list[str]:
    """Outputs entering evaluation: the first top_k of run 1.

    For top_k == 1, monomorphic sets contribute their single best beam while
    polymorphic sets keep their whole first-run list (the selection rule
    decides what is compared).
    """
    outputs = list(generation_set.runs[0])
    if top_k == 1 and generation_set.mode is not GenerationMode.POLYMORPHIC:
        return outputs[:1]
    if top_k == 1:
        return outputs
    return outputs[:top_k]


def corpus_score(
    examples: Sequence[Example],
    generations: Mapping[str, GenerationSet],
    config: EvalConfig,
    metric: Metric | None = None,
    *,
    clusters: Mapping[str, Sequence[Sequence[int]]] | None = None,
    external: ExternalScoreSidecar | None = None,
) -> CorpusScore:
    """Corpus score under either strategy of ``config``.

    top_k == 1: each example scores its single best inference under
    ``config.selection`` (``top1_select``), and the corpus figures are plain
    means.
    top_k > 1: each example's set is scored under ``config.matching``
    (``polyagg``), and the corpus figures are weighted by reference
    count.  With ``clusters``, every example is scored cluster-constrained
    and must have a clustering.
    """
    if clusters is not None and config.top_k == 1:
        raise ValidationError("cluster-constrained evaluation needs top_k > 1")

    def one(example: Example) -> ExampleScore:
        gs = generations.get(example.example_id)
        if gs is None:
            raise PolyevalError(
                f"no generations for example {example.example_id!r}"
            )
        outputs = select_outputs(gs, config.top_k)
        n_refs = len(example.references)
        if config.top_k == 1:
            value = top1_select(
                outputs, example.references, metric, config.selection,
                external=external, example_id=example.example_id,
            )
            return ExampleScore(
                example.example_id, example.inference_type, value, coverage=1.0,
                n_outs=len(outputs), n_refs=n_refs, weight=1,
            )
        example_clusters = None
        n_outs = len(outputs)
        if clusters is not None:
            if example.example_id not in clusters:
                raise ValidationError(
                    f"example {example.example_id!r}: cluster-constrained "
                    "evaluation needs a clustering"
                )
            example_clusters = clusters[example.example_id]
            # only one generation per cluster can count, so coverage uses the
            # number of clusters rather than the raw output count
            n_outs = len(example_clusters)
        value = polyagg(
            outputs, example.references, metric, config.matching,
            clusters=example_clusters, external=external,
            example_id=example.example_id,
        )
        return ExampleScore(
            example.example_id, example.inference_type, value,
            coverage(n_outs, n_refs, config.coverage_cap),
            n_outs=n_outs, n_refs=n_refs, weight=n_refs,
        )

    return _aggregate([one(example) for example in examples])
