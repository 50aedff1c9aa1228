"""The evaluation engine: assignment aggregation, coverage moderation,
reference-count weighting, top-1 selection rules, N-best matching modes,
and cluster-constrained scoring.

Per-example scoring is pure; the corpus reduction is an associative sum over
example contributions, so results are independent of evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .assignment import mean_assigned, solve_max
from .core import Example, EvalConfig, GenerationMode, GenerationSet, InferenceType
from .errors import EmptyCluster, MissingGenerations, PolyevalError, ValidationError
from .textmetrics import ExternalScoreSidecar, Metric, score_matrix

if TYPE_CHECKING:  # numpy is imported by the functions that make arrays
    import numpy as np


def polyagg_from_matrix(matrix: np.ndarray) -> float:
    """Mean of the maximal-assignment scores of a precomputed matrix."""
    return mean_assigned(matrix, solve_max(matrix))


def polyagg(outputs: Sequence[str], references: Sequence[str], metric: Metric) -> float:
    """Score a set of outputs against a set of references.

    Builds the outputs x references score matrix, finds the maximal injective
    assignment, and averages the assigned scores.  At most one output can
    claim each reference, so surface-level variations of one idea cannot
    cover a diverse reference set.
    """
    return polyagg_from_matrix(score_matrix(outputs, references, metric))


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


def _match(
    matrix: np.ndarray, matching: str, groups: Sequence[Sequence[int]] | None = None
) -> float:
    """Set reducer, after max-pooling output rows into cluster rows when
    ``groups`` is given."""
    if groups is not None:
        import numpy as np

        matrix = np.stack([matrix[group].max(axis=0) for group in groups])
    if matching == "bipartite":
        return polyagg_from_matrix(matrix)
    if matching == "maximum":
        return float(matrix.max(axis=1).mean())
    raise ValidationError(f"unknown matching {matching!r}")


def _select(matrix: np.ndarray, selection: str) -> float:
    """Top-1 reducer over an outputs x references matrix."""
    if selection == "order":
        return float(matrix[0].max())
    if selection == "maximum":
        return float(matrix.max())
    raise ValidationError(f"unknown selection {selection!r}")


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
    return _select(matrix, selection)


def nbest_score(
    outputs: Sequence[str],
    references: Sequence[str],
    metric: Metric,
    matching: str = "bipartite",
) -> float:
    """Set score under the chosen matching mode.

    bipartite: injective output->reference mapping (the assignment optimum).
    maximum:   every output keeps its best reference; references may repeat.
    """
    return _match(score_matrix(outputs, references, metric), matching)


def validate_clustering(clusters: Sequence[Sequence[int]], n_outputs: int,
                        example_id: str = "?") -> list[list[int]]:
    """Check the partition property: disjoint, nonempty, covering."""
    seen: set[int] = set()
    out = []
    for group in clusters:
        if not group:
            raise EmptyCluster(f"example {example_id!r}: empty cluster")
        for idx in group:
            if idx < 0 or idx >= n_outputs:
                raise ValidationError(
                    f"example {example_id!r}: cluster index {idx} out of range"
                )
            if idx in seen:
                raise ValidationError(
                    f"example {example_id!r}: output {idx} appears in two clusters"
                )
            seen.add(idx)
        out.append(list(group))
    if len(seen) != n_outputs:
        raise ValidationError(
            f"example {example_id!r}: clustering covers {len(seen)} of "
            f"{n_outputs} outputs"
        )
    return out


def cluster_constrained_score(
    outputs: Sequence[str],
    clusters: Sequence[Sequence[int]],
    references: Sequence[str],
    metric: Metric,
    matching: str = "bipartite",
) -> float:
    """Set score with at most one representative used per cluster.

    The representative of each cluster is chosen to optimize the score: the
    clusters x references matrix holds each cluster's best member score per
    reference, so the assignment optimum over that matrix is the exact
    optimum over all (representative choice, injective mapping) combinations.
    """
    groups = validate_clustering(clusters, len(outputs))
    return _match(score_matrix(outputs, references, metric), matching, groups)


@dataclass(frozen=True)
class ExampleScore:
    example_id: str
    inference_type: InferenceType
    score: float  # set score (assignment mean or matching-mode variant)
    coverage: float
    n_outs: int
    n_refs: int

    @property
    def contribution(self) -> float:
        return self.score * self.coverage * self.n_refs


@dataclass(frozen=True)
class CorpusScore:
    """Reference-count-weighted corpus result.

    ``overall`` is the weighted sum of example contributions divided by the
    total reference count; ``per_type`` applies the same formula within each
    inference type and ``macro`` averages those per-type values.
    """

    overall: float
    per_type: dict[str, float]
    macro: float
    n_examples: int
    n_references: int
    example_scores: tuple[ExampleScore, ...]


def _aggregate(example_scores: list[ExampleScore]) -> CorpusScore:
    example_scores = sorted(example_scores, key=lambda s: s.example_id)
    total_refs = sum(s.n_refs for s in example_scores)
    overall = sum(s.contribution for s in example_scores) / total_refs
    per_type: dict[str, float] = {}
    for itype in sorted({s.inference_type.value for s in example_scores}):
        members = [s for s in example_scores if s.inference_type.value == itype]
        per_type[itype] = sum(s.contribution for s in members) / sum(
            s.n_refs for s in members
        )
    macro = sum(per_type.values()) / len(per_type)
    return CorpusScore(
        overall=overall,
        per_type=per_type,
        macro=macro,
        n_examples=len(example_scores),
        n_references=total_refs,
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


def score_example(
    example: Example,
    outputs: Sequence[str],
    metric: Metric,
    *,
    matching: str = "bipartite",
    coverage_cap: bool = True,
    clusters: Sequence[Sequence[int]] | None = None,
    external: ExternalScoreSidecar | None = None,
) -> ExampleScore:
    """Set score plus coverage for one example (the top-k > 1 path)."""
    groups = None
    n_outs = len(outputs)
    if clusters is not None:
        groups = validate_clustering(clusters, len(outputs), example.example_id)
        # only one generation per cluster can count, so coverage uses the
        # number of clusters rather than the raw output count
        n_outs = len(groups)
    matrix = _example_matrix(
        outputs, example.references, metric, external, example.example_id
    )
    value = _match(matrix, matching, groups)
    cov = coverage(n_outs, len(example.references), coverage_cap)
    return ExampleScore(
        example_id=example.example_id,
        inference_type=example.inference_type,
        score=value,
        coverage=cov,
        n_outs=n_outs,
        n_refs=len(example.references),
    )


def corpus_score(
    examples: Sequence[Example],
    generations: Mapping[str, GenerationSet],
    config: EvalConfig,
    metric: Metric | None = None,
    *,
    clusters: Mapping[str, Sequence[Sequence[int]]] | None = None,
    external: ExternalScoreSidecar | None = None,
) -> CorpusScore:
    """Reference-weighted corpus score over set evaluations (top_k > 1).
    With ``clusters``, every example is scored cluster-constrained and must
    have a clustering."""

    def one(example: Example) -> ExampleScore:
        gs = generations.get(example.example_id)
        if gs is None:
            raise MissingGenerations(
                f"no generations for example {example.example_id!r}"
            )
        outputs = select_outputs(gs, config.top_k)
        example_clusters = None
        if clusters is not None:
            if example.example_id not in clusters:
                raise ValidationError(
                    f"example {example.example_id!r}: cluster-constrained "
                    "evaluation needs a clustering"
                )
            example_clusters = clusters[example.example_id]
        return score_example(
            example,
            outputs,
            metric,
            matching=config.matching,
            coverage_cap=config.coverage_cap,
            clusters=example_clusters,
            external=external,
        )

    return _aggregate([one(example) for example in examples])


@dataclass(frozen=True)
class Top1Score:
    overall: float
    per_type: dict[str, float]
    macro: float
    n_examples: int
    per_example: tuple[tuple[str, float], ...]


def top1_corpus(
    examples: Sequence[Example],
    generations: Mapping[str, GenerationSet],
    metric: Metric | None,
    selection: str = "maximum",
    *,
    external: ExternalScoreSidecar | None = None,
) -> Top1Score:
    """Plain average of per-example single-inference scores."""

    def one(example: Example) -> tuple[str, str, float]:
        gs = generations.get(example.example_id)
        if gs is None:
            raise MissingGenerations(
                f"no generations for example {example.example_id!r}"
            )
        outputs = select_outputs(gs, top_k=1)
        value = top1_select(
            outputs, example.references, metric, selection,
            external=external, example_id=example.example_id,
        )
        return example.example_id, example.inference_type.value, value

    rows = [one(example) for example in examples]
    rows.sort(key=lambda r: r[0])
    overall = sum(v for _, _, v in rows) / len(rows)
    per_type: dict[str, float] = {}
    for itype in sorted({t for _, t, _ in rows}):
        members = [v for _, t, v in rows if t == itype]
        per_type[itype] = sum(members) / len(members)
    macro = sum(per_type.values()) / len(per_type)
    return Top1Score(
        overall=overall,
        per_type=per_type,
        macro=macro,
        n_examples=len(rows),
        per_example=tuple((eid, v) for eid, _, v in rows),
    )
