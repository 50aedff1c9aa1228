"""Evaluation toolkit for multi-output text generators scored against sets of
diverse references: assignment-based set scoring with coverage moderation and
reference-count weighting, clustering-based diversity measurement,
annotation-agreement statistics, and a decoding harness over pluggable token
scorers.
"""

__version__ = "0.1.0"

from .assignment import Assignment, mean_assigned, solve_max
from .core import (
    CONVOSENSE_CORE,
    EvalConfig,
    Example,
    GenerationMode,
    GenerationSet,
    InferenceType,
    Turn,
    example_to_record,
    make_generation_set,
    normalize_text,
    question_for,
    validate_example,
    validate_generation_set,
)
from .dataio import (
    EXCLUDED,
    EmbeddingStore,
    RawRecord,
    TYPE_SYNTHESIS,
    accumulate_runs,
    load_clusters,
    load_embeddings,
    map_type,
    normalize,
    read_jsonl,
    text_key,
    write_jsonl,
)
from .decode import (
    BeamConfig,
    DecodedSequence,
    NgramLM,
    ParsedSequence,
    apply_repetition_penalty,
    beam_search,
    diverse_beam_search,
    format_polymorphic,
    load_ngram_lm,
    pack_runs,
    parse_polymorphic,
    sample_many,
    sample_runs,
    sample_sequences,
)
from .diversity import (
    DiversityReport,
    bcubed,
    cluster_greedy,
    diversity_report,
    ngram_uniqueness,
)
from .scoring import (
    CorpusScore,
    ExampleScore,
    corpus_score,
    coverage,
    polyagg,
    top1_select,
)
from .stats import (
    AnnotationTable,
    McNemarResult,
    PairedT,
    RepeatReport,
    binarize,
    chi_square_proportions,
    chi2_sf,
    cohen_kappa,
    gwet_ac1,
    mcnemar,
    paired_t_bonferroni,
    resolve_and_repeat,
)
from .textmetrics import (
    ExternalScoreSidecar,
    bleu,
    embed_cosine,
    exact_match,
    load_external_scores,
    make_metric,
    score_matrix,
)
