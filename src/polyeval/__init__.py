"""Evaluation toolkit for multi-output text generators scored against sets of
diverse references: assignment-based set scoring with coverage moderation and
reference-count weighting, clustering-based diversity measurement,
annotation-agreement statistics, and a decoding harness over pluggable token
scorers.

``import polyeval`` loads no submodule.  ``_EXPORTS`` names the module of
every public name, and the first access to a name imports that module
(PEP 562), so ``from polyeval import polyagg`` loads scoring and what it
imports, and ``polyeval.decode`` loads decode alone.  It is the one table of
name and module: ``cli`` takes each subcommand's names through it.

A name is public when something outside its module names it (another
module of ``src/``, a demo, the benchmark or the README), or when an
annotation of another public name does (a parameter, a return type or a
record field).  ``accumulate_runs`` is the one exception: nothing calls
it yet, and whether ``eval`` uses it or it goes is still open.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "assignment": ("Assignment", "solve_max"),
        "core": (
            "EvalConfig", "Example", "GenerationMode", "GenerationSet", "InferenceType",
            "LABEL_SETS", "Turn", "example_to_record", "make_generation_set",
            "normalize_text", "validate_example", "validate_generation_set",
        ),
        "dataio": (
            "EmbeddingStore", "RawRecord", "accumulate_runs", "load_clusters",
            "load_embeddings", "normalize", "read_jsonl", "text_key",
        ),
        "decode": (
            "BeamConfig", "DecodedSequence", "NgramLM", "ParsedSequence",
            "diverse_beam_search", "format_polymorphic", "load_ngram_lm", "pack_runs",
            "parse_polymorphic", "sample_many", "sample_sequences",
        ),
        "diversity": (
            "DiversityReport", "bcubed", "cluster_greedy", "diversity_report",
            "ngram_uniqueness",
        ),
        "scoring": (
            "CorpusScore", "ExampleScore", "corpus_score", "coverage", "polyagg",
            "top1_select",
        ),
        "stats": (
            "McNemarResult", "PairedT", "RepeatReport", "chi_square_proportions",
            "cohen_kappa", "gwet_ac1", "mcnemar", "paired_t_bonferroni",
            "resolve_and_repeat",
        ),
        "textmetrics": (
            "ExternalScoreSidecar", "bleu", "exact_match",
            "load_external_scores", "make_metric", "score_matrix",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """A public name from its module, or a submodule not imported yet."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    else:
        try:
            value = importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
