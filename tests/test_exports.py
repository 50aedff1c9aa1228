"""The two lazy name tables: the package's public names and cli's
per-subcommand names, each resolved on first use (PEP 562)."""
import importlib

import pytest

import polyeval
import polyeval.cli

# the public names of the package when it imported every layer eagerly
PUBLIC = {
    "Assignment", "BeamConfig", "CorpusScore", "DecodedSequence",
    "DiversityReport", "EmbeddingStore", "EvalConfig", "Example", "ExampleScore",
    "ExternalScoreSidecar", "GenerationMode", "GenerationSet", "InferenceType",
    "McNemarResult", "NgramLM", "PairedT", "ParsedSequence", "RawRecord", "RepeatReport",
    "TYPE_SYNTHESIS", "Turn", "accumulate_runs", "apply_repetition_penalty", "bcubed",
    "binarize", "bleu", "chi2_sf", "chi_square_proportions", "cluster_greedy",
    "cohen_kappa", "corpus_score", "coverage", "diverse_beam_search", "diversity_report",
    "embed_cosine", "exact_match", "example_to_record", "format_polymorphic", "gwet_ac1",
    "load_clusters", "load_embeddings", "load_external_scores", "load_ngram_lm",
    "make_generation_set", "make_metric", "map_type", "mcnemar", "ngram_uniqueness",
    "normalize", "normalize_text", "pack_runs", "paired_t_bonferroni", "parse_polymorphic",
    "polyagg", "read_jsonl", "resolve_and_repeat", "sample_many", "sample_sequences",
    "score_matrix", "solve_max", "text_key", "top1_select", "validate_example",
    "validate_generation_set", "write_jsonl",
}


def test_the_package_table_keeps_every_public_name():
    assert len(PUBLIC) == 65
    assert set(polyeval._EXPORTS) == PUBLIC
    assert sorted(polyeval.__all__) == sorted(polyeval._EXPORTS)
    assert set(polyeval._EXPORTS) <= set(dir(polyeval))


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_a_public_name_is_the_object_its_module_defines(name):
    module = importlib.import_module(f"polyeval.{polyeval._EXPORTS[name]}")
    value = getattr(polyeval, name)
    assert value is getattr(module, name)
    # a function or class is defined there, not imported from another layer
    assert getattr(value, "__module__", module.__name__) == module.__name__


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        polyeval.nonesuch
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        polyeval.cli.nonesuch


@pytest.mark.parametrize("command", sorted(polyeval.cli.IMPORTS))
def test_a_cli_name_is_the_object_of_its_layer(command):
    # the benchmark's tracer finds a layer crossing by this identity, and
    # replaces the name in cli's namespace, where run keeps it
    for name in polyeval.cli.IMPORTS[command]:
        module = importlib.import_module(f"polyeval.{polyeval._EXPORTS[name]}")
        assert getattr(polyeval.cli, name) is getattr(module, name)
