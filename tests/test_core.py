import json
import re

import pytest

from polyeval.core import (
    EvalConfig,
    InferenceType,
    dumps_canonical,
    example_to_record,
    make_generation_set,
    normalize_text,
    validate_example,
)
from polyeval.decode import BeamConfig
from polyeval.errors import ValidationError


def record(**overrides):
    base = {
        "example_id": "ex1",
        "dialogue": [
            {"speaker": "Listener (A)", "text": "hi there"},
            {"speaker": "Speaker (B)", "text": "hello"},
        ],
        "type": "Desire",
        "references": ["a", "b"],
    }
    base.update(overrides)
    return base


def test_valid_example():
    ex = validate_example(record())
    assert ex.example_id == "ex1"
    assert ex.references == ("a", "b")
    assert ex.inference_type is InferenceType.DESIRE


def test_empty_references_rejected():
    with pytest.raises(ValidationError, match="ex1': references must be nonempty"):
        validate_example(record(references=[]))
    with pytest.raises(ValidationError, match="ex1': references must be nonempty"):
        validate_example(record(references=["a", "   "]))


def test_consecutive_same_speaker_rejected():
    bad = record(
        dialogue=[
            {"speaker": "Speaker (A)", "text": "one"},
            {"speaker": "Speaker (A)", "text": "two"},
        ]
    )
    with pytest.raises(ValidationError, match="ex1': consecutive turns share speaker"):
        validate_example(bad)


def test_unknown_type_rejected():
    with pytest.raises(ValidationError, match="ex1': unknown inference type 'Banana'"):
        validate_example(record(type="Banana"))


def test_alternation_holds_for_longer_dialogues():
    turns = [
        {"speaker": f"{'Speaker' if i % 2 else 'Listener'} (A)", "text": f"t{i}"}
        for i in range(5)
    ]
    # tags must differ between neighbours; same-name tags are fine
    for a, b in zip(turns, turns[1:]):
        assert a["speaker"] != b["speaker"]
    ex = validate_example(record(dialogue=turns))
    assert len(ex.dialogue) == 5


def test_normalize_text_trims_collapses_nfc():
    assert normalize_text("  a \t b\n c  ") == "a b c"
    # combining mark folds into the composed form
    assert normalize_text("café") == "café"


def test_question_for_matches_published_prompts():
    assert (InferenceType.DESIRE.question, InferenceType.DESIRE.answer_prefix) == (
        "What does Speaker want to do next?",
        "As a result, Speaker wants...",
    )
    assert (InferenceType.ATTRIBUTE.question, InferenceType.ATTRIBUTE.answer_prefix) == (
        "What is a likely characteristic of Speaker based on what they just said?",
        "Speaker is...",
    )
    assert (InferenceType.EFFECT.question, InferenceType.EFFECT.answer_prefix) == (
        "What does the last thing said cause to happen?",
        "This causes...",
    )


def test_question_for_total_and_invertible():
    seen = {}
    for itype in InferenceType:
        question, prefix = itype.question, itype.answer_prefix
        assert question and prefix
        seen[(question, prefix)] = itype
    assert len(seen) == 15  # distinct prompt pairs identify their type
    for (question, prefix), itype in seen.items():
        assert (itype.question, itype.answer_prefix) == (question, prefix)


def test_round_trip_is_byte_identical():
    ex = validate_example(record())
    line = dumps_canonical(example_to_record(ex))
    again = validate_example(json.loads(line))
    assert dumps_canonical(example_to_record(again)) == line


def test_generation_set_dedup_within_run():
    gs, dropped = make_generation_set(
        "ex1", "monomorphic_beam", [["a", "a  ", "b"], ["b", "c"]]
    )
    assert gs.runs == (("a", "b"), ("b", "c"))
    assert dropped == 1


def test_generation_set_rejects_empty():
    with pytest.raises(ValidationError):
        make_generation_set("ex1", "polymorphic", [])
    with pytest.raises(ValidationError):
        make_generation_set("ex1", "polymorphic", [["a", ""]])
    with pytest.raises(ValidationError):
        make_generation_set("ex1", "bogus_mode", [["a"]])


def test_eval_config_validation():
    EvalConfig(top_k=5, selection="order", matching="maximum")
    with pytest.raises(ValidationError):
        EvalConfig(top_k=0)
    with pytest.raises(ValidationError):
        EvalConfig(selection="best")
    with pytest.raises(ValidationError):
        EvalConfig(matching="greedy")


TOP_K, PENALTY = "top_k must be positive, got 0", "repetition penalty must be >= 1 and finite"


@pytest.mark.parametrize("build, message", [
    (lambda: EvalConfig(top_k=0), TOP_K),
    (lambda: EvalConfig()._replace(top_k=0), TOP_K),
    (lambda: EvalConfig._make([0, "maximum", "bipartite", True]), TOP_K),
    (lambda: BeamConfig(repetition_penalty=0.5), PENALTY),
    (lambda: BeamConfig()._replace(repetition_penalty=0.5), PENALTY),
    (lambda: BeamConfig._make([10, 1, 0.0, 0.5, 32]), PENALTY),
], ids=["eval_new", "eval_replace", "eval_make", "beam_new", "beam_replace", "beam_make"])
def test_a_validated_config_is_checked_however_it_is_built(build, message):
    # _replace builds through _make, and _make does not call __new__
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()
