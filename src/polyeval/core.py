"""Domain model: dialogues, inference types, examples, generation sets.

All types are immutable after construction and safe to share across threads.
Texts are whitespace-normalized (trim, collapse runs, Unicode NFC) when they
enter the model; case is preserved.
"""
from __future__ import annotations

import enum
import json
import unicodedata
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError

SPEAKER = "Speaker"
LISTENER = "Listener"


def normalize_text(text: str) -> str:
    """Trim, collapse internal whitespace runs to single spaces, NFC-normalize."""
    return unicodedata.normalize("NFC", " ".join(text.split()))


class InferenceType(str, enum.Enum):
    SUBSEQUENT = "Subsequent"
    ANTECEDENT = "Antecedent"
    CAUSE = "Cause"
    PREREQUISITE = "Prerequisite"
    MOTIVATION = "Motivation"
    ATTRIBUTE = "Attribute"
    REACTION = "Reaction"
    REACTION_O = "Reaction_o"
    DESIRE = "Desire"
    DESIRE_O = "Desire_o"
    CONSTITUENTS = "Constituents"
    OBSTACLE = "Obstacle"
    EFFECT = "Effect"
    EFFECT_S = "Effect_s"
    EFFECT_O = "Effect_o"

    @property
    def question(self) -> str:
        return INFERENCE_PROMPTS[self][0]

    @property
    def answer_prefix(self) -> str:
        return INFERENCE_PROMPTS[self][1]


# One guiding question and one answer prefix per inference type.
INFERENCE_PROMPTS: dict[InferenceType, tuple[str, str]] = {
    InferenceType.SUBSEQUENT: (
        "What might happen after what Speaker just said?",
        "After this, ...",
    ),
    InferenceType.ANTECEDENT: (
        "What events happened before the situation that Speaker just shared?",
        "Before this, ...",
    ),
    InferenceType.CAUSE: (
        "What could have caused the last thing said to happen?",
        "This was caused by...",
    ),
    InferenceType.PREREQUISITE: (
        "What prerequisites are required for the last thing said to occur?",
        "For this to happen, it must be true that...",
    ),
    InferenceType.MOTIVATION: (
        "What is an emotion or human drive that motivates Speaker based on "
        "what they just said?",
        "Speaker is motivated...",
    ),
    InferenceType.ATTRIBUTE: (
        "What is a likely characteristic of Speaker based on what they just said?",
        "Speaker is...",
    ),
    InferenceType.REACTION: (
        "How is Speaker feeling after what they just said?",
        "Speaker feels...",
    ),
    InferenceType.REACTION_O: (
        "How does Listener feel because of what Speaker just said?",
        "Listener feels...",
    ),
    InferenceType.DESIRE: (
        "What does Speaker want to do next?",
        "As a result, Speaker wants...",
    ),
    InferenceType.DESIRE_O: (
        "What will Listener want to do next based on what Speaker just said?",
        "As a result, Listener wants...",
    ),
    InferenceType.CONSTITUENTS: (
        "What is a breakdown of the last thing said into a series of required "
        "subevents?",
        "This involves...",
    ),
    InferenceType.OBSTACLE: (
        "What would cause the last thing said to be untrue or unsuccessful?",
        "This is untrue or unsuccessful if...",
    ),
    InferenceType.EFFECT: (
        "What does the last thing said cause to happen?",
        "This causes...",
    ),
    InferenceType.EFFECT_S: (
        "How does the last thing said affect Speaker?",
        "This causes Speaker to...",
    ),
    InferenceType.EFFECT_O: (
        "How does the last thing said affect Listener?",
        "This causes Listener to...",
    ),
}

# The ten types that make up the core multi-inference corpus.
CONVOSENSE_CORE = frozenset(
    {
        InferenceType.SUBSEQUENT,
        InferenceType.CAUSE,
        InferenceType.PREREQUISITE,
        InferenceType.MOTIVATION,
        InferenceType.ATTRIBUTE,
        InferenceType.REACTION,
        InferenceType.REACTION_O,
        InferenceType.DESIRE,
        InferenceType.DESIRE_O,
        InferenceType.CONSTITUENTS,
    }
)


@dataclass(frozen=True)
class Turn:
    speaker_tag: str
    text: str


class GenerationMode(str, enum.Enum):
    MONOMORPHIC_BEAM = "monomorphic_beam"
    MONOMORPHIC_DIVERSE_BEAM = "monomorphic_diverse_beam"
    POLYMORPHIC = "polymorphic"


@dataclass(frozen=True)
class Example:
    """One evaluation unit: a dialogue, an inference question, and references.

    The inference target is always the final turn, so ``target_index`` is
    derived rather than stored.
    """

    example_id: str
    dialogue: tuple[Turn, ...]
    inference_type: InferenceType
    references: tuple[str, ...]

    @property
    def target_index(self) -> int:
        return len(self.dialogue) - 1


@dataclass(frozen=True)
class GenerationSet:
    """A model's outputs for one example, possibly across multiple runs."""

    example_id: str
    mode: GenerationMode
    runs: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings; ``selection`` applies when top_k == 1 and
    ``matching`` when top_k > 1."""

    top_k: int = 1
    selection: str = "maximum"  # maximum | order
    matching: str = "bipartite"  # bipartite | maximum
    coverage_cap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.top_k < 1:
            raise ValidationError(f"top_k must be positive, got {self.top_k}")
        if self.selection not in ("maximum", "order"):
            raise ValidationError(f"unknown selection {self.selection!r}")
        if self.matching not in ("bipartite", "maximum"):
            raise ValidationError(f"unknown matching {self.matching!r}")
        if self.seed < 0 or self.seed > 0xFFFFFFFFFFFFFFFF:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")


NUMBER = (int, float)
_JSON_NAMES = {
    str: "string", list: "list", dict: "object", int: "integer", NUMBER: "number",
}


def _is(value, kind) -> bool:
    """``isinstance``, except that JSON true and false are not numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def get_field(raw: dict, name: str, kind: type, default=None, of: type | None = None):
    """``raw[name]``, or ``default`` when it is absent.  Either must be a
    ``kind`` (``str``, ``list``, ``dict``, ``int`` or ``NUMBER``); with ``of``,
    a list whose every item, or an object whose every value, is an ``of``."""
    value = raw.get(name, default)
    items = value.values() if isinstance(value, dict) else value
    if not _is(value, kind) or (of and not all(_is(v, of) for v in items)):
        if name not in raw:
            raise ValidationError(f"missing field {name!r}")
        noun = _JSON_NAMES[kind] + (f" of {_JSON_NAMES[of]}s" if of else "")
        article = "an" if noun[0] in "aeiou" else "a"
        raise ValidationError(f"{name} must be {article} {noun}")
    return value


def example_id_of(raw: dict) -> str:
    """The record's nonblank ``example_id``, trimmed."""
    example_id = get_field(raw, "example_id", str).strip()
    if not example_id:
        raise ValidationError("example_id is blank")
    return example_id


def validate_example(raw: dict) -> Example:
    """Build an Example from a decoded unified-format record.

    Applies whitespace normalization to every text and enforces the model
    invariants: nonempty references, alternating speaker tags, known type.
    """
    example_id = example_id_of(raw)
    type_name = get_field(raw, "type", str)
    try:
        itype = InferenceType(type_name)
    except ValueError:
        raise ValidationError(
            f"example {example_id!r}: unknown inference type {type_name!r}"
        ) from None

    turns = []
    for entry in get_field(raw, "dialogue", list, of=dict):
        tag = normalize_text(get_field(entry, "speaker", str))
        text = normalize_text(get_field(entry, "text", str))
        if not tag:
            raise ValidationError(f"example {example_id!r}: empty speaker tag")
        if not text:
            raise ValidationError(f"example {example_id!r}: empty turn text")
        turns.append(Turn(tag, text))
    if not turns:
        raise ValidationError(f"example {example_id!r}: empty dialogue")
    for prev, cur in zip(turns, turns[1:]):
        if prev.speaker_tag == cur.speaker_tag:
            raise ValidationError(
                f"example {example_id!r}: consecutive turns share speaker "
                f"{cur.speaker_tag!r}"
            )

    references = tuple(normalize_text(r) for r in get_field(raw, "references", list, of=str))
    if not references or any(not r for r in references):
        raise ValidationError(
            f"example {example_id!r}: references must be nonempty"
        )

    return Example(example_id, tuple(turns), itype, references)


def example_to_record(example: Example) -> dict:
    """Unified-format record for an Example (canonical field set)."""
    return {
        "example_id": example.example_id,
        "dialogue": [
            {"speaker": t.speaker_tag, "text": t.text} for t in example.dialogue
        ],
        "type": example.inference_type.value,
        "question": example.inference_type.question,
        "answer_prefix": example.inference_type.answer_prefix,
        "references": list(example.references),
    }


def make_generation_set(
    example_id: str,
    mode: GenerationMode | str,
    runs: list[list[str]],
) -> tuple[GenerationSet, int]:
    """Normalize and deduplicate run outputs; returns (set, dropped_count).

    Outputs within one run must be distinct after whitespace normalization;
    duplicates are dropped rather than rejected.
    """
    try:
        mode = GenerationMode(mode)
    except ValueError:
        raise ValidationError(
            f"example {example_id!r}: unknown generation mode {mode!r}"
        ) from None
    if not runs:
        raise ValidationError(f"example {example_id!r}: generation set has no runs")
    dropped = 0
    clean_runs = []
    for run in runs:
        seen = set()
        outputs = []
        for text in run:
            text = normalize_text(str(text))
            if not text:
                raise ValidationError(
                    f"example {example_id!r}: empty generation output"
                )
            if text in seen:
                dropped += 1
                continue
            seen.add(text)
            outputs.append(text)
        if not outputs:
            raise ValidationError(f"example {example_id!r}: empty run")
        clean_runs.append(tuple(outputs))
    return GenerationSet(example_id, mode, tuple(clean_runs)), dropped


def validate_generation_set(raw: dict) -> tuple[GenerationSet, int]:
    """Build a GenerationSet from a decoded generations-file record."""
    example_id = example_id_of(raw)
    runs = get_field(raw, "runs", list, of=list)
    if any(not isinstance(text, str) for run in runs for text in run):
        raise ValidationError("runs must hold only strings")
    return make_generation_set(example_id, get_field(raw, "mode", str), runs)


def validate_clustering(clusters: Sequence[Sequence[int]], n_outputs: int,
                        example_id: str = "?") -> list[list[int]]:
    """Check the partition property: disjoint, nonempty, covering."""
    seen: set[int] = set()
    out = []
    for group in clusters:
        if not group:
            raise ValidationError(f"example {example_id!r}: empty cluster")
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


def dumps_canonical(obj) -> str:
    """Canonical one-line JSON: sorted keys, compact separators, raw UTF-8."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
