"""Domain model: dialogues, inference types, examples, generation sets.

Records are immutable NamedTuples, so a record equals a plain tuple of the
same values and can be unpacked.  Texts are whitespace-normalized (trim,
collapse runs, Unicode NFC) when they enter the model; case is preserved.
"""
from __future__ import annotations

import enum
import json
import unicodedata
from typing import NamedTuple, Sequence

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

class Turn(NamedTuple):
    speaker_tag: str
    text: str


class GenerationMode(str, enum.Enum):
    MONOMORPHIC_BEAM = "monomorphic_beam"
    MONOMORPHIC_DIVERSE_BEAM = "monomorphic_diverse_beam"
    POLYMORPHIC = "polymorphic"


class Example(NamedTuple):
    """One evaluation unit: a dialogue, an inference question, and references.
    The inference target is always the final turn."""

    example_id: str
    dialogue: tuple[Turn, ...]
    inference_type: InferenceType
    references: tuple[str, ...]


class GenerationSet(NamedTuple):
    """A model's outputs for one example, possibly across multiple runs."""

    example_id: str
    mode: GenerationMode
    runs: tuple[tuple[str, ...], ...]


class _EvalConfigFields(NamedTuple):
    top_k: int = 1
    selection: str = "maximum"  # maximum | order
    matching: str = "bipartite"  # bipartite | maximum
    coverage_cap: bool = True
    seed: int = 0


class EvalConfig(_EvalConfigFields):
    """Evaluation settings; ``selection`` applies when top_k == 1 and
    ``matching`` when top_k > 1."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.top_k < 1:
            raise ValidationError(f"top_k must be positive, got {self.top_k}")
        if self.selection not in ("maximum", "order"):
            raise ValidationError(f"unknown selection {self.selection!r}")
        if self.matching not in ("bipartite", "maximum"):
            raise ValidationError(f"unknown matching {self.matching!r}")
        if self.seed < 0 or self.seed > 0xFFFFFFFFFFFFFFFF:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which skips __new__ and its checks
        return cls(*iterable)


# --- input formats ----------------------------------------------------------

REQUIRED = object()  # the default of a field that must be present


class Field(NamedTuple):
    """One field of an input format: its JSON kind; the kind of each item
    of a list or value of an object (a Field for a list of lists, a dict of
    Fields for a list of rows); the strings it may hold; and its default:
    REQUIRED, the value an absent field takes, or None where its reader
    gives absence a meaning.  ``wrong`` is the message for an inner list's
    item, as JSON, that is not of the inner kind."""

    kind: str
    item: str | Field | dict | None = None
    choices: tuple[str, ...] = ()
    default: object = REQUIRED
    wrong: str = ""


# the Python types json.load gives each kind; a JSON true is a bool, not a number
_TYPES = {"string": {str}, "integer": {int}, "number": {int, float}, "list": {list},
          "object": {dict}, "nonempty 1-D array": {list}, "nonempty 2-D array": {list}}
STRING, STRINGS = Field("string"), Field("list", "string")

# positive/negative conversion for the two annotation tasks
REASONABILITY_LABELS = {"always_likely": True, "sometimes_possible": True,
                        "never_farfetched": False, "invalid_nonsense": False}
NOVELTY_LABELS = {"new_detailed": True, "new_simple": True, "purely_repetitive": False}
LABEL_SETS = {"reasonability": REASONABILITY_LABELS, "novelty": NOVELTY_LABELS}

# Every input format.  ``check_shape`` checks a record against its format before any
# semantic check, and --help shows it.  A field a format does not name is ignored.
FORMATS: dict[str, dict[str, Field]] = {
    "examples": {"example_id": STRING, "type": STRING,
                 "dialogue": Field("list", {"speaker": STRING, "text": STRING}),
                 "references": STRINGS},
    "generations": {"example_id": STRING, "mode": STRING, "runs": Field(
        "list", Field("list", "string", wrong="runs must hold only strings"))},
    "embeddings": {"key": Field("string", default=None), "text": Field("string", default=None),
                   "vector": Field("nonempty 1-D array", "number")},
    "clusters": {"example_id": STRING, "clusters": Field(
        "list", Field("list", "integer", wrong="cluster index {} is not an integer"))},
    "external_scores": {"example_id": STRING, "scores": Field("nonempty 2-D array", "number")},
    "raw_records": {"example_id": STRING, "source": Field("string", default=None),
                    "utterances": Field("list", {"speaker": Field("string", default=""),
                                                 "text": STRING}),
                    "type_label": STRING, "inferences": STRINGS},
    "annotations": {"task": Field("string", choices=tuple(LABEL_SETS)),
                    "system": Field("string", choices=("X", "Y")), "item_id": STRING,
                    "annotator": Field("string", choices=("A", "B")), "label": STRING},
    "ttest_scores": {"name": STRING, "values": Field("nonempty 1-D array", "number")},
    "lm": {"order": Field("integer", default=1), "vocab": STRINGS,
           "end_token": Field("string", default="</s>"),
           "cond": Field("list", {"context": STRINGS, "probs": Field("object", "number")},
                         default=())},
}


def _kind_name(field: Field) -> str:
    """The field's kind with its item kind, such as "list of strings"."""
    item = "object" if isinstance(field.item, dict) else getattr(field.item, "kind", field.item)
    return f"{field.kind} of {item}s" if item else field.kind


def check_shape(record: dict, fields: dict[str, Field]) -> dict:
    """Check a decoded record against a format of ``FORMATS``, or a row format
    in one, field by field: a required field is present, and a field present
    is of its kind, its items of the item kind and its value one of the
    choices.  Returns the record, copied with the defaults of absent fields."""
    for name, (kind, item, choices, default, _) in fields.items():
        if name not in record:
            if default is REQUIRED:
                raise ValidationError(f"missing field {name!r}")
            if default is not None:
                record = {**record, name: default}
            continue
        value = record[name]
        fits = type(value) in _TYPES[kind] and bool(value or not kind.startswith("nonempty"))
        if fits and kind == "nonempty 2-D array":
            fits = all(type(row) is list and row and len(row) == len(value[0])
                       and set(map(type, row)) <= _TYPES[item] for row in value)
        elif fits and type(item) is str:
            fits = set(map(type, value.values() if kind == "object" else value)) <= _TYPES[item]
        elif fits and item is not None:  # a list of lists, or of rows
            fits = set(map(type, value)) <= _TYPES["list" if type(item) is Field else "object"]
        if not fits:
            noun = _kind_name(fields[name])
            raise ValidationError(f"{name} must be {'an' if noun[0] in 'aeiou' else 'a'} {noun}")
        if type(item) is Field:
            allowed = _TYPES[item.item]
            for inner in value:
                if not set(map(type, inner)) <= allowed:
                    bad = next(v for v in inner if type(v) not in allowed)
                    raise ValidationError(item.wrong.format(json.dumps(bad)))
        elif type(item) is dict:
            rows = [check_shape(row, item) for row in value]
            if rows != value:  # a row took a default
                record = {**record, name: rows}
        if choices and value not in choices:
            raise ValidationError(f"{name} must be {' or '.join(choices)}, got {value!r}")
    return record


def describe(fields: dict[str, Field], indent: str = "    ") -> str:
    """The fields as --help shows them, a line each and a list's rows below
    it: "speaker: string, required"."""
    lines = []
    for name, field in fields.items():
        inner = f" of {field.item.item}s" if isinstance(field.item, Field) else ""
        choices = f" ({' | '.join(field.choices)})" if field.choices else ""
        default = ("required" if field.default is REQUIRED else "optional"
                   if field.default is None else f"default {json.dumps(field.default)}")
        lines.append(f"{indent}{name}: {_kind_name(field)}{inner}{choices}, {default}")
        if isinstance(field.item, dict):
            lines.append(describe(field.item, indent + "  "))
    return "\n".join(lines)


def example_id_of(raw: dict) -> str:
    """The trimmed, nonblank ``example_id`` of a record ``check_shape`` passed."""
    example_id = raw["example_id"].strip()
    if not example_id:
        raise ValidationError("example_id is blank")
    return example_id


def validate_example(raw: dict) -> Example:
    """Build an Example from a decoded unified-format record.

    Applies whitespace normalization to every text and enforces the model
    invariants: nonempty references, alternating speaker tags, known type.
    """
    check_shape(raw, FORMATS["examples"])
    example_id = example_id_of(raw)
    type_name = raw["type"]
    try:
        itype = InferenceType(type_name)
    except ValueError:
        raise ValidationError(
            f"example {example_id!r}: unknown inference type {type_name!r}"
        ) from None

    turns = []
    for entry in raw["dialogue"]:
        tag = normalize_text(entry["speaker"])
        text = normalize_text(entry["text"])
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

    references = tuple(normalize_text(r) for r in raw["references"])
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
    check_shape(raw, FORMATS["generations"])
    return make_generation_set(example_id_of(raw), raw["mode"], raw["runs"])


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
