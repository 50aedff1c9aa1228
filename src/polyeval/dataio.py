"""File input and output, and the normalization pipeline.

Converts heterogeneous source records into the unified example format:
consecutive same-speaker utterances are merged, Speaker/Listener tags are
assigned backwards from the terminal utterance, participant names are folded
into the tags as "Speaker (A)", and participant names inside inference texts
are replaced by "the speaker".

The input formats are stated once, in ``core.FORMATS``.  Every keyed JSONL
input is read by ``load_keyed``, so a bad record (a field of the wrong
shape, an invalid value or a repeated key) fails as ``<path>:<line>: ...``.
Every output goes through ``write_files``, which writes all of a command's
files or none of them.
"""
from __future__ import annotations

import contextlib
import errno
import json
import os
import random
import re
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .core import (
    Example,
    GenerationMode,
    GenerationSet,
    InferenceType,
    LISTENER,
    SPEAKER,
    Turn,
    dumps_canonical,
    FORMATS,
    check_shape,
    example_id_of,
    normalize_text,
)
from .errors import PolyevalError, ValidationError

if TYPE_CHECKING:  # numpy is imported by the functions that make arrays
    import numpy as np

RAW_SOURCES = ("convosense", "comfact", "cicero", "reflect", "generic")


# Source label -> canonical inference type.  Cause/effect subtypes from the
# source datasets collapse into single Cause/Effect/Prerequisite types;
# isBefore/isAfter carry temporal order without causation and are excluded
# (mapped to None).
_TYPE_SYNTHESIS: dict[str, InferenceType | None] = {
    "isBefore": None,
    "isAfter": None,
    "Causes": InferenceType.EFFECT,
    "xEffect": InferenceType.EFFECT,
    "oEffect": InferenceType.EFFECT,
    "SubsequentEvents": InferenceType.EFFECT,
    "Subsequent Events": InferenceType.EFFECT,
    "SubsequentEvent": InferenceType.EFFECT,
    "Subsequent Event": InferenceType.EFFECT,
    "Consequences": InferenceType.EFFECT,
    "xReason": InferenceType.CAUSE,
    "xNeed": InferenceType.PREREQUISITE,
    "Prerequisites": InferenceType.PREREQUISITE,
    "xIntent": InferenceType.MOTIVATION,
    "xAttr": InferenceType.ATTRIBUTE,
    "xReact": InferenceType.REACTION,
    "oReact": InferenceType.REACTION_O,
    "xWant": InferenceType.DESIRE,
    "oWant": InferenceType.DESIRE_O,
    "HasSubEvent": InferenceType.CONSTITUENTS,
    "HinderedBy": InferenceType.OBSTACLE,
}
# Canonical names map to themselves (already-unified / generic sources).
_TYPE_SYNTHESIS.update({t.value: t for t in InferenceType})


def _map_type(label: str) -> InferenceType | None:
    """Map a source-specific type label to its canonical type, or to None
    for an excluded label; an unknown label is a ValidationError."""
    try:
        return _TYPE_SYNTHESIS[label]
    except KeyError:
        raise ValidationError(f"unknown source type label {label!r}") from None


class RawRecord(NamedTuple):
    example_id: str
    source: str
    utterances: tuple[tuple[str, str], ...]  # (speaker_name, text)
    type_label: str
    inferences: tuple[str, ...]


def validate_raw_record(raw: dict, default_source: str = "generic") -> RawRecord:
    """A raw source record; one without a source takes ``default_source``."""
    raw = check_shape(raw, FORMATS["raw_records"])
    example_id = example_id_of(raw)
    source = raw.get("source", default_source)
    if source not in RAW_SOURCES:
        raise ValidationError(f"example {example_id!r}: unknown source {source!r}")
    utterances = []
    for entry in raw["utterances"]:
        text = normalize_text(entry["text"])
        if not text:
            raise ValidationError(f"example {example_id!r}: empty utterance text")
        utterances.append((normalize_text(entry["speaker"]), text))
    if not utterances:
        raise ValidationError(f"example {example_id!r}: no utterances")
    inferences = tuple(normalize_text(i) for i in raw["inferences"])
    return RawRecord(example_id, source, tuple(utterances), raw["type_label"], inferences)


_TAGGED_NAME = re.compile(r"^(?:Speaker|Listener) \((.+)\)$")


def _participant_key(name: str) -> str:
    """Identity of a participant, seeing through an already-applied tag."""
    m = _TAGGED_NAME.match(name)
    return m.group(1) if m else name


def _assign_letters(participants: list[str], example_id: str, seed: int) -> dict[str, str]:
    """Map participant identities to 'A'/'B'.

    Identities that already are single letters are kept.  Otherwise the
    assignment is drawn from a PRNG keyed by (seed, example_id) so that runs
    are reproducible.
    """
    if len(participants) > 2:
        raise ValidationError(
            f"example {example_id!r}: more than two participants: {participants}"
        )
    if all(p in ("A", "B") for p in participants):
        return {p: p for p in participants}
    letters = ["A", "B"]
    rng = random.Random(f"{seed}:{example_id}")
    rng.shuffle(letters)
    return {p: letters[i] for i, p in enumerate(participants)}


def _replace_names(text: str, names: Iterable[str]) -> str:
    """Replace whole-word, case-insensitive participant names by "the speaker".

    Single-character names and the role words themselves are left alone; only
    real names (as in sources that use them) are folded.
    """
    for name in names:
        if len(name) < 2 or name.lower() in ("speaker", "listener"):
            continue
        pattern = re.compile(
            r"\b" + r"\s+".join(re.escape(tok) for tok in name.split()) + r"\b",
            re.IGNORECASE,
        )
        text = pattern.sub("the speaker", text)
    return normalize_text(text)


def normalize(raw: RawRecord, seed: int = 0) -> Example | None:
    """Convert a raw source record into a unified Example, or None when its
    type label is excluded.

    Idempotent on already-unified records: existing "Speaker (A)"-style names
    are recognized and re-tagged identically.
    """
    mapped = _map_type(raw.type_label)
    if mapped is None:
        return None

    # Merge consecutive utterances from the same participant.  Records with no
    # speaker names at all are assumed to already alternate.
    named = [bool(name) for name, _ in raw.utterances]
    if any(named) and not all(named):
        raise ValidationError(
            f"example {raw.example_id!r}: mix of named and unnamed utterances"
        )
    merged: list[tuple[str, str]] = []  # (participant, text)
    for idx, (name, text) in enumerate(raw.utterances):
        participant = _participant_key(name) if name else f"#{idx % 2}"
        if merged and merged[-1][0] == participant:
            merged[-1] = (participant, merged[-1][1] + " " + text)
        else:
            merged.append((participant, text))

    participants = list(dict.fromkeys(p for p, _ in merged))
    letters = _assign_letters(participants, raw.example_id, seed)

    turns = []
    last = len(merged) - 1
    for idx, (participant, text) in enumerate(merged):
        role = SPEAKER if (last - idx) % 2 == 0 else LISTENER
        turns.append(Turn(f"{role} ({letters[participant]})", text))

    original_names = [p for p in participants if not p.startswith("#")]
    references = tuple(
        _replace_names(inf, original_names) for inf in raw.inferences if inf
    )
    if not references:
        raise ValidationError(f"example {raw.example_id!r}: no inferences")

    return Example(raw.example_id, tuple(turns), mapped, references)


def accumulate_runs(
    generation_set: GenerationSet,
    setting: str,
    paired_polymorphic: GenerationSet | None = None,
) -> list[str]:
    """Flatten a generation set's runs for the lowN / highN regimes.

    lowN uses run 1 only; highN concatenates runs 1-3 of a polymorphic set,
    deduplicated in order.  Monomorphic sets contribute their beams, truncated
    to the size of the paired polymorphic set's accumulation when one is
    supplied.
    """
    if setting not in ("lowN", "highN"):
        raise ValidationError(f"unknown accumulation setting {setting!r}")
    gs = generation_set
    if gs.mode is GenerationMode.POLYMORPHIC:
        if setting == "lowN":
            return list(gs.runs[0])
        if len(gs.runs) < 3:
            raise ValidationError(
                f"example {gs.example_id!r}: highN needs 3 polymorphic runs, "
                f"got {len(gs.runs)}"
            )
        seen: set[str] = set()
        outputs = []
        for run in gs.runs[:3]:
            for text in run:
                if text not in seen:
                    seen.add(text)
                    outputs.append(text)
        return outputs
    outputs = list(gs.runs[0])
    if paired_polymorphic is not None:
        k = len(accumulate_runs(paired_polymorphic, setting))
        outputs = outputs[:k]
    return outputs


# --- embeddings -----------------------------------------------------------


def text_key(text: str) -> str:
    """SHA-256 hex key of the normalized UTF-8 text."""
    import hashlib

    return hashlib.sha256(normalize_text(text).encode("utf-8")).hexdigest()


class EmbeddingStore:
    """Immutable map from text keys to fixed-dimension vectors.

    Each text found is memoized with its vector and the vector's norm, so a
    text is hashed and normed once per store however often it is looked up;
    a missing text is not memoized and fails on every lookup.
    """

    def __init__(self, vectors: dict[str, np.ndarray]):
        dims = {v.shape[0] for v in vectors.values()}
        if len(dims) > 1:
            raise ValidationError(f"mixed embedding dimensions: {sorted(dims)}")
        if dims and next(iter(dims)) < 2:
            raise ValidationError("embedding dimension must be >= 2")
        self._vectors = vectors
        self._found: dict[str, tuple[np.ndarray, float]] = {}

    def lookup_with_norm(
        self, text: str, example_id: str | None = None
    ) -> tuple[np.ndarray, float]:
        """The text's vector and its Euclidean norm."""
        found = self._found.get(text)
        if found is None:
            import numpy as np

            key = text_key(text)
            try:
                vector = self._vectors[key]
            except KeyError:
                where = f" (example {example_id!r})" if example_id else ""
                raise PolyevalError(
                    f"no embedding for text {text!r} (key {key}){where}"
                ) from None
            found = self._found[text] = (vector, float(np.linalg.norm(vector)))
        return found


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Vectors by key: a row's ``key``, 64 lowercase hex digits, or the
    ``text_key`` of its ``text``."""
    dim = None

    def parse(record: dict) -> tuple[str, np.ndarray]:
        nonlocal dim
        check_shape(record, FORMATS["embeddings"])
        if ("key" in record) == ("text" in record):
            raise ValidationError("give key or text, not both" if "key" in record
                                  else "missing field 'text'")
        key = record.get("key")
        if key is None:
            key = text_key(record["text"])
        elif not re.fullmatch("[0-9a-f]{64}", key):
            raise ValidationError(f"key must be 64 lowercase hex digits (a sha256), got {key!r}")
        vec = float_array(record["vector"], "vector")
        if vec.shape[0] < 2:
            raise ValidationError("vector must have d >= 2")
        dim = dim or vec.shape[0]
        if vec.shape[0] != dim:
            raise ValidationError(f"vector dimension {vec.shape[0]} != {dim}")
        return key, vec

    return EmbeddingStore(load_keyed(path, parse, "embedding key"))


# --- clusters file ---------------------------------------------------------


def load_clusters(path: str | Path) -> dict[str, list[list[int]]]:
    """Load externally produced clusterings keyed by example_id."""
    def parse(record: dict) -> tuple[str, list[list[int]]]:
        check_shape(record, FORMATS["clusters"])
        return example_id_of(record), record["clusters"]

    return load_keyed(path, parse, "example")


# --- JSONL plumbing --------------------------------------------------------


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) pairs; malformed lines name their number."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: malformed JSONL at line {lineno}: {exc}") from None
            if not isinstance(record, dict):
                raise ValidationError(f"{path}:{lineno}: record is not a JSON object")
            yield lineno, record


def load_keyed(path: str | Path, parse: Callable[[dict], tuple], what: str) -> dict:
    """Every record of a JSONL file, as ``{key: value}`` in file order, where
    ``parse(record)`` returns ``(key, value)``.

    Any error of a record names the file and line: a toolkit error keeps its
    type, and a record of the wrong shape (``parse`` raising AttributeError,
    KeyError, TypeError or ValueError) is a ValidationError.  Every record is
    parsed before keys are compared, so a malformed later line is reported by
    its own number; a repeated key fails as ``duplicate <what> <key>``.
    """
    rows = []
    for lineno, record in read_jsonl(path):
        try:
            rows.append((lineno, *parse(record)))
        except PolyevalError as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: malformed record ({exc})") from None
    keyed: dict = {}
    for lineno, key, value in rows:
        if key in keyed:
            raise ValidationError(f"{path}:{lineno}: duplicate {what} {key!r}")
        keyed[key] = value
    return keyed


def float_array(value: list, name: str) -> np.ndarray:
    """A checked array field as a read-only float array, finite and in range."""
    import numpy as np

    array = np.asarray(value)
    if array.dtype.kind not in "iuf":  # an integer beyond 64 bits
        raise ValidationError(f"{name} must be a nonempty {array.ndim}-D array of numbers")
    if not np.all(np.isfinite(array)):
        raise PolyevalError(f"{name} has NaN/Inf entries")
    array = array.astype(float)
    array.setflags(write=False)
    return array


def jsonl_text(records: Iterable[dict]) -> str:
    """Canonical JSONL: one ``dumps_canonical`` line per record."""
    return "".join(dumps_canonical(record) + "\n" for record in records)


def write_files(texts: Iterable[tuple[str | Path, str]]) -> None:
    """Write each (path, text) pair: all of them, or on an error none.

    Every text first goes to a temporary file beside the file its path
    resolves to (a symlink is followed).  The targets are replaced only once
    every temporary file is written; on any exception the temporary files
    are removed and the targets keep their old content.  A target that
    exists but is not a regular file (a device or a pipe, such as
    /dev/stdout) cannot be replaced, so it is written in place, after the
    regular files.  An empty path, a directory, or two paths that resolve to
    one file fail before anything is staged.
    """
    targets: dict[str, tuple[str, str]] = {}  # resolved target -> (path, text)
    in_place = []
    for path, text in texts:
        if not str(path) or os.path.isdir(path):
            code = errno.EISDIR if str(path) else errno.ENOENT
            raise OSError(code, os.strerror(code), str(path))
        if os.path.exists(path) and not os.path.isfile(path):
            in_place.append((path, text))
            continue
        target = os.path.realpath(path)
        if target in targets:
            raise OSError(f"two outputs name one file: {targets[target][0]!r} and {str(path)!r}")
        targets[target] = (str(path), text)
    staged: list[tuple[str, str]] = []
    try:
        for i, (target, (path, text)) in enumerate(targets.items()):
            staged.append((f"{target}.{os.getpid()}.{i}.tmp", target))
            try:
                with open(staged[-1][0], "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:  # name the path given, not the temporary file
                raise OSError(exc.errno, exc.strerror, path) from exc
        for tmp, target in staged:
            os.replace(tmp, target)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise
    for path, text in in_place:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
