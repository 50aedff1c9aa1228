"""Decoding harness over pluggable token scorers.

A scorer exposes ``logprobs(prefix) -> {token: logprob}`` over the tokens
with nonzero probability (log-probabilities are finite and logsumexp to 0)
plus an ``end_token`` attribute.  A deterministic n-gram toy language model
is provided as the desk-scale scorer for verification and demos.

Beam mechanics, in diverse_beam_search (beam_search is its one-group case):
finished candidates always move to the result pool without consuming beam
slots, and the surviving unfinished candidates are pruned to the beam width
by cumulative log-probability, less the diversity penalty in every group
after the first.  Final ranking is by length-normalized
log-probability (cumulative divided by token count, end token included);
ties break by token lexicographic order.
"""
from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from .core import NUMBER, GenerationMode, GenerationSet, get_field, make_generation_set
from .errors import PolyevalError, UnknownContext, UnparseableSequence, ValidationError


class TokenScorer(Protocol):
    end_token: str

    def logprobs(self, prefix: tuple[str, ...]) -> dict[str, float]: ...


@dataclass(frozen=True)
class BeamConfig:
    beams: int = 10
    groups: int = 1
    diversity_penalty: float = 0.0
    repetition_penalty: float = 1.0
    max_len: int = 32

    def __post_init__(self):
        if self.beams < 1 or self.groups < 1:
            raise ValidationError("beams and groups must be >= 1")
        if self.beams % self.groups != 0:
            raise ValidationError(
                f"beams ({self.beams}) must be divisible by groups ({self.groups})"
            )
        if not (0 <= self.diversity_penalty < math.inf):
            raise ValidationError("diversity penalty must be >= 0 and finite")
        _check_repetition_penalty(self.repetition_penalty)
        if self.max_len < 1:
            raise ValidationError("max_len must be >= 1")


@dataclass(frozen=True)
class DecodedSequence:
    tokens: tuple[str, ...]  # includes the end token when finished
    text: str  # tokens joined by spaces, end token omitted
    logprob: float  # cumulative search score
    score: float  # logprob / len(tokens)
    finished: bool  # False: force-terminated at max_len


def _sequence(tokens: tuple[str, ...], logprob: float, finished: bool,
              end_token: str) -> DecodedSequence:
    text = " ".join(t for t in tokens if t != end_token)
    return DecodedSequence(tokens, text, logprob, logprob / len(tokens), finished)


def _check_repetition_penalty(penalty: float) -> None:
    if not (1 <= penalty < math.inf):
        raise ValidationError("repetition penalty must be >= 1 and finite")


def apply_repetition_penalty(
    logprobs: Mapping[str, float], history: Iterable[str], penalty: float
) -> dict[str, float]:
    """Penalize tokens already generated: positive scores are divided by the
    penalty, negative scores multiplied."""
    _check_repetition_penalty(penalty)
    if penalty == 1.0:
        return dict(logprobs)
    seen = set(history)
    out = {}
    for token, value in logprobs.items():
        if token in seen:
            value = value / penalty if value > 0 else value * penalty
        out[token] = value
    return out


def _expand(scorer: TokenScorer, beams: list[tuple[tuple[str, ...], float]],
            repetition_penalty: float) -> list[tuple[tuple[str, ...], float, str]]:
    """All one-token extensions of the active beams: (tokens, logprob, token)."""
    candidates = []
    for tokens, logprob in beams:
        step = scorer.logprobs(tokens)
        if repetition_penalty > 1.0:
            step = apply_repetition_penalty(step, tokens, repetition_penalty)
        for token in sorted(step):
            candidates.append((tokens + (token,), logprob + step[token], token))
    return candidates


def _rank(pool: list[DecodedSequence]) -> list[DecodedSequence]:
    return sorted(pool, key=lambda s: (-s.score, s.tokens))


def beam_search(
    scorer: TokenScorer, config: BeamConfig, k: int | None = None
) -> list[DecodedSequence]:
    """Standard beam search; returns the top-k length-normalized sequences.

    Sequences still unfinished at max_len are force-terminated and flagged
    (``finished=False``).
    """
    if config.groups != 1:
        raise ValidationError("beam_search requires groups=1; see diverse_beam_search")
    k = config.beams if k is None else k
    if k < 1:
        raise ValidationError("need at least one run")
    if k > config.beams:
        raise ValidationError(f"k ({k}) cannot exceed beams ({config.beams})")
    # one group is plain beam search: no earlier group to penalize against
    return diverse_beam_search(scorer, config)[:k]


def diverse_beam_search(
    scorer: TokenScorer, config: BeamConfig
) -> list[DecodedSequence]:
    """Diversity-promoting beam search with a per-step token-count penalty.

    The ``groups`` groups (each of width beams/groups) advance sequentially
    at every step; a token picked by earlier groups at the current step costs
    later groups ``diversity_penalty`` per selection.  The result concatenates
    each group's beams (ranked by unpenalized normalized score) group by
    group, so with a zero penalty it is ``groups`` copies of the width
    beams/groups beam-search result.
    """
    width = config.beams // config.groups
    end = scorer.end_token
    active: list[list[tuple[tuple[str, ...], float]]] = [
        [((), 0.0)] for _ in range(config.groups)
    ]
    finished: list[list[tuple[tuple[str, ...], float]]] = [
        [] for _ in range(config.groups)
    ]
    for _ in range(config.max_len):
        if not any(active):
            break
        step_counts: Counter[str] = Counter()
        for g in range(config.groups):
            if not active[g]:
                continue
            candidates = _expand(scorer, active[g], config.repetition_penalty)
            # penalized selection, unpenalized bookkeeping
            penalized = sorted(
                candidates,
                key=lambda c: (
                    -(c[1] - config.diversity_penalty * step_counts[c[2]]),
                    c[0],
                ),
            )
            selected_active: list[tuple[tuple[str, ...], float]] = []
            for tokens, logprob, token in penalized:
                if token == end:
                    finished[g].append((tokens, logprob))
                    step_counts[token] += 1
                elif len(selected_active) < width:
                    selected_active.append((tokens, logprob))
                    step_counts[token] += 1
            selected_active.sort(key=lambda c: (-c[1], c[0]))
            active[g] = selected_active
    result: list[DecodedSequence] = []
    for g in range(config.groups):
        pool = [_sequence(t, lp, True, end) for t, lp in finished[g]]
        pool += [_sequence(t, lp, False, end) for t, lp in active[g]]
        result.extend(_rank(pool)[:width])
    return result


# --- sampling ---------------------------------------------------------------


def sample_sequences(
    scorer: TokenScorer,
    n: int,
    temperature: float = 1.0,
    seed: int = 0,
    salt: int = 0,
    max_len: int = 32,
    repetition_penalty: float = 1.0,
) -> list[DecodedSequence]:
    """Seeded ancestral sampling; run r uses the (seed, salt, r) stream.

    temperature scales log-probabilities before renormalization; 0 selects
    the argmax at every step (ties to the lexicographically smaller token).
    Each step draws one uniform and inverts the cumulative distribution over
    the sorted tokens: numpy's own algorithm for ``Generator.choice`` with
    ``p``, without its per-call checks of ``p``.  tests/test_decode.py pins
    the draw to ``choice`` on the same stream.
    """
    import numpy as np

    if not (0 <= temperature < math.inf):
        raise ValidationError("temperature must be >= 0 and finite")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    if n < 1:
        raise ValidationError("need at least one run")
    if max_len < 1:
        raise ValidationError("max_len must be >= 1")
    _check_repetition_penalty(repetition_penalty)
    end = scorer.end_token
    sequences = []
    for run in range(n):
        rng = np.random.default_rng([seed, salt, run])
        tokens: tuple[str, ...] = ()
        logprob = 0.0
        finished = False
        for _ in range(max_len):
            step_map = scorer.logprobs(tokens)
            if repetition_penalty > 1.0:
                step_map = apply_repetition_penalty(
                    step_map, tokens, repetition_penalty
                )
            step = sorted(step_map.items())
            if temperature == 0:
                token, value = max(step, key=lambda kv: kv[1])
                # max() keeps the first (lexicographically smallest) on ties
            else:
                # Python division overflows to inf without numpy's warning
                logits = np.array([v / temperature for _, v in step])
                top = logits.max()
                if not math.isfinite(top):  # else inf - inf leaves a NaN cdf
                    raise ValidationError(
                        f"temperature {temperature!r} is too small: every token's "
                        "scaled log-probability overflows; use 0 for greedy decoding"
                    )
                probs = np.exp(logits - top)
                probs /= probs.sum()
                cdf = probs.cumsum()
                cdf /= cdf[-1]
                token, value = step[int(cdf.searchsorted(rng.random(), side="right"))]
            logprob += value
            tokens += (token,)
            if token == end:
                finished = True
                break
        sequences.append(_sequence(tokens, logprob, finished, end))
    return sequences


def pack_runs(
    example_id: str, sequences: Iterable[DecodedSequence]
) -> tuple[GenerationSet, list[str]]:
    """Package decoded sequences as a polymorphic GenerationSet, one run each.

    Each text is parsed as a numbered inference list; a text with no list
    marker falls back to a single inference.  The warnings name one event
    each: ``max_len_without_end``, ``empty_run_dropped`` (only the end token
    was produced), ``unparseable_fallback``, the parser's warnings, and one
    ``dropped_duplicates`` per dropped repeated item.
    """
    warnings: list[str] = []
    run_lists: list[list[str]] = []
    for seq in sequences:
        if not seq.finished:
            warnings.append("max_len_without_end")
        if not seq.text:
            warnings.append("empty_run_dropped")
            continue
        try:
            parsed = parse_polymorphic(seq.text)
            warnings.extend(parsed.warnings)
            items = list(parsed.items)
        except UnparseableSequence:
            items = []
        if not items:
            items = [seq.text]
            warnings.append("unparseable_fallback")
        run_lists.append(items)
    if not run_lists:
        raise ValidationError(f"example {example_id!r}: every decoded run was empty")
    gen_set, dropped = make_generation_set(
        example_id, GenerationMode.POLYMORPHIC, run_lists
    )
    warnings.extend(["dropped_duplicates"] * dropped)
    return gen_set, warnings


def sample_runs(
    scorer: TokenScorer,
    example_id: str,
    runs: int = 3,
    temperature: float = 1.0,
    seed: int = 0,
    salt: int = 0,
    max_len: int = 32,
    repetition_penalty: float = 1.0,
) -> tuple[GenerationSet, list[str]]:
    """Sample ``runs`` sequences and package them with ``pack_runs``."""
    sequences = sample_sequences(
        scorer, runs, temperature, seed, salt, max_len, repetition_penalty
    )
    return pack_runs(example_id, sequences)


# --- numbered-list codec ----------------------------------------------------

_LIST_BOUNDARY = re.compile(r"(?:^\s*|;\s*)\((\d+)\)\s*")
_BARE_MARKER = re.compile(r"\((\d+)\)\s*")


@dataclass(frozen=True)
class ParsedSequence:
    items: tuple[str, ...]
    indices: tuple[int, ...]
    warnings: tuple[str, ...]


def format_polymorphic(inferences: Sequence[str]) -> str:
    """Render inferences as a numbered, semicolon-delimited list."""
    if not inferences or any(not str(i).strip() for i in inferences):
        raise ValidationError("inference list must be nonempty strings")
    return "; ".join(f"({k}) {text}" for k, text in enumerate(inferences, start=1))


def parse_polymorphic(sequence: str) -> ParsedSequence:
    """Parse a numbered list back into inferences, in surface order.

    Item boundaries are "(k)" at the start of the string or after a
    semicolon, so a bare "(k)" inside an item does not split it; strings with
    only bare markers still parse by splitting on them.  Missing final
    semicolons are fine; duplicated, out-of-order, or non-contiguous indices
    parse with warnings.  It is an error only when no "(k)" marker exists.
    """
    matches = list(_LIST_BOUNDARY.finditer(sequence))
    bare_mode = not matches
    if bare_mode:
        matches = list(_BARE_MARKER.finditer(sequence))
    if not matches:
        raise UnparseableSequence(f"no list marker found in {sequence!r}")
    warnings = []
    if sequence[: matches[0].start()].strip():
        warnings.append("leading_text")
    items = []
    indices = []
    for k, match in enumerate(matches):
        end = matches[k + 1].start() if k + 1 < len(matches) else len(sequence)
        text = sequence[match.end() : end].strip()
        if (bare_mode or k + 1 == len(matches)) and text.endswith(";"):
            text = text[:-1].rstrip()  # tolerate a trailing semicolon
        if not text:
            warnings.append("empty_item")
            continue
        items.append(text)
        indices.append(int(match.group(1)))
    if len(set(indices)) < len(indices):
        warnings.append("duplicate_indices")
    elif any(b < a for a, b in zip(indices, indices[1:])):
        warnings.append("out_of_order_indices")
    elif indices != list(range(1, len(indices) + 1)):
        warnings.append("non_contiguous_indices")
    return ParsedSequence(tuple(items), tuple(indices), tuple(warnings))


# --- toy n-gram language model ----------------------------------------------


class NgramLM:
    """Order-n language model with explicit conditional tables.

    Conditioning context is the last order-1 tokens of the prefix (fewer near
    the start).  Every listed probability is positive and each conditional
    distribution sums to 1, so returned log-probabilities are finite and
    normalized.
    """

    def __init__(
        self,
        order: int,
        vocab: Sequence[str],
        table: Mapping[tuple[str, ...], Mapping[str, float]],
        end_token: str = "</s>",
    ):
        if order < 1:
            raise ValidationError("order must be >= 1")
        if end_token not in vocab:
            raise ValidationError(f"end token {end_token!r} missing from vocabulary")
        vocab_set = set(vocab)
        if len(vocab_set) != len(vocab):
            raise ValidationError("vocabulary has duplicate tokens")
        logtable: dict[tuple[str, ...], dict[str, float]] = {}
        for context, dist in table.items():
            context = tuple(context)
            if len(context) > order - 1:
                raise ValidationError(
                    f"context {context!r} longer than order-1 = {order - 1}"
                )
            if any(tok not in vocab_set for tok in context):
                raise ValidationError(f"context {context!r} uses unknown tokens")
            if not dist:
                raise ValidationError(f"context {context!r} has an empty distribution")
            total = 0.0
            logs = {}
            for token, prob in dist.items():
                if token not in vocab_set:
                    raise ValidationError(f"unknown token {token!r} in distribution")
                if not (prob > 0.0):
                    raise ValidationError(
                        f"probability for {token!r} given {context!r} must be > 0"
                    )
                total += prob
                logs[token] = math.log(prob)
            if abs(total - 1.0) > 1e-9:
                raise ValidationError(
                    f"distribution for context {context!r} sums to {total!r}"
                )
            logtable[context] = logs
        self.order = order
        self.vocab = tuple(vocab)
        self.end_token = end_token
        self._table = logtable

    def logprobs(self, prefix: tuple[str, ...]) -> dict[str, float]:
        context = tuple(prefix[-(self.order - 1) :]) if self.order > 1 else ()
        try:
            return dict(self._table[context])
        except KeyError:
            raise UnknownContext(f"no distribution for context {context!r}") from None


def load_ngram_lm(path: str | Path) -> NgramLM:
    """Load a toy LM config: {"order", "vocab", "end_token", "cond": [
    {"context": [...], "probs": {token: p}}, ...]}.  A field of the wrong
    JSON type is rejected, never coerced, and every error names the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: malformed LM config: {exc}") from None
    try:
        if not isinstance(config, dict):
            raise ValidationError("LM config must be a JSON object")
        table = {}
        for row in get_field(config, "cond", list, [], of=dict):
            context = tuple(get_field(row, "context", list, [], of=str))
            if context in table:
                raise ValidationError(f"duplicate context {context!r}")
            table[context] = get_field(row, "probs", dict, {}, of=NUMBER)
        return NgramLM(
            order=get_field(config, "order", int, 1),
            vocab=get_field(config, "vocab", list, [], of=str),
            table=table,
            end_token=get_field(config, "end_token", str, "</s>"),
        )
    except PolyevalError as exc:
        raise type(exc)(f"{path}: {exc}") from None
