"""Decoding harness over pluggable token scorers.

A scorer exposes ``logprobs(prefix) -> {token: logprob}`` over the tokens
with nonzero probability (log-probabilities are finite and logsumexp to 0),
``context(prefix)``, the part of the prefix that ``logprobs`` depends on,
and an ``end_token`` attribute.  A deterministic n-gram toy language model
is provided as the desk-scale scorer for verification and demos.

Beam mechanics, in diverse_beam_search (one group is plain beam search):
finished candidates always move to the result pool without consuming beam
slots, and the surviving unfinished candidates are pruned to the beam width
by cumulative log-probability, less the diversity penalty in every group
after the first.  Final ranking is by length-normalized
log-probability (cumulative divided by token count, end token included);
ties break by token lexicographic order.

Sampling, in sample_many (sample_sequences is its one-salt case), advances
every (salt, run) stream in lockstep, one token per step, CHUNK streams at a
time.  A draw table local to the call holds each context's sorted tokens and
log-probabilities, from one ``logprobs`` call per distinct context, and each
cdf keyed by (context, the context's tokens already generated in that run):
the repetition penalty changes only those tokens, so the key fixes the
distribution.  The keys a step misses are computed together, as one 2-D
numpy pass per row length; a hit costs one uniform and one ``bisect_right``.
The draws are bit-identical to sampling one run at a time: the penalized
values come from the same formula, the logits are divided by the temperature
in Python, each cdf row goes through the same numpy steps as a 1-D row,
``bisect_right`` on its list is ``searchsorted(side="right")``, and each
stream draws one uniform per step from its own generator and sums its
log-probability in the same order.  A stream that fails (an unknown context,
or a temperature so small that every scaled log-probability overflows)
stops every stream after it in (salt, run) order, while the streams before
it keep stepping; the error raised is that of the earliest failing stream,
the one a one-run-at-a-time loop would meet first.
"""
from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from collections import Counter
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Protocol, Sequence

from .core import FORMATS, GenerationMode, GenerationSet, check_shape, make_generation_set
from .errors import PolyevalError, ValidationError


class TokenScorer(Protocol):
    end_token: str

    def context(self, prefix: tuple[str, ...]) -> tuple[str, ...]: ...

    def logprobs(self, prefix: tuple[str, ...]) -> dict[str, float]: ...


class _BeamConfigFields(NamedTuple):
    beams: int = 10
    groups: int = 1
    diversity_penalty: float = 0.0
    repetition_penalty: float = 1.0
    max_len: int = 32


class BeamConfig(_BeamConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which skips __new__ and its checks
        return cls(*iterable)


class DecodedSequence(NamedTuple):
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


def _penalized(value: float, penalty: float) -> float:
    """A score of a token already generated, after the CTRL penalty."""
    return value / penalty if value > 0 else value * penalty


def _expand(scorer: TokenScorer, beams: list[tuple[tuple[str, ...], float]],
            repetition_penalty: float) -> list[tuple[tuple[str, ...], float, str]]:
    """All one-token extensions of the active beams: (tokens, logprob, token)."""
    candidates = []
    for tokens, logprob in beams:
        step = scorer.logprobs(tokens)
        seen = set(tokens) if repetition_penalty > 1.0 else ()
        for token in sorted(step):
            value = step[token]
            if token in seen:
                value = _penalized(value, repetition_penalty)
            candidates.append((tokens + (token,), logprob + value, token))
    return candidates


def _rank(pool: list[DecodedSequence]) -> list[DecodedSequence]:
    return sorted(pool, key=lambda s: (-s.score, s.tokens))


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

# Streams that sample_many advances together; it bounds the state of a call,
# whatever the number of salts.
CHUNK = 1024


def _cdfs(rows: Sequence[Sequence[float]]) -> list[list[float] | None]:
    """The softmax cdf of each row of scaled logits, or None for a row whose
    maximum is not finite.

    Rows of one length are stacked into one C-contiguous array and go through
    the steps of the one-row code in its order: max, subtract, ``np.exp``, a
    row sum, divide, ``cumsum`` and divide by the last entry.  Each step works
    row by row with the same loop as on a 1-D array, so every row comes out
    bit-identical to the one-row result (tests/test_decode.py checks it).  A
    row with a non-finite maximum is left out before the subtraction, where
    ``inf - inf`` would warn.
    """
    import numpy as np

    cdfs: list[list[float] | None] = [None] * len(rows)
    by_length: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(i)
    for positions in by_length.values():
        logits = np.array([rows[i] for i in positions])
        top = logits.max(axis=1)
        finite = np.isfinite(top)
        if not finite.all():
            positions = [i for i, ok in zip(positions, finite.tolist()) if ok]
            logits, top = logits[finite], top[finite]
        probs = np.exp(logits - top[:, None])
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = probs.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        for i, row in zip(positions, cdf.tolist()):
            cdfs[i] = row
    return cdfs


def sample_many(
    scorer: TokenScorer,
    salts: Sequence[int],
    runs: int,
    temperature: float = 1.0,
    seed: int = 0,
    max_len: int = 32,
    repetition_penalty: float = 1.0,
) -> Iterator[list[DecodedSequence]]:
    """Seeded ancestral sampling of ``runs`` sequences per salt, yielded as
    one list per salt in order; run r of a salt uses the (seed, salt, r)
    stream.  The arguments are checked when iteration starts.

    temperature scales log-probabilities before renormalization; 0 selects
    the argmax at every step (ties to the lexicographically smaller token).
    Each step draws one uniform and inverts the cumulative distribution over
    the sorted tokens: numpy's own algorithm for ``Generator.choice`` with
    ``p``, without its per-call checks of ``p``.  tests/test_decode.py pins
    the draw to ``choice`` on the same stream, and the streams to a loop
    that samples one run at a time.
    """
    import numpy as np

    if not (0 <= temperature < math.inf):
        raise ValidationError("temperature must be >= 0 and finite")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    if runs < 1:
        raise ValidationError("need at least one run")
    if max_len < 1:
        raise ValidationError("max_len must be >= 1")
    _check_repetition_penalty(repetition_penalty)
    table = _DrawTable(scorer, temperature, repetition_penalty)
    streams = [(salt, run) for salt in salts for run in range(runs)]
    done: list[DecodedSequence] = []
    for start in range(0, len(streams), CHUNK):
        chunk = streams[start : start + CHUNK]
        rngs = (
            [None] * len(chunk) if temperature == 0
            else [np.random.default_rng([seed, salt, run]) for salt, run in chunk]
        )
        sequences, error = table.advance(rngs, max_len)
        for sequence in sequences:
            done.append(sequence)
            if len(done) == runs:
                yield done
                done = []
        if error is not None:
            raise error


class _Context(NamedTuple):
    """One context's distribution, from one ``scorer.logprobs`` call."""

    tokens: list[str]  # sorted
    values: list[float]  # their log-probabilities
    scaled: list[float] | None  # values / temperature; None at temperature 0
    position: dict[str, int]  # index of each token in ``tokens``
    token_set: frozenset[str]


class _DrawTable:
    """What sample_many draws from, filled as its streams first need it.

    ``contexts`` maps a context to its ``_Context``; ``draws`` maps (context,
    the context's tokens already generated in the run) to the cdf, or at
    temperature 0 to the argmax position; without a repetition penalty the
    key is the context alone.  The penalty changes nothing else, so the key
    fixes the distribution.  ``errors`` keeps a failure under its context or
    key, and it fails every stream that reaches it.
    """

    def __init__(self, scorer: TokenScorer, temperature: float, penalty: float):
        self.scorer = scorer
        self.temperature = temperature
        self.penalty = penalty
        self.contexts: dict[tuple[str, ...], _Context] = {}
        self.draws: dict[tuple, list[float] | int] = {}
        self.errors: dict[tuple, PolyevalError] = {}

    def _context(self, prefix: tuple[str, ...],
                 context: tuple[str, ...]) -> _Context | None:
        """The entry of a context first reached by ``prefix``, or None when
        the scorer fails on it."""
        if context in self.errors:
            return None
        try:
            step = sorted(self.scorer.logprobs(prefix).items())
        except PolyevalError as exc:
            self.errors[context] = exc
            return None
        tokens = [token for token, _ in step]
        values = [value for _, value in step]
        # Python division overflows to inf without numpy's warning
        scaled = [v / self.temperature for v in values] if self.temperature else None
        entry = _Context(tokens, values, scaled,
                         {t: i for i, t in enumerate(tokens)}, frozenset(tokens))
        self.contexts[context] = entry
        return entry

    def _fill(self, missing: dict[tuple, tuple[_Context, frozenset[str]]]) -> None:
        """Compute the draws of the keys a step missed: key -> (context
        entry, the context's tokens already generated)."""
        penalty, temperature = self.penalty, self.temperature
        rows = []
        for entry, repeated in missing.values():
            values = entry.scaled if temperature else entry.values
            if repeated:
                values = values.copy()
                for token in repeated:
                    i = entry.position[token]
                    value = _penalized(entry.values[i], penalty)
                    values[i] = value / temperature if temperature else value
            rows.append(values)
        if temperature == 0:
            # max() keeps the first (lexicographically smallest) on ties
            draws = [max(range(len(row)), key=row.__getitem__) for row in rows]
        else:
            draws = _cdfs(rows)
        for key, draw in zip(missing, draws):
            if draw is None:
                self.errors[key] = ValidationError(
                    f"temperature {temperature!r} is too small: every token's "
                    "scaled log-probability overflows; use 0 for greedy decoding"
                )
            else:
                self.draws[key] = draw

    def advance(self, rngs: list, max_len: int) -> tuple[list[DecodedSequence],
                                                         PolyevalError | None]:
        """Sample one stream per rng (None at temperature 0) in lockstep.

        Returns the sequences of the streams before the earliest failing one,
        and its error (None when no stream fails).  A failure stops the
        streams after it; those before it keep stepping and may fail later.
        """
        contexts, draws, errors = self.contexts, self.draws, self.errors
        context_of, end = self.scorer.context, self.scorer.end_token
        penalty = self.penalty
        penalize = penalty > 1.0
        greedy = self.temperature == 0
        n = len(rngs)
        prefixes: list[tuple[str, ...]] = [()] * n
        logprobs = [0.0] * n
        seen: list[set[str]] = [set() for _ in range(n)]
        finished = [False] * n
        failed, error = n, None
        active = range(n)
        for _ in range(max_len):
            if not active:
                break
            steps = []
            missing: dict[tuple, tuple[_Context, frozenset[str]]] = {}
            for s in active:
                prefix = prefixes[s]
                context = context_of(prefix)
                entry = contexts.get(context) or self._context(prefix, context)
                if entry is None:
                    failed, error = s, errors[context]
                    break
                key = (context, entry.token_set & seen[s]) if penalize else context
                if key not in draws and key not in errors:
                    missing[key] = (entry, key[1] if penalize else frozenset())
                steps.append((s, key, entry))
            if missing:
                self._fill(missing)
            active = []
            for s, key, entry in steps:
                draw = draws.get(key)
                if draw is None:
                    failed, error = s, errors[key]
                    break
                i = draw if greedy else bisect_right(draw, rngs[s].random())
                token = entry.tokens[i]
                value = entry.values[i]
                if penalize:
                    history = seen[s]
                    if token in history:
                        value = _penalized(value, penalty)
                    else:
                        history.add(token)
                logprobs[s] += value
                prefixes[s] += (token,)
                if token == end:
                    finished[s] = True
                else:
                    active.append(s)
        sequences = [_sequence(prefixes[s], logprobs[s], finished[s], end)
                     for s in range(failed)]
        return sequences, error


def sample_sequences(
    scorer: TokenScorer,
    n: int,
    temperature: float = 1.0,
    seed: int = 0,
    salt: int = 0,
    max_len: int = 32,
    repetition_penalty: float = 1.0,
) -> list[DecodedSequence]:
    """``n`` sampled runs for one salt: the one-salt case of ``sample_many``."""
    return next(sample_many(scorer, [salt], n, temperature, seed, max_len,
                            repetition_penalty))


def pack_runs(
    example_id: str,
    sequences: Sequence[DecodedSequence],
    *,
    mode: GenerationMode = GenerationMode.POLYMORPHIC,
) -> tuple[GenerationSet, list[str]]:
    """Package decoded sequences as a GenerationSet of the given mode.

    A polymorphic set has one run per sequence: each text is parsed as a
    numbered inference list, and a text that parses to no item (no list
    marker, or only empty items) falls back to a single inference.  A
    monomorphic set is one run holding every sequence's text.  The warnings
    name one event each: ``max_len_without_end``, and for a polymorphic set
    ``empty_run_dropped`` (only the end token was produced),
    ``unparseable_fallback`` and the parser's warnings; then one
    ``dropped_duplicates`` per dropped repeated item.
    """
    warnings = ["max_len_without_end" for seq in sequences if not seq.finished]
    if mode != GenerationMode.POLYMORPHIC:
        run_lists = [[seq.text for seq in sequences]]
    else:
        run_lists = []
        for seq in sequences:
            if not seq.text:
                warnings.append("empty_run_dropped")
                continue
            parsed = parse_polymorphic(seq.text)
            warnings.extend(parsed.warnings)
            items = list(parsed.items)
            if not items:
                items = [seq.text]
                warnings.append("unparseable_fallback")
            run_lists.append(items)
        if not run_lists:
            raise ValidationError(f"example {example_id!r}: every decoded run was empty")
    gen_set, dropped = make_generation_set(example_id, mode, run_lists)
    warnings.extend(["dropped_duplicates"] * dropped)
    return gen_set, warnings


# --- numbered-list codec ----------------------------------------------------

_LIST_BOUNDARY = re.compile(r"(?:^\s*|;\s*)\((\d+)\)\s*")
_BARE_MARKER = re.compile(r"\((\d+)\)\s*")


class ParsedSequence(NamedTuple):
    items: tuple[str, ...]
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
    parse with warnings.  A string with no "(k)" marker parses to an empty
    ParsedSequence (no items, no warnings).
    """
    matches = list(_LIST_BOUNDARY.finditer(sequence))
    bare_mode = not matches
    if bare_mode:
        matches = list(_BARE_MARKER.finditer(sequence))
    if not matches:
        return ParsedSequence((), ())
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
    return ParsedSequence(tuple(items), tuple(warnings))


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
        self.end_token = end_token
        self._table = logtable

    def context(self, prefix: tuple[str, ...]) -> tuple[str, ...]:
        """The part of ``prefix`` that conditions the next token."""
        return tuple(prefix[-(self.order - 1) :]) if self.order > 1 else ()

    def logprobs(self, prefix: tuple[str, ...]) -> dict[str, float]:
        context = self.context(prefix)
        try:
            return dict(self._table[context])
        except KeyError:
            raise PolyevalError(f"no distribution for context {context!r}") from None


def load_ngram_lm(path: str | Path) -> NgramLM:
    """Load a toy LM config, one JSON object of the ``core.FORMATS["lm"]``
    format.  A field of the wrong JSON type is rejected, never coerced, and
    every error names the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: malformed LM config: {exc}") from None
    try:
        if not isinstance(config, dict):
            raise ValidationError("LM config must be a JSON object")
        config = check_shape(config, FORMATS["lm"])
        table = {}
        for row in config["cond"]:
            context = tuple(row["context"])
            if context in table:
                raise ValidationError(f"duplicate context {context!r}")
            table[context] = row["probs"]
        return NgramLM(config["order"], config["vocab"], table, config["end_token"])
    except PolyevalError as exc:
        raise type(exc)(f"{path}: {exc}") from None
