import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyeval import decode
from polyeval.core import GenerationMode
from polyeval.decode import (
    BeamConfig,
    DecodedSequence,
    NgramLM,
    ParsedSequence,
    diverse_beam_search,
    format_polymorphic,
    pack_runs,
    parse_polymorphic,
    sample_many,
    sample_sequences,
)
from polyeval.errors import PolyevalError, ValidationError

END = "</s>"


def lm_of(order, table, vocab=None):
    if vocab is None:
        vocab = sorted({t for d in table.values() for t in d} | {END})
    return NgramLM(order=order, vocab=vocab, table=table, end_token=END)


def enumerate_all(lm, max_len):
    """Exhaustive oracle: every decodable sequence with its raw log-prob."""
    results = []

    def dfs(prefix, logprob):
        if len(prefix) == max_len:
            results.append((prefix, logprob, False))
            return
        for token, lp in sorted(lm.logprobs(prefix).items()):
            if token == END:
                results.append((prefix + (token,), logprob + lp, True))
            else:
                dfs(prefix + (token,), logprob + lp)

    dfs((), 0.0)
    return results


def oracle_topk(lm, max_len, k):
    ranked = sorted(
        enumerate_all(lm, max_len),
        key=lambda s: (-(s[1] / len(s[0])), s[0]),
    )
    return ranked[:k]


# --- beam search ----------------------------------------------------------------


def test_dominant_single_path():
    lm = lm_of(2, {(): {"a": 0.9, END: 0.1}, ("a",): {END: 1.0}})
    top = diverse_beam_search(lm, BeamConfig(beams=2, max_len=4))[:1]
    assert top[0].tokens == ("a", END)
    assert top[0].text == "a"
    assert top[0].finished


def test_beam_equals_exhaustive_enumeration():
    lm = lm_of(
        2,
        {
            (): {"a": 0.5, "b": 0.5},
            ("a",): {"a": 0.25, "b": 0.25, END: 0.5},
            ("b",): {"a": 0.125, END: 0.875},
        },
    )
    max_len = 5
    complete = enumerate_all(lm, max_len)
    config = BeamConfig(beams=len(complete), max_len=max_len)
    got = diverse_beam_search(lm, config)
    want = oracle_topk(lm, max_len, len(complete))
    assert [(s.tokens, s.finished) for s in got] == [
        (t, fin) for t, _, fin in want
    ]
    for s, (_, lp, _) in zip(got, want):
        assert s.logprob == pytest.approx(lp, abs=1e-12)
        assert s.score == pytest.approx(lp / len(s.tokens), abs=1e-12)


def random_lm(rng, n_tokens, min_end=0.05):
    tokens = [f"t{i}" for i in range(n_tokens)]
    table = {}
    for context in [()] + [(t,) for t in tokens]:
        support = [t for t in tokens if rng.random() < 0.8]
        weights = rng.integers(1, 10, size=len(support) + 1).astype(float)
        weights /= weights.sum()
        dist = dict(zip(support + [END], weights.tolist()))
        if dist[END] < min_end:
            dist[END] += min_end
            scale = (1 - dist[END]) / max(1e-12, sum(v for t, v in dist.items() if t != END))
            dist = {t: (v * scale if t != END else v) for t, v in dist.items()}
        table[context] = dist
    return lm_of(2, table, vocab=tokens + [END])


def test_beam_matches_oracle_on_random_toy_lms():
    rng = np.random.default_rng(100)
    for trial in range(25):
        lm = random_lm(rng, n_tokens=int(rng.integers(2, 4)))
        max_len = int(rng.integers(2, 6))
        complete = enumerate_all(lm, max_len)
        assert len(complete) <= 4096
        k = min(len(complete), int(rng.integers(1, 8)))
        config = BeamConfig(beams=len(complete), max_len=max_len)
        got = diverse_beam_search(lm, config)[:k]
        want = oracle_topk(lm, max_len, k)
        assert [s.tokens for s in got] == [t for t, _, _ in want], f"trial {trial}"


def test_equal_scores_tie_break_lexicographic():
    lm = lm_of(1, {(): {"x": 0.4, "y": 0.4, END: 0.2}})
    top = diverse_beam_search(lm, BeamConfig(beams=8, max_len=2))[:6]
    # four forced two-token sequences tie at the best normalized score, then
    # the two finished ones tie below them; each block sorts lexicographically
    assert [s.tokens for s in top] == [
        ("x", "x"),
        ("x", "y"),
        ("y", "x"),
        ("y", "y"),
        ("x", END),
        ("y", END),
    ]
    assert top[0].score == pytest.approx(top[3].score, abs=1e-12)
    assert top[4].score == pytest.approx(top[5].score, abs=1e-12)


def test_force_termination_is_flagged():
    lm = lm_of(1, {(): {"a": 1.0}}, vocab=["a", END])
    top = diverse_beam_search(lm, BeamConfig(beams=1, max_len=3))
    assert top[0].tokens == ("a", "a", "a")
    assert not top[0].finished


# --- diverse beam search -----------------------------------------------------------


def test_zero_penalty_degenerates_to_copies():
    lm = lm_of(
        2,
        {
            (): {"a": 0.5, "b": 0.3, END: 0.2},
            ("a",): {"b": 0.6, END: 0.4},
            ("b",): {"a": 0.1, END: 0.9},
        },
    )
    for groups in (2, 3):
        width = 2
        config = BeamConfig(
            beams=width * groups, groups=groups, diversity_penalty=0.0, max_len=4
        )
        flat = diverse_beam_search(lm, config)
        single = diverse_beam_search(lm, BeamConfig(beams=width, max_len=4))
        assert flat == single * groups


def test_large_penalty_splits_first_tokens():
    lm = lm_of(
        1, {(): {"a": 0.35, "b": 0.33, END: 0.32}}, vocab=["a", "b", END]
    )
    config = BeamConfig(beams=2, groups=2, diversity_penalty=5.0, max_len=2)
    flat = diverse_beam_search(lm, config)
    first_tokens = {seq.tokens[0] for seq in flat}
    assert len(first_tokens) == 2  # near-tied options diverge across groups


def test_manual_trace_width_one_groups():
    # order-1 LM: P(a) = .5, P(b) = .3, P(end) = .2 at every step.
    # beams=2, groups=2 (width 1), penalty 0.6, max_len=2.
    #
    # step 0: group 0 takes "a" (-0.6931) and pools (end,) at -1.6094;
    #   counts {a:1, end:1}. group 1 sees a at -0.6931-0.6 = -1.2931 < b at
    #   -1.2040, so it takes "b" and pools (end,) too.
    # step 1: group 0 extends to (a,a) (-1.3863), pooling (a,end) (-2.3026);
    #   group 1 sees (b,a) at -1.8971-0.6, (b,b) at -2.4079, (b,end) at
    #   -2.8134-0.6(end count): takes (b,b), pools (b,end).
    # final pools, scored by logprob/len:
    #   group 0: (a,a) -0.6931 > (a,end) -1.1513 > (end,) -1.6094
    #   group 1: (b,b) -1.2040 > (b,end) -1.4067 > (end,) -1.6094
    lm = lm_of(1, {(): {"a": 0.5, "b": 0.3, END: 0.2}})
    config = BeamConfig(beams=2, groups=2, diversity_penalty=0.6, max_len=2)
    flat = diverse_beam_search(lm, config)
    assert [s.tokens for s in flat] == [("a", "a"), ("b", "b")]
    assert flat[0].score == pytest.approx(math.log(0.25) / 2, abs=1e-12)
    assert flat[1].score == pytest.approx(math.log(0.09) / 2, abs=1e-12)
    assert not flat[0].finished and not flat[1].finished


# --- repetition penalty -------------------------------------------------------------


def test_repetition_penalty_rules():
    assert decode._penalized(-1.0, 1.0) == -1.0
    assert decode._penalized(0.5, 1.0) == 0.5
    assert decode._penalized(-1.0, 5.0) == -5.0  # negative scores are multiplied
    assert decode._penalized(0.5, 5.0) == 0.1  # positive scores are divided
    lm = lm_of(1, {(): {"a": 0.5, END: 0.5}})
    with pytest.raises(ValidationError, match="repetition penalty must be >= 1"):
        BeamConfig(repetition_penalty=0.5)
    with pytest.raises(ValidationError, match="repetition penalty must be >= 1"):
        list(sample_many(lm, [0], 1, repetition_penalty=0.5))


def test_repetition_penalty_steers_beam():
    # without the penalty the model loops "a a a"; with it, "a b" wins
    lm = lm_of(
        2,
        {
            (): {"a": 0.9, "b": 0.1},
            ("a",): {"a": 0.6, "b": 0.2, END: 0.2},
            ("b",): {END: 1.0},
        },
    )
    plain = diverse_beam_search(lm, BeamConfig(beams=1, max_len=3))
    assert plain[0].tokens == ("a", "a", "a")
    penalized = diverse_beam_search(
        lm, BeamConfig(beams=1, max_len=3, repetition_penalty=5.0)
    )
    assert penalized[0].tokens[:2] != ("a", "a")


# --- sampling ------------------------------------------------------------------------


FIVE_SEQ_LM = {
    (): {"a": 0.5, "b": 0.5},
    ("a",): {"a": 0.5, END: 0.5},
    ("b",): {"a": 0.4, END: 0.6},
    ("a", "a"): {END: 1.0},
    ("b", "a"): {"a": 0.2, END: 0.8},
}
FIVE_SEQ_PROBS = {
    ("a", END): 0.5 * 0.5,
    ("a", "a", END): 0.5 * 0.5 * 1.0,
    ("b", END): 0.5 * 0.6,
    ("b", "a", END): 0.5 * 0.4 * 0.8,
    ("b", "a", "a", END): 0.5 * 0.4 * 0.2 * 1.0,
}


def test_sampling_deterministic_under_seed():
    lm = lm_of(3, FIVE_SEQ_LM)
    a = sample_sequences(lm, n=5, seed=17, salt=3, max_len=6)
    b = sample_sequences(lm, n=5, seed=17, salt=3, max_len=6)
    assert a == b
    c = sample_sequences(lm, n=5, seed=18, salt=3, max_len=6)
    assert a != c


def test_argmax_limit_all_runs_identical():
    lm = lm_of(3, FIVE_SEQ_LM)
    runs = sample_sequences(lm, n=4, temperature=0.0, seed=1, max_len=6)
    assert len({r.tokens for r in runs}) == 1
    # both steps tie; the lexicographically smaller token wins each time
    assert runs[0].tokens == ("a", END)


def test_sampled_frequencies_match_lm_within_tv():
    lm = lm_of(3, FIVE_SEQ_LM)
    n = 10_000
    sequences = sample_sequences(lm, n=n, seed=1234, max_len=6)
    counts = {}
    for seq in sequences:
        counts[seq.tokens] = counts.get(seq.tokens, 0) + 1
    assert set(counts) <= set(FIVE_SEQ_PROBS)
    tv = 0.5 * sum(
        abs(counts.get(tokens, 0) / n - p) for tokens, p in FIVE_SEQ_PROBS.items()
    )
    assert tv <= 0.02


def test_sample_runs_polymorphic_parsing():
    # order-1 list grammar over numbered-list tokens
    lm = lm_of(
        1,
        {
            (): {
                "(1) red": 0.4,
                "(1) blue": 0.3,
                "; (2) green": 0.2,
                END: 0.1,
            }
        },
    )
    gen_set, warnings = pack_runs("e1", sample_sequences(lm, n=3, seed=7, max_len=5))
    assert gen_set.mode is GenerationMode.POLYMORPHIC
    assert gen_set.example_id == "e1"
    assert len(gen_set.runs) == 3
    for run in gen_set.runs:
        assert run  # parsed items, never empty
    again, _ = pack_runs("e1", sample_sequences(lm, n=3, seed=7, max_len=5))
    assert again == gen_set


def test_sample_runs_fallback_on_unparseable():
    lm = lm_of(2, {(): {"plain": 1.0}, ("plain",): {"plain": 0.5, END: 0.5}})
    gen_set, warnings = pack_runs("e", sample_sequences(lm, n=2, seed=3, max_len=4))
    assert any(w == "unparseable_fallback" for w in warnings)
    assert all(run for run in gen_set.runs)


def test_sample_runs_drops_empty_sequences():
    # a run that generates only the end token carries no inference
    lm = lm_of(1, {(): {"word": 0.5, END: 0.5}})
    gen_set, warnings = pack_runs("e", sample_sequences(lm, n=8, seed=0, max_len=3))
    assert all(run for run in gen_set.runs)
    dropped = sum(1 for w in warnings if w == "empty_run_dropped")
    assert len(gen_set.runs) + dropped == 8
    assert dropped > 0  # seed 0 hits at least one immediate end


@pytest.mark.parametrize("mode", [GenerationMode.MONOMORPHIC_BEAM,
                                  GenerationMode.MONOMORPHIC_DIVERSE_BEAM])
def test_pack_runs_monomorphic_is_one_run_of_every_text(mode):
    # no list parsing: "(1) a" stays one output, and a repeat is dropped
    sequences = [DecodedSequence(tuple(text.split()) + (END,), text, -1.0, -0.5, True)
                 for text in ("(1) a", "b", "b")]
    sequences.append(DecodedSequence(("c",), "c", -2.0, -2.0, False))
    gen_set, warnings = pack_runs("e", sequences, mode=mode)
    assert (gen_set.mode, gen_set.runs) == (mode, (("(1) a", "b", "c"),))
    assert sorted(warnings) == ["dropped_duplicates", "max_len_without_end"]
    end_only = [DecodedSequence((END,), "", -1.0, -1.0, True)]
    with pytest.raises(ValidationError, match="'e': empty generation output"):
        pack_runs("e", end_only, mode=mode)


def test_sample_rejects_bad_args():
    lm = lm_of(1, {(): {"a": 0.5, END: 0.5}})
    with pytest.raises(ValidationError):
        sample_sequences(lm, n=0)
    with pytest.raises(ValidationError):
        sample_sequences(lm, n=1, temperature=-0.5)
    with pytest.raises(ValidationError):
        sample_sequences(lm, n=1, max_len=0)
    for penalty in (0.5, 0.0, -3.0):
        with pytest.raises(ValidationError, match="repetition penalty must be >= 1"):
            sample_sequences(lm, n=1, repetition_penalty=penalty)


def test_sample_rejects_a_temperature_that_overflows_every_token():
    lm = lm_of(1, {(): {"a": 0.5, END: 0.5}})
    with pytest.raises(ValidationError, match="temperature 5e-324 is too small"):
        sample_sequences(lm, n=1, temperature=5e-324)


@pytest.mark.filterwarnings("error")
def test_tiny_temperature_draws_the_argmax_without_warnings():
    # every other token's scaled log-probability overflows to -inf, the top one
    # stays finite, so each step is certain
    lm = lm_of(3, {(): {"a": 0.6, "b": 0.4}, ("a",): {"b": 0.7, END: 0.3},
                   ("a", "b"): {END: 0.9, "a": 0.1}})
    runs = sample_sequences(lm, n=3, temperature=4e-309, seed=4, max_len=6)
    assert [r.tokens for r in runs] == [("a", "b", END)] * 3


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=40),
    temperature=st.floats(0.05, 5.0),
    seed=st.integers(0, 2**63),
    salt=st.integers(0, 2**31),
    runs=st.integers(1, 3),
    steps=st.integers(1, 8),
)
def test_draw_equals_generator_choice(weights, temperature, seed, salt, runs, steps):
    # an order-1 LM without the end token draws ``steps`` times per run from
    # one distribution over tokens sorted as indexed
    tokens = [f"t{i:02d}" for i in range(len(weights))]
    total = sum(weights)
    lm = lm_of(1, {(): {t: w / total for t, w in zip(tokens, weights)}},
               vocab=tokens + [END])
    drawn = sample_sequences(lm, runs, temperature, seed, salt, max_len=steps)
    logits = np.array([lm.logprobs(())[t] for t in tokens]) / temperature
    p = np.exp(logits - logits.max())
    p /= p.sum()
    for run, sequence in enumerate(drawn):
        rng = np.random.default_rng([seed, salt, run])
        expected = [int(rng.choice(len(tokens), p=p)) for _ in range(steps)]
        assert [tokens.index(t) for t in sequence.tokens] == expected


def one_run_at_a_time(scorer, n, temperature, seed, salt, max_len, penalty):
    """The sampling loop that sample_many replaced, kept as its reference:
    one run after another, one distribution per step."""
    end = scorer.end_token
    sequences = []
    for run in range(n):
        rng = np.random.default_rng([seed, salt, run])
        tokens = ()
        logprob = 0.0
        finished = False
        for _ in range(max_len):
            step = sorted(scorer.logprobs(tokens).items())
            # the CTRL penalty of a token already generated: a positive
            # log-probability is divided by it, a negative one multiplied
            step = [(t, (v / penalty if v > 0 else v * penalty) if t in tokens else v)
                    for t, v in step]
            if temperature == 0:
                token, value = max(step, key=lambda kv: kv[1])
            else:
                logits = np.array([v / temperature for _, v in step])
                top = logits.max()
                if not math.isfinite(top):
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
        text = " ".join(t for t in tokens if t != end)
        sequences.append(DecodedSequence(tokens, text, logprob, logprob / len(tokens),
                                         finished))
    return sequences


def bits(sequences):
    return [(s.tokens, s.text, s.logprob.hex(), s.score.hex(), s.finished)
            for s in sequences]


def outcome(draws):
    """The per-salt sequences an iterator of draws yields before it fails,
    and the failure's type and message."""
    done = []
    try:
        for sequences in draws:
            done.append(bits(sequences))
    except PolyevalError as exc:
        return done, (type(exc), str(exc))
    return done, None


@st.composite
def toy_lms(draw):
    """Order-1 to 3 LMs over at most three words, with some contexts missing."""
    order = draw(st.integers(1, 3))
    words = ["a", "b", "c"][: draw(st.integers(1, 3))]
    contexts = [()]
    for length in range(1, order):
        contexts += [c + (w,) for c in contexts if len(c) == length - 1 for w in words]
    table = {}
    for context in contexts:
        if context and draw(st.integers(0, 2)) == 0:
            continue  # missing: a stream that reaches it fails
        tokens = draw(st.one_of(
            st.just(words + [END]),  # full support: streams part at random
            st.lists(st.sampled_from(words + [END]), min_size=1, unique=True),
        ))
        weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(tokens),
                                max_size=len(tokens)))
        total = sum(weights)
        table[context] = {t: w / total for t, w in zip(tokens, weights)}
    return lm_of(order, table, vocab=words + [END])


# Salt 22 completes both runs; run 1 of salt 0 fails at step 5 on ("b",), and
# run 1 of salt 1 fails sooner, at step 2 on ("c",): the error is salt 0's.
PARTING_STREAMS = lm_of(2, {(): {"a": 0.5, "b": 0.1, "c": 0.1, END: 0.3},
                            ("a",): {"a": 0.6, "b": 0.2, "c": 0.2}},
                        vocab=["a", "b", "c", END])


@pytest.mark.parametrize("chunk", [None, 2], ids=["one_chunk", "chunks_of_2"])
@settings(max_examples=300, deadline=None)
@example(lm=PARTING_STREAMS, penalty=1.5, temperature=1.0, seed=3,
         salts=[22, 0, 1], runs=2, max_len=8)
@given(
    lm=toy_lms(),
    penalty=st.sampled_from([1.0, 1.5, 5.0]),
    temperature=st.one_of(st.sampled_from([0.0, 4e-309, 5e-324]),
                          st.floats(0.05, 5.0)),
    seed=st.integers(0, 2**32),
    salts=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
    runs=st.integers(1, 4),
    max_len=st.integers(1, 8),
)
def test_sample_many_equals_sampling_one_run_at_a_time(
    chunk, lm, penalty, temperature, seed, salts, runs, max_len
):
    expected = outcome(
        one_run_at_a_time(lm, runs, temperature, seed, salt, max_len, penalty)
        for salt in salts
    )
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(decode, "CHUNK", chunk)
        got = outcome(sample_many(lm, salts, runs, temperature, seed, max_len, penalty))
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(
    st.lists(st.one_of(
        st.just(-math.inf),
        st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                  st.sampled_from([1.0, -1.0]), st.floats(-300, 3)),
    ), min_size=1, max_size=40),
    min_size=1, max_size=30,
))
def test_batched_cdf_rows_are_bit_identical_to_one_row(rows):
    for row, cdf in zip(rows, decode._cdfs(rows)):
        logits = np.array(row)
        top = logits.max()
        if not math.isfinite(top):
            assert cdf is None
            continue
        probs = np.exp(logits - top)
        probs /= probs.sum()
        one = probs.cumsum()
        one /= one[-1]
        assert np.array(cdf).tobytes() == one.tobytes()


@pytest.mark.parametrize("table,contexts", [
    ({(): {"a": 1.0}, ("a",): {"b": 1.0}, ("b",): {END: 1.0}}, 3),
    ({(): {"a": 1.0}, ("a",): {"a": 0.5, END: 0.5}}, 2),  # ("a",) recurs in a run
], ids=["each_context_once_per_run", "context_recurs_in_a_run"])
def test_sample_many_asks_the_lm_once_per_distinct_context(monkeypatch, table,
                                                           contexts):
    lm = lm_of(2, table)
    logprobs = NgramLM.logprobs
    asked = []

    def counting(self, prefix):
        asked.append(self.context(prefix))
        return logprobs(self, prefix)

    monkeypatch.setattr(NgramLM, "logprobs", counting)
    # one stream, then 12 streams that share every context
    for salts, runs in (([5], 1), ([5, 6, 7, 8], 3)):
        for _ in range(2):  # the draw table lives for one call
            asked.clear()
            list(sample_many(lm, salts, runs, seed=1, max_len=8,
                             repetition_penalty=5.0))
            assert len(asked) == len(set(asked)) == contexts


# --- numbered-list codec ----------------------------------------------------------


def test_round_trip_simple():
    assert format_polymorphic(["a", "b"]) == "(1) a; (2) b"
    parsed = parse_polymorphic("(1) a; (2) b")
    assert parsed.items == ("a", "b")
    assert parsed.warnings == ()


def test_parse_single_item():
    assert parse_polymorphic("(1) only one").items == ("only one",)


def test_parse_non_contiguous_indices():
    parsed = parse_polymorphic("(1) a; (3) c")
    assert parsed.items == ("a", "c")
    assert "non_contiguous_indices" in parsed.warnings


def test_parse_duplicate_and_out_of_order():
    assert "duplicate_indices" in parse_polymorphic("(1) a; (1) b").warnings
    assert "out_of_order_indices" in parse_polymorphic("(2) a; (1) b").warnings


def test_parse_tolerates_trailing_semicolon_and_leading_text():
    assert parse_polymorphic("(1) a; (2) b;").items == ("a", "b")
    parsed = parse_polymorphic("Answers: (1) a")
    assert parsed.items == ("a",)  # bare-marker fallback
    assert "leading_text" in parsed.warnings


def test_parse_keeps_internal_markers():
    # a bare "(2)" inside an item does not split it
    text = format_polymorphic(["see (7) above", "b"])
    assert parse_polymorphic(text).items == ("see (7) above", "b")


def test_parse_unparseable():
    assert parse_polymorphic("no markers here") == ParsedSequence((), ())
    with pytest.raises(ValidationError):
        format_polymorphic([])
    with pytest.raises(ValidationError):
        format_polymorphic(["ok", "  "])


def test_round_trip_random_lists():
    rng = np.random.default_rng(55)
    alphabet = list("abcdefgh() 0123456789,.")
    import re

    bad = re.compile(r";\s*\(\d+\)")
    trials = 0
    while trials < 2000:
        n = int(rng.integers(1, 6))
        items = []
        for _ in range(n):
            text = "".join(
                rng.choice(alphabet, size=int(rng.integers(1, 12)))
            ).strip()
            if not text or bad.search(text) or text.endswith(";"):
                continue
            items.append(text)
        if len(items) != n:
            continue
        trials += 1
        assert parse_polymorphic(format_polymorphic(items)).items == tuple(items)


# --- toy LM validation ---------------------------------------------------------------


def test_lm_distributions_must_normalize():
    with pytest.raises(ValidationError):
        lm_of(1, {(): {"a": 0.5, END: 0.4}})
    with pytest.raises(ValidationError):
        lm_of(1, {(): {"a": 0.0, END: 1.0}})
    with pytest.raises(ValidationError):
        lm_of(1, {("a",): {END: 1.0}})  # context longer than order-1


def test_lm_unknown_context():
    lm = lm_of(2, {(): {"a": 1.0}}, vocab=["a", END])
    with pytest.raises(PolyevalError, match="no distribution for context \\('a',\\)"):
        lm.logprobs(("a",))


def test_lm_logprobs_normalize():
    lm = lm_of(3, FIVE_SEQ_LM)
    for context in [(), ("a",), ("b", "a")]:
        lps = lm.logprobs(context)
        total = math.fsum(math.exp(v) for v in lps.values())
        assert total == pytest.approx(1.0, abs=1e-6)
