import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyeval.dataio import EmbeddingStore, text_key
from polyeval.errors import PolyevalError, ValidationError
from polyeval.textmetrics import (
    bleu,
    exact_match,
    make_metric,
    score_matrix,
    tokenize,
)


def store_of(**vectors):
    return EmbeddingStore(
        {text_key(k): np.asarray(v, dtype=float) for k, v in vectors.items()}
    )


# --- bleu --------------------------------------------------------------------


def test_bleu_identity_is_one():
    for text in ["the cat sat", "a", "one two three four five", "Mixed CASE x"]:
        assert bleu(text, text) == pytest.approx(1.0, abs=1e-12)


def test_bleu_disjoint_is_tiny():
    # unigram precision is 0 and is never smoothed, so the score collapses
    value = bleu("x y z", "a b c")
    assert value == 0.0
    assert value < 0.02


def test_bleu_clipping_hand_case():
    # candidate "the the the" vs reference "the cat":
    #   p1 = min(3, 1)/3 = 1/3 (clipped)
    #   p2 = smoothed (0+1)/(2+1) = 1/3, p3 = (0+1)/(1+1) = 1/2, p4 = (0+1)/(0+1) = 1
    #   brevity penalty = 1 (candidate longer than reference)
    expected = (1 / 3 * 1 / 3 * 1 / 2 * 1.0) ** 0.25
    assert bleu("the the the", "the cat") == pytest.approx(expected, abs=1e-12)


def test_bleu_brevity_penalty():
    # one matching unigram, candidate shorter than reference
    # p1 = 1, p2..p4 smoothed to 1 (no bigrams possible), BP = exp(1 - 3/1)
    assert bleu("cat", "cat cat cat") == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_bleu_whitespace_invariance():
    base = bleu("the cat sat", "the cat sat on the mat")
    assert bleu("  the   cat  sat  ", "the cat sat on the mat") == base
    assert bleu("the\tcat\nsat", "the cat sat on the mat") == base


def test_bleu_case_insensitive():
    assert bleu("The Cat", "the cat") == pytest.approx(1.0, abs=1e-12)


def test_bleu_range_property():
    rng = np.random.default_rng(5)
    words = ["a", "b", "c", "d", "e", "f"]
    for _ in range(300):
        cand = " ".join(rng.choice(words, size=rng.integers(1, 8)))
        ref = " ".join(rng.choice(words, size=rng.integers(1, 8)))
        value = bleu(cand, ref)
        assert 0.0 <= value <= 1.0 + 1e-12


def test_bleu_empty_text_rejected():
    with pytest.raises(ValidationError, match="text has no tokens: ''"):
        bleu("", "the cat")
    with pytest.raises(ValidationError, match="text has no tokens: '   '"):
        bleu("the cat", "   ")


# --- embedding cosine ----------------------------------------------------------


def test_cosine_fixtures():
    cosine = make_metric("embed", store_of(i="1 0".split(), j="0 1".split(), d=["1", "1"]))
    assert cosine("i", "i") == pytest.approx(1.0, abs=1e-12)
    assert cosine("i", "j") == pytest.approx(0.0, abs=1e-12)
    assert cosine("d", "i") == pytest.approx(0.7071, abs=1e-4)


def test_cosine_symmetric_and_scale_invariant():
    rng = np.random.default_rng(17)
    for _ in range(50):
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        cosine = make_metric("embed", store_of(a=u, b=v, big_a=u * 37.5, big_b=v * 0.004))
        assert cosine("a", "b") == pytest.approx(cosine("b", "a"), abs=1e-12)
        assert cosine("big_a", "big_b") == pytest.approx(cosine("a", "b"), abs=1e-9)


def test_cosine_errors():
    cosine = make_metric("embed", store_of(a=[1.0, 0.0], z=[0.0, 0.0]))
    with pytest.raises(PolyevalError, match="no embedding for text 'missing'"):
        cosine("a", "missing")
    with pytest.raises(PolyevalError, match="zero-norm embedding for 'z'"):
        cosine("a", "z")


# --- score matrices -------------------------------------------------------------


def test_score_matrix_shapes_and_identity_diagonal():
    outs = ["one two", "three four", "five"]
    m = score_matrix(outs, outs, bleu)
    assert m.shape == (3, 3)
    assert np.allclose(np.diag(m), 1.0)
    m1 = score_matrix(["a"], ["a"], exact_match)
    assert m1.shape == (1, 1) and m1[0, 0] == 1.0


def test_score_matrix_matches_direct_calls_elementwise():
    store = store_of(
        o1=[1.0, 0.0, 0.0],
        o2=[0.5, 0.5, 0.0],
        r1=[0.0, 1.0, 0.0],
        r2=[1.0, 1.0, 1.0],
        r3=[0.2, 0.1, 0.9],
    )
    metric = make_metric("embed", store)
    outs, refs = ["o1", "o2"], ["r1", "r2", "r3"]
    matrix = score_matrix(outs, refs, metric)
    for i, o in enumerate(outs):
        for j, r in enumerate(refs):
            assert matrix[i, j] == metric(o, r)


def test_score_matrix_annotates_failures():
    store = store_of(a=[1.0, 0.0])
    metric = make_metric("embed", store)
    with pytest.raises(PolyevalError, match=r"no embedding for text 'missing'.*output 1, reference 0"):
        score_matrix(["a", "missing"], ["a"], metric)


def test_score_matrix_rejects_empty_lists():
    with pytest.raises(ValidationError):
        score_matrix([], ["r"], exact_match)
    with pytest.raises(ValidationError):
        score_matrix(["o"], [], exact_match)


def test_make_metric_ids():
    assert make_metric("bleu") is bleu
    with pytest.raises(ValidationError):
        make_metric("embed")  # needs a store
    with pytest.raises(ValidationError):
        make_metric("mystery")


# --- prepared texts against the per-pair reference --------------------------------
# Reference implementations that call the metric on every pair and read both
# texts afresh each time; score_matrix must reproduce them bit for bit,
# failures included.


def ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def pairwise_bleu(candidate, reference):
    cand = tokenize(candidate)
    ref = tokenize(reference)
    log_sum = 0.0
    for n in range(1, 5):
        possible = max(len(cand) - n + 1, 0)
        if possible == 0:
            matches = 0
        else:
            ref_counts = ngram_counts(ref, n)
            matches = sum(
                min(count, ref_counts[gram])
                for gram, count in ngram_counts(cand, n).items()
            )
        if matches > 0:
            precision = matches / possible
        elif n >= 2:
            precision = (matches + 1) / (possible + 1)
        else:
            return 0.0
        log_sum += 0.25 * math.log(precision)
    brevity = math.exp(min(0.0, 1.0 - len(ref) / len(cand)))
    return brevity * math.exp(log_sum)


def pairwise_embed_cosine(candidate, reference, store):
    u = store.lookup_with_norm(candidate)[0]
    v = store.lookup_with_norm(reference)[0]
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise PolyevalError(
            f"zero-norm embedding for {(candidate if nu == 0.0 else reference)!r}"
        )
    return float(np.dot(u, v) / (nu * nv))


def pairwise_matrix(outputs, references, metric):
    matrix = np.empty((len(outputs), len(references)), dtype=float)
    for i, out in enumerate(outputs):
        for j, ref in enumerate(references):
            try:
                matrix[i, j] = metric(out, ref)
            except PolyevalError as exc:
                raise type(exc)(f"{exc} (at output {i}, reference {j})") from exc
    return matrix


def outcome(build):
    """The matrix a build returns, or the type and message of what it raises."""
    try:
        return build()
    except PolyevalError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert (got == want).all(), "prepared path is not bit-identical"


WORDS = st.sampled_from(["a", "b", "c", "A", "d"])  # few words: n-grams repeat and clip
TEXTS = st.lists(WORDS, min_size=1, max_size=12).map(" ".join)
TEXT_LISTS = st.lists(TEXTS, min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(outputs=TEXT_LISTS, references=TEXT_LISTS)
def test_bleu_matrix_is_bit_identical_to_pairwise(outputs, references):
    got = score_matrix(outputs, references, bleu)
    want = pairwise_matrix(outputs, references, pairwise_bleu)
    assert_same_outcome(got, want)
    assert all(
        bleu(o, r) == got[i, j]
        for i, o in enumerate(outputs) for j, r in enumerate(references)
    )


# A pool of 30 words, each text built from 1-3 of them: most pairs share no
# gram, so whole rows are 0.0, while tokens repeat within a text and clip.
SPARSE_WORDS = ("alpha bravo charlie delta echo foxtrot golf hotel india juliet "
                "kilo lima mike november oscar papa quebec romeo sierra tango "
                "uniform victor whiskey xray yankee zulu red green blue gray").split()


@st.composite
def sparse_texts(draw):
    alphabet = draw(st.lists(st.sampled_from(SPARSE_WORDS), min_size=1, max_size=3))
    length = draw(st.one_of(st.integers(1, 3), st.integers(4, 9)))  # 1-3: no 4-grams
    return " ".join(draw(st.lists(st.sampled_from(alphabet),
                                  min_size=length, max_size=length)))


@st.composite
def sparse_matrices(draw):
    """Outputs and references, each drawn with repeats from its own few texts,
    and maybe a whitespace-only text at a drawn position of either list."""
    lists = []
    for _ in range(2):
        texts = draw(st.lists(sparse_texts(), min_size=1, max_size=4))
        lists.append(draw(st.lists(st.sampled_from(texts), min_size=1, max_size=8)))
    blank = draw(st.sampled_from([None, 0, 1]))
    if blank is not None:
        position = draw(st.integers(0, len(lists[blank])))
        lists[blank].insert(position, draw(st.sampled_from([" ", "\t\n "])))
    return lists


@settings(max_examples=300, deadline=None)
@given(case=sparse_matrices())
def test_sparse_bleu_matrix_is_bit_identical_to_pairwise(case):
    outputs, references = case
    got = outcome(lambda: score_matrix(outputs, references, bleu))
    want = outcome(lambda: pairwise_matrix(outputs, references, pairwise_bleu))
    assert_same_outcome(got, want)
    if isinstance(want, np.ndarray):
        for i, o in enumerate(outputs):
            for j, r in enumerate(references):
                per_pair = bleu.compare(bleu.prepare(o), bleu.prepare(r))
                assert bleu(o, r) == per_pair == got[i, j]


def test_bleu_matrix_is_bit_identical_to_pairwise_on_long_texts():
    # texts of up to 60 tokens reach precisions such as 14/37, where numpy's
    # SIMD log and libm's differ in the last bit on AVX-512 hosts
    prefixes = [" ".join(f"w{i}" for i in range(n)) for n in range(1, 61)]
    got = score_matrix(prefixes, prefixes, bleu)
    assert_same_outcome(got, pairwise_matrix(prefixes, prefixes, pairwise_bleu))


KEYS = st.sampled_from(["k0", "k1", "k2", "k3", "k4", "k5"])
VECTOR = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False), min_size=3, max_size=3
)


@settings(max_examples=200, deadline=None)
@given(
    vectors=st.dictionaries(KEYS, VECTOR, min_size=1),
    outputs=st.lists(KEYS, min_size=1, max_size=6),
    references=st.lists(KEYS, min_size=1, max_size=6),
)
def test_embed_matrix_matches_pairwise_including_failures(vectors, outputs, references):
    # keys absent from the store and all-zero vectors fail; the prepared path
    # must fail at the same cell with the same message
    store = store_of(**vectors)
    got = outcome(lambda: score_matrix(
        outputs, references, make_metric("embed", store)))
    want = outcome(lambda: pairwise_matrix(
        outputs, references, lambda c, r: pairwise_embed_cosine(c, r, store)))
    assert_same_outcome(got, want)


@pytest.mark.parametrize("outputs, references, text, cell", [
    (["a b", "c", "  ", "d"], ["a", "b"], "'  '", "output 2, reference 0"),
    (["a b", "c"], ["a", "", "b"], "''", "output 0, reference 1"),
], ids=["empty_output_2", "empty_reference_1"])
def test_bleu_matrix_names_failing_cell(outputs, references, text, cell):
    want = outcome(lambda: pairwise_matrix(outputs, references, pairwise_bleu))
    with pytest.raises(ValidationError, match=rf"text has no tokens: {text} \(at {cell}\)"):
        score_matrix(outputs, references, bleu)
    assert outcome(lambda: score_matrix(outputs, references, bleu)) == want


def test_embed_matrix_zero_norm_output_next_to_missing_reference():
    store = store_of(a=[1.0, 0.0], z=[0.0, 0.0])
    outputs, references = ["a", "z"], ["a", "missing"]
    metric = make_metric("embed", store)
    # cell (0, 1) reaches the missing reference before row 1 reaches "z"
    with pytest.raises(PolyevalError, match=r"no embedding for text 'missing'.*output 0, reference 1"):
        score_matrix(outputs, references, metric)
    # the reference is looked up before either norm is checked
    with pytest.raises(PolyevalError, match=r"no embedding for text 'missing'.*output 0, reference 0"):
        score_matrix(["z"], ["missing"], metric)
    with pytest.raises(PolyevalError, match=r"zero-norm embedding for 'z'.*output 1, reference 0"):
        score_matrix(outputs, ["a"], metric)
    for outs, refs in ((outputs, references), (["z"], ["missing"]), (outputs, ["a"])):
        assert outcome(lambda: score_matrix(outs, refs, metric)) == outcome(
            lambda: pairwise_matrix(
                outs, refs, lambda c, r: pairwise_embed_cosine(c, r, store)))


def test_score_matrix_prepares_each_distinct_text_once():
    prepared = []

    def prepare(text):
        prepared.append(text)
        return len(text)

    def metric(candidate, reference):
        return float(len(candidate) - len(reference))

    metric.prepare = prepare
    metric.compare = lambda c, r: float(c - r)
    outputs = [f"output {i}" * (i + 1) for i in range(10)]
    references = [f"ref {j}" * (j + 1) for j in range(5)]
    for outs in (outputs, outputs + outputs[::-1]):
        prepared.clear()
        matrix = score_matrix(outs, references, metric)
        assert len(prepared) == 15 and set(prepared) == set(outputs + references)
        # a plain callable is its own compare and gives the same values
        plain = score_matrix(outs, references, lambda c, r: metric(c, r))
        assert (matrix == plain).all()
        assert plain[3, 2] == len(outs[3]) - len(references[2])


def test_bleu_matrix_tokenizes_each_distinct_text_once(monkeypatch):
    import polyeval.textmetrics as textmetrics

    tokenized = []

    def counting_tokenize(text):
        tokenized.append(text)
        return tokenize(text)

    monkeypatch.setattr(textmetrics, "tokenize", counting_tokenize)
    outputs, references = ["a b", "b c d", "c"], ["a b c", "d", "e"]
    failing = outputs[:2] + ["  "] + outputs[2:]
    cases = [
        (outputs, references, None),
        (outputs + outputs[::-1], references * 2, None),
        (failing, references, "output 2, reference 0"),
        (failing + failing, references + [""] + references, "output 0, reference 3"),
    ]
    for outs, refs, cell in cases:
        tokenized.clear()
        if cell is None:
            score_matrix(outs, refs, bleu)
        else:  # the failing-prepare path
            with pytest.raises(ValidationError, match=rf"text has no tokens: .*{cell}"):
                score_matrix(outs, refs, bleu)
        assert sorted(tokenized) == sorted(set(outs + refs))


# --- the batched kernel ------------------------------------------------------------
# _cosine_matrix and cluster_greedy take every dot product of a matrix from
# one np.vecdot; they are bit-identical to the per-pair code only while
# vecdot calls the same per-pair ddot as ndarray.dot.  A matrix product or
# einsum sums in another order and fails this property.


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(2, 300),
    n=st.integers(1, 20),
    m=st.integers(1, 12),
    scale=st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(sorted),
    offset=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_vecdot_equals_per_pair_dot(d, n, m, scale, offset, seed):
    rng = np.random.default_rng(seed)

    def entries(shape):
        magnitude = 10.0 ** rng.uniform(*scale, size=shape)
        return magnitude * rng.choice([-1.0, 1.0], size=shape)

    # the stacked operands start at any element offset of a larger buffer,
    # while the per-pair vectors are separate arrays
    buffer = np.empty(offset + (n + m) * d)
    buffer[offset:] = entries((n + m) * d)
    stacked = buffer[offset:].reshape(n + m, d)
    u, v = stacked[:n], stacked[n:]
    want = [[np.array(a).dot(np.array(b)) for b in v] for a in u]
    got = np.vecdot(u[:, None, :], v[None, :, :])
    assert got.shape == (n, m)
    assert got.tolist() == want
    # and so the embedding score matrix equals the per-pair cosine
    store = EmbeddingStore({text_key(f"t{i}"): row.copy() for i, row in enumerate(stacked)})
    outs, refs = [f"t{i}" for i in range(n)], [f"t{n + j}" for j in range(m)]
    assert_same_outcome(
        score_matrix(outs, refs, make_metric("embed", store)),
        pairwise_matrix(outs, refs, lambda c, r: pairwise_embed_cosine(c, r, store)))
