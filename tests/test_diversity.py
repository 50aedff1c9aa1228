from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyeval.core import InferenceType, Turn, Example
from polyeval.dataio import EmbeddingStore, text_key
from polyeval.diversity import (
    bcubed,
    cluster_greedy,
    diversity_report,
    ngram_uniqueness,
)
from polyeval.errors import PolyevalError, ValidationError


def store_of(*vectors):
    return EmbeddingStore(
        {
            text_key(f"t{i}"): np.asarray(v, dtype=float)
            for i, v in enumerate(vectors)
        }
    )


def texts(n):
    return [f"t{i}" for i in range(n)]


# --- greedy clustering -------------------------------------------------------


def test_all_singletons_when_nothing_similar():
    store = store_of([1, 0, 0], [0, 1, 0], [0, 0, 1])
    assert cluster_greedy(texts(3), store, tau=0.8) == [[0], [1], [2]]


def test_single_cluster_when_identical():
    store = store_of([1, 1, 0], [1, 1, 0], [1, 1, 0])
    assert cluster_greedy(texts(3), store, tau=0.8) == [[0, 1, 2]]


def test_engineered_joins():
    # cos(0,2) ~ 0.995 >= 0.8; items 1 and 3 stay apart from everything
    store = store_of([1.0, 0.1], [-1.0, 0.5], [1.0, 0.0], [0.1, -1.0])
    assert cluster_greedy(texts(4), store, tau=0.8) == [[0, 2], [1], [3]]


def test_cluster_output_is_partition_property():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        store = store_of(*rng.normal(size=(n, 3)))
        clusters = cluster_greedy(texts(n), store, tau=float(rng.uniform(0.2, 0.95)))
        flat = sorted(i for group in clusters for i in group)
        assert flat == list(range(n))
        assert all(group for group in clusters)


def test_raising_tau_never_merges_more():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        store = store_of(*rng.normal(size=(n, 3)))
        counts = [
            len(cluster_greedy(texts(n), store, tau=tau))
            for tau in (0.2, 0.4, 0.6, 0.8, 0.95)
        ]
        assert counts == sorted(counts)


def test_cluster_greedy_validation():
    store = store_of([1, 0])
    with pytest.raises(PolyevalError, match="no embedding for text 'missing'"):
        cluster_greedy(["t0", "missing"], store)
    with pytest.raises(ValidationError):
        cluster_greedy(["t0"], store, tau=1.5)


def per_pair_cluster_greedy(outputs, store, tau):
    """cluster_greedy as written before it used one vecdot: the oracle."""
    vectors = []
    for text in outputs:
        v = store.lookup_with_norm(text)[0]
        norm = float(np.linalg.norm(v))
        vectors.append(v / norm if norm > 0 else v)
    clusters = []
    for i, vec in enumerate(vectors):
        placed = False
        for group in clusters:
            if any(float(np.dot(vec, vectors[j])) >= tau for j in group):
                group.append(i)
                placed = True
                break
        if not placed:
            clusters.append([i])
    return clusters, vectors


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 20),
    d=st.integers(2, 64),
    ideas=st.integers(1, 6),
    noise=st.sampled_from([0.05, 0.3, 1.0]),
    zero=st.booleans(),
    pick=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
)
def test_cluster_greedy_equals_per_pair_loop(n, d, ideas, noise, zero, pick, seed):
    # outputs are paraphrases: an idea's vector plus noise; tau is one of the
    # cosines the scan compares, so some decision sits exactly on ">= tau"
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(ideas, d)) * 10.0 ** rng.uniform(-3, 3, size=(ideas, 1))
    vectors = centers[rng.integers(ideas, size=n)]
    vectors = vectors + noise * np.abs(vectors).mean() * rng.normal(size=(n, d))
    if zero:
        vectors[rng.integers(n)] = 0.0
    store = store_of(*vectors)
    _, units = per_pair_cluster_greedy(texts(n), store, 0.5)
    dots = sorted(x for i in range(n) for j in range(i)
                  if 0 < (x := float(np.dot(units[i], units[j]))) < 1)
    tau = dots[pick % len(dots)] if dots else 0.5
    want, _ = per_pair_cluster_greedy(texts(n), store, tau)
    assert cluster_greedy(texts(n), store, tau=tau) == want


# --- b-cubed -------------------------------------------------------------------


def test_bcubed_identical_clusterings():
    clusters = [[0, 1], [2], [3, 4, 5]]
    assert bcubed(clusters, clusters) == (1.0, 1.0, 1.0)


def test_bcubed_one_big_cluster_vs_singletons():
    predicted = [[0, 1, 2, 3]]
    gold = [[0], [1], [2], [3]]
    p, r, f1 = bcubed(predicted, gold)
    assert p == pytest.approx(0.25, abs=1e-9)
    assert r == pytest.approx(1.0, abs=1e-9)
    assert f1 == pytest.approx(0.4, abs=1e-9)


def test_bcubed_worked_example():
    predicted = [[0, 1], [2, 3]]
    gold = [[0, 1, 2], [3]]
    p, r, f1 = bcubed(predicted, gold)
    assert p == pytest.approx(0.75, abs=1e-9)
    assert r == pytest.approx((2 / 3 + 2 / 3 + 1 / 3 + 1) / 4, abs=1e-9)
    assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-9)
    assert f1 == pytest.approx(0.70588235, abs=1e-6)


def random_partition(rng, n):
    labels = rng.integers(0, rng.integers(1, n + 1), size=n)
    return [
        [i for i in range(n) if labels[i] == g] for g in sorted(set(labels.tolist()))
    ]


def test_bcubed_self_identity_property():
    rng = np.random.default_rng(8)
    for _ in range(200):
        clusters = random_partition(rng, int(rng.integers(1, 13)))
        assert bcubed(clusters, clusters) == (1.0, 1.0, 1.0)


def test_bcubed_singleton_prediction_has_perfect_precision():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        gold = random_partition(rng, n)
        singles = [[i] for i in range(n)]
        p, _, _ = bcubed(singles, gold)
        assert p == 1.0


def test_bcubed_index_mismatch():
    with pytest.raises(PolyevalError, match="clusterings cover different index sets"):
        bcubed([[0, 1]], [[0], [2]])


# --- diversity report -----------------------------------------------------------


def test_diversity_report_values():
    outputs = {"e1": ["a b", "c d e", "f"], "e2": ["x", "y"]}
    clusterings = {"e1": [[0, 1], [2]], "e2": [[0], [1]]}
    report = diversity_report(outputs, clusterings)
    assert report.avg_clusters == 2.0
    # e1: 1 singleton of 3 -> 33.33%; e2: 2 of 2 -> 100%
    assert report.pct_unique == pytest.approx((100 / 3 + 100) / 2, abs=1e-9)
    assert report.avg_words == pytest.approx((2 + 3 + 1 + 1 + 1) / 5, abs=1e-12)
    assert report.n_examples == 2


# --- n-gram uniqueness ------------------------------------------------------------


def example_of(example_id, references, itype=InferenceType.DESIRE):
    return Example(
        example_id=example_id,
        dialogue=(Turn("Listener (A)", "hi"), Turn("Speaker (B)", "yo")),
        inference_type=itype,
        references=tuple(references),
    )


def test_unigram_pct_disjoint_vocabularies():
    table = ngram_uniqueness([example_of("e", ["a b", "c d"])])
    row = table["Desire"]
    assert row["u1_pct"] == pytest.approx(100.0, abs=1e-9)
    assert row["u1_count"] == 4
    assert row["ul_pct"] == pytest.approx(100.0, abs=1e-9)


def test_identical_inferences_zero_unique():
    table = ngram_uniqueness([example_of("e", ["same thing", "same thing"])])
    row = table["Desire"]
    assert row["u1_pct"] == pytest.approx(0.0, abs=1e-9)
    # one distinct string of two
    assert row["ul_pct"] == pytest.approx(50.0, abs=1e-9)


def test_partial_overlap_hand_count():
    # "a b c" vs "a b d": types {a,b,c,d}; only c and d occur in one inference
    table = ngram_uniqueness([example_of("e", ["a b c", "a b d"])])
    row = table["Desire"]
    assert row["u1_pct"] == pytest.approx(50.0, abs=1e-9)
    # bigram types: {ab, bc} vs {ab, bd} -> {ab, bc, bd}, unique {bc, bd}
    assert row["u2_pct"] == pytest.approx(100 * 2 / 3, abs=1e-9)


def test_ul_pct_100_iff_all_distinct():
    distinct = ngram_uniqueness(
        [example_of("e1", ["p q", "r s"]), example_of("e2", ["t u", "v w"])]
    )["Desire"]
    assert distinct["ul_pct"] == 100.0
    repeated = ngram_uniqueness(
        [example_of("e1", ["p q", "r s"]), example_of("e2", ["p q", "v w"])]
    )["Desire"]
    assert repeated["ul_pct"] < 100.0


def test_single_inference_examples_do_not_dilute_uniqueness():
    # mono examples count for words/means but not for the between-inference stats
    table = ngram_uniqueness(
        [example_of("e1", ["a b", "c d"]), example_of("e2", ["zz"])]
    )
    row = table["Desire"]
    assert row["examples"] == 2
    assert row["poly_examples"] == 1
    assert row["u1_pct"] == pytest.approx(100.0, abs=1e-9)
    assert row["inferences_mean"] == pytest.approx(1.5, abs=1e-12)


def test_overall_row_macro_averages_types():
    table = ngram_uniqueness(
        [
            example_of("e1", ["a b", "c d"], itype=InferenceType.DESIRE),
            example_of("e2", ["x y", "x y"], itype=InferenceType.EFFECT),
        ]
    )
    overall = table["_overall"]
    assert overall["u1_pct"] == pytest.approx((100.0 + 0.0) / 2, abs=1e-9)
    assert overall["examples"] == 2


def test_one_token_texts_have_no_bigram():
    row = ngram_uniqueness([example_of("e", ["a", "B", "b"])])["Desire"]
    assert row["u2_count"] == 0
    assert row["u2_pct"] is None
    assert row["u1_pct"] == pytest.approx(50.0, abs=1e-9)  # "b" is in two of them


def brute_force_uniqueness(examples):
    """ngram_uniqueness restated: every text's n-gram set is built anew,
    per n and at each use."""
    def types(text, n):
        toks = text.lower().split()
        return {tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)}

    def pct_unique(references, n):
        occurrence = Counter(g for text in references for g in types(text, n))
        if not occurrence:
            return None
        return 100.0 * sum(1 for c in occurrence.values() if c == 1) / len(occurrence)

    def mean(values):
        values = [v for v in values if v is not None]
        return sum(values) / len(values) if values else None

    table = {}
    for itype in sorted({ex.inference_type.value for ex in examples}):
        members = [ex for ex in examples if ex.inference_type.value == itype]
        texts = [text for ex in members for text in ex.references]
        poly = [ex for ex in members if len(ex.references) >= 2]
        poly_texts = [text for ex in poly for text in ex.references]
        counts = [len(ex.references) for ex in poly or members]
        table[itype] = {
            "examples": len(members),
            "words": sum(len(text.split()) for text in texts) / len(texts),
            "inferences_total": len(texts),
            "inferences_distinct": len(set(texts)),
            "inferences_mean": len(texts) / len(members),
            "inferences_min": min(counts),
            "inferences_max": max(counts),
            "u1_count": len({g for text in texts for g in types(text, 1)}),
            "u2_count": len({g for text in texts for g in types(text, 2)}),
            "poly_examples": len(poly),
            "u1_pct": mean([pct_unique(ex.references, 1) for ex in poly]),
            "u2_pct": mean([pct_unique(ex.references, 2) for ex in poly]),
            "ul_pct": 100.0 * len(set(poly_texts)) / len(poly_texts) if poly_texts else None,
        }
    rows = list(table.values())
    overall = {key: sum(row[key] for row in rows)
               for key in ("examples", "inferences_total", "inferences_distinct",
                           "poly_examples")}
    for key in ("words", "inferences_mean", "u1_count", "u2_count", "u1_pct", "u2_pct",
                "ul_pct"):
        overall[key] = mean([row[key] for row in rows])
    table["_overall"] = overall
    return table


# few words, so texts and their n-grams repeat within and across examples
reference_texts = st.lists(st.sampled_from(["a", "b", "A", "c"]), min_size=1,
                           max_size=4).map(" ".join)
corpora = st.lists(
    st.tuples(st.sampled_from([InferenceType.DESIRE, InferenceType.EFFECT,
                               InferenceType.CAUSE]),
              st.lists(reference_texts, min_size=1, max_size=4)),
    min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(corpora)
@example([(InferenceType.DESIRE, ["a b", "a b", "A B c"])])  # a repeated reference
@example([(InferenceType.DESIRE, ["a b c"]), (InferenceType.EFFECT, ["c"])])  # one each
@example([(InferenceType.DESIRE, ["a", "b", "a"])])  # one-token texts: no bigram
def test_ngram_uniqueness_equals_brute_force(corpus):
    examples = [example_of(f"e{i}", references, itype)
                for i, (itype, references) in enumerate(corpus)]
    assert ngram_uniqueness(examples) == brute_force_uniqueness(examples)
