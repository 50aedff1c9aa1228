import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyeval.core import EvalConfig, InferenceType, Turn, Example, make_generation_set
from polyeval.errors import PolyevalError, ValidationError
from polyeval.scoring import (
    ExampleScore,
    _aggregate,
    corpus_score,
    coverage,
    polyagg,
    select_outputs,
    top1_select,
)
from polyeval.textmetrics import ExternalScoreSidecar, bleu, exact_match, score_matrix


def example_of(example_id, references, itype=InferenceType.DESIRE):
    return Example(
        example_id=example_id,
        dialogue=(Turn("Listener (A)", "hi"), Turn("Speaker (B)", "hello")),
        inference_type=itype,
        references=tuple(references),
    )


def gen(example_id, runs, mode="polymorphic"):
    gs, _ = make_generation_set(example_id, mode, runs)
    return gs


# --- polyagg -----------------------------------------------------------------


def test_polyagg_perfect_match():
    refs = ["a", "b", "c", "d"]
    assert polyagg(refs, refs, exact_match) == pytest.approx(1.0, abs=1e-12)


def test_polyagg_rectangular_fixture():
    scores = {
        ("o1", "r1"): 0.9, ("o1", "r2"): 0.1, ("o1", "r3"): 0.2,
        ("o2", "r1"): 0.2, ("o2", "r2"): 0.8, ("o2", "r3"): 0.1,
    }
    metric = lambda o, r: scores[(o, r)]
    assert polyagg(["o1", "o2"], ["r1", "r2", "r3"], metric) == pytest.approx(
        0.85, abs=1e-12
    )


def test_polyagg_redundant_outputs_capped_by_injectivity():
    outputs = ["same answer"] * 5
    refs = ["same answer", "r2", "r3", "r4", "r5"]
    # only one copy can claim the matching reference
    assert polyagg(outputs, refs, exact_match) == pytest.approx(0.2, abs=1e-15)


# --- coverage ------------------------------------------------------------------


def test_coverage_cases():
    assert coverage(5, 5) == 1.0
    assert coverage(2, 5) == pytest.approx(0.4, abs=1e-15)
    assert coverage(7, 5, cap=True) == 1.0
    assert coverage(7, 5, cap=False) == pytest.approx(1.4, abs=1e-15)
    with pytest.raises(ValidationError):
        coverage(0, 5)
    with pytest.raises(ValidationError):
        coverage(5, 0)


# --- top-1 selection -------------------------------------------------------------


def test_top1_single_perfect_output():
    refs = ["x", "y"]
    assert top1_select(["x"], refs, exact_match, "maximum") == 1.0
    assert top1_select(["x"], refs, exact_match, "order") == 1.0


def test_top1_order_vs_maximum():
    outputs = ["bad", "y"]  # first output scores 0, second is perfect
    refs = ["x", "y"]
    assert top1_select(outputs, refs, exact_match, "maximum") == 1.0
    assert top1_select(outputs, refs, exact_match, "order") == 0.0


def test_top1_order_uses_first_parsed_inference():
    # a polymorphic run is already a parsed list; order selection sees item 1
    outputs = ["a", "b"]
    refs = ["b"]
    assert top1_select(outputs, refs, exact_match, "order") == 0.0
    assert top1_select(outputs, refs, exact_match, "maximum") == 1.0


@pytest.mark.parametrize("selection", ["maximum", "order"])
def test_top1_from_external_sidecar_equals_the_metric(selection):
    # the sidecar holds every output's row; order reads row 0 of it
    outs = ["they feel tired", "they want rest", "they feel proud now"]
    refs = ["they want rest", "they feel proud today"]
    full = score_matrix(outs, refs, bleu)
    assert full[0].max() < full.max()  # the two rules disagree here
    sidecar = ExternalScoreSidecar({"e1": full})
    got = top1_select(outs, refs, None, selection, external=sidecar, example_id="e1")
    assert got == top1_select(outs, refs, bleu, selection)
    assert got == (full[0].max() if selection == "order" else full.max())


# --- N-best matching --------------------------------------------------------------


def test_nbest_identity_both_matchings():
    refs = ["a", "b", "c"]
    assert polyagg(refs, refs, exact_match, "bipartite") == 1.0
    assert polyagg(refs, refs, exact_match, "maximum") == 1.0


def test_nbest_redundancy_discrimination():
    outputs = ["r1"] * 5
    refs = ["r1", "r2", "r3", "r4", "r5"]
    assert polyagg(outputs, refs, exact_match, "maximum") == 1.0
    assert polyagg(outputs, refs, exact_match, "bipartite") == pytest.approx(
        0.2, abs=1e-15
    )


def test_nbest_fixture_rectangular():
    scores = {
        ("o1", "r1"): 0.9, ("o1", "r2"): 0.1, ("o1", "r3"): 0.2,
        ("o2", "r1"): 0.2, ("o2", "r2"): 0.8, ("o2", "r3"): 0.1,
    }
    metric = lambda o, r: scores[(o, r)]
    outs, refs = ["o1", "o2"], ["r1", "r2", "r3"]
    assert polyagg(outs, refs, metric, "bipartite") == pytest.approx(0.85, abs=1e-12)
    # row maxima coincide with the assignment here
    assert polyagg(outs, refs, metric, "maximum") == pytest.approx(0.85, abs=1e-12)


def test_bipartite_never_exceeds_maximum_property():
    # holds whenever every output gets matched (|outs| <= |refs|); with more
    # outputs than references the bipartite mean skips the worst rows
    rng = np.random.default_rng(3)
    words = ["u", "v", "w", "x", "y"]
    for _ in range(200):
        n_outs = int(rng.integers(1, 5))
        n_refs = int(rng.integers(n_outs, 6))
        outs = [" ".join(rng.choice(words, size=rng.integers(1, 4))) for _ in range(n_outs)]
        refs = [" ".join(rng.choice(words, size=rng.integers(1, 4))) for _ in range(n_refs)]
        bip = polyagg(outs, refs, exact_match, "bipartite")
        mx = polyagg(outs, refs, exact_match, "maximum")
        assert bip <= mx + 1e-12


def test_duplicate_output_properties():
    # distinct references: a duplicated reference string could otherwise be
    # claimed by the duplicated output, raising the score
    rng = np.random.default_rng(9)
    words = ["a", "b", "c"]
    for _ in range(100):
        outs = [" ".join(rng.choice(words, size=rng.integers(1, 3))) for _ in range(rng.integers(1, 4))]
        refs = list(
            dict.fromkeys(
                " ".join(rng.choice(words, size=rng.integers(1, 3)))
                for _ in range(rng.integers(1, 4))
            )
        )
        dup = outs + [outs[int(rng.integers(0, len(outs)))]]
        base = polyagg(outs, refs, exact_match, "bipartite")
        with_dup = polyagg(dup, refs, exact_match, "bipartite")
        assert with_dup <= base + 1e-12
        assert top1_select(dup, refs, exact_match, "maximum") == top1_select(
            outs, refs, exact_match, "maximum"
        )


# --- cluster-constrained -------------------------------------------------------


def test_singleton_clusters_equal_nbest():
    outs = ["a", "b", "c"]
    refs = ["a", "x", "b"]
    singletons = [[0], [1], [2]]
    for matching in ("bipartite", "maximum"):
        assert polyagg(
            outs, refs, exact_match, matching, clusters=singletons
        ) == polyagg(outs, refs, exact_match, matching)


def test_one_cluster_takes_best_representative():
    outs = ["a", "b", "c"]
    refs = ["c", "x"]
    assert polyagg(outs, refs, exact_match, "bipartite", clusters=[[0, 1, 2]]) == 1.0
    assert polyagg(outs, refs, exact_match, "maximum", clusters=[[0, 1, 2]]) == 1.0


def brute_cluster_constrained(outs, clusters, refs, metric):
    """Max over representative choices x injective mappings of the mean."""
    best = -1.0
    k = len(clusters)
    for reps in itertools.product(*clusters):
        matrix = np.array([[metric(outs[i], r) for r in refs] for i in reps])
        size = min(k, len(refs))
        for rows in itertools.combinations(range(k), size):
            for cols in itertools.permutations(range(len(refs)), size):
                total = sum(matrix[r, c] for r, c in zip(rows, cols))
                best = max(best, total / size)
    return best


def test_cluster_constrained_matches_brute_force():
    rng = np.random.default_rng(31)
    words = ["p", "q", "r", "s"]
    for _ in range(60):
        n_outs = int(rng.integers(2, 5))
        outs = [f"o{i} {words[rng.integers(0, 4)]}" for i in range(n_outs)]
        refs = [" ".join(rng.choice(words, size=rng.integers(1, 3))) for _ in range(rng.integers(1, 5))]
        # random partition of output indices into <= 4 clusters
        labels = rng.integers(0, min(4, n_outs), size=n_outs)
        clusters = [
            [i for i in range(n_outs) if labels[i] == g]
            for g in sorted(set(labels.tolist()))
        ]
        metric = lambda o, r: exact_match(o.split(" ", 1)[1], r)
        got = polyagg(outs, refs, metric, "bipartite", clusters=clusters)
        want = brute_cluster_constrained(outs, clusters, refs, metric)
        assert got == pytest.approx(want, abs=1e-9)


def test_cluster_constrained_exact_fixture():
    # clusters {0,1},{2} over a 3x3 exact-match setup
    outs = ["r1", "r2", "zzz"]
    refs = ["r1", "r2", "r3"]
    clusters = [[0, 1], [2]]
    got = polyagg(outs, refs, exact_match, "bipartite", clusters=clusters)
    want = brute_cluster_constrained(outs, clusters, refs, exact_match)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.5, abs=1e-12)  # one rep matches, the other can't


def test_cluster_validation_errors():
    outs = ["a", "b"]
    refs = ["a"]
    with pytest.raises(ValidationError, match="empty cluster"):
        polyagg(outs, refs, exact_match, clusters=[[0, 1], []])
    with pytest.raises(ValidationError):
        polyagg(outs, refs, exact_match, clusters=[[0]])  # not covering
    with pytest.raises(ValidationError):
        polyagg(outs, refs, exact_match, clusters=[[0, 1], [1]])  # overlap



@pytest.mark.parametrize("matching", ["bipartite", "maximum"])
def test_external_scores_with_clusters_equal_the_metric(matching):
    outs = ["they feel proud", "they are proud", "they want rest", "rest now"]
    refs = ["they feel proud of it", "they want to rest", "they cook"]
    clusters = [[0, 1], [2, 3]]
    sidecar = ExternalScoreSidecar({"e1": score_matrix(outs, refs, bleu)})
    assert polyagg(
        outs, refs, matching=matching, clusters=clusters, external=sidecar,
        example_id="e1",
    ) == polyagg(outs, refs, bleu, matching, clusters=clusters)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(1, 6), n=st.integers(1, 6))
def test_bipartite_set_score_does_not_depend_on_order(data, m, n):
    # quarter steps plus 0 to 3 steps of 2**-32: every total is exact, and
    # assignments that tie within 1e-9 are common
    quarters = data.draw(st.lists(st.integers(0, 4), min_size=m * n, max_size=m * n))
    steps = data.draw(st.lists(st.integers(0, 3), min_size=m * n, max_size=m * n))
    scores = (np.array(quarters) / 4 + np.array(steps) * 2.0**-32).reshape(m, n)
    rows = data.draw(st.permutations(range(m)))
    cols = data.draw(st.permutations(range(n)))
    outputs = [f"o{i}" for i in range(m)]
    references = [f"r{j}" for j in range(n)]

    def score(outs, refs, matrix):
        return polyagg(outs, refs, external=ExternalScoreSidecar({"e": matrix}),
                       example_id="e")

    permuted = score([outputs[i] for i in rows], [references[j] for j in cols],
                     scores[np.ix_(rows, cols)])
    assert permuted == score(outputs, references, scores)


@pytest.mark.parametrize("clusters", [[[0, 1], []], [[0]], [[0, 1], [1]], [[0, 2]]],
                         ids=["empty", "not_covering", "overlap", "out_of_range"])
def test_bad_clustering_names_the_example(clusters):
    with pytest.raises(ValidationError, match="'e7'"):
        polyagg(["a", "b"], ["a"], exact_match, clusters=clusters, example_id="e7")


def test_failing_metric_names_the_example():
    def failing(output, reference):
        raise ValidationError("no score")

    with pytest.raises(ValidationError, match=r"\(example '\?'\)$"):
        polyagg(["a"], ["b"], failing)

# --- corpus scoring ---------------------------------------------------------------


def test_corpus_score_two_example_hand_case():
    # (score, coverage, n_refs) = (1.0, 1.0, 2) and (0.5, 0.5, 4)
    # weighted: (1*1*2 + 0.5*0.5*4) / (2+4) = 3/6 = 0.5 exactly
    ex1 = example_of("e1", ["a", "b"])
    ex2 = example_of("e2", ["c", "d", "e", "f"])
    gens = {
        "e1": gen("e1", [["a", "b"]]),
        "e2": gen("e2", [["c", "zz"]]),  # 2 outputs, 4 refs: C = 0.5, score 0.5
    }
    config = EvalConfig(top_k=4, matching="bipartite")
    result = corpus_score([ex1, ex2], gens, config, exact_match)
    assert result.overall == 0.5
    assert result.n_references == 6
    by_id = {s.example_id: s for s in result.example_scores}
    assert by_id["e1"].contribution == pytest.approx(2.0, abs=1e-12)
    assert by_id["e2"].coverage == 0.5
    assert by_id["e2"].contribution == pytest.approx(1.0, abs=1e-12)


def test_single_example_corpus_reduces_to_score_times_coverage():
    rng = np.random.default_rng(77)
    words = ["g", "h", "i", "j"]
    for _ in range(50):
        refs = [" ".join(rng.choice(words, size=2)) for _ in range(rng.integers(1, 5))]
        outs = [" ".join(rng.choice(words, size=2)) for _ in range(rng.integers(1, 5))]
        outs = list(dict.fromkeys(outs))
        ex = example_of("solo", refs)
        gens = {"solo": gen("solo", [outs])}
        config = EvalConfig(top_k=10, matching="bipartite")
        result = corpus_score([ex], gens, config, exact_match)
        expected = polyagg(outs, refs, exact_match, "bipartite") * coverage(
            len(outs), len(refs)
        )
        assert abs(result.overall - expected) <= 1e-12


def test_all_perfect_corpus_scores_one():
    examples = []
    gens = {}
    for i in range(5):
        refs = [f"ref {i} {j}" for j in range(i + 1)]
        examples.append(example_of(f"e{i}", refs))
        gens[f"e{i}"] = gen(f"e{i}", [refs])
    config = EvalConfig(top_k=10, matching="bipartite")
    result = corpus_score(examples, gens, config, exact_match)
    assert result.overall == pytest.approx(1.0, abs=1e-12)
    assert result.macro == pytest.approx(1.0, abs=1e-12)


def test_corpus_score_in_unit_interval_with_cap():
    rng = np.random.default_rng(123)
    words = ["k", "l", "m"]
    examples, gens = [], {}
    for i in range(20):
        refs = [" ".join(rng.choice(words, size=2)) for _ in range(rng.integers(1, 4))]
        outs = list(
            dict.fromkeys(
                " ".join(rng.choice(words, size=2)) for _ in range(rng.integers(1, 6))
            )
        )
        examples.append(example_of(f"e{i}", refs))
        gens[f"e{i}"] = gen(f"e{i}", [outs])
    config = EvalConfig(top_k=10, matching="bipartite", coverage_cap=True)
    result = corpus_score(examples, gens, config, exact_match)
    assert 0.0 <= result.overall <= 1.0


def test_corpus_score_order_invariant():
    examples = [example_of(f"e{i}", [f"r{i}a", f"r{i}b"]) for i in range(6)]
    gens = {f"e{i}": gen(f"e{i}", [[f"r{i}a", "junk"]]) for i in range(6)}
    config = EvalConfig(top_k=5, matching="bipartite")
    fwd = corpus_score(examples, gens, config, exact_match)
    rev = corpus_score(list(reversed(examples)), gens, config, exact_match)
    assert fwd == rev


def test_corpus_score_contribution_identity():
    examples = [example_of("e0", ["a", "b", "c"])]
    gens = {"e0": gen("e0", [["a", "x"]])}
    config = EvalConfig(top_k=5)
    result = corpus_score(examples, gens, config, exact_match)
    s = result.example_scores[0]
    assert abs(s.contribution - s.score * s.coverage * s.n_refs) <= 1e-12


def test_missing_generations_error():
    config = EvalConfig(top_k=5)
    with pytest.raises(PolyevalError, match="no generations for example 'e0'"):
        corpus_score([example_of("e0", ["a"])], {}, config, exact_match)
    with pytest.raises(PolyevalError, match="no generations for example 'e0'"):
        corpus_score([example_of("e0", ["a"])], {}, EvalConfig(), exact_match)


def test_corpus_score_constrains_exactly_when_clusters_are_given():
    ex = example_of("e0", ["a", "b"])
    gens = {"e0": gen("e0", [["a", "b"]], mode="monomorphic_beam")}
    config = EvalConfig(top_k=2)
    free = corpus_score([ex], gens, config, exact_match)
    pooled = corpus_score([ex], gens, config, exact_match, clusters={"e0": [[0, 1]]})
    # one cluster claims one reference: coverage, not the matched score, drops
    assert (free.overall, pooled.overall) == (1.0, 0.5)
    assert pooled.example_scores[0].n_outs == 1
    with pytest.raises(ValidationError, match="'e0': cluster-constrained"):
        corpus_score([ex], gens, config, exact_match, clusters={"e9": [[0, 1]]})


# --- output selection ---------------------------------------------------------


def test_select_outputs_rules():
    beams = gen("e", [[f"b{i}" for i in range(10)]], mode="monomorphic_beam")
    poly = gen("e", [["p1", "p2", "p3"]], mode="polymorphic")
    assert select_outputs(beams, 1) == ["b0"]
    assert select_outputs(beams, 5) == [f"b{i}" for i in range(5)]
    assert select_outputs(poly, 1) == ["p1", "p2", "p3"]  # selection rule decides
    assert select_outputs(poly, 2) == ["p1", "p2"]


def test_top1_corpus_aggregates_means():
    ex_a = example_of("a", ["hit"], itype=InferenceType.DESIRE)
    ex_b = example_of("b", ["miss"], itype=InferenceType.EFFECT)
    gens = {
        "a": gen("a", [["hit", "x"]], mode="monomorphic_beam"),
        "b": gen("b", [["x", "miss"]], mode="monomorphic_beam"),
    }
    result = corpus_score([ex_a, ex_b], gens, EvalConfig(selection="maximum"), exact_match)
    assert result.overall == 0.5  # beam top-1 only: a hits, b misses
    assert result.per_type == {"Desire": 1.0, "Effect": 0.0}
    assert result.macro == 0.5


@pytest.mark.parametrize("selection", ["maximum", "order"])
def test_corpus_score_top1_is_the_plain_mean_of_top1_select(selection):
    examples = [
        example_of("a", ["hit", "other"], itype=InferenceType.DESIRE),
        example_of("b", ["miss"], itype=InferenceType.EFFECT),
        example_of("c", ["x y", "z"], itype=InferenceType.DESIRE),
    ]
    gens = {
        "a": gen("a", [["nope", "hit"]]),
        "b": gen("b", [["miss", "x"]]),
        "c": gen("c", [["x y"]], mode="monomorphic_beam"),
    }
    result = corpus_score(examples, gens, EvalConfig(selection=selection), exact_match)
    expected = [
        top1_select(select_outputs(gens[ex.example_id], 1), ex.references,
                    exact_match, selection)
        for ex in examples
    ]
    assert [s.score for s in result.example_scores] == expected
    assert result.overall == sum(expected) / len(expected)
    assert result.n_examples == 3


def test_corpus_score_top1_rejects_clusters():
    ex = example_of("e0", ["a"])
    gens = {"e0": gen("e0", [["a", "b"]])}
    with pytest.raises(ValidationError, match="top_k > 1"):
        corpus_score([ex], gens, EvalConfig(), exact_match, clusters={"e0": [[0, 1]]})


# --- the one reducer against the formulas it replaced ----------------------------


def _old_figures(rows, value, weight):
    """overall, per_type and macro as the two corpus reducers computed them:
    a sum of ``value`` over ``weight``, in example_id order."""
    rows = sorted(rows, key=lambda r: r[0])
    overall = sum(value(r) for r in rows) / sum(weight(r) for r in rows)
    per_type = {}
    for itype in sorted({r[1].value for r in rows}):
        members = [r for r in rows if r[1].value == itype]
        per_type[itype] = sum(value(r) for r in members) / sum(weight(r) for r in members)
    return overall, per_type, sum(per_type.values()) / len(per_type)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(
    st.tuples(
        st.sampled_from(list(InferenceType)),
        st.floats(0.0, 1.0),
        st.integers(1, 12),  # n_outs
        st.integers(1, 12),  # n_refs
        st.booleans(),  # coverage cap
    ),
    min_size=1, max_size=12,
))
def test_one_reducer_matches_both_old_formulas(rows):
    rows = [(f"e{i:02d}", *row) for i, row in enumerate(rows)]
    rows.reverse()  # the reducer orders by example_id itself
    top1 = [
        ExampleScore(eid, itype, score, 1.0, n_outs, n_refs, weight=1)
        for eid, itype, score, n_outs, n_refs, _ in rows
    ]
    result = _aggregate(top1)
    # top-1: plain mean of the scores
    assert (result.overall, result.per_type, result.macro) == _old_figures(
        rows, value=lambda r: r[2], weight=lambda r: 1
    )

    sets = [
        ExampleScore(eid, itype, score, coverage(n_outs, n_refs, cap), n_outs,
                     n_refs, weight=n_refs)
        for eid, itype, score, n_outs, n_refs, cap in rows
    ]
    result = _aggregate(sets)
    # set scores: score * coverage * n_refs over the total reference count
    assert (result.overall, result.per_type, result.macro) == _old_figures(
        rows,
        value=lambda r: r[2] * coverage(r[3], r[4], r[5]) * r[4],
        weight=lambda r: r[4],
    )
    assert result.n_references == sum(r[4] for r in rows)
