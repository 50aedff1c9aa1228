"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import functools
import itertools
import math
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from polyeval.assignment import solve_max
from polyeval.core import EvalConfig, InferenceType, Turn, Example, make_generation_set
from polyeval.dataio import RawRecord, TYPE_SYNTHESIS, map_type, normalize
from polyeval.decode import (
    BeamConfig,
    diverse_beam_search,
    format_polymorphic,
    parse_polymorphic,
    sample_sequences,
    NgramLM,
)
from polyeval.diversity import bcubed
from polyeval.report import render_report
from polyeval.scoring import corpus_score, coverage, polyagg, top1_select
from polyeval.stats import cohen_kappa, gwet_ac1, mcnemar, resolve_and_repeat
from polyeval.textmetrics import exact_match

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pipeline_steps import INPUT_FILES, OUTPUT_FILES, run_pipeline  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {description}")
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"ACCEPTANCE {number:2d} PASS  {description}{suffix}")

        return run

    return wrap


# --- 1: assignment exactness -----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _perm_array(n, size):
    return np.array(list(itertools.permutations(range(n), size)), dtype=np.intp)


def brute_force_max(matrix):
    a = np.asarray(matrix, dtype=float)
    m, n = a.shape
    if m > n:
        a = a.T
        m, n = n, m
    perms = _perm_array(n, m)
    return float(a[np.arange(m)[None, :], perms].sum(axis=1).max())


@criterion(1, "solve_max equals exhaustive maximum on 1,000 seeded matrices")
def test_assignment_exactness():
    rng = np.random.default_rng(20240901)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        if trial % 3 == 0:
            a = rng.integers(0, 32, size=(m, n)) / 16.0
        else:
            a = rng.random((m, n)) * rng.choice([1.0, 10.0])
        got = solve_max(a).objective
        want = brute_force_max(a)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    return f"max |diff| {worst:.2e}, {elapsed:.2f}s"


# --- 2: reference-weighted corpus fixture ------------------------------------------


def _example(example_id, references, itype=InferenceType.DESIRE):
    return Example(
        example_id=example_id,
        dialogue=(Turn("Listener (A)", "hi"), Turn("Speaker (B)", "yo")),
        inference_type=itype,
        references=tuple(references),
    )


@criterion(2, "weighted corpus score: hand fixture exact, single-example identity")
def test_corpus_score_fixture():
    ex1 = _example("e1", ["a", "b"])
    ex2 = _example("e2", ["c", "d", "e", "f"])
    gens = {
        "e1": make_generation_set("e1", "polymorphic", [["a", "b"]])[0],
        "e2": make_generation_set("e2", "polymorphic", [["c", "zz"]])[0],
    }
    result = corpus_score([ex1, ex2], gens, EvalConfig(top_k=4), exact_match)
    assert result.overall == 0.5  # (1*1*2 + 0.5*0.5*4) / 6, exactly

    rng = np.random.default_rng(8)
    words = ["w1", "w2", "w3", "w4"]
    for _ in range(100):
        refs = [f"r {w}" for w in rng.choice(words, size=rng.integers(1, 5), replace=False)]
        outs = [f"r {w}" if rng.random() < 0.5 else f"o {w}"
                for w in rng.choice(words, size=rng.integers(1, 5), replace=False)]
        ex = _example("solo", refs)
        gens = {"solo": make_generation_set("solo", "polymorphic", [outs])[0]}
        result = corpus_score([ex], gens, EvalConfig(top_k=9), exact_match)
        expected = polyagg(outs, refs, exact_match, "bipartite") * coverage(
            len(outs), len(refs)
        )
        assert abs(result.overall - expected) <= 1e-12
    return "two-example fixture == 0.500000"


# --- 3: redundancy discrimination ---------------------------------------------------


@criterion(3, "five identical perfect outputs: bipartite 0.2 vs maximum 1.0")
def test_redundancy_discrimination():
    outputs = ["the one answer"] * 5
    refs = ["the one answer", "r2", "r3", "r4", "r5"]
    bip = polyagg(outputs, refs, exact_match, "bipartite")
    mx = polyagg(outputs, refs, exact_match, "maximum")
    assert bip == 0.2
    assert mx == 1.0
    assert top1_select(outputs, refs, exact_match, "maximum") == 1.0
    return "bipartite 0.2, maximum 1.0 (exact)"


# --- 4: coverage moderator -----------------------------------------------------------


@criterion(4, "coverage moderator arithmetic and cap behavior")
def test_coverage_moderator():
    assert coverage(2, 5) == 0.4
    assert coverage(5, 5) == 1.0
    assert coverage(7, 5, cap=True) == 1.0
    assert coverage(7, 5, cap=False) == 1.4
    return "C(2,5)=0.4; C(7,5)=1.0 capped / 1.4 uncapped"


# --- 5: B-cubed fixtures ---------------------------------------------------------------


@criterion(5, "B-cubed worked examples to 1e-9 and identity on 200 random partitions")
def test_bcubed_criterion():
    assert bcubed([[0, 1], [2]], [[0, 1], [2]]) == (1.0, 1.0, 1.0)
    p, r, f1 = bcubed([[0, 1, 2, 3]], [[0], [1], [2], [3]])
    assert abs(p - 0.25) <= 1e-9 and abs(r - 1.0) <= 1e-9 and abs(f1 - 0.4) <= 1e-9
    p, r, f1 = bcubed([[0, 1], [2, 3]], [[0, 1, 2], [3]])
    assert abs(p - 0.75) <= 1e-9
    assert abs(r - (2 / 3 + 2 / 3 + 1 / 3 + 1) / 4) <= 1e-9
    assert abs(f1 - 2 * p * r / (p + r)) <= 1e-9

    rng = np.random.default_rng(508)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        labels = rng.integers(0, rng.integers(1, n + 1), size=n)
        clusters = [
            [i for i in range(n) if labels[i] == g]
            for g in sorted(set(labels.tolist()))
        ]
        assert bcubed(clusters, clusters) == (1.0, 1.0, 1.0)
    return "3 worked cases + 200 identities"


# --- 6: agreement skew phenomenon ---------------------------------------------------


@criterion(6, "prevalence skew: AC1 ~ 0.910 vs kappa ~ 0.291 on the 90/4/4/2 table")
def test_agreement_skew():
    pairs = (
        [(True, True)] * 90 + [(True, False)] * 4 + [(False, True)] * 4
        + [(False, False)] * 2
    )
    ac1 = gwet_ac1(pairs)
    kappa = cohen_kappa(pairs)
    assert abs(ac1 - 0.910) <= 1e-3
    assert abs(kappa - 0.291) <= 1e-3
    assert ac1 > kappa * 3  # the skew-robustness direction
    return f"AC1 {ac1:.4f}, kappa {kappa:.4f}"


# --- 7: McNemar and the 100-repeat protocol -------------------------------------------


@criterion(7, "McNemar b=10,c=2 vs chi-square oracle; repeat protocol byte-deterministic")
def test_mcnemar_criterion():
    result = mcnemar(
        [(True, True)] * 10 + [(True, False)] * 10 + [(False, True)] * 2
        + [(False, False)] * 10
    )
    assert abs(result.statistic - 5.3333) <= 1e-4
    oracle_p = math.erfc(math.sqrt((64 / 12) / 2))  # independent df=1 tail
    assert abs(result.p_value - oracle_p) <= 1e-12
    assert abs(result.p_value - 0.0209) <= 5e-4

    side_x = [(True, False)] * 4 + [(True, True)] * 12 + [(False, False)] * 6
    side_y = [(False, False)] * 4 + [(False, True)] * 12 + [(True, False)] * 6
    first = resolve_and_repeat(side_x, side_y, repeats=100, seed=99)
    second = resolve_and_repeat(side_x, side_y, repeats=100, seed=99)
    blob_a = render_report({"p": list(first.p_values), "rates": [first.mean_rate_x]})
    blob_b = render_report({"p": list(second.p_values), "rates": [second.mean_rate_x]})
    assert blob_a.encode() == blob_b.encode()
    return f"p {result.p_value:.5f} (oracle {oracle_p:.5f})"


# --- 8: decoding oracles ----------------------------------------------------------------


def _enumerate(lm, max_len):
    results = []

    def dfs(prefix, logprob):
        if len(prefix) == max_len:
            results.append((prefix, logprob, False))
            return
        for token, lp in sorted(lm.logprobs(prefix).items()):
            if token == lm.end_token:
                results.append((prefix + (token,), logprob + lp, True))
            else:
                dfs(prefix + (token,), logprob + lp)

    dfs((), 0.0)
    return results


def _random_lm(rng, n_tokens):
    end = "</s>"
    tokens = [f"t{i}" for i in range(n_tokens)]
    table = {}
    for context in [()] + [(t,) for t in tokens]:
        weights = rng.integers(1, 9, size=n_tokens + 1).astype(float)
        weights /= weights.sum()
        table[context] = dict(zip(tokens + [end], weights.tolist()))
    return NgramLM(order=2, vocab=tokens + [end], table=table, end_token=end)


@criterion(8, "beam == exhaustive top-k; zero-penalty degeneracy; sampling TV <= 0.02")
def test_decoding_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(81)
    checked = 0
    for _ in range(20):
        lm = _random_lm(rng, int(rng.integers(2, 4)))
        max_len = int(rng.integers(2, 5))
        sequences = _enumerate(lm, max_len)
        assert len(sequences) <= 4096
        ranked = sorted(sequences, key=lambda s: (-(s[1] / len(s[0])), s[0]))
        got = diverse_beam_search(lm, BeamConfig(beams=len(sequences), max_len=max_len))
        assert [s.tokens for s in got] == [t for t, _, _ in ranked]
        checked += len(sequences)

    lm = _random_lm(np.random.default_rng(5), 3)
    for groups, width in ((2, 3), (3, 2)):
        config = BeamConfig(beams=groups * width, groups=groups,
                            diversity_penalty=0.0, max_len=4)
        flat = diverse_beam_search(lm, config)
        single = diverse_beam_search(lm, BeamConfig(beams=width, max_len=4))
        assert flat == single * groups

    end = "</s>"
    five = NgramLM(
        order=3,
        vocab=["a", "b", end],
        table={
            (): {"a": 0.5, "b": 0.5},
            ("a",): {"a": 0.5, end: 0.5},
            ("b",): {"a": 0.4, end: 0.6},
            ("a", "a"): {end: 1.0},
            ("b", "a"): {"a": 0.2, end: 0.8},
        },
        end_token=end,
    )
    probs = {
        ("a", end): 0.25, ("a", "a", end): 0.25, ("b", end): 0.3,
        ("b", "a", end): 0.16, ("b", "a", "a", end): 0.04,
    }
    n = 10_000
    counts = {}
    for seq in sample_sequences(five, n=n, seed=1234, max_len=6):
        counts[seq.tokens] = counts.get(seq.tokens, 0) + 1
    tv = 0.5 * sum(abs(counts.get(t, 0) / n - p) for t, p in probs.items())
    assert tv <= 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    return f"{checked} sequences enumerated, TV {tv:.4f}, {elapsed:.1f}s"


# --- 9: polymorphic codec -----------------------------------------------------------------


@criterion(9, "codec round-trip on 10,000 random lists plus the gap-index warning case")
def test_codec_criterion():
    import re

    rng = np.random.default_rng(907)
    alphabet = list("abcdefgh() 0123456789,.")
    bad = re.compile(r";\s*\(\d+\)")
    done = 0
    while done < 10_000:
        n = int(rng.integers(1, 6))
        items = []
        for _ in range(n):
            text = "".join(rng.choice(alphabet, size=int(rng.integers(1, 12)))).strip()
            if not text or bad.search(text) or text.endswith(";"):
                continue
            items.append(text)
        if len(items) != n:
            continue
        assert parse_polymorphic(format_polymorphic(items)).items == tuple(items)
        done += 1
    parsed = parse_polymorphic("(1) a; (3) c")
    assert parsed.items == ("a", "c")
    assert "non_contiguous_indices" in parsed.warnings
    return "10,000 round trips"


# --- 10: normalization fixtures and type synthesis ---------------------------------------


@criterion(10, "normalization fixtures byte-for-byte; full type synthesis with exclusions")
def test_normalization_criterion():
    merged = normalize(
        RawRecord("m", "generic", (("A", "hi"), ("A", "how are you"), ("B", "fine")),
                  "Desire", ("x",))
    )
    assert [f"{t.speaker_tag}: {t.text}" for t in merged.dialogue] == [
        "Listener (A): hi how are you",
        "Speaker (B): fine",
    ]

    five = normalize(
        RawRecord(
            "f", "generic",
            tuple(("A" if i % 2 == 0 else "B", f"u{i}") for i in range(5)),
            "Desire", ("x",),
        )
    )
    assert [t.speaker_tag.split(" ")[0] for t in five.dialogue] == [
        "Speaker", "Listener", "Speaker", "Listener", "Speaker",
    ]

    named = normalize(
        RawRecord("n", "reflect", (("Jesse", "I won"), ("Bailey", "congrats")),
                  "xAttr", ("Jesse feels proud",))
    )
    assert named.references == ("the speaker feels proud",)

    for label, target in TYPE_SYNTHESIS.items():
        assert map_type(label) is target
    assert map_type("isBefore") is None
    assert map_type("isAfter") is None
    for label in ("isBefore", "isAfter"):
        assert normalize(RawRecord("x", "comfact", (("", "hi"),), label, ("y",))) is None
    return f"{len(TYPE_SYNTHESIS)} labels mapped"


# --- 11: end-to-end golden run --------------------------------------------------------------


@criterion(11, "pipeline reproduces all committed golden outputs byte-identically")
def test_end_to_end_golden(tmp_path):
    start = time.perf_counter()
    for name in INPUT_FILES:
        shutil.copy(FIXTURES / name, tmp_path / name)
    for step, code in run_pipeline(tmp_path):
        assert code == 0, f"step {step} exited {code}"
    mismatched = []
    for name in OUTPUT_FILES:
        if (tmp_path / name).read_bytes() != (FIXTURES / "golden" / name).read_bytes():
            mismatched.append(name)
    assert not mismatched, f"outputs differ from golden: {mismatched}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    return f"{len(OUTPUT_FILES)} files byte-identical, {elapsed:.1f}s"
