"""``eval`` end to end on drawn corpora, against a brute-force oracle.

Hypothesis draws small corpora over a six-word vocabulary, so that BLEU
ties are common, and runs each through ``cli.run(["eval", ...])`` for the
two top-1 selections and the two top-k matchings.  The oracle shares only
the per-pair ``bleu`` with the program: it scores a set by enumerating every
injective map of outputs to references, and weights, moderates, averages and
scales (x100) on its own.  Every corpus and per-example figure must agree
with it at the report's 9 significant digits.

Two invariances are checked against the report itself: the order of the
records in the examples and generations files leaves its bytes unchanged,
and a repeated output changes only its ``dropped_duplicate_outputs`` count.
"""
import itertools
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from polyeval.cli import run
from polyeval.textmetrics import bleu

from pipeline_steps import write_jsonl

VOCAB = ("they", "want", "rest", "feel", "proud", "home")
TYPES = ("Desire", "Reaction")
RULES = [(1, "--selection", "maximum"), (1, "--selection", "order"),
         (5, "--matching", "bipartite"), (5, "--matching", "maximum")]

texts = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4).map(" ".join)
corpora = st.lists(
    st.tuples(st.sampled_from(TYPES), st.sampled_from(("polymorphic", "monomorphic_beam")),
              st.lists(texts, min_size=1, max_size=5), st.lists(texts, min_size=1, max_size=4)),
    min_size=1, max_size=3)


def agree(got, want) -> bool:
    """Equal at 9 significant digits; one unit in the last digit is allowed,
    because a sum in another order can round to the other side."""
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= 10.0 ** (math.floor(math.log10(abs(want))) - 8)


def set_score(matrix, matching: str) -> float:
    if matching == "maximum":
        return sum(max(row) for row in matrix) / len(matrix)
    m, n = len(matrix), len(matrix[0])
    if m <= n:
        totals = (sum(matrix[i][j] for i, j in enumerate(cols))
                  for cols in itertools.permutations(range(n), m))
    else:
        totals = (sum(matrix[i][j] for j, i in enumerate(rows))
                  for rows in itertools.permutations(range(m), n))
    return max(totals) / min(m, n)


def oracle(corpus, topk: int, rule: str) -> dict:
    """The report's figures: per example, then the weighted corpus means."""
    rows = []
    for i, (itype, mode, outputs, references) in enumerate(corpus):
        outputs = list(dict.fromkeys(outputs))  # a repeated output is dropped
        if topk == 1:
            if mode != "polymorphic" or rule == "order":
                outputs = outputs[:1]
            score = max(bleu(o, r) for o in outputs for r in references)
            cov, weight = 1.0, 1
        else:
            outputs = outputs[:topk]
            score = set_score([[bleu(o, r) for r in references] for o in outputs], rule)
            cov, weight = min(1.0, len(outputs) / len(references)), len(references)
        rows.append({"example_id": f"e{i}", "type": itype, "score": score, "coverage": cov,
                     "n_outs": len(outputs), "n_refs": len(references), "weight": weight,
                     "contribution": score * cov * weight})

    def mean(group):
        return sum(r["contribution"] for r in group) / sum(r["weight"] for r in group)

    per_type = {t: mean([r for r in rows if r["type"] == t])
                for t in sorted({r["type"] for r in rows})}
    return {"rows": rows, "overall": mean(rows), "per_type": per_type,
            "macro": sum(per_type.values()) / len(per_type)}


def write_corpus(directory: str, corpus, example_order=None, generation_order=None,
                 outputs_of=None) -> None:
    """The examples and generations files of a corpus, their records in the
    given orders, each example's outputs from ``outputs_of`` if given."""
    example_order = example_order or range(len(corpus))
    generation_order = generation_order or range(len(corpus))
    write_jsonl(os.path.join(directory, "u.jsonl"), [
        {"example_id": f"e{i}", "type": corpus[i][0], "references": corpus[i][3],
         "dialogue": [{"speaker": "Listener (A)", "text": "hi"},
                      {"speaker": "Speaker (B)", "text": "they went home"}]}
        for i in example_order])
    write_jsonl(os.path.join(directory, "g.jsonl"), [
        {"example_id": f"e{i}", "mode": corpus[i][1],
         "runs": [outputs_of[i] if outputs_of else corpus[i][2]]}
        for i in generation_order])


def eval_report(directory: str, topk: int, flag: str, rule: str) -> bytes:
    """The report of ``eval`` on the corpus files of ``directory``."""
    report = os.path.join(directory, "r.json")
    assert run(["eval", "--examples", os.path.join(directory, "u.jsonl"),
                "--generations", os.path.join(directory, "g.jsonl"),
                "--topk", str(topk), flag, rule, "--report", report]) == 0
    with open(report, "rb") as handle:
        return handle.read()


def run_eval(directory: str, corpus, topk: int, flag: str, rule: str) -> dict:
    write_corpus(directory, corpus)
    return json.loads(eval_report(directory, topk, flag, rule))


@settings(max_examples=150, deadline=None)
@given(corpus=corpora)
def test_eval_matches_brute_force(corpus):
    with tempfile.TemporaryDirectory() as directory:
        for topk, flag, rule in RULES:
            report = run_eval(directory, corpus, topk, flag, rule)
            want = oracle(corpus, topk, rule)
            case = (topk, rule)
            assert report["n_examples"] == len(corpus)
            for got, row in zip(report["per_example"], want["rows"], strict=True):
                assert got["example_id"] == row["example_id"]
                assert agree(got["score"], row["score"]), (case, got, row)
                if topk > 1:
                    assert (got["n_outs"], got["n_refs"]) == (row["n_outs"], row["n_refs"])
                    assert agree(got["coverage"], row["coverage"]), (case, got, row)
                    assert agree(got["contribution"], row["contribution"]), (case, got, row)
            if topk > 1:
                assert report["n_references"] == sum(r["n_refs"] for r in want["rows"])
            for name in ("overall", "macro"):
                assert agree(report[name], 100 * want[name]), (case, name, report[name])
                assert agree(report["raw"][name], want[name]), (case, name)
            assert report["per_type"].keys() == want["per_type"].keys()
            for itype, value in want["per_type"].items():
                assert agree(report["per_type"][itype], 100 * value), (case, itype)
                assert agree(report["raw"]["per_type"][itype], value), (case, itype)


@settings(max_examples=80, deadline=None)
@given(corpus=corpora, data=st.data())
def test_eval_report_ignores_record_order(corpus, data):
    example_order = data.draw(st.permutations(range(len(corpus))), "examples file order")
    generation_order = data.draw(st.permutations(range(len(corpus))),
                                 "generations file order")
    with tempfile.TemporaryDirectory() as directory:
        for topk, flag, rule in RULES:
            write_corpus(directory, corpus)
            in_order = eval_report(directory, topk, flag, rule)
            write_corpus(directory, corpus, example_order, generation_order)
            assert eval_report(directory, topk, flag, rule) == in_order, (topk, rule)


def with_dropped(report: dict, added: int) -> dict:
    """The report with ``added`` more duplicate outputs dropped."""
    prefix = "dropped_duplicate_outputs:"
    warnings = [w for w in report["warnings"] if not w.startswith(prefix)]
    dropped = added + sum(int(w.removeprefix(prefix)) for w in report["warnings"]
                          if w.startswith(prefix))
    if dropped:
        warnings.append(f"{prefix}{dropped}")
    return dict(report, warnings=sorted(warnings))


@settings(max_examples=80, deadline=None)
@given(corpus=corpora, data=st.data())
def test_a_repeated_output_only_adds_to_the_dropped_count(corpus, data):
    # each repeat goes after the first occurrence of its output, which the
    # loader keeps
    outputs_of, added = [], 0
    for _, _, outputs, _ in corpus:
        outputs = list(outputs)
        for source in data.draw(st.lists(st.sampled_from(outputs), max_size=3)):
            at = data.draw(st.integers(outputs.index(source) + 1, len(outputs)))
            outputs.insert(at, source)
            added += 1
        outputs_of.append(outputs)
    with tempfile.TemporaryDirectory() as directory:
        for topk, flag, rule in RULES:
            write_corpus(directory, corpus)
            want = with_dropped(json.loads(eval_report(directory, topk, flag, rule)), added)
            write_corpus(directory, corpus, outputs_of=outputs_of)
            assert json.loads(eval_report(directory, topk, flag, rule)) == want, (topk, rule)
