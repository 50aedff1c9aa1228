import json
import math
from pathlib import Path

import numpy as np
import pytest

from polyeval import cli
from polyeval.cli import run
from polyeval.core import validate_generation_set
from polyeval.dataio import read_jsonl, text_key
from polyeval.decode import NgramLM
from polyeval.stats import cohen_kappa, gwet_ac1

from pipeline_steps import write_jsonl


GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def make_examples(path, n=2, refs=("they feel proud", "they want rest")):
    write_jsonl(
        path,
        [
            {
                "example_id": f"e{i}",
                "dialogue": [
                    {"speaker": "Listener (A)", "text": "hi"},
                    {"speaker": "Speaker (B)", "text": "hello there"},
                ],
                "type": "Desire",
                "references": list(refs),
            }
            for i in range(n)
        ],
    )


def make_generations(path, n=2, runs=(("they feel proud", "nothing matches"),)):
    write_jsonl(
        path,
        [
            {
                "example_id": f"e{i}",
                "mode": "monomorphic_beam",
                "runs": [list(r) for r in runs],
            }
            for i in range(n)
        ],
    )


# --- exit codes ---------------------------------------------------------------


def test_missing_input_file_exits_2(workdir, capsys):
    make_generations(workdir / "g.jsonl")
    code = run(
        ["eval", "--examples", "absent.jsonl", "--generations", "g.jsonl",
         "--report", "r.json"]
    )
    assert code == 2
    assert "absent.jsonl" in capsys.readouterr().err


def test_malformed_jsonl_names_line_and_exits_1(workdir, capsys):
    good = json.dumps(
        {
            "example_id": "e0",
            "dialogue": [{"speaker": "Speaker (A)", "text": "hi"}],
            "type": "Desire",
            "references": ["ok"],
        }
    )
    write_lines(workdir / "bad.jsonl", [good] * 6 + ["{not json"])
    code = run(["datastats", "--examples", "bad.jsonl", "--report", "r.json"])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 7" in err


# faults in the bytes of a file, below the record formats, each with the
# start of the reason its error line gives
BYTE_FAULTS = {
    "utf16_bom": (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    "deep_nesting": (b"[" * 100_000, "JSON nested too deep to parse"),
    "huge_integer": (b'{"x": ' + b"9" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    "lone_surrogate": (b'{"name": "\\ud800", "values": [1, 2, 3]}',
                       "a string holds a lone surrogate"),
}


@pytest.mark.parametrize("fault", BYTE_FAULTS.values(), ids=BYTE_FAULTS)
def test_a_byte_fault_in_a_jsonl_line_is_one_error_line(workdir, capsys, fault):
    line, reason = fault
    (workdir / "scores.jsonl").write_bytes(
        b'{"name": "m1", "values": [0.8, 0.7, 0.9]}\n' + line + b"\n")
    assert run(["stats", "ttest", "--scores", "scores.jsonl", "--report", "t.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: scores.jsonl: malformed JSONL at line 2: {reason}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert sorted(p.name for p in workdir.iterdir()) == ["scores.jsonl"]


@pytest.mark.parametrize("fault", BYTE_FAULTS.values(), ids=BYTE_FAULTS)
def test_a_byte_fault_in_an_lm_config_is_one_error_line(workdir, capsys, fault):
    config, reason = fault
    (workdir / "lm.json").write_bytes(config)
    make_examples(workdir / "u.jsonl", n=1)
    assert run(DECODE_BASE + ["--strategy", "beam", "--beams", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: lm.json: malformed LM config: {reason}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert sorted(p.name for p in workdir.iterdir()) == ["lm.json", "u.jsonl"]


def test_a_surrogate_pair_escape_is_one_character(workdir):
    (workdir / "scores.jsonl").write_bytes(
        b'{"name": "m\\ud83d\\ude00", "values": [0.8, 0.7, 0.9]}\n'
        b'{"name": "m2", "values": [0.75, 0.72, 0.8]}\n')
    assert run(["stats", "ttest", "--scores", "scores.jsonl", "--report", "t.json"]) == 0
    report = json.loads((workdir / "t.json").read_text(encoding="utf-8"))
    assert {report["pairs"][0]["x"], report["pairs"][0]["y"]} == {"m\U0001F600", "m2"}


def test_validation_error_exits_1(workdir, capsys):
    make_examples(workdir / "u.jsonl", n=2)
    make_generations(workdir / "g.jsonl", n=1)  # e1 has no generations
    code = run(
        ["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
         "--topk", "1", "--report", "r.json"]
    )
    assert code == 1
    assert "e1" in capsys.readouterr().err


# --- eval ----------------------------------------------------------------------


def test_eval_bleu_reports_scaled_and_raw(workdir):
    make_examples(workdir / "u.jsonl")
    make_generations(workdir / "g.jsonl")
    code = run(
        ["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
         "--metric", "bleu", "--topk", "5", "--matching", "bipartite",
         "--report", "r.json"]
    )
    assert code == 0
    report = json.loads((workdir / "r.json").read_text())
    assert report["tool"] == "eval"
    assert report["config"]["coverage_cap"] is True
    assert report["overall"] == pytest.approx(report["raw"]["overall"] * 100, rel=1e-9)
    assert report["raw"]["overall"] <= 1.0
    assert report["n_examples"] == 2


def test_eval_rerun_is_byte_identical(workdir):
    make_examples(workdir / "u.jsonl")
    make_generations(workdir / "g.jsonl")
    argv = ["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
            "--topk", "5", "--report", "r1.json"]
    assert run(argv) == 0
    assert run(argv[:-1] + ["r2.json"]) == 0
    assert (workdir / "r1.json").read_bytes() == (workdir / "r2.json").read_bytes()


def test_eval_embed_metric(workdir):
    make_examples(workdir / "u.jsonl", refs=("ref one", "ref two"))
    make_generations(workdir / "g.jsonl", runs=(("out one", "out two"),))
    write_jsonl(
        workdir / "emb.jsonl",
        [
            {"key": text_key(t), "vector": v}
            for t, v in [
                ("ref one", [1.0, 0.0]),
                ("ref two", [0.0, 1.0]),
                ("out one", [1.0, 0.0]),
                ("out two", [1.0, 1.0]),
            ]
        ],
    )
    code = run(
        ["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
         "--metric", "embed", "--embeddings", "emb.jsonl", "--topk", "5",
         "--report", "r.json"]
    )
    assert code == 0
    report = json.loads((workdir / "r.json").read_text())
    # optimal pairing: out one->ref one (1.0), out two->ref two (0.7071)
    assert report["overall"] == pytest.approx((1.0 + math.sqrt(0.5)) / 2, abs=1e-6)
    assert "raw" not in report  # only bleu is rescaled


def test_eval_external_scores(workdir):
    make_examples(workdir / "u.jsonl", n=1)
    make_generations(workdir / "g.jsonl", n=1, runs=(("a", "b"),))
    write_jsonl(
        workdir / "x.jsonl",
        [{"example_id": "e0", "scores": [[0.9, 0.1], [0.2, 0.8]]}],
    )
    code = run(
        ["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
         "--metric", "external", "--external-scores", "x.jsonl", "--topk", "5",
         "--report", "r.json"]
    )
    assert code == 0
    report = json.loads((workdir / "r.json").read_text())
    assert report["overall"] == pytest.approx(0.85, abs=1e-9)
    # sidecar is mandatory for the external metric
    assert run(
        ["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
         "--metric", "external", "--report", "r2.json"]
    ) == 1


EVAL_BASE = ["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
             "--topk", "5", "--report", "r.json"]


def make_eval_sidecars(workdir):
    write_jsonl(
        workdir / "c.jsonl",
        [{"example_id": f"e{i}", "clusters": [[0], [1]]} for i in range(2)],
    )
    write_jsonl(
        workdir / "x.jsonl",
        [{"example_id": f"e{i}", "scores": [[0.9, 0.1], [0.2, 0.8]]} for i in range(2)],
    )
    write_jsonl(
        workdir / "emb.jsonl",
        [
            {"text": t, "vector": v}
            for t, v in [
                ("they feel proud", [1.0, 0.0]),
                ("they want rest", [0.0, 1.0]),
                ("nothing matches", [1.0, 1.0]),
            ]
        ],
    )


@pytest.mark.parametrize("name,extra,key", [
    ("u.jsonl", [], "'e0'"),
    ("c.jsonl", ["--clusters", "c.jsonl"], "'e0'"),
    ("x.jsonl", ["--metric", "external", "--external-scores", "x.jsonl"], "'e0'"),
    ("emb.jsonl", ["--metric", "embed", "--embeddings", "emb.jsonl"],
     repr(text_key("they feel proud"))),
], ids=["examples", "clusters", "external_scores", "embeddings"])
def test_eval_rejects_duplicate_keys(workdir, capsys, name, extra, key):
    make_examples(workdir / "u.jsonl")
    make_generations(workdir / "g.jsonl")
    make_eval_sidecars(workdir)
    assert run(EVAL_BASE + extra) == 0
    lines = (workdir / name).read_text().splitlines()
    write_lines(workdir / name, lines + lines[:1])
    capsys.readouterr()
    assert run(EVAL_BASE + extra) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{name}:{len(lines) + 1}: duplicate" in err
    assert key in err


@pytest.mark.parametrize("index", ['"x"', "1.7", "true"])
def test_eval_rejects_non_integer_cluster_index(workdir, capsys, index):
    make_examples(workdir / "u.jsonl")
    make_generations(workdir / "g.jsonl")
    write_lines(
        workdir / "c.jsonl",
        ['{"example_id": "e0", "clusters": [[0], [%s]]}' % index,
         '{"example_id": "e1", "clusters": [[0], [1]]}'],
    )
    assert run(EVAL_BASE + ["--clusters", "c.jsonl"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"c.jsonl:1: cluster index {index} is not an integer" in err


@pytest.mark.parametrize("clusters", ["c.jsonl", "missing.jsonl"])
def test_eval_clusters_need_topk_above_1(workdir, capsys, clusters):
    # top-1 scoring has no set to constrain; the clusters file is not read
    make_examples(workdir / "u.jsonl")
    make_generations(workdir / "g.jsonl")
    make_eval_sidecars(workdir)
    assert run(EVAL_BASE + ["--topk", "1", "--clusters", clusters]) == 1
    assert capsys.readouterr().err == "error: --clusters needs --topk > 1\n"
    assert not (workdir / "r.json").exists()


@pytest.mark.parametrize("metric,flag,error", [
    ("bleu", "--external-scores", "--external-scores needs --metric external"),
    ("embed", "--external-scores", "--external-scores needs --metric external"),
    ("bleu", "--embeddings", "--embeddings needs --metric embed"),
    ("external", "--embeddings", "--embeddings needs --metric embed"),
])
@pytest.mark.parametrize("path", ["bad.jsonl", "missing.jsonl"])
def test_eval_rejects_a_file_its_metric_ignores(workdir, capsys, metric, flag,
                                                 error, path):
    # the ignored file is not read, so neither a bad nor a missing one matters
    make_examples(workdir / "u.jsonl")
    make_generations(workdir / "g.jsonl")
    write_lines(workdir / "bad.jsonl", ["not json"])
    assert run(EVAL_BASE + ["--metric", metric, flag, path]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (workdir / "r.json").exists()


@pytest.mark.parametrize("metric,flag", [
    ("embed", "--embeddings"), ("external", "--external-scores"),
])
def test_eval_requires_its_metric_file_before_reading_any(workdir, capsys, metric, flag):
    # the examples file is missing, so reading it first would be an i/o error
    make_generations(workdir / "g.jsonl")
    argv = ["eval", "--examples", "absent.jsonl", "--generations", "g.jsonl",
            "--metric", metric, "--report", "r.json"]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: --metric {metric} requires {flag}\n"
    assert not (workdir / "r.json").exists()


@pytest.mark.parametrize("topk", ["1", "5"])
def test_eval_counts_orphan_generations(workdir, topk):
    make_examples(workdir / "u.jsonl", n=1)
    make_generations(workdir / "g.jsonl", n=3)  # e1 and e2 match no example
    argv = ["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
            "--topk", topk, "--report", "r.json"]
    assert run(argv) == 0
    report = json.loads((workdir / "r.json").read_text())
    assert report["warnings"] == ["orphan_generations:2"]
    assert report["n_examples"] == 1
    make_generations(workdir / "g.jsonl", n=1)
    assert run(argv) == 0
    assert json.loads((workdir / "r.json").read_text())["warnings"] == []


@pytest.mark.parametrize("topk", ["1", "5"])
def test_eval_counts_dropped_duplicate_outputs(workdir, topk):
    make_examples(workdir / "u.jsonl", n=2)
    make_generations(workdir / "g.jsonl", n=2,
                     runs=(("they feel proud", "they  feel proud", "nothing matches"),))
    assert run(["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
                "--topk", topk, "--report", "r.json"]) == 0
    report = json.loads((workdir / "r.json").read_text())
    assert report["warnings"] == ["dropped_duplicate_outputs:2"]


def test_eval_external_scores_missing_an_example_fails_cleanly(workdir, capsys):
    make_examples(workdir / "u.jsonl", n=2)
    make_generations(workdir / "g.jsonl", n=2, runs=(("a", "b"),))
    write_jsonl(workdir / "x.jsonl",
                [{"example_id": "e0", "scores": [[0.9, 0.1], [0.2, 0.8]]}])
    assert run(["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
                "--metric", "external", "--external-scores", "x.jsonl",
                "--topk", "5", "--report", "r.json"]) == 1
    assert capsys.readouterr().err == "error: no external scores for example 'e1'\n"
    assert not (workdir / "r.json").exists()


def test_eval_external_scores_at_the_tie_boundary(workdir, capsys):
    # one assignment totals 1e-9 below the optimum up to rounding, where the
    # tie-break used to end in an AssertionError traceback
    make_examples(workdir / "u.jsonl", n=1, refs=("r0", "r1", "r2", "r3"))
    make_generations(workdir / "g.jsonl", n=1, runs=(("a", "b", "c", "d"),))
    scores = [[0.5000000005, 1.0, 1e-09, 1.0000000005],
              [5e-10, 0.5000000005, 0.500000002, 0.5],
              [0.500000001, 1.0, 1.0, 0.500000002],
              [0.5000000005, 0.5, 1.000000002, 2e-09]]
    write_jsonl(workdir / "x.jsonl", [{"example_id": "e0", "scores": scores}])
    assert run(["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
                "--metric", "external", "--external-scores", "x.jsonl",
                "--topk", "9", "--report", "r.json"]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((workdir / "r.json").read_text())
    assert report["overall"] == pytest.approx(0.75, abs=1e-8)


def test_eval_set_score_does_not_depend_on_output_order(workdir):
    # two assignments tie within 1e-9; the set score is the optimum of one
    # canonical matrix, whichever order the outputs come in
    make_examples(workdir / "u.jsonl", n=1)
    near = 0.5 + 5e-10
    reports = []
    for outputs, scores in ((("a", "b"), [[0.5, near], [near, 0.5]]),
                            (("b", "a"), [[near, 0.5], [0.5, near]])):
        make_generations(workdir / "g.jsonl", n=1, runs=(outputs,))
        write_jsonl(workdir / "x.jsonl", [{"example_id": "e0", "scores": scores}])
        assert run(["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
                    "--metric", "external", "--external-scores", "x.jsonl",
                    "--topk", "2", "--report", "r.json"]) == 0
        reports.append((workdir / "r.json").read_bytes())
    assert reports[0] == reports[1]
    # the optimum 2 * near over two references, at 9 significant digits
    assert json.loads(reports[0])["overall"] == 0.500000001


def test_eval_rejects_an_empty_run(workdir, capsys):
    write_jsonl(workdir / "u.jsonl", [
        {"example_id": "r01", "type": "Desire", "references": ["they want rest"],
         "dialogue": [{"speaker": "Speaker (B)", "text": "hello there"}]}])
    write_jsonl(workdir / "g.jsonl", [
        {"example_id": "r01", "mode": "polymorphic", "runs": [[]]}])
    assert run(["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
                "--metric", "bleu", "--topk", "5", "--report", "r.json"]) == 1
    assert capsys.readouterr().err == "error: g.jsonl:1: example 'r01': empty run\n"
    assert sorted(p.name for p in workdir.iterdir()) == ["g.jsonl", "u.jsonl"]


def test_eval_makes_one_solve_per_set_score(workdir, monkeypatch):
    from polyeval import assignment

    # tie-dense matrices: no optimum is unique, and each set score is one solve
    matrices = [np.ones((5, 3)), np.eye(4)[[0, 0, 1, 2, 3]], np.full((2, 5), 0.5),
                np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])]
    assert not any(assignment.solve_max(m).unique for m in matrices)
    write_jsonl(workdir / "u.jsonl", [
        {"example_id": f"e{i}", "type": "Desire", "references": [f"r{j}" for j in range(n)],
         "dialogue": [{"speaker": "Speaker (B)", "text": "hello there"}]}
        for i, (_, n) in enumerate(m.shape for m in matrices)])
    write_jsonl(workdir / "g.jsonl", [
        {"example_id": f"e{i}", "mode": "monomorphic_beam",
         "runs": [[f"o{j}" for j in range(len(m))]]} for i, m in enumerate(matrices)])
    write_jsonl(workdir / "x.jsonl", [{"example_id": f"e{i}", "scores": m.tolist()}
                                      for i, m in enumerate(matrices)])
    calls = []
    solve = assignment._solve
    monkeypatch.setattr(assignment, "_solve", lambda a: calls.append(a.shape) or solve(a))
    assert run(["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
                "--metric", "external", "--external-scores", "x.jsonl",
                "--topk", "5", "--report", "r.json"]) == 0
    assert sorted(calls) == sorted(m.shape for m in matrices)


@pytest.mark.parametrize("topk", ["1", "5"])
def test_eval_with_no_examples_fails_cleanly(workdir, capsys, topk):
    (workdir / "u.jsonl").write_text("")
    make_generations(workdir / "g.jsonl")
    argv = ["eval", "--examples", "u.jsonl", "--generations", "g.jsonl",
            "--topk", topk, "--report", "r.json"]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: no examples to report on\n"
    assert not (workdir / "r.json").exists()


# --- normalize -------------------------------------------------------------------


def test_normalize_writes_unified_and_counts_exclusions(workdir):
    write_jsonl(
        workdir / "raw.jsonl",
        [
            {
                "example_id": "a",
                "utterances": [
                    {"speaker": "A", "text": "one"},
                    {"speaker": "A", "text": "two"},
                    {"speaker": "B", "text": "three"},
                ],
                "type_label": "xWant",
                "inferences": ["they want tea"],
            },
            {
                "example_id": "b",
                "utterances": [{"speaker": "A", "text": "solo"}],
                "type_label": "isAfter",
                "inferences": ["dropped"],
            },
        ],
    )
    code = run(
        ["normalize", "--in", "raw.jsonl", "--source", "generic",
         "--out", "u.jsonl", "--seed", "5", "--report", "r.json"]
    )
    assert code == 0
    report = json.loads((workdir / "r.json").read_text())
    assert report["examples"] == 1
    assert report["excluded"] == 1
    assert report["by_type"] == {"Desire": 1}
    rows = [rec for _, rec in read_jsonl(workdir / "u.jsonl")]
    assert rows[0]["dialogue"][0]["text"] == "one two"
    assert rows[0]["question"] == "What does Speaker want to do next?"


@pytest.mark.parametrize("out", ["adir", ""], ids=["directory", "empty"])
def test_normalize_to_a_directory_or_empty_path_writes_nothing(workdir, capsys, out):
    write_jsonl(workdir / "raw.jsonl", [
        {"example_id": "a", "source": "generic",
         "utterances": [{"speaker": "A", "text": "hi"}],
         "type_label": "Desire", "inferences": ["they want rest"]},
    ])
    (workdir / "adir").mkdir()
    code = run(["normalize", "--in", "raw.jsonl", "--source", "generic",
                "--out", out, "--report", "r.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.endswith(f": {out!r}\n")
    assert err.count("\n") == 1 and ".tmp" not in err
    assert sorted(p.name for p in workdir.iterdir()) == ["adir", "raw.jsonl"]
    assert list((workdir / "adir").iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["normalize", "--in", "raw.jsonl", "--source", "generic",
     "--out", "r.json", "--report", "r.json"],
    ["normalize", "--in", "raw.jsonl", "--source", "generic",
     "--out", "./r.json", "--report", "r.json"],
    ["diversity", "--generations", "g.jsonl", "--gold-clusters", "gold.jsonl",
     "--out-clusters", "r.json", "--report", "./r.json"],
], ids=["normalize_same_path", "normalize_dot_path", "diversity_dot_path"])
def test_two_outputs_naming_one_file_write_nothing(workdir, capsys, argv):
    write_jsonl(workdir / "raw.jsonl", [
        {"example_id": "a", "source": "generic",
         "utterances": [{"speaker": "A", "text": "hi"}],
         "type_label": "Desire", "inferences": ["they want rest"]},
    ])
    make_generations(workdir / "g.jsonl", n=1)
    write_jsonl(workdir / "gold.jsonl", [{"example_id": "e0", "clusters": [[0], [1]]}])
    (workdir / "r.json").write_text("old\n")
    assert run(argv) == 2
    first, second = (argv[i + 1] for i, word in enumerate(argv)
                     if word in ("--out", "--out-clusters", "--report"))
    assert capsys.readouterr().err == (
        f"i/o error: two outputs name one file: {first!r} and {second!r}\n")
    assert (workdir / "r.json").read_text() == "old\n"
    assert sorted(p.name for p in workdir.iterdir()) == [
        "g.jsonl", "gold.jsonl", "r.json", "raw.jsonl"]


def test_normalize_unknown_label_fails(workdir, capsys):
    write_jsonl(
        workdir / "raw.jsonl",
        [{
            "example_id": "a",
            "utterances": [{"speaker": "A", "text": "one"}],
            "type_label": "notAType",
            "inferences": ["x"],
        }],
    )
    code = run(["normalize", "--in", "raw.jsonl", "--source", "generic",
                "--out", "u.jsonl", "--report", "r.json"])
    assert code == 1
    assert "notAType" in capsys.readouterr().err


def test_normalize_rejects_repeated_raw_example_id(workdir, capsys):
    raw = {
        "example_id": "a",
        "utterances": [{"speaker": "A", "text": "hi"}],
        "type_label": "xWant",
        "inferences": ["rest"],
    }
    write_jsonl(workdir / "raw.jsonl", [raw, dict(raw, example_id="b"), raw])
    code = run(["normalize", "--in", "raw.jsonl", "--source", "generic",
                "--out", "u.jsonl", "--report", "r.json"])
    assert code == 1
    assert capsys.readouterr().err == "error: raw.jsonl:3: duplicate example 'a'\n"
    assert sorted(p.name for p in workdir.iterdir()) == ["raw.jsonl"]


def test_normalize_rejects_a_record_without_utterances(workdir, capsys):
    write_jsonl(workdir / "raw.jsonl", [{"example_id": "r01", "utterances": [],
                                         "type_label": "xWant", "inferences": ["rest"]}])
    code = run(["normalize", "--in", "raw.jsonl", "--source", "generic",
                "--out", "u.jsonl", "--report", "r.json"])
    assert code == 1
    assert capsys.readouterr().err == "error: raw.jsonl:1: example 'r01': no utterances\n"
    assert sorted(p.name for p in workdir.iterdir()) == ["raw.jsonl"]


# --- diversity / datastats ---------------------------------------------------------


def test_diversity_with_gold_clusters(workdir):
    make_generations(
        workdir / "g.jsonl", n=1,
        runs=(("they feel proud", "they feel happy", "they want rest"),),
    )
    write_jsonl(
        workdir / "emb.jsonl",
        [
            {"key": text_key("they feel proud"), "vector": [1.0, 0.0, 0.1]},
            {"key": text_key("they feel happy"), "vector": [1.0, 0.0, 0.0]},
            {"key": text_key("they want rest"), "vector": [0.0, 1.0, 0.0]},
        ],
    )
    write_jsonl(workdir / "gold.jsonl", [{"example_id": "e0", "clusters": [[0, 1], [2]]}])
    code = run(
        ["diversity", "--generations", "g.jsonl", "--embeddings", "emb.jsonl",
         "--tau", "0.8", "--gold-clusters", "gold.jsonl",
         "--out-clusters", "pred.jsonl", "--report", "r.json"]
    )
    assert code == 0
    report = json.loads((workdir / "r.json").read_text())
    assert report["avg_clusters"] == 2.0
    assert report["bcubed"]["f1"] == pytest.approx(1.0, abs=1e-12)
    pred = [rec for _, rec in read_jsonl(workdir / "pred.jsonl")]
    assert pred[0]["clusters"] == [[0, 1], [2]]


def test_diversity_counts_dropped_duplicate_outputs(workdir):
    make_generations(workdir / "g.jsonl", n=1,
                     runs=(("they feel proud", "they feel  proud", "they want rest"),))
    write_jsonl(workdir / "gold.jsonl", [{"example_id": "e0", "clusters": [[0], [1]]}])
    assert run(["diversity", "--generations", "g.jsonl", "--gold-clusters", "gold.jsonl",
                "--report", "r.json"]) == 0
    report = json.loads((workdir / "r.json").read_text())
    assert report["warnings"] == ["dropped_duplicate_outputs:1"]


@pytest.mark.parametrize("flags", [
    ["--embeddings", "", "--gold-clusters", "gold.jsonl"],
    ["--gold-clusters", "gold.jsonl", "--out-clusters", ""],
], ids=["embeddings", "out_clusters"])
def test_diversity_treats_an_empty_path_as_a_path(workdir, capsys, flags):
    make_generations(workdir / "g.jsonl", n=1)
    write_jsonl(workdir / "gold.jsonl", [{"example_id": "e0", "clusters": [[0], [1]]}])
    assert run(["diversity", "--generations", "g.jsonl", *flags, "--report", "r.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.endswith(": ''\n")
    assert err.count("\n") == 1
    assert sorted(p.name for p in workdir.iterdir()) == ["g.jsonl", "gold.jsonl"]


def test_diversity_needs_some_clustering_source(workdir, capsys):
    make_generations(workdir / "g.jsonl", n=1)
    assert run(["diversity", "--generations", "g.jsonl", "--report", "r.json"]) == 1


def test_diversity_gold_clusters_must_cover_every_example(workdir, capsys):
    make_generations(workdir / "g.jsonl", n=2)
    write_jsonl(workdir / "gold.jsonl", [{"example_id": "e0", "clusters": [[0], [1]]}])
    code = run(["diversity", "--generations", "g.jsonl",
                "--gold-clusters", "gold.jsonl", "--report", "r.json"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: gold.jsonl: no gold clustering for example 'e1'\n"


def test_diversity_rejects_negative_topk(workdir, capsys):
    make_generations(workdir / "g.jsonl", n=1)
    write_jsonl(workdir / "gold.jsonl", [{"example_id": "e0", "clusters": [[0], [1]]}])
    code = run(["diversity", "--generations", "g.jsonl", "--gold-clusters", "gold.jsonl",
                "--topk", "-1", "--report", "r.json"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--topk" in err
    assert not (workdir / "r.json").exists()


@pytest.mark.parametrize("tau", ["5", "0", "1", "-1", "nan", "inf"])
def test_diversity_rejects_tau_outside_the_unit_interval(workdir, capsys, tau):
    # checked also when gold clusters, not --tau, decide the clustering
    make_generations(workdir / "g.jsonl", n=1)
    write_jsonl(workdir / "gold.jsonl", [{"example_id": "e0", "clusters": [[0], [1]]}])
    code = run(["diversity", "--generations", "g.jsonl", "--gold-clusters", "gold.jsonl",
                "--tau", tau, "--out-clusters", "c.jsonl", "--report", "r.json"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --tau ") and err.count("\n") == 1
    assert sorted(p.name for p in workdir.iterdir()) == ["g.jsonl", "gold.jsonl"]


def test_diversity_writes_no_clusters_when_the_report_cannot_be_written(workdir, capsys):
    make_generations(workdir / "g.jsonl", n=1)
    write_jsonl(workdir / "gold.jsonl", [{"example_id": "e0", "clusters": [[0], [1]]}])
    code = run(["diversity", "--generations", "g.jsonl", "--gold-clusters", "gold.jsonl",
                "--out-clusters", "c.jsonl", "--report", "missing/r.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'missing/r.json'" in err and ".tmp" not in err
    assert sorted(p.name for p in workdir.iterdir()) == ["g.jsonl", "gold.jsonl"]


@pytest.mark.parametrize("argv", [
    ["eval", "--examples", "unified.jsonl", "--generations", "g_dbs.jsonl",
     "--metric", "embed", "--embeddings", "one.jsonl", "--topk", "5",
     "--report", "r.json"],
    ["diversity", "--generations", "g_dbs.jsonl", "--embeddings", "one.jsonl",
     "--tau", "0.8", "--topk", "5", "--out-clusters", "c.jsonl", "--report", "r.json"],
], ids=["eval", "diversity"])
def test_missing_embedding_names_the_example_once(workdir, capsys, argv):
    for name in ("unified.jsonl", "g_dbs.jsonl"):
        (workdir / name).write_bytes((GOLDEN / name).read_bytes())
    with open(GOLDEN / "embeddings.jsonl", encoding="utf-8") as handle:
        (workdir / "one.jsonl").write_text(handle.readline())
    assert run(argv) == 1
    err = capsys.readouterr().err
    # r01 is the first example in file order (eval) and in id order (diversity)
    assert err.startswith("error: no embedding for text ") and err.count("\n") == 1
    assert err.endswith(" (example 'r01')\n") and err.count("example") == 1
    inputs = ["g_dbs.jsonl", "one.jsonl", "unified.jsonl"]
    assert sorted(p.name for p in workdir.iterdir()) == inputs


def test_datastats_report(workdir):
    make_examples(workdir / "u.jsonl", n=3)
    assert run(["datastats", "--examples", "u.jsonl", "--report", "r.json"]) == 0
    report = json.loads((workdir / "r.json").read_text())
    assert report["per_type"]["Desire"]["examples"] == 3
    assert "overall" in report


# --- stats -----------------------------------------------------------------------


def annotation_rows():
    rows = []
    # 20 items per system; X mostly positive, Y mixed; annotators disagree on
    # a few items
    for i in range(20):
        for system, base in (("X", True), ("Y", i % 2 == 0)):
            label_a = "always_likely" if base else "never_farfetched"
            flip = system == "Y" and i in (3, 5)
            label_b = (
                "sometimes_possible"
                if (base and not flip) or (not base and flip)
                else "invalid_nonsense"
            )
            for annotator, label in (("A", label_a), ("B", label_b)):
                rows.append(
                    {
                        "item_id": f"i{i}",
                        "task": "reasonability",
                        "system": system,
                        "annotator": annotator,
                        "label": label,
                    }
                )
    return rows


def test_stats_agree(workdir):
    write_jsonl(workdir / "ann.jsonl", annotation_rows())
    assert run(["stats", "agree", "--in", "ann.jsonl", "--report", "r.json"]) == 0
    report = json.loads((workdir / "r.json").read_text())
    block = report["tasks"]["reasonability"]
    assert block["n_items"] == 40
    # reproduce with the library on the same pairs
    pairs = []
    for i in range(20):
        for system, base in (("X", True), ("Y", i % 2 == 0)):
            flip = system == "Y" and i in (3, 5)
            pairs.append((base, (base and not flip) or (not base and flip)))
    assert block["ac1"] == pytest.approx(gwet_ac1(pairs), rel=1e-7)
    assert block["kappa"] == pytest.approx(cohen_kappa(pairs), rel=1e-7)


def test_stats_agree_scores_each_task_of_one_file_alone(workdir):
    rows = annotation_rows()
    as_novelty = {"always_likely": "new_detailed", "sometimes_possible": "new_simple",
                  "never_farfetched": "purely_repetitive",
                  "invalid_nonsense": "purely_repetitive"}
    y_rows = [row for row in rows if row["system"] == "Y"]
    novelty = [dict(row, task="novelty", label=as_novelty[row["label"]]) for row in y_rows]
    files = {"all": rows, "y": y_rows, "both": novelty + rows}
    tasks = {}
    for name, file_rows in files.items():
        write_jsonl(workdir / f"{name}.jsonl", file_rows)
        assert run(["stats", "agree", "--in", f"{name}.jsonl", "--report", "r.json"]) == 0
        tasks[name] = json.loads((workdir / "r.json").read_text())["tasks"]
    assert tasks["both"] == {"novelty": tasks["y"]["reasonability"],
                             "reasonability": tasks["all"]["reasonability"]}
    assert tasks["y"] != tasks["all"]


def test_stats_rejects_duplicate_annotation(workdir, capsys):
    rows = annotation_rows()
    relabel = dict(rows[0], label="invalid_nonsense")
    write_jsonl(workdir / "ann.jsonl", rows + [relabel])
    assert run(["stats", "agree", "--in", "ann.jsonl", "--report", "r.json"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"ann.jsonl:{len(rows) + 1}: duplicate annotation" in err
    assert not (workdir / "r.json").exists()


@pytest.mark.parametrize("command", ["agree", "mcnemar"])
@pytest.mark.parametrize("field,value,error", [
    ("task", "typo", "task must be reasonability or novelty, got 'typo'"),
    ("system", "Z", "system must be X or Y, got 'Z'"),
    ("annotator", "C", "annotator must be A or B, got 'C'"),
    ("task", "novelty", "label 'always_likely' is not a novelty label"),
])
def test_stats_rejects_annotation_values_outside_the_format(workdir, capsys, command,
                                                            field, value, error):
    rows = annotation_rows()
    line = next(i for i, row in enumerate(rows, 1) if row["label"] == "always_likely")
    rows[line - 1] = dict(rows[line - 1], **{field: value})
    write_jsonl(workdir / "ann.jsonl", rows)
    assert run(["stats", command, "--in", "ann.jsonl", "--report", "r.json"]) == 1
    assert capsys.readouterr().err == f"error: ann.jsonl:{line}: {error}\n"
    assert not (workdir / "r.json").exists()


@pytest.mark.parametrize("command, keep, error", [
    ("agree", lambda row: (row["item_id"], row["system"], row["annotator"]) != ("i3", "X", "B"),
     "item 'X:i3' needs exactly annotators A and B, has ['A']"),
    ("mcnemar", lambda row: row["system"] == "X",
     "task 'reasonability' needs annotations for both systems X and Y"),
    ("mcnemar", lambda row: (row["system"] == "X") == (row["item_id"] < "i2"),
     "task 'reasonability' has no items shared by X and Y"),
    # an item of one system only is checked too, although the test skips it
    ("mcnemar", lambda row: row["item_id"] != "i19" or (row["system"], row["annotator"])
     == ("X", "A"), "item 'X:i19' needs exactly annotators A and B, has ['A']"),
], ids=["agree_without_annotator_b", "mcnemar_only_x", "mcnemar_nothing_shared",
        "mcnemar_unshared_item_without_annotator_b"])
def test_stats_rejects_annotations_it_cannot_pair(workdir, capsys, command, keep, error):
    write_jsonl(workdir / "ann.jsonl", [row for row in annotation_rows() if keep(row)])
    assert run(["stats", command, "--in", "ann.jsonl", "--report", "s.json"]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (workdir / "s.json").exists()


def test_stats_mcnemar_deterministic(workdir):
    write_jsonl(workdir / "ann.jsonl", annotation_rows())
    argv = ["stats", "mcnemar", "--in", "ann.jsonl", "--repeats", "25",
            "--seed", "11", "--report", "m1.json"]
    assert run(argv) == 0
    assert run(argv[:-1] + ["m2.json"]) == 0
    assert (workdir / "m1.json").read_bytes() == (workdir / "m2.json").read_bytes()
    report = json.loads((workdir / "m1.json").read_text())
    block = report["tasks"]["reasonability"]
    assert block["repeats"] == 25
    assert 0.0 <= block["mean_rate_y"] <= 1.0
    assert isinstance(block["significant"], bool)


def test_stats_mcnemar_rejects_negative_seed(workdir, capsys):
    write_jsonl(workdir / "ann.jsonl", annotation_rows())
    argv = ["stats", "mcnemar", "--in", "ann.jsonl", "--seed", "-1", "--report", "m.json"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: --seed must be in [0, inf), got -1\n"
    assert not (workdir / "m.json").exists()


def test_stats_prop(workdir):
    assert run(["stats", "prop", "--successes", "93,75", "--trials", "100,100",
                "--report", "p.json"]) == 0
    report = json.loads((workdir / "p.json").read_text())
    assert report["statistic"] == pytest.approx(675 / 56, rel=1e-7)
    assert report["significant"] is True
    assert report["df"] == 1


def test_stats_prop_rejects_a_count_that_is_not_an_integer(workdir, capsys):
    assert run(["stats", "prop", "--successes", "9,x", "--trials", "10,10",
                "--report", "p.json"]) == 1
    assert capsys.readouterr().err == (
        "error: --successes must be a comma-separated integer list\n")
    assert not (workdir / "p.json").exists()


def test_stats_ttest(workdir):
    write_jsonl(
        workdir / "scores.jsonl",
        [
            {"name": "m1", "values": [0.8, 0.7, 0.9, 0.65, 0.85]},
            {"name": "m2", "values": [0.75, 0.72, 0.8, 0.6, 0.8]},
            {"name": "m3", "values": [0.5, 0.45, 0.6, 0.4, 0.55]},
        ],
    )
    assert run(["stats", "ttest", "--scores", "scores.jsonl", "--report", "t.json"]) == 0
    report = json.loads((workdir / "t.json").read_text())
    assert report["m"] == 3
    assert len(report["pairs"]) == 3
    for pair in report["pairs"]:
        assert pair["p_adjusted"] == pytest.approx(
            min(1.0, pair["p_value"] * 3), rel=1e-7
        )


def test_stats_ttest_rejects_repeated_name(workdir, capsys):
    write_jsonl(
        workdir / "scores.jsonl",
        [
            {"name": "m1", "values": [0.8, 0.7, 0.9]},
            {"name": "m2", "values": [0.75, 0.72, 0.8]},
            {"name": "m1", "values": [0.5, 0.45, 0.6]},
        ],
    )
    assert run(["stats", "ttest", "--scores", "scores.jsonl", "--report", "t.json"]) == 1
    assert capsys.readouterr().err == "error: scores.jsonl:3: duplicate name 'm1'\n"
    assert not (workdir / "t.json").exists()


@pytest.mark.parametrize("name", ["", " ", "\t"])
def test_stats_ttest_rejects_a_blank_name(workdir, capsys, name):
    write_jsonl(workdir / "scores.jsonl", [{"name": "m1", "values": [0.8, 0.7, 0.9]},
                                           {"name": name, "values": [0.5, 0.45, 0.6]}])
    assert run(["stats", "ttest", "--scores", "scores.jsonl", "--report", "t.json"]) == 1
    assert capsys.readouterr().err == "error: scores.jsonl:2: name is blank\n"
    assert not (workdir / "t.json").exists()


def test_stats_ttest_keeps_names_as_given(workdir):
    write_jsonl(workdir / "scores.jsonl", [{"name": " m1 ", "values": [0.8, 0.7, 0.9]},
                                           {"name": "m1", "values": [0.5, 0.45, 0.6]}])
    assert run(["stats", "ttest", "--scores", "scores.jsonl", "--report", "t.json"]) == 0
    [pair] = json.loads((workdir / "t.json").read_text())["pairs"]
    assert (pair["x"], pair["y"]) == (" m1 ", "m1")


SIGNIFICANCE_ARGV = {
    "mcnemar": ["stats", "mcnemar", "--in", "ann.jsonl", "--repeats", "5"],
    "prop": ["stats", "prop", "--successes", "9,7", "--trials", "10,10"],
    "ttest": ["stats", "ttest", "--scores", "scores.jsonl"],
}


def write_significance_inputs(workdir):
    write_jsonl(workdir / "ann.jsonl", annotation_rows())
    write_jsonl(workdir / "scores.jsonl", [
        {"name": "m1", "values": [0.8, 0.7, 0.9, 0.65, 0.85]},
        {"name": "m2", "values": [0.75, 0.72, 0.8, 0.6, 0.8]},
    ])


@pytest.mark.parametrize("command", SIGNIFICANCE_ARGV)
@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "-1", "0", "1"])
def test_stats_rejects_alpha_outside_unit_interval(workdir, capsys, command, alpha):
    write_significance_inputs(workdir)
    argv = SIGNIFICANCE_ARGV[command] + [f"--alpha={alpha}", "--report", "r.json"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --alpha must be in (0, 1), got ") and err.count("\n") == 1
    assert not (workdir / "r.json").exists()


def assert_ttest_rejects_m(workdir, capsys, m):
    write_significance_inputs(workdir)
    argv = SIGNIFICANCE_ARGV["ttest"] + ["--m", m, "--report", "r.json"]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: --m must be in [1, 1e308], got {m}\n"
    assert not (workdir / "r.json").exists()


@pytest.mark.parametrize("m", ["0", "-1"])
def test_stats_ttest_rejects_m_below_1(workdir, capsys, m):
    assert_ttest_rejects_m(workdir, capsys, m)


@pytest.mark.parametrize("m", [str(int(1e308) + 1), "1" + "0" * 400],
                         ids=["bound_plus_1", "1e400"])
def test_stats_ttest_rejects_m_beyond_the_float_range(workdir, capsys, m):
    # above 1e308, a p-value times m would overflow
    assert_ttest_rejects_m(workdir, capsys, m)


def test_stats_ttest_takes_m_at_its_bound(workdir):
    write_significance_inputs(workdir)
    m = int(1e308)
    assert run(SIGNIFICANCE_ARGV["ttest"] + ["--m", str(m), "--report", "r.json"]) == 0
    report = json.loads((workdir / "r.json").read_text())
    (pair,) = report["pairs"]
    assert report["m"] == m
    assert pair["p_adjusted"] == min(1.0, pair["p_value"] * m) == 1.0


# --- decode ------------------------------------------------------------------------


TOY_LM = {
    "order": 2,
    "end_token": "</s>",
    "vocab": ["(1)", "; (2)", "left", "right", "</s>"],
    "cond": [
        {"context": [], "probs": {"(1)": 1.0}},
        {"context": ["(1)"], "probs": {"left": 0.6, "right": 0.4}},
        {"context": ["left"], "probs": {"; (2)": 0.3, "</s>": 0.7}},
        {"context": ["right"], "probs": {"</s>": 1.0}},
        {"context": ["; (2)"], "probs": {"right": 1.0}},
    ],
}


def test_decode_strategies(workdir):
    (workdir / "lm.json").write_text(json.dumps(TOY_LM))
    make_examples(workdir / "u.jsonl", n=2)
    for strategy, mode in (
        ("beam", "monomorphic_beam"),
        ("dbs", "monomorphic_diverse_beam"),
        ("poly", "polymorphic"),
    ):
        code = run(
            ["decode", "--lm", "lm.json", "--examples", "u.jsonl",
             "--strategy", strategy, "--beams", "4", "--groups", "4",
             "--penalty", "0.5", "--runs", "3", "--seed", "3",
             "--max-len", "6", "--out", f"g_{strategy}.jsonl",
             "--report", f"r_{strategy}.json"]
        )
        assert code == 0
        rows = [rec for _, rec in read_jsonl(workdir / f"g_{strategy}.jsonl")]
        assert len(rows) == 2
        for row in rows:
            gen_set, _ = validate_generation_set(row)
            assert gen_set.mode.value == mode
        report = json.loads((workdir / f"r_{strategy}.json").read_text())
        assert report["examples"] == 2
        if strategy == "poly":
            assert report["config"]["rep_penalty"] == 5.0  # polymorphic preset
        else:
            assert report["config"]["rep_penalty"] == 1.0


def test_decode_poly_from_beams(workdir):
    (workdir / "lm.json").write_text(json.dumps(TOY_LM))
    make_examples(workdir / "u.jsonl", n=1)
    code = run(
        ["decode", "--lm", "lm.json", "--examples", "u.jsonl", "--strategy",
         "poly", "--poly-from-beams", "--runs", "2", "--beams", "4",
         "--rep-penalty", "1.0", "--max-len", "6", "--seed", "0",
         "--out", "g.jsonl", "--report", "r.json"]
    )
    assert code == 0
    rows = [rec for _, rec in read_jsonl(workdir / "g.jsonl")]
    # top beams parsed as numbered lists: "(1) left" -> ["left"], ...
    assert rows[0]["runs"][0] == ["left"]
    assert len(rows[0]["runs"]) == 2


DECODE_BASE = ["decode", "--lm", "lm.json", "--examples", "u.jsonl",
               "--out", "g.jsonl", "--report", "r.json"]


@pytest.mark.parametrize("strategy", [
    ["--strategy", "beam", "--beams", "4"],
    ["--strategy", "dbs", "--beams", "4", "--groups", "2", "--penalty", "0.5"],
    ["--strategy", "poly", "--poly-from-beams", "--runs", "2", "--beams", "4"],
], ids=["beam", "dbs", "poly_from_beams"])
def test_decode_searches_once_per_command(workdir, monkeypatch, strategy):
    # the scorer sees only the prefix, so neither the search cost nor the
    # generation sets built from it may grow with the number of examples
    (workdir / "lm.json").write_text(json.dumps(TOY_LM))
    logprobs = NgramLM.logprobs
    calls = []
    builds = []

    def counting(self, prefix):
        calls.append(prefix)
        return logprobs(self, prefix)

    def packing(example_id, *args, **kwargs):
        builds.append(example_id)
        return pack_runs(example_id, *args, **kwargs)

    monkeypatch.setattr(NgramLM, "logprobs", counting)
    # pack_runs is where cli turns decoded sequences into a generation set
    pack_runs = cli.pack_runs
    monkeypatch.setattr(cli, "pack_runs", packing)
    counts = []
    for n in (1, 3):
        make_examples(workdir / "u.jsonl", n=n)
        calls.clear()
        builds.clear()
        assert run(DECODE_BASE + strategy + ["--max-len", "6"]) == 0
        counts.append(len(calls))
        assert builds == ["e0"]
        rows = [rec for _, rec in read_jsonl(workdir / "g.jsonl")]
        assert [row["example_id"] for row in rows] == [f"e{i}" for i in range(n)]
        assert all(row["runs"] == rows[0]["runs"] for row in rows)
    assert counts[0] > 0
    assert counts[0] == counts[1]


SEARCH_STRATEGIES = {
    "beam": ["--strategy", "beam"],
    "dbs": ["--strategy", "dbs", "--groups", "2"],
    "poly_from_beams": ["--strategy", "poly", "--poly-from-beams"],
}


@pytest.mark.parametrize("strategy", [*SEARCH_STRATEGIES.values(), ["--strategy", "poly"]],
                         ids=[*SEARCH_STRATEGIES, "poly"])
def test_decode_of_no_examples_writes_an_empty_file(workdir, strategy):
    (workdir / "lm.json").write_text(json.dumps(TOY_LM))
    (workdir / "u.jsonl").write_text("")
    assert run(DECODE_BASE + strategy + ["--beams", "4"]) == 0
    report = json.loads((workdir / "r.json").read_text())
    assert report["examples"] == 0
    monomorphic = "poly" not in strategy
    assert report["warnings"] == (["max_len_without_end:0"] if monomorphic else [])
    assert (workdir / "g.jsonl").read_text() == ""


@pytest.mark.parametrize("strategy", SEARCH_STRATEGIES.values(), ids=SEARCH_STRATEGIES)
def test_decode_search_fails_even_without_examples(workdir, capsys, strategy):
    # the search does not depend on the examples, so it runs, and fails, first
    lm = dict(TOY_LM, cond=[row for row in TOY_LM["cond"] if row["context"] != ["; (2)"]])
    (workdir / "lm.json").write_text(json.dumps(lm))
    (workdir / "u.jsonl").write_text("")
    assert run(DECODE_BASE + strategy + ["--beams", "4"]) == 1
    assert capsys.readouterr().err == "error: no distribution for context ('; (2)',)\n"
    assert sorted(p.name for p in workdir.iterdir()) == ["lm.json", "u.jsonl"]


def test_decode_of_an_lm_without_cond_has_no_distribution(workdir, capsys):
    # order and end_token take their defaults, and cond is empty
    (workdir / "lm.json").write_text(json.dumps({"vocab": ["a", "</s>"]}))
    make_examples(workdir / "u.jsonl", n=1)
    assert run(DECODE_BASE + ["--strategy", "beam"]) == 1
    assert capsys.readouterr().err == "error: no distribution for context ()\n"
    assert sorted(p.name for p in workdir.iterdir()) == ["lm.json", "u.jsonl"]


def test_decode_poly_counts_dropped_duplicates_in_total(workdir):
    # every run decodes "(1) same ; (2) same" and drops the second item
    lm = {
        "order": 3,
        "end_token": "</s>",
        "vocab": ["(1)", "; (2)", "same", "</s>"],
        "cond": [
            {"context": [], "probs": {"(1)": 1.0}},
            {"context": ["(1)"], "probs": {"same": 1.0}},
            {"context": ["(1)", "same"], "probs": {"; (2)": 1.0}},
            {"context": ["same", "; (2)"], "probs": {"same": 1.0}},
            {"context": ["; (2)", "same"], "probs": {"</s>": 1.0}},
        ],
    }
    (workdir / "lm.json").write_text(json.dumps(lm))
    make_examples(workdir / "u.jsonl", n=2)
    assert run(DECODE_BASE + ["--strategy", "poly", "--runs", "3"]) == 0
    rows = [rec for _, rec in read_jsonl(workdir / "g.jsonl")]
    assert [row["runs"] for row in rows] == [[["same"]] * 3] * 2
    report = json.loads((workdir / "r.json").read_text())
    assert report["warnings"] == ["dropped_duplicates:6"]


def test_decode_poly_from_beams_drops_end_only_beam(workdir):
    # the top beam is the end token alone (score log 0.9 against log(0.1)/3)
    lm = {
        "order": 2,
        "end_token": "</s>",
        "vocab": ["(1)", "left", "</s>"],
        "cond": [
            {"context": [], "probs": {"</s>": 0.9, "(1)": 0.1}},
            {"context": ["(1)"], "probs": {"left": 1.0}},
            {"context": ["left"], "probs": {"</s>": 1.0}},
        ],
    }
    (workdir / "lm.json").write_text(json.dumps(lm))
    make_examples(workdir / "u.jsonl", n=2)
    code = run(DECODE_BASE + ["--strategy", "poly", "--poly-from-beams",
                              "--runs", "2", "--beams", "2"])
    assert code == 0
    rows = [rec for _, rec in read_jsonl(workdir / "g.jsonl")]
    assert [row["runs"] for row in rows] == [[["left"]]] * 2
    report = json.loads((workdir / "r.json").read_text())
    assert report["warnings"] == ["empty_run_dropped:2"]


def test_decode_rejects_zero_max_len(workdir, capsys):
    (workdir / "lm.json").write_text(json.dumps(TOY_LM))
    make_examples(workdir / "u.jsonl", n=1)
    assert run(DECODE_BASE + ["--strategy", "poly", "--max-len", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--max-len must be in [1, 1000], got 0" in err and "Traceback" not in err


@pytest.mark.parametrize("args, message", [
    (["--rep-penalty", "-3"], "--rep-penalty must be in [1, inf), got -3.0"),
    (["--rep-penalty", "0.5"], "--rep-penalty must be in [1, inf), got 0.5"),
    (["--poly-from-beams", "--runs", "0"], "--runs must be in [1, 1000], got 0"),
], ids=["rep_penalty_negative", "rep_penalty_below_1", "from_beams_runs_0"])
def test_decode_poly_rejects_bad_args(workdir, capsys, args, message):
    (workdir / "lm.json").write_text(json.dumps(TOY_LM))
    make_examples(workdir / "u.jsonl", n=1)
    assert run(DECODE_BASE + ["--strategy", "poly"] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not (workdir / "g.jsonl").exists()


@pytest.mark.parametrize("strategy, args", [
    ("poly", ["--seed", "-1"]),
    ("poly", ["--temperature", "nan"]),
    ("poly", ["--temperature", "inf"]),
    ("dbs", ["--groups", "2", "--beams", "4", "--penalty", "nan"]),
    ("dbs", ["--groups", "2", "--beams", "4", "--penalty", "inf"]),
    ("beam", ["--rep-penalty", "nan"]),
    ("beam", ["--rep-penalty", "inf"]),
    ("poly", ["--rep-penalty", "nan"]),
    ("poly", ["--rep-penalty", "inf"]),
], ids=["seed_negative", "temperature_nan", "temperature_inf", "penalty_nan",
        "penalty_inf", "beam_rep_penalty_nan", "beam_rep_penalty_inf",
        "poly_rep_penalty_nan", "poly_rep_penalty_inf"])
def test_decode_rejects_out_of_range_numbers(workdir, capsys, strategy, args):
    (workdir / "lm.json").write_text(json.dumps(TOY_LM))
    make_examples(workdir / "u.jsonl", n=1)
    assert run(DECODE_BASE + ["--strategy", strategy] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(p.name for p in workdir.iterdir()) == ["lm.json", "u.jsonl"]


@pytest.mark.filterwarnings("error")  # a numpy warning would print to stderr
def test_decode_poly_rejects_a_temperature_that_overflows_every_token(workdir, capsys):
    for name in ("toy_poly.lm.json", "unified.jsonl"):
        (workdir / name).write_bytes((GOLDEN / name).read_bytes())
    argv = ["decode", "--lm", "toy_poly.lm.json", "--examples", "unified.jsonl",
            "--strategy", "poly", "--runs", "3", "--temperature", "5e-324",
            "--max-len", "12", "--seed", "7", "--out", "g.jsonl", "--report", "r.json"]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        "error: temperature 5e-324 is too small: every token's scaled log-probability "
        "overflows; use 0 for greedy decoding\n")
    assert sorted(p.name for p in workdir.iterdir()) == ["toy_poly.lm.json", "unified.jsonl"]


@pytest.mark.parametrize("strategy", ["beam", "dbs", "poly"])
def test_decode_rejects_negative_seed_for_every_strategy(workdir, capsys, strategy):
    (workdir / "lm.json").write_text(json.dumps(TOY_LM))
    make_examples(workdir / "u.jsonl", n=1)
    argv = DECODE_BASE + ["--strategy", strategy, "--beams", "4", "--groups", "2",
                          "--seed", "-1"]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: --seed must be in [0, inf), got -1\n"
    assert sorted(p.name for p in workdir.iterdir()) == ["lm.json", "u.jsonl"]


@pytest.mark.parametrize("strategy, flag, message", [
    ("beam", "--groups=-1", "--groups must be in [1, inf), got -1"),
    ("beam", "--groups=0", "--groups must be in [1, inf), got 0"),
    ("poly", "--beams=-1", "--beams must be in [1, 1000], got -1"),
    ("poly", "--groups=0", "--groups must be in [1, inf), got 0"),
    ("beam", "--penalty=nan", "--penalty must be in [0, inf), got nan"),
    ("beam", "--penalty=-1", "--penalty must be in [0, inf), got -1.0"),
    ("poly", "--penalty=inf", "--penalty must be in [0, inf), got inf"),
    ("beam", "--temperature=nan", "--temperature must be in [0, inf), got nan"),
    ("dbs", "--temperature=-1", "--temperature must be in [0, inf), got -1.0"),
    ("beam", "--runs=0", "--runs must be in [1, 1000], got 0"),
    ("dbs", "--runs=-1", "--runs must be in [1, 1000], got -1"),
], ids=["beam_groups_negative", "beam_groups_0", "poly_beams_negative", "poly_groups_0",
        "beam_penalty_nan", "beam_penalty_negative", "poly_penalty_inf",
        "beam_temperature_nan", "dbs_temperature_negative", "beam_runs_0",
        "dbs_runs_negative"])
def test_decode_rejects_out_of_range_flags_the_strategy_ignores(
        workdir, capsys, strategy, flag, message):
    (workdir / "lm.json").write_text(json.dumps(TOY_LM))
    make_examples(workdir / "u.jsonl", n=1)
    assert run(DECODE_BASE + ["--strategy", strategy, "--beams", "4", "--groups", "2",
                              flag]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in workdir.iterdir()) == ["lm.json", "u.jsonl"]


@pytest.mark.parametrize("argv, error", [
    (["decode", "--lm", "missing.json", "--examples", "missing.jsonl", "--strategy", "dbs",
      "--beams", "4", "--groups", "3", "--out", "g.jsonl"],
     "beams (4) must be divisible by groups (3)"),
    (["diversity", "--generations", "missing.jsonl"],
     "diversity needs --embeddings or --gold-clusters"),
], ids=["decode_dbs_groups", "diversity_clustering_source"])
def test_cross_flag_errors_come_before_any_file_is_read(workdir, capsys, argv, error):
    assert run(argv + ["--report", "r.json"]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("edit, message", [
    (lambda lm: lm.update(order="x"), "order must be an integer"),
    (lambda lm: lm.update(order=2.7), "order must be an integer"),
    (lambda lm: lm.update(order=True), "order must be an integer"),
    (lambda lm: lm.update(vocab="abc"), "vocab must be a list of strings"),
    (lambda lm: lm["vocab"].append(5), "vocab must be a list of strings"),
    (lambda lm: lm.update(end_token=5), "end_token must be a string"),
    (lambda lm: lm.update(cond={}), "cond must be a list of objects"),
    (lambda lm: lm["cond"].insert(0, 5), "cond must be a list of objects"),
    (lambda lm: lm["cond"][1].update(context="they"),
     "context must be a list of strings"),
    (lambda lm: lm["cond"][1].update(context=[5]), "context must be a list of strings"),
    (lambda lm: lm["cond"][0].update(probs=[1.0]),
     "probs must be an object of numbers"),
    (lambda lm: lm["cond"][0]["probs"].update(they="0.5x"),
     "probs must be an object of numbers"),
    (lambda lm: lm["cond"][0]["probs"].update(they=True),
     "probs must be an object of numbers"),
    (lambda lm: lm["cond"][0]["probs"].update(they=None),
     "probs must be an object of numbers"),
    # an edit that returns text writes it instead of the config
    (lambda lm: "[]", "LM config must be a JSON object"),
    (lambda lm: "{", "malformed LM config: Expecting property name enclosed in "
     "double quotes: line 1 column 2 (char 1)"),
    (lambda lm: lm["cond"].append(lm["cond"][1]), "duplicate context ('they',)"),
    (lambda lm: lm.update(order=0), "order must be >= 1"),
    (lambda lm: lm.update(end_token="<end>"), "end token '<end>' missing from vocabulary"),
    (lambda lm: lm["vocab"].append("they"), "vocabulary has duplicate tokens"),
    (lambda lm: lm["cond"][1].update(context=["them"]),
     "context ('them',) uses unknown tokens"),
    (lambda lm: lm["cond"][0].update(probs={}), "context () has an empty distribution"),
    (lambda lm: lm["cond"][0]["probs"].update(them=0.0),
     "unknown token 'them' in distribution"),
    (lambda lm: lm.__delitem__("vocab"), "missing field 'vocab'"),
    (lambda lm: lm["cond"][0].__delitem__("probs"), "missing field 'probs'"),
    # a row without context is not read as the start-of-sequence context
    (lambda lm: lm["cond"][1].__delitem__("context"), "missing field 'context'"),
], ids=["order_string", "order_float", "order_bool", "vocab_string", "vocab_number",
        "end_token_number", "cond_object", "cond_number", "context_string",
        "context_number", "probs_list", "prob_string", "prob_bool", "prob_null",
        "not_an_object", "malformed_json", "duplicate_context", "order_0",
        "end_token_not_in_vocab", "duplicate_vocab", "context_unknown_token",
        "empty_distribution", "distribution_unknown_token", "vocab_absent",
        "probs_absent", "context_absent"])
def test_decode_rejects_lm_field_of_wrong_type(workdir, capsys, edit, message):
    lm = json.loads((GOLDEN / "toy_mono.lm.json").read_text())
    (workdir / "lm.json").write_text(edit(lm) or json.dumps(lm))
    make_examples(workdir / "u.jsonl", n=1)
    assert run(DECODE_BASE + ["--strategy", "beam", "--beams", "4"]) == 1
    assert capsys.readouterr().err == f"error: lm.json: {message}\n"
    assert sorted(p.name for p in workdir.iterdir()) == ["lm.json", "u.jsonl"]


def test_report_to_stdout(workdir, capsys):
    make_examples(workdir / "u.jsonl", n=1)
    assert run(["datastats", "--examples", "u.jsonl"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["tool"] == "datastats"
