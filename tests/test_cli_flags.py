"""The flag contract of every subcommand, walked from ``build_parser()`` so a
flag added later is covered without a new test.

- A report's ``config`` echoes every flag of its subcommand but ``--report``,
  resolved: ``infile`` is echoed as ``in``, aliases and strategy-dependent
  defaults are replaced by the values the run used.
- Every ``int`` or ``float`` flag, given NaN, an infinity, -1, 0, 2**64 or
  a word, either runs or fails cleanly: exit 1 or 2, no traceback, exactly
  one stderr line with ``error:``, and no output or report file.
- Every ``int`` or ``float`` flag has a ``cli.RANGES`` entry, shown by its
  subcommand's ``--help``, and a value outside it fails with the same line
  when every input file is missing, so before any file is read.
- A flag that counts loop iterations fails above its documented bound.
"""
import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest

from polyeval.cli import RANGES, build_parser, run
from polyeval.core import validate_example, validate_generation_set
from polyeval.dataio import read_jsonl, write_jsonl
from polyeval.textmetrics import bleu, score_matrix

GOLDEN = str(Path(__file__).resolve().parent / "fixtures" / "golden")
UNIFIED = f"{GOLDEN}/unified.jsonl"
G_DBS = f"{GOLDEN}/g_dbs.jsonl"

FORMS = {
    "normalize": ["normalize", "--in", f"{GOLDEN}/raw_corpus.jsonl",
                  "--source", "generic", "--out", "out.jsonl"],
    "eval_top1": ["eval", "--examples", UNIFIED, "--generations", G_DBS,
                  "--selection", "max"],
    "eval_topk": ["eval", "--examples", UNIFIED, "--generations", G_DBS,
                  "--topk", "5", "--matching", "max", "--no-coverage-cap",
                  "--clusters", f"{GOLDEN}/clusters.jsonl"],
    "eval_external": ["eval", "--examples", UNIFIED, "--generations", G_DBS,
                      "--metric", "external", "--external-scores", "ext.jsonl"],
    "diversity": ["diversity", "--generations", G_DBS,
                  "--embeddings", f"{GOLDEN}/embeddings.jsonl",
                  "--out-clusters", "out.jsonl"],
    "diversity_gold": ["diversity", "--generations", G_DBS, "--topk", "5",
                       "--gold-clusters", f"{GOLDEN}/clusters.jsonl",
                       "--out-clusters", "out.jsonl"],
    "datastats": ["datastats", "--examples", UNIFIED],
    "stats_agree": ["stats", "agree", "--in", "ann.jsonl"],
    "stats_mcnemar": ["stats", "mcnemar", "--in", "ann.jsonl", "--repeats", "5"],
    "stats_prop": ["stats", "prop", "--successes", "9,7", "--trials", "10,10"],
    "stats_ttest": ["stats", "ttest", "--scores", "scores.jsonl"],
    "decode_beam": ["decode", "--lm", f"{GOLDEN}/toy_mono.lm.json", "--examples", UNIFIED,
                    "--strategy", "beam", "--beams", "4", "--out", "out.jsonl"],
    "decode_dbs": ["decode", "--lm", f"{GOLDEN}/toy_mono.lm.json", "--examples", UNIFIED,
                   "--strategy", "dbs", "--beams", "4", "--groups", "2",
                   "--out", "out.jsonl"],
    "decode_poly": ["decode", "--lm", f"{GOLDEN}/toy_poly.lm.json", "--examples", UNIFIED,
                    "--strategy", "poly", "--runs", "2", "--out", "out.jsonl"],
}

BAD_NUMBERS = ["nan", "inf", "-inf", "-1", "0", str(2**64), "abc"]


def _command(argv) -> str:
    """The words of the subcommand (or stats subcommand) that argv runs."""
    return " ".join(argv[: 2 if argv[0] == "stats" else 1])


def _subparser(argv):
    """The parser of the subcommand that argv runs."""
    parser = build_parser()
    for word in _command(argv).split():
        parser = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices[word]
    return parser


def _flags(argv):
    return [a for a in _subparser(argv)._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)]


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    labels = ["always_likely", "never_farfetched", "sometimes_possible"]
    write_jsonl(tmp_path / "ann.jsonl", [
        {"task": "reasonability", "system": system, "item_id": f"i{i}",
         "annotator": annotator,
         "label": labels[(i * (1 + (system == "Y")) + (annotator == "B")) % 3]}
        for i in range(12) for system in ("X", "Y") for annotator in ("A", "B")
    ])
    write_jsonl(tmp_path / "scores.jsonl", [
        {"name": "m1", "values": [0.8, 0.7, 0.9, 0.65, 0.85]},
        {"name": "m2", "values": [0.75, 0.72, 0.8, 0.6, 0.8]},
        {"name": "m3", "values": [0.5, 0.45, 0.6, 0.4, 0.55]},
    ])
    # top-1 of a monomorphic set scores its first output only
    first = {gs.example_id: gs.runs[0][:1] for gs, _ in
             (validate_generation_set(record) for _, record in read_jsonl(G_DBS))}
    write_jsonl(tmp_path / "ext.jsonl", [
        {"example_id": ex.example_id,
         "scores": score_matrix(first[ex.example_id], ex.references, bleu).tolist()}
        for ex in (validate_example(record) for _, record in read_jsonl(UNIFIED))
    ])
    return tmp_path


def _run(argv) -> tuple[int, str]:
    """cli.run in-process; argparse's exit becomes its exit code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("form", FORMS)
def test_config_echoes_every_flag_but_report(workdir, form):
    argv = FORMS[form]
    assert run(argv + ["--report", "r.json"]) == 0
    report = json.loads((workdir / "r.json").read_text())
    dests = {"in" if a.dest == "infile" else a.dest for a in _flags(argv)}
    assert set(report["config"]) == dests - {"report"}
    assert report["tool"] == (".".join(argv[:2]) if argv[0] == "stats" else argv[0])


def _config(workdir, form, *extra):
    assert run(FORMS[form] + list(extra) + ["--report", "r.json"]) == 0
    return json.loads((workdir / "r.json").read_text())["config"]


def test_config_echo_is_resolved(workdir):
    assert _config(workdir, "eval_top1")["selection"] == "maximum"
    config = _config(workdir, "eval_topk")
    assert config["matching"] == "maximum"
    assert config["coverage_cap"] is False
    assert _config(workdir, "decode_poly")["rep_penalty"] == 5.0
    assert _config(workdir, "decode_beam")["rep_penalty"] == 1.0
    assert _config(workdir, "decode_beam", "--rep-penalty", "2")["rep_penalty"] == 2.0
    config = _config(workdir, "stats_prop")
    assert (config["successes"], config["trials"]) == ([9, 7], [10, 10])
    assert _config(workdir, "normalize")["in"].endswith("raw_corpus.jsonl")


NUMBER_CASES = [
    pytest.param(form, flag, value, id=f"{form}{flag}={value}")
    for form, argv in FORMS.items()
    for action in _flags(argv) if action.type in (int, float)
    for flag in action.option_strings
    for value in BAD_NUMBERS
]


@pytest.mark.parametrize("form, flag, value", NUMBER_CASES)
def test_number_flag_runs_or_fails_cleanly(workdir, form, flag, value):
    before = sorted(p.name for p in workdir.iterdir())
    code, err = _run(FORMS[form] + [f"{flag}={value}", "--report", "r.json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert sorted(p.name for p in workdir.iterdir()) == before


def _help(argv) -> str:
    """The subcommand's --help, unwrapped."""
    return " ".join(_subparser(argv).format_help().split())


LOOP_BOUNDS = {"--repeats": 100_000, "--runs": 1_000, "--beams": 1_000, "--max-len": 1_000}


@pytest.mark.parametrize("form, flag", [
    ("stats_mcnemar", "--repeats"), ("decode_poly", "--runs"),
    ("decode_beam", "--beams"), ("decode_beam", "--max-len"),
])
def test_loop_count_above_its_bound_fails(workdir, form, flag):
    limit = LOOP_BOUNDS[flag]
    assert _run(FORMS[form] + [flag, str(limit + 1)]) == (
        1, f"error: {flag} must be in [1, {limit}], got {limit + 1}\n")
    assert f"in [1, {limit}]" in _help(FORMS[form])


def _commands(parser=None, words=()):
    """The words of every subcommand and stats subcommand."""
    subs = [a for a in (parser or build_parser())._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [list(words)]
    return [argv for name, child in subs[0].choices.items()
            for argv in _commands(child, words + (name,))]


def test_every_number_flag_has_a_range_shown_by_help():
    checked = 0
    for argv in _commands():
        for action in _flags(argv):
            if action.type in (int, float):
                flag, = action.option_strings
                assert action.help.endswith(f"in {RANGES[_command(argv)][flag]}")
                assert f"{flag} {action.dest.upper()} {action.help}" in _help(argv)
                checked += 1
    assert checked == sum(len(ranges) for ranges in RANGES.values())


INPUT_FLAGS = ("--in", "--examples", "--generations", "--lm", "--embeddings",
               "--external-scores", "--clusters", "--gold-clusters", "--scores")


def test_range_errors_come_before_any_file_is_read(workdir):
    checked = set()
    for case in NUMBER_CASES:
        form, flag, value = case.values
        argv = FORMS[form] + [f"{flag}={value}", "--report", "r.json"]
        code, err = _run(argv)
        if not err.startswith(f"error: {flag} must be "):
            continue
        assert code == 1 and err.count("\n") == 1
        missing = ["missing.jsonl" if before in INPUT_FLAGS else word
                   for before, word in zip([None] + argv, argv)]
        assert _run(missing) == (1, err)
        checked.add(_command(argv))
    # normalize's one number flag, --seed, takes any integer
    assert checked == set(RANGES) - {"normalize"}
