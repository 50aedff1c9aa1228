"""The input contract of every input format, run in-process through cli.run.

The fields come from walking ``core.FORMATS``, rows included, and every
format has a loader case here.  In an otherwise valid input file, one field
of one record (or of one row of a record) is replaced by a value of the
wrong shape (a string, an int, null, a list of strings or a nested object,
whichever the field is not), or deleted where the field has no default.
The command must exit 1 with exactly one line, ``error: <file>:<line>: ...``
naming that record's line (``error: <file>: ...`` for the LM config, one
JSON object), show no traceback and create no output file.
"""
import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyeval.cli import run
from polyeval.core import FORMATS, LABEL_SETS, REQUIRED
from polyeval.dataio import text_key

from pipeline_steps import write_jsonl

OUTPUTS = ["they feel proud", "nothing matches"]
REFERENCES = ["they feel proud", "they want rest"]


def _examples():
    return [
        {
            "example_id": f"e{i}",
            "dialogue": [
                {"speaker": "Listener (A)", "text": "hi"},
                {"speaker": "Speaker (B)", "text": "hello there"},
            ],
            "type": "Desire",
            "references": REFERENCES,
        }
        for i in range(2)
    ]


def _generations():
    return [{"example_id": f"e{i}", "mode": "monomorphic_beam", "runs": [OUTPUTS]}
            for i in range(2)]


def _embeddings():
    texts = sorted(set(OUTPUTS + REFERENCES))
    rows = [{"text": text, "vector": [1.0, float(i)]} for i, text in enumerate(texts)]
    rows[0] = {"key": text_key(texts[0]), "vector": rows[0]["vector"]}
    return rows


def _annotations():
    labels = ["always_likely", "never_farfetched", "sometimes_possible"]
    return [
        {"task": "reasonability", "system": "X", "item_id": f"i{i}",
         "annotator": annotator, "label": labels[(i + (annotator == "B")) % 3]}
        for i in range(3) for annotator in ("A", "B")
    ]


def _raw():
    return [
        {
            "example_id": f"r{i}",
            "source": "generic",
            "utterances": [{"speaker": "A", "text": "hi"}, {"speaker": "B", "text": "hello"}],
            "type_label": "xWant",
            "inferences": ["they want rest"],
        }
        for i in range(2)
    ]


def _lm():
    # one JSON object, written as a one-line file
    return [{"order": 2, "vocab": ["they", "rest", "</s>"], "end_token": "</s>",
             "cond": [{"context": [], "probs": {"they": 1.0}},
                      {"context": ["they"], "probs": {"rest": 0.5, "</s>": 0.5}},
                      {"context": ["rest"], "probs": {"</s>": 1.0}}]}]


EVAL = ["eval", "--examples", "u.jsonl", "--generations", "g.jsonl", "--report", "r.json"]
EVAL_INPUTS = {"u.jsonl": _examples, "g.jsonl": _generations}

# format: (file under test, every input file, argv)
LOADERS = {
    "examples": ("u.jsonl", EVAL_INPUTS, EVAL),
    "generations": ("g.jsonl", EVAL_INPUTS, EVAL),
    "embeddings": ("emb.jsonl", {**EVAL_INPUTS, "emb.jsonl": _embeddings},
                   EVAL + ["--metric", "embed", "--embeddings", "emb.jsonl"]),
    "clusters": ("c.jsonl", {
        **EVAL_INPUTS,
        "c.jsonl": lambda: [{"example_id": f"e{i}", "clusters": [[0], [1]]} for i in range(2)],
    }, EVAL + ["--topk", "2", "--clusters", "c.jsonl"]),
    "external_scores": ("x.jsonl", {
        **EVAL_INPUTS,
        "x.jsonl": lambda: [{"example_id": f"e{i}", "scores": [[0.5, 0.1], [0.2, 0.3]]}
                            for i in range(2)],
    }, EVAL + ["--topk", "2", "--metric", "external", "--external-scores", "x.jsonl"]),
    "annotations": ("ann.jsonl", {"ann.jsonl": _annotations},
                    ["stats", "agree", "--in", "ann.jsonl", "--report", "r.json"]),
    "ttest_scores": ("s.jsonl", {
        "s.jsonl": lambda: [{"name": name, "values": [1.0, 2.0 + i, 4.0 * i]}
                            for i, name in enumerate(("m1", "m2", "m3"))],
    }, ["stats", "ttest", "--scores", "s.jsonl", "--report", "r.json"]),
    "raw_records": ("raw.jsonl", {"raw.jsonl": _raw},
                    ["normalize", "--in", "raw.jsonl", "--source", "generic",
                     "--out", "out.jsonl", "--report", "r.json"]),
    "lm": ("lm.json", {"lm.json": _lm, "u.jsonl": _examples},
           ["decode", "--lm", "lm.json", "--examples", "u.jsonl", "--strategy", "beam",
            "--beams", "2", "--out", "out.jsonl", "--report", "r.json"]),
}


def _fields(fields: dict, prefix: str = "") -> dict:
    """{path: Field} for every field of a format, a row's field as
    "<list>[].<field>"."""
    paths = {}
    for name, field in fields.items():
        paths[prefix + name] = field
        if isinstance(field.item, dict):
            paths.update(_fields(field.item, f"{prefix}{name}[]."))
    return paths


def _shape(field) -> str:
    """The shape of the field's right values; "list" is a list that is not a
    list of strings."""
    if field.kind in ("string", "object"):
        return field.kind
    if field.kind == "integer":
        return "int"
    return "strings" if field.item == "string" else "list"


def _holders(records: list, path: str) -> list:
    """(line, object) for each record, or row of a record, holding the field."""
    rows, _, name = path.rpartition("[].")
    return [(line, holder) for line, record in enumerate(records, start=1)
            for holder in (record.get(rows, []) if rows else [record]) if name in holder]

# every shape a drawn value can take; each is wrong for a field of another shape
SHAPES = {
    "string": st.text(max_size=5),
    "int": st.integers(),
    "null": st.none(),
    "strings": st.lists(st.text(max_size=5), min_size=1, max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
# A deleted field is the "absent" case, except where the field has a default.
# Of the fields that may be absent (default None), deleting a raw record's
# source leaves a valid record (normalize --source), but deleting an embedding
# row's key or text leaves the row with neither.
CASES = [(loader, path, shape) for loader in LOADERS
         for path, field in _fields(FORMATS[loader]).items()
         for shape in [*SHAPES, "absent"] if shape != _shape(field) and (
             shape != "absent" or field.default is REQUIRED or (
                 field.default is None and (loader, path) != ("raw_records", "source")))]


def _run_in(directory: str, files: dict, argv: list[str]) -> tuple[int, str, list[str]]:
    """Write ``files`` into the directory, run argv there with every file
    argument made absolute, and return (exit code, stderr, new files)."""
    for name, records in files.items():
        write_jsonl(os.path.join(directory, name), records)
    before = set(os.listdir(directory))
    argv = [os.path.join(directory, a) if a.endswith((".jsonl", ".json")) else a
            for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    return code, err.getvalue(), sorted(set(os.listdir(directory)) - before)


def _where(directory: str, name: str, line: int | None) -> str:
    """The place an error names: the file, and the line of a JSONL record."""
    path = os.path.join(directory, name)
    return path if line is None or name.endswith(".json") else f"{path}:{line}"


def test_every_format_has_a_loader_case():
    assert sorted(LOADERS) == sorted(FORMATS)
    # each nested row format is reached
    assert {"dialogue[].speaker", "dialogue[].text"} <= set(_fields(FORMATS["examples"]))
    assert {"cond[].context", "cond[].probs"} <= set(_fields(FORMATS["lm"]))


def test_annotation_tasks_are_the_label_sets():
    assert FORMATS["annotations"]["task"].choices == tuple(LABEL_SETS)


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_valid_inputs_pass(loader):
    _, inputs, argv = LOADERS[loader]
    with tempfile.TemporaryDirectory() as directory:
        code, err, _ = _run_in(directory, {n: make() for n, make in inputs.items()}, argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("loader, path, shape", CASES, ids=["-".join(c) for c in CASES])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_wrong_shape_field_names_file_and_line(loader, path, shape, data):
    name, inputs, argv = LOADERS[loader]
    files = {n: make() for n, make in inputs.items()}
    line, holder = data.draw(st.sampled_from(_holders(files[name], path)), label="holder")
    field = path.rpartition("[].")[2]
    if shape == "absent":
        del holder[field]
    else:
        holder[field] = data.draw(SHAPES[shape], label="value")
    with tempfile.TemporaryDirectory() as directory:
        code, err, created = _run_in(directory, files, argv)
        prefix = f"error: {_where(directory, name, line)}: "
    assert code == 1, json.dumps(files[name][line - 1])
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert created == []
    if shape == "absent":  # a deleted embedding key falls back to the text
        named = "text" if (loader, path) == ("embeddings", "key") else field
        assert err.endswith(f"missing field {named!r}\n"), err


def test_non_string_output_names_file_and_line():
    files = {n: make() for n, make in EVAL_INPUTS.items()}
    files["g.jsonl"][1]["runs"] = [[OUTPUTS[0], 1]]
    with tempfile.TemporaryDirectory() as directory:
        code, err, created = _run_in(directory, files, EVAL)
        prefix = f"error: {os.path.join(directory, 'g.jsonl')}:2: "
    assert code == 1 and err.startswith(prefix) and err.count("\n") == 1, err
    assert created == []


def test_ragged_scores_name_file_and_line():
    files = {n: make() for n, make in LOADERS["external_scores"][1].items()}
    files["x.jsonl"][1]["scores"] = [[0.5], [0.2, 0.3]]
    with tempfile.TemporaryDirectory() as directory:
        code, err, created = _run_in(directory, files, LOADERS["external_scores"][2])
        where = os.path.join(directory, "x.jsonl")
    assert (code, err, created) == (
        1, f"error: {where}:2: scores must be a nonempty 2-D array of numbers\n", [])


# (loader, edit of the records of its file under test, line, message): a record
# of the right shape whose value is invalid; line None is an error about the file
INVALID_VALUES = {
    "record_not_object": ("examples", lambda r: r.__setitem__(1, ["e1"]), 2,
                          "record is not a JSON object"),
    "blank_example_id": ("examples", lambda r: r[1].update(example_id=" "), 2,
                         "example_id is blank"),
    "empty_speaker_tag": ("examples", lambda r: r[1]["dialogue"][0].update(speaker=" "), 2,
                          "example 'e1': empty speaker tag"),
    "empty_turn_text": ("examples", lambda r: r[1]["dialogue"][1].update(text=""), 2,
                        "example 'e1': empty turn text"),
    "empty_dialogue": ("examples", lambda r: r[1].update(dialogue=[]), 2,
                       "example 'e1': empty dialogue"),
    "unknown_source": ("raw_records", lambda r: r[1].update(source="forum"), 2,
                       "example 'r1': unknown source 'forum'"),
    "empty_utterance_text": ("raw_records", lambda r: r[1]["utterances"][0].update(text=" "),
                             2, "example 'r1': empty utterance text"),
    "utterance_without_text": ("raw_records", lambda r: r[1]["utterances"][0].pop("text"),
                               2, "missing field 'text'"),
    "named_and_unnamed_utterances": (
        "raw_records", lambda r: r[1]["utterances"][0].update(speaker=""), 2,
        "example 'r1': mix of named and unnamed utterances"),
    "no_inferences": ("raw_records", lambda r: r[1].update(inferences=[]), 2,
                      "example 'r1': no inferences"),
    "one_dimensional_vector": ("embeddings", lambda r: r[1].update(vector=[1.0]), 2,
                               "vector must have d >= 2"),
    "key_and_text": ("embeddings", lambda r: r[0].update(text=OUTPUTS[0]), 1,
                     "give key or text, not both"),
    # a key is only ever matched as the sha256 hex of a text, so no other key loads
    "key_not_hex": ("embeddings", lambda r: r[0].update(key="x"), 1,
                    "key must be 64 lowercase hex digits (a sha256), got 'x'"),
    "key_in_upper_case": ("embeddings", lambda r: r[0].update(key=text_key("A").upper()), 1,
                          "key must be 64 lowercase hex digits (a sha256), "
                          f"got {text_key('A').upper()!r}"),
    # JSON true and false are not numbers, though numpy would read 1.0 and 0.0
    "boolean_in_vector": ("embeddings", lambda r: r[1].update(vector=[True, 0.5]), 2,
                          "vector must be a nonempty 1-D array of numbers"),
    "boolean_in_scores": ("external_scores",
                          lambda r: r[1].update(scores=[[0.5, 0.1], [False, 0.3]]), 2,
                          "scores must be a nonempty 2-D array of numbers"),
    "boolean_in_values": ("ttest_scores", lambda r: r[1].update(values=[True, 0.5, 0.25]),
                          2, "values must be a nonempty 1-D array of numbers"),
    "no_annotation_rows": ("annotations", list.clear, None, "no annotation rows"),
}


@pytest.mark.parametrize("case", INVALID_VALUES)
def test_invalid_value_names_file_and_line(case):
    loader, edit, line, message = INVALID_VALUES[case]
    name, inputs, argv = LOADERS[loader]
    files = {n: make() for n, make in inputs.items()}
    edit(files[name])
    with tempfile.TemporaryDirectory() as directory:
        code, err, created = _run_in(directory, files, argv)
        where = _where(directory, name, line)
    assert (code, err, created) == (1, f"error: {where}: {message}\n", [])
