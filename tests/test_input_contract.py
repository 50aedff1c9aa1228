"""The input contract of every JSONL loader, run in-process through cli.run.

In an otherwise valid input file, one field of one record is replaced by a
value of the wrong shape (a string, an int, null, a list of strings or a
nested object, whichever the field is not), or deleted where the field has
no default.  The command must exit 1 with exactly one line,
``error: <file>:<line>: ...`` naming that record's line, show no traceback
and create no output file.
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
from polyeval.dataio import text_key, write_jsonl

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


EVAL = ["eval", "--examples", "u.jsonl", "--generations", "g.jsonl", "--report", "r.json"]
EVAL_INPUTS = {"u.jsonl": _examples, "g.jsonl": _generations}

# loader: (file under test, every input file, argv, {field: shape of its value});
# "list" marks a list that is not a list of strings
LOADERS = {
    "examples": ("u.jsonl", EVAL_INPUTS, EVAL,
                 {"example_id": "string", "type": "string", "dialogue": "list",
                  "references": "strings"}),
    "generations": ("g.jsonl", EVAL_INPUTS, EVAL,
                    {"example_id": "string", "mode": "string", "runs": "list"}),
    "embeddings": ("emb.jsonl", {**EVAL_INPUTS, "emb.jsonl": _embeddings},
                   EVAL + ["--metric", "embed", "--embeddings", "emb.jsonl"],
                   {"key": "string", "text": "string", "vector": "list"}),
    "clusters": ("c.jsonl", {
        **EVAL_INPUTS,
        "c.jsonl": lambda: [{"example_id": f"e{i}", "clusters": [[0], [1]]} for i in range(2)],
    }, EVAL + ["--topk", "2", "--clusters", "c.jsonl"],
        {"example_id": "string", "clusters": "list"}),
    "external_scores": ("x.jsonl", {
        **EVAL_INPUTS,
        "x.jsonl": lambda: [{"example_id": f"e{i}", "scores": [[0.5, 0.1], [0.2, 0.3]]}
                            for i in range(2)],
    }, EVAL + ["--topk", "2", "--metric", "external", "--external-scores", "x.jsonl"],
        {"example_id": "string", "scores": "list"}),
    "annotations": ("ann.jsonl", {"ann.jsonl": _annotations},
                    ["stats", "agree", "--in", "ann.jsonl", "--report", "r.json"],
                    {field: "string" for field in
                     ("task", "system", "item_id", "annotator", "label")}),
    "ttest_scores": ("s.jsonl", {
        "s.jsonl": lambda: [{"name": name, "values": [1.0, 2.0 + i, 4.0 * i]}
                            for i, name in enumerate(("m1", "m2", "m3"))],
    }, ["stats", "ttest", "--scores", "s.jsonl", "--report", "r.json"],
        {"name": "string", "values": "list"}),
    "raw_records": ("raw.jsonl", {"raw.jsonl": _raw},
                    ["normalize", "--in", "raw.jsonl", "--source", "generic",
                     "--out", "out.jsonl", "--report", "r.json"],
                    {"example_id": "string", "source": "string", "utterances": "list",
                     "type_label": "string", "inferences": "strings"}),
}

# every shape a drawn value can take; each is wrong for a field of another shape
SHAPES = {
    "string": st.text(max_size=5),
    "int": st.integers(),
    "null": st.none(),
    "strings": st.lists(st.text(max_size=5), min_size=1, max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
# a deleted field is the "absent" case; these fields have a default instead
OPTIONAL = {("raw_records", "source")}  # normalize --source
CASES = [(loader, field, shape) for loader, (_, _, _, fields) in LOADERS.items()
         for field, right in fields.items() for shape in [*SHAPES, "absent"]
         if shape != right and (shape != "absent" or (loader, field) not in OPTIONAL)]


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


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_valid_inputs_pass(loader):
    _, inputs, argv, _ = LOADERS[loader]
    with tempfile.TemporaryDirectory() as directory:
        code, err, _ = _run_in(directory, {n: make() for n, make in inputs.items()}, argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("loader, field, shape", CASES, ids=["-".join(c) for c in CASES])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_wrong_shape_field_names_file_and_line(loader, field, shape, data):
    name, inputs, argv, _ = LOADERS[loader]
    files = {n: make() for n, make in inputs.items()}
    records = files[name]
    index = data.draw(st.sampled_from([i for i, r in enumerate(records) if field in r]),
                      label="record")
    if shape == "absent":
        del records[index][field]
    else:
        records[index][field] = data.draw(SHAPES[shape], label="value")
    with tempfile.TemporaryDirectory() as directory:
        code, err, created = _run_in(directory, files, argv)
        prefix = f"error: {os.path.join(directory, name)}:{index + 1}: "
    assert code == 1, json.dumps(records[index])
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert created == []
    if shape == "absent":  # a deleted embedding key falls back to the text
        named = "text" if (loader, field) == ("embeddings", "key") else field
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
    "named_and_unnamed_utterances": (
        "raw_records", lambda r: r[1]["utterances"][0].update(speaker=""), 2,
        "example 'r1': mix of named and unnamed utterances"),
    "no_inferences": ("raw_records", lambda r: r[1].update(inferences=[]), 2,
                      "example 'r1': no inferences"),
    "one_dimensional_vector": ("embeddings", lambda r: r[1].update(vector=[1.0]), 2,
                               "vector must have d >= 2"),
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
    name, inputs, argv, _ = LOADERS[loader]
    files = {n: make() for n, make in inputs.items()}
    edit(files[name])
    with tempfile.TemporaryDirectory() as directory:
        code, err, created = _run_in(directory, files, argv)
        where = os.path.join(directory, name) + ("" if line is None else f":{line}")
    assert (code, err, created) == (1, f"error: {where}: {message}\n", [])
