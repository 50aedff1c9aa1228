import os
import stat

import numpy as np
import pytest

from polyeval.core import InferenceType, make_generation_set
from polyeval.dataio import (
    RawRecord,
    TYPE_SYNTHESIS,
    accumulate_runs,
    load_embeddings,
    map_type,
    normalize,
    text_key,
    validate_raw_record,
    write_files,
    write_jsonl,
)
from polyeval.errors import PolyevalError, ValidationError


def raw(utterances, inferences=("x",), label="Desire", example_id="r1",
        source="generic"):
    return RawRecord(
        example_id=example_id,
        source=source,
        utterances=tuple(utterances),
        type_label=label,
        inferences=tuple(inferences),
    )


# --- normalize -------------------------------------------------------------


def test_merges_consecutive_same_speaker_turns():
    ex = normalize(raw([("A", "hi"), ("A", "how are you"), ("B", "fine")]))
    assert [(t.speaker_tag, t.text) for t in ex.dialogue] == [
        ("Listener (A)", "hi how are you"),
        ("Speaker (B)", "fine"),
    ]


def test_tags_alternate_backwards_from_terminal_speaker():
    utterances = [("A", f"u{i}") if i % 2 == 0 else ("B", f"u{i}") for i in range(5)]
    ex = normalize(raw(utterances))
    roles = [t.speaker_tag.split(" ")[0] for t in ex.dialogue]
    assert roles == ["Speaker", "Listener", "Speaker", "Listener", "Speaker"]
    assert ex.dialogue[-1].speaker_tag == "Speaker (A)"


def test_speaker_name_replaced_in_inferences():
    ex = normalize(
        raw(
            [("Jesse", "I won the race"), ("Bailey", "congrats")],
            inferences=("Jesse feels proud", "Bailey claps for JESSE"),
        )
    )
    assert ex.references[0] == "the speaker feels proud"
    # whole-word, case-insensitive, applies to all participants
    assert ex.references[1] == "the speaker claps for the speaker"


def test_name_replacement_is_whole_word_only():
    ex = normalize(
        raw(
            [("Al", "hi"), ("Bo", "hey")],
            inferences=("Al is normally an altruist",),
        )
    )
    assert ex.references[0] == "the speaker is normally an altruist"


def test_unnamed_utterances_assume_alternation_and_seeded_letters():
    utterances = [("", "one"), ("", "two"), ("", "three")]
    first = normalize(raw(utterances, source="comfact"), seed=7)
    again = normalize(raw(utterances, source="comfact"), seed=7)
    assert first == again  # deterministic under a fixed seed
    roles = [t.speaker_tag.split(" ")[0] for t in first.dialogue]
    assert roles == ["Speaker", "Listener", "Speaker"]
    letters = {t.speaker_tag[-2] for t in first.dialogue}
    assert letters == {"A", "B"}


def test_seed_changes_letter_assignment_somewhere():
    utterances = [("Jesse", "one"), ("Bailey", "two")]
    tags = {
        normalize(raw(utterances), seed=s).dialogue[0].speaker_tag for s in range(12)
    }
    assert tags == {"Listener (A)", "Listener (B)"}


def test_normalize_is_idempotent_on_unified_records():
    ex = normalize(
        raw(
            [("A", "hi"), ("A", "you ok"), ("B", "yes"), ("A", "good")],
            inferences=("it is fine",),
        ),
        seed=3,
    )
    unified = raw([(t.speaker_tag, t.text) for t in ex.dialogue], ex.references,
                  label=ex.inference_type.value, example_id=ex.example_id)
    again = normalize(unified, seed=3)
    assert again == ex


def test_normalize_rejects_excluded_and_unknown_labels():
    assert normalize(raw([("A", "hi")], label="isBefore")) is None
    with pytest.raises(ValidationError, match="unknown source type label 'whatIsThis'"):
        normalize(raw([("A", "hi")], label="whatIsThis"))


def test_three_plus_participants_rejected():
    with pytest.raises(ValidationError):
        normalize(raw([("A", "x"), ("B", "y"), ("C", "z")]))


def test_validate_raw_record_defaults_source():
    rec = validate_raw_record(
        {
            "example_id": "r2",
            "utterances": [{"speaker": "A", "text": "hi"}],
            "type_label": "Desire",
            "inferences": ["x"],
        },
        default_source="cicero",
    )
    assert rec.source == "cicero"
    with pytest.raises(ValidationError):
        validate_raw_record({"example_id": "r", "utterances": []})


# --- type synthesis ---------------------------------------------------------


@pytest.mark.parametrize(
    "label,expected",
    [
        ("Causes", InferenceType.EFFECT),
        ("xEffect", InferenceType.EFFECT),
        ("oEffect", InferenceType.EFFECT),
        ("SubsequentEvents", InferenceType.EFFECT),
        ("Consequences", InferenceType.EFFECT),
        ("xReason", InferenceType.CAUSE),
        ("Cause", InferenceType.CAUSE),
        ("xNeed", InferenceType.PREREQUISITE),
        ("Prerequisites", InferenceType.PREREQUISITE),
        ("xIntent", InferenceType.MOTIVATION),
        ("xAttr", InferenceType.ATTRIBUTE),
        ("xReact", InferenceType.REACTION),
        ("oReact", InferenceType.REACTION_O),
        ("xWant", InferenceType.DESIRE),
        ("oWant", InferenceType.DESIRE_O),
        ("HasSubEvent", InferenceType.CONSTITUENTS),
        ("HinderedBy", InferenceType.OBSTACLE),
    ],
)
def test_map_type_synthesis(label, expected):
    assert map_type(label) is expected


def test_map_type_exclusions_and_identity():
    assert map_type("isBefore") is None
    assert map_type("isAfter") is None
    for itype in InferenceType:
        assert map_type(itype.value) is itype
    with pytest.raises(ValidationError, match="unknown source type label 'nope'"):
        map_type("nope")


def test_synthesis_map_is_deterministic_total():
    for label in TYPE_SYNTHESIS:
        assert map_type(label) is map_type(label)


# --- run accumulation --------------------------------------------------------


def gen(mode, runs):
    gs, _ = make_generation_set("g1", mode, runs)
    return gs


def test_lown_returns_first_run():
    gs = gen("polymorphic", [["a", "b", "c"]])
    assert accumulate_runs(gs, "lowN") == ["a", "b", "c"]


def test_highn_concatenates_and_dedups():
    gs = gen("polymorphic", [["a", "b"], ["b", "c"], ["d"]])
    assert accumulate_runs(gs, "highN") == ["a", "b", "c", "d"]


def test_highn_requires_three_polymorphic_runs():
    gs = gen("polymorphic", [["a"], ["b"]])
    with pytest.raises(ValidationError, match="highN needs 3 polymorphic runs, got 2"):
        accumulate_runs(gs, "highN")


def test_monomorphic_truncates_to_paired_size():
    beams = gen("monomorphic_beam", [[f"b{i}" for i in range(10)]])
    poly = gen("polymorphic", [["p1", "p2", "p3"], ["p3", "p4"], ["p5", "p1", "p6"]])
    # paired highN size: p1..p6 -> 6
    assert accumulate_runs(beams, "highN", paired_polymorphic=poly) == [
        f"b{i}" for i in range(6)
    ]
    assert accumulate_runs(beams, "lowN", paired_polymorphic=poly) == ["b0", "b1", "b2"]
    assert len(accumulate_runs(beams, "highN")) == 10


def test_highn_output_has_no_duplicates_property():
    rng = np.random.default_rng(11)
    alphabet = ["r", "s", "t", "u", "v"]
    for _ in range(50):
        runs = [
            [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(1, 5))]
            for _ in range(3)
        ]
        runs = [list(dict.fromkeys(run)) for run in runs]  # in-run dedup
        gs = gen("polymorphic", runs)
        flat = accumulate_runs(gs, "highN")
        assert len(flat) == len(set(flat))
        assert len(flat) <= sum(len(r) for r in gs.runs)


# --- embeddings --------------------------------------------------------------


def test_embedding_store_roundtrip(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_jsonl(
        path,
        [
            {"key": text_key("hello"), "vector": [1.0, 0.0]},
            {"text": "world", "vector": [0.0, 1.0]},
        ],
    )
    store = load_embeddings(path)
    assert store.dim == 2
    assert np.allclose(store.lookup_with_norm("hello")[0], [1.0, 0.0])
    assert np.allclose(store.lookup_with_norm("  world \n")[0], [0.0, 1.0])
    with pytest.raises(PolyevalError, match="no embedding for text 'absent'"):
        store.lookup_with_norm("absent", example_id="e9")


def test_embedding_store_hashes_each_found_text_once(monkeypatch):
    import polyeval.dataio as dataio
    from polyeval.diversity import cluster_greedy
    from polyeval.textmetrics import make_metric, score_matrix

    keyed = []

    def counting_text_key(text):
        keyed.append(text)
        return text_key(text)

    texts = ["a", "b", "c", "d"]
    store = dataio.EmbeddingStore(
        {text_key(t): np.asarray(v, dtype=float)
         for t, v in zip(texts, ([1, 0], [0, 1], [1, 1], [0, 0]))})
    monkeypatch.setattr(dataio, "text_key", counting_text_key)
    metric = make_metric("embed", store)
    for _ in range(3):
        score_matrix(["a", "b", "a"], ["c", "b"], metric)
        cluster_greedy(["a", "b", "c", "d", "a"], store)
        assert store.lookup_with_norm("c")[0] is store.lookup_with_norm("c")[0]
        assert store.lookup_with_norm("c")[1] == np.linalg.norm([1.0, 1.0])
    assert sorted(keyed) == texts
    # a missing text is hashed and fails on every lookup
    for attempt in range(1, 4):
        with pytest.raises(PolyevalError, match="no embedding for text 'absent'.*example 'e9'"):
            store.lookup_with_norm("absent", example_id="e9")
        assert keyed.count("absent") == attempt
    with pytest.raises(PolyevalError, match="no embedding for text 'absent'"):
        store.lookup_with_norm("absent")


def test_embedding_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_jsonl(
        path,
        [
            {"text": "a", "vector": [1.0, 0.0, 0.0, 0.0]},
            {"text": "b", "vector": [1.0] * 8},
        ],
    )
    with pytest.raises(ValidationError, match="vector dimension 8 != 4"):
        load_embeddings(path)


def test_embedding_rejects_nonfinite(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"text": "a", "vector": [1.0, NaN]}\n')
    with pytest.raises(Exception):
        load_embeddings(path)


# --- output files --------------------------------------------------------------


def test_write_jsonl_keeps_old_file_when_a_record_fails(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, [{"a": 1}])
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_jsonl(path, [{"a": 2}, {"b": object()}])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_write_jsonl_follows_symlinks_and_writes_pipes_in_place(tmp_path):
    target = tmp_path / "target.jsonl"
    target.write_text("old\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    write_jsonl(link, [{"a": 1}])
    assert link.is_symlink()
    assert target.read_text() == '{"a":1}\n'

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_jsonl(fifo, [{"a": 1}])
        assert os.read(reader, 100) == b'{"a":1}\n'
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_write_files_is_all_or_nothing(tmp_path):
    first = tmp_path / "first.jsonl"
    first.write_text("old\n")
    with pytest.raises(FileNotFoundError):
        write_files([(first, "new\n"), (tmp_path / "missing" / "second.json", "{}\n")])
    assert first.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["first.jsonl"]
    write_files([(first, "new\n"), (tmp_path / "second.json", "{}\n")])
    assert first.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.jsonl", "second.json"]


@pytest.mark.parametrize("target", ["adir", ""], ids=["directory", "empty"])
def test_write_files_fails_on_a_directory_or_empty_path_before_staging(
        tmp_path, monkeypatch, target):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    first = tmp_path / "first.jsonl"
    first.write_text("old\n")
    with pytest.raises(OSError) as raised:
        write_files([(first, "new\n"), (target, "{}\n"), (tmp_path / "last.json", "{}\n")])
    assert raised.value.filename == target
    assert str(raised.value).endswith(f": {target!r}")
    assert first.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "first.jsonl"]
    assert list((tmp_path / "adir").iterdir()) == []


@pytest.mark.parametrize("second", ["first.jsonl", "./first.jsonl", "link.jsonl"])
def test_write_files_rejects_two_paths_to_one_file_before_staging(
        tmp_path, monkeypatch, second):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "first.jsonl").write_text("old\n")
    (tmp_path / "link.jsonl").symlink_to("first.jsonl")
    with pytest.raises(OSError) as raised:
        write_files([("first.jsonl", "new\n"), (second, "{}\n")])
    assert str(raised.value) == f"two outputs name one file: 'first.jsonl' and {second!r}"
    assert (tmp_path / "first.jsonl").read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.jsonl", "link.jsonl"]


def test_write_files_writes_a_device_twice_in_place():
    write_files([("/dev/null", "a\n"), ("/dev/null", "b\n")])
