"""Regenerate the bundled fixture corpus and the committed golden outputs.

Run from anywhere:  python tests/fixtures/gen_fixtures.py

Writes the handcrafted inputs (raw corpus, toy LM configs), derives the
embedding fixture from the diverse-beam generations, runs the full pipeline
in a scratch directory, and copies inputs plus outputs into
tests/fixtures/golden/.  The acceptance suite replays the same pipeline and
compares bytes, so regenerate only when output formats intentionally change.
"""
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

FIXTURES = Path(__file__).resolve().parent
sys.path.insert(0, str(FIXTURES.parent))  # for pipeline_steps

from pipeline_steps import PIPELINE, run_pipeline, write_jsonl  # noqa: E402

RAW_RECORDS = [
    {
        "example_id": "r01",
        "source": "reflect",
        "utterances": [
            {"speaker": "Jesse", "text": "I finally finished cleaning the kitchen."},
            {"speaker": "Bailey", "text": "Wow, it looks spotless."},
            {"speaker": "Jesse", "text": "I won the race against the mess."},
        ],
        "type_label": "Consequences",
        "inferences": [
            "Jesse feels proud of the clean kitchen",
            "they want rest after the effort",
            "Bailey asks Jesse for cleaning tips",
        ],
    },
    {
        "example_id": "r02",
        "source": "comfact",
        "utterances": [
            {"speaker": "", "text": "My shift ran long again."},
            {"speaker": "", "text": "You should ask for a day off."},
            {"speaker": "", "text": "Maybe I will."},
        ],
        "type_label": "xWant",
        "inferences": [
            "they want rest",
            "they want to ask for a day off",
        ],
    },
    {
        "example_id": "r03",
        "source": "cicero",
        "utterances": [
            {"speaker": "A", "text": "The bakery sold out before noon."},
            {"speaker": "B", "text": "No way, again?"},
        ],
        "type_label": "SubsequentEvents",
        "inferences": ["the bakery bakes a bigger batch tomorrow"],
    },
    {
        "example_id": "r04",
        "source": "generic",
        "utterances": [
            {"speaker": "A", "text": "hi"},
            {"speaker": "A", "text": "how are you"},
            {"speaker": "B", "text": "fine, just tired"},
        ],
        "type_label": "Desire",
        "inferences": [
            "they want rest tonight",
            "they feel tired after work",
            "they want help with chores",
            "the alpha option sounds good",
        ],
    },
    {
        "example_id": "r05",
        "source": "cicero",
        "utterances": [
            {"speaker": "A", "text": "I adopted a retired greyhound."},
            {"speaker": "B", "text": "That is wonderful."},
            {"speaker": "A", "text": "She sleeps most of the day."},
            {"speaker": "B", "text": "Sounds peaceful."},
            {"speaker": "A", "text": "It really is."},
        ],
        "type_label": "xAttr",
        "inferences": [
            "they feel proud of the dog",
            "the speaker is a patient person",
        ],
    },
    {
        "example_id": "r06",
        "source": "generic",
        "utterances": [
            {"speaker": "A", "text": "The beta review went badly."},
            {"speaker": "B", "text": "Ouch, sorry to hear."},
        ],
        "type_label": "xReact",
        "inferences": [
            "they feel tired",
            "they feel tired",
            "they feel proud anyway",
        ],
    },
    {
        "example_id": "r07",
        "source": "comfact",
        "utterances": [
            {"speaker": "", "text": "I baked you some bread."},
            {"speaker": "", "text": "That is so kind of you."},
        ],
        "type_label": "oReact",
        "inferences": ["the listener feels grateful"],
    },
    {
        "example_id": "r08",
        "source": "generic",
        "utterances": [
            {"speaker": "A", "text": "The garden flooded overnight."},
            {"speaker": "B", "text": "The drain must be blocked."},
        ],
        "type_label": "Cause",
        "inferences": [
            "heavy rain fell overnight",
            "the drain was blocked by leaves",
            "the soil was already saturated",
            "the gutter overflowed",
            "the alpha beta gamma report predicted rain",
        ],
    },
    {
        "example_id": "r09",
        "source": "comfact",
        "utterances": [
            {"speaker": "", "text": "I passed the driving test."},
            {"speaker": "", "text": "Congratulations!"},
        ],
        "type_label": "xNeed",
        "inferences": [
            "they want practice beforehand",
            "they feel happy about booking the exam",
        ],
    },
    {
        "example_id": "r10",
        "source": "cicero",
        "utterances": [
            {"speaker": "B", "text": "I keep rewriting my speech."},
            {"speaker": "A", "text": "You will do great."},
            {"speaker": "B", "text": "I just want it perfect."},
        ],
        "type_label": "Motivation",
        "inferences": [
            "they want help calming down",
            "they feel proud of the draft",
            "the beta speech needs one more pass",
        ],
    },
    {
        "example_id": "r11",
        "source": "generic",
        "utterances": [
            {"speaker": "A", "text": "We leave for the coast at dawn."},
            {"speaker": "B", "text": "Unless the storm hits."},
        ],
        "type_label": "HinderedBy",
        "inferences": [
            "the storm blocks the coastal road",
            "the car does not start",
        ],
    },
    {
        "example_id": "r12",
        "source": "reflect",
        "utterances": [
            {"speaker": "Morgan", "text": "I fixed the projector before the demo."},
            {"speaker": "Taylor", "text": "You saved the whole meeting."},
        ],
        "type_label": "Attribute",
        "inferences": [
            "Morgan is resourceful under pressure",
            "they feel proud of Morgan",
            "Taylor is grateful to Morgan",
            "the gamma demo went smoothly",
        ],
    },
    {
        "example_id": "r13",
        "source": "comfact",
        "utterances": [
            {"speaker": "", "text": "The train left early."},
            {"speaker": "", "text": "Typical."},
        ],
        "type_label": "isBefore",
        "inferences": ["this record is dropped by type exclusion"],
    },
]

TOY_MONO_LM = {
    "order": 2,
    "end_token": "</s>",
    "vocab": ["they", "feel", "want", "happy", "proud", "tired", "rest", "help", "</s>"],
    "cond": [
        {"context": [], "probs": {"they": 1.0}},
        {"context": ["they"], "probs": {"feel": 0.5, "want": 0.5}},
        {"context": ["feel"], "probs": {"happy": 0.4, "proud": 0.35, "tired": 0.25}},
        {"context": ["want"], "probs": {"rest": 0.5, "help": 0.3, "</s>": 0.2}},
        {"context": ["happy"], "probs": {"</s>": 1.0}},
        {"context": ["proud"], "probs": {"</s>": 1.0}},
        {"context": ["tired"], "probs": {"</s>": 1.0}},
        {"context": ["rest"], "probs": {"</s>": 1.0}},
        {"context": ["help"], "probs": {"</s>": 1.0}},
    ],
}

TOY_POLY_LM = {
    "order": 2,
    "end_token": "</s>",
    "vocab": ["(1)", "; (2)", "; (3)", "alpha", "beta", "gamma", "delta", "</s>"],
    "cond": [
        {"context": [], "probs": {"(1)": 1.0}},
        {
            "context": ["(1)"],
            "probs": {"alpha": 0.4, "beta": 0.3, "gamma": 0.2, "delta": 0.1},
        },
        {"context": ["alpha"], "probs": {"; (2)": 0.3, "; (3)": 0.1, "</s>": 0.6}},
        {"context": ["beta"], "probs": {"; (2)": 0.5, "</s>": 0.5}},
        {"context": ["gamma"], "probs": {"; (2)": 0.2, "</s>": 0.8}},
        {"context": ["delta"], "probs": {"</s>": 1.0}},
        {"context": ["; (2)"], "probs": {"alpha": 0.3, "beta": 0.3, "gamma": 0.4}},
        {"context": ["; (3)"], "probs": {"beta": 0.5, "delta": 0.5}},
    ],
}


def hash_vector(text: str, dim: int = 4) -> list[float]:
    """Deterministic pseudo-random unit-ish vector from the text digest."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    raw = np.frombuffer(digest[: dim * 4], dtype="<u4").astype(float)
    return (raw / np.iinfo("<u4").max * 2.0 - 1.0).tolist()


def fixture_embedding(text: str) -> list[float]:
    """Text embedding that clusters outputs by their second word.

    Outputs of the mono toy LM look like "they feel proud"; sharing the verb
    makes cosines ~0.97 (same cluster at tau 0.8), differing verbs ~0.2.
    """
    groups = {"feel": 0, "want": 1}
    words = text.split()
    group = groups.get(words[1] if len(words) > 1 else words[0], 2)
    base = np.zeros(4)
    base[group] = 1.0
    jitter = np.asarray(hash_vector(text))
    vec = base + 0.12 * jitter / np.linalg.norm(jitter)
    return [round(float(x), 6) for x in vec]


def build_embeddings(generations_path: Path, out_path: Path) -> None:
    from polyeval.dataio import read_jsonl, text_key

    texts = []
    seen = set()
    for _, record in read_jsonl(generations_path):
        for run in record["runs"]:
            for text in run:
                if text not in seen:
                    seen.add(text)
                    texts.append(text)
    write_jsonl(
        out_path,
        (
            {"key": text_key(text), "vector": fixture_embedding(text)}
            for text in texts
        ),
    )


def main() -> None:
    golden = FIXTURES / "golden"
    golden.mkdir(exist_ok=True)

    write_jsonl(FIXTURES / "raw_corpus.jsonl", RAW_RECORDS)
    for name, config in (("toy_mono.lm.json", TOY_MONO_LM), ("toy_poly.lm.json", TOY_POLY_LM)):
        (FIXTURES / name).write_text(json.dumps(config, indent=2) + "\n")

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name in ("raw_corpus.jsonl", "toy_mono.lm.json", "toy_poly.lm.json"):
            shutil.copy(FIXTURES / name, workdir / name)

        # the embedding fixture depends on the dbs outputs, so run the first
        # steps, derive it, then run the rest
        from polyeval.cli import run

        import os

        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            for name, argv in PIPELINE:
                if name == "eval_top1_max":
                    build_embeddings(workdir / "g_dbs.jsonl", workdir / "embeddings.jsonl")
                    shutil.copy(workdir / "embeddings.jsonl", FIXTURES / "embeddings.jsonl")
                code = run(argv)
                if code != 0:
                    raise SystemExit(f"step {name} failed with exit code {code}")
        finally:
            os.chdir(cwd)

        for path in sorted(workdir.iterdir()):
            shutil.copy(path, golden / path.name)
    print(f"golden files written to {golden}")


if __name__ == "__main__":
    main()
