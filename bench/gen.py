"""Seeded input generator for the benchmark workloads.

Every file a workload feeds to polyeval is written here from the workload
seed alone, so the same seed always gives byte-identical inputs.  The
program only ever sees these files.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

# Unified inference types and raw source labels that normalize maps to them
# (no excluded labels such as isBefore, so no record is dropped).
TYPES = ("Cause", "Effect", "Motivation", "Reaction", "Desire", "Attribute",
         "Subsequent", "Prerequisite")
RAW_LABELS = ("xWant", "xReact", "oReact", "xIntent", "Causes", "xNeed",
              "HinderedBy", "xAttr", "Consequences", "Prerequisites", "Cause")
FUNCTION_WORDS = ("the", "speaker", "is", "to", "a", "and", "of", "wants",
                  "feels", "after", "because", "they")
NAMES = ("Jesse", "Bailey", "Morgan", "Riley", "Casey", "Quinn", "Avery", "Rowan")


def _vocab(size: int) -> list[str]:
    """Fixed pseudo-words; the same list for every seed."""
    rng = random.Random("polyeval-bench-vocab")
    onsets = "b c d f g h k l m n p r s t v z br cl dr fl gr pl st tr".split()
    vowels = "a e i o u ai ea io".split()
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(onsets) + rng.choice(vowels)
                          for _ in range(rng.randint(2, 3))))
    return sorted(words)


VOCAB = _vocab(3000)


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            handle.write("\n")


def _dialogue(rng: random.Random) -> list[dict]:
    count = rng.randint(2, 5)
    tags = ("Speaker (A)", "Listener (B)")  # the final turn is the Speaker's
    return [{"speaker": tags[(count - 1 - i) % 2],
             "text": " ".join(rng.choice(VOCAB) for _ in range(rng.randint(4, 9)))}
            for i in range(count)]


def _example(rng: random.Random, example_id: str, references: list[str]) -> dict:
    itype = rng.choice(TYPES)
    return {
        "example_id": example_id,
        "dialogue": _dialogue(rng),
        "type": itype,
        "question": f"What is the {itype.lower()}?",
        "answer_prefix": "...",
        "references": references,
    }


def _distinct(rng: random.Random, count: int, make) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < count:
        seen.setdefault(make(rng), None)
    return list(seen)


# --- eval_bleu ----------------------------------------------------------------


def eval_bleu(workdir: Path, seed: int, n: int) -> None:
    """Polymorphic generations, 10 outputs and 2-8 references per example.

    Each example has its own few topic words, so outputs and references share
    n-grams unevenly: some pairs score zero and tie, others score high.
    """
    rng = random.Random(f"eval_bleu:{seed}")
    examples, generations = [], []
    for i in range(n):
        topic = rng.sample(VOCAB, 10)

        def text(r: random.Random) -> str:
            tokens = []
            for _ in range(r.randint(4, 10)):
                u = r.random()
                if u < 0.2:
                    tokens.append(r.choice(FUNCTION_WORDS))
                elif u < 0.55:
                    tokens.append(r.choice(topic))
                else:
                    tokens.append(r.choice(VOCAB))
            return " ".join(tokens)

        eid = f"b{i:05d}"
        examples.append(_example(rng, eid, _distinct(rng, rng.randint(2, 8), text)))
        generations.append({"example_id": eid, "mode": "polymorphic",
                            "runs": [_distinct(rng, 10, text)]})
    _write_jsonl(workdir / "examples.jsonl", examples)
    _write_jsonl(workdir / "generations.jsonl", generations)


# --- eval_embed_cluster -------------------------------------------------------

_FRAMES = ("{0} {1} {2}", "they {0} the {1} {2}", "maybe {0} {1} with {2}",
           "{2} then {0} {1}")
IDEAS = 240
DIM = 48


def eval_embed_cluster(workdir: Path, seed: int, n: int) -> None:
    """20 outputs per example drawn from a small pool of paraphrased ideas.

    Each example holds 14 ideas, six of them twice.  Paraphrases of one idea
    have embedding cosine far above tau = 0.8 and different ideas far below
    it, so greedy clustering recovers the 14 ideas.
    """
    rng = random.Random(f"eval_embed_cluster:{seed}")
    nprng = np.random.default_rng([seed, 2])
    cores = set()
    while len(cores) < IDEAS:
        cores.add(tuple(rng.sample(VOCAB, 3)))
    paraphrases = [[frame.format(*core) for frame in _FRAMES] for core in sorted(cores)]
    rows = []
    for texts in paraphrases:
        base = nprng.standard_normal(DIM)
        base /= np.linalg.norm(base)
        for t in texts:
            vec = base + 0.12 * nprng.standard_normal(DIM) / np.sqrt(DIM)
            rows.append({"text": t, "vector": [round(float(x), 6) for x in vec]})
    rng.shuffle(rows)

    examples, generations = [], []
    for i in range(n):
        ideas = rng.sample(range(IDEAS), 14)
        outputs = [paraphrases[k][f] for k in ideas[:6] for f in range(2)]
        outputs += [paraphrases[k][0] for k in ideas[6:]]
        rng.shuffle(outputs)
        n_refs = rng.randint(3, 12)
        # about two thirds of the references restate an idea the outputs hold
        own = rng.sample(ideas, min(n_refs, rng.randint(n_refs // 2, n_refs)))
        other = rng.sample([k for k in range(IDEAS) if k not in ideas], n_refs - len(own))
        refs = [paraphrases[k][rng.randrange(len(_FRAMES))] for k in own + other]
        eid = f"e{i:05d}"
        examples.append(_example(rng, eid, refs))
        generations.append({"example_id": eid, "mode": "polymorphic", "runs": [outputs]})
    _write_jsonl(workdir / "examples.jsonl", examples)
    _write_jsonl(workdir / "generations.jsonl", generations)
    _write_jsonl(workdir / "embeddings.jsonl", rows)


# --- decode_pipeline ----------------------------------------------------------

LM_WORDS = 200


def _lm(rng: random.Random, markers: tuple[str, ...]) -> dict:
    """Order-2 toy LM over LM_WORDS words plus the list markers and end token.

    ``markers`` start the list ("(1)") and continue it ("; (2)", ...); with
    none the LM emits plain sentences.
    """
    words = rng.sample(VOCAB, LM_WORDS)
    end = "</s>"

    def dist(tokens: list[str]) -> dict[str, float]:
        weights = [rng.uniform(0.2, 1.0) for _ in tokens]
        total = sum(weights)
        return {tok: w / total for tok, w in zip(tokens, weights)}

    start = [markers[0]] if markers else words[:20]
    cond = [{"context": [], "probs": dist(start)}]
    cond += [{"context": [m], "probs": dist(rng.sample(words, 12))} for m in markers]
    cond += [{"context": [w], "probs": dist(rng.sample(words, 10) + list(markers[1:]) + [end])}
             for w in words]
    return {"order": 2, "end_token": end, "vocab": list(markers) + words + [end],
            "cond": cond}


def decode_pipeline(workdir: Path, seed: int, n: int) -> None:
    """Raw dialogue records plus a plain and a list-emitting toy LM."""
    rng = random.Random(f"decode_pipeline:{seed}")
    raw = []
    for i in range(n):
        a, b = rng.sample(NAMES, 2)
        style = rng.randrange(3)  # named, unnamed, or already-lettered speakers
        speakers = {0: (a, b), 1: ("", ""), 2: ("A", "B")}[style]
        utterances = [
            {"speaker": speakers[t % 2],
             "text": " ".join(rng.choice(VOCAB) for _ in range(rng.randint(3, 8)))}
            for t in range(rng.randint(2, 6))
        ]
        inferences = [
            " ".join([rng.choice((a, "they", "the speaker"))]
                     + [rng.choice(VOCAB) for _ in range(rng.randint(2, 6))])
            for _ in range(rng.randint(1, 5))
        ]
        raw.append({"example_id": f"d{i:05d}", "source": rng.choice(
            ("convosense", "comfact", "cicero", "reflect")),
            "utterances": utterances, "type_label": rng.choice(RAW_LABELS),
            "inferences": inferences})
    _write_jsonl(workdir / "raw.jsonl", raw)
    for name, markers in (("lm_mono.json", ()),
                          ("lm_poly.json", ("(1)", "; (2)", "; (3)", "; (4)"))):
        with open(workdir / name, "w", encoding="utf-8") as handle:
            json.dump(_lm(rng, markers), handle, sort_keys=True)


GENERATORS = {
    "eval_bleu": eval_bleu,
    "eval_embed_cluster": eval_embed_cluster,
    "decode_pipeline": decode_pipeline,
}

